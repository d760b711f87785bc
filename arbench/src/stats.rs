//! The benchmark's own arithmetic: order statistics, the goodput window,
//! span self time, and the runtime's frame-loss accounting. Pure
//! functions over plain numbers, so each is tested on hand-made inputs.

/// A latency percentile taken over *emitted* frames, with lost frames
/// ranked after every completed one (infinitely late).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Percentile {
    /// The percentile landed on a completed frame: its latency.
    Bounded(f64),
    /// The percentile landed on a lost frame: no finite latency exists.
    Unbounded,
}

/// Nearest-rank `q`-percentile over `emitted` frames, of which
/// `completed_sorted` (ascending) are the latencies of those that
/// completed; the remaining `emitted - completed` rank last.
pub fn percentile_over_emitted(completed_sorted: &[f64], emitted: u64, q: f64) -> Percentile {
    assert!(
        completed_sorted.len() as u64 <= emitted,
        "more completions than emissions"
    );
    if emitted == 0 {
        return Percentile::Unbounded;
    }
    let rank = ((q.clamp(0.0, 1.0) * emitted as f64).ceil() as u64).max(1);
    match completed_sorted.get(rank as usize - 1) {
        Some(&v) => Percentile::Bounded(v),
        None => Percentile::Unbounded,
    }
}

/// The value a percentile is reported as. An unbounded percentile is
/// right-censored: each lost frame was still missing `censor_ms` after it
/// was due, so its latency is at least that. The bound is raised to the
/// slowest completion so a lost frame never reads faster than a
/// delivered one.
pub fn reported_ms(p: Percentile, censor_ms: f64, slowest_completed_ms: f64) -> f64 {
    match p {
        Percentile::Bounded(v) => v,
        Percentile::Unbounded => censor_ms.max(slowest_completed_ms),
    }
}

/// Nearest-rank percentile of an unordered sample (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// Median: the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The emit window of an open-loop run. A client loop returns `drain`
/// after its last emission, and `n` paced frames span `n` periods, so the
/// window is the run's wall time minus the drain plus the last frame's
/// period.
pub fn emit_window_s(run_wall_s: f64, drain_s: f64, fps: f64) -> f64 {
    let window = run_wall_s - drain_s + 1.0 / fps;
    assert!(window > 0.0, "run shorter than its drain");
    window
}

/// Frames completed per second of emit window, pooled over runs.
pub fn goodput_fps(completed: u64, run_walls_s: &[f64], drain_s: f64, fps: f64) -> f64 {
    let window: f64 = run_walls_s
        .iter()
        .map(|&w| emit_window_s(w, drain_s, fps))
        .sum();
    completed as f64 / window
}

/// How late the generator's last emission ran: the loop's end minus the
/// drain minus the scheduled instant of its last frame, `(frames - 1)`
/// periods after the start.
pub fn gen_lag_s(run_wall_s: f64, drain_s: f64, frames_per_client: u32, fps: f64) -> f64 {
    run_wall_s - drain_s - frames_per_client.saturating_sub(1) as f64 / fps
}

/// Share of all CPU time between two `(steal, total)` jiffy readings of
/// `/proc/stat` that the hypervisor gave to other guests.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let steal = after.0.saturating_sub(before.0);
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        steal as f64 / total as f64
    }
}

/// One timed interval of the traced replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    pub frame: u32,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children are clipped to the parent and their overlaps
/// merged, so a child is never subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Frame fates a runtime run reports, summed over deployments.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FrameLedger {
    pub emitted: u64,
    pub completed: u64,
    pub stale: u64,
    pub fragment: u64,
    pub malformed: u64,
    pub busy: u64,
    pub net: u64,
    pub crash: u64,
    /// Per service, in pipeline order: `(received, processed)`.
    pub services: [(u64, u64); 5],
}

impl FrameLedger {
    /// Frames lost on each hop, uplink first and the return hop last:
    /// what the sender passed on minus what the receiver took in.
    pub fn hop_gaps(&self) -> [i64; 6] {
        let s = &self.services;
        let mut gaps = [0i64; 6];
        gaps[0] = self.emitted as i64 - s[0].0 as i64;
        for i in 0..4 {
            gaps[i + 1] = s[i].1 as i64 - s[i + 1].0 as i64;
        }
        gaps[5] = s[4].1 as i64 - self.completed as i64;
        gaps
    }

    /// Losses inside services: received but never processed.
    pub fn in_service_losses(&self) -> i64 {
        self.services
            .iter()
            .map(|&(r, p)| r as i64 - p as i64)
            .sum()
    }

    /// Losses some counter names.
    pub fn attributed(&self) -> u64 {
        self.stale + self.fragment + self.malformed + self.busy + self.net + self.crash
    }

    /// Losses no counter names: every hop's gap plus the in-service
    /// losses, minus the attributed ones.
    pub fn unattributed(&self) -> i64 {
        self.hop_gaps().iter().sum::<i64>() + self.in_service_losses() - self.attributed() as i64
    }

    /// `emitted = completed + stale + fragment + malformed + busy + net +
    /// crash + unattributed` holds by construction of the remainder, so
    /// what can fail is its terms' signs: no hop passes on more frames
    /// than it was given, no service processes more than it received,
    /// and the remainder is not negative (which would mean some loss was
    /// counted twice).
    pub fn conserves(&self) -> bool {
        self.hop_gaps().iter().all(|&g| g >= 0)
            && self.services.iter().all(|&(r, p)| r >= p)
            && self.unattributed() >= 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ranks_lost_frames_last() {
        let done = [10.0, 20.0, 30.0, 40.0];
        // 4 of 5 completed: p50 is rank 3 of 5, a completed frame.
        assert_eq!(
            percentile_over_emitted(&done, 5, 0.5),
            Percentile::Bounded(30.0)
        );
        // p80 is rank 4, the slowest completion.
        assert_eq!(
            percentile_over_emitted(&done, 5, 0.8),
            Percentile::Bounded(40.0)
        );
        // p95 is rank 5: the lost frame.
        assert_eq!(
            percentile_over_emitted(&done, 5, 0.95),
            Percentile::Unbounded
        );
        // Everything delivered: the plain nearest rank.
        assert_eq!(
            percentile_over_emitted(&done, 4, 0.95),
            Percentile::Bounded(40.0)
        );
        // Overload: fewer than half delivered leaves even p50 unbounded.
        assert_eq!(
            percentile_over_emitted(&done, 10, 0.5),
            Percentile::Unbounded
        );
        assert_eq!(percentile_over_emitted(&[], 0, 0.5), Percentile::Unbounded);
    }

    #[test]
    fn unbounded_percentile_reports_its_censoring_bound() {
        assert_eq!(reported_ms(Percentile::Bounded(12.5), 500.0, 90.0), 12.5);
        assert_eq!(reported_ms(Percentile::Unbounded, 500.0, 90.0), 500.0);
        // Never faster than a frame that did arrive.
        assert_eq!(reported_ms(Percentile::Unbounded, 500.0, 700.0), 700.0);
    }

    #[test]
    fn plain_percentiles_and_median() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn goodput_counts_the_emit_window_only() {
        // 300 frames at 30 FPS, all served: the last was due at 299/30 s
        // and the loop returned 0.5 s later.
        let wall = 299.0 / 30.0 + 0.5;
        assert!((emit_window_s(wall, 0.5, 30.0) - 10.0).abs() < 1e-9);
        assert!((goodput_fps(300, &[wall], 0.5, 30.0) - 30.0).abs() < 1e-9);
        // A generator running 2 s late stretches the window.
        assert!((goodput_fps(300, &[wall + 2.0], 0.5, 30.0) - 25.0).abs() < 1e-9);
        // Pooled over runs: frames over the summed windows.
        assert!((goodput_fps(450, &[wall, wall], 0.5, 30.0) - 22.5).abs() < 1e-9);
        // 150 frames per client at 30 FPS: the last is due at 149/30 s.
        let lag = gen_lag_s(5.5 + 0.002, 0.5, 150, 30.0);
        assert!((lag - (0.002 + 1.0 / 30.0)).abs() < 1e-12, "{lag}");
    }

    #[test]
    fn steal_share_of_all_cpu_time() {
        assert_eq!(steal_share((10, 1000), (30, 1200)), 0.1);
        assert_eq!(steal_share((10, 1000), (10, 1000)), 0.0);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("frame", 0, 100, None),
            span("sift", 10, 60, Some(0)),
            span("sift.detect", 10, 40, Some(1)),
            span("sift.describe", 40, 55, Some(1)),
            // Overlapping children of one parent are merged, and a child
            // running past its parent is clipped.
            span("lsh", 55, 70, Some(0)),
            span("lsh.query", 60, 80, Some(4)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 60, 50 - 45, 30, 15, 15 - 10, 20]
        );
    }

    fn ledger() -> FrameLedger {
        // 100 frames: 10 lost on the uplink, 2 stale at primary, 20 lost
        // between primary and sift (5 of them as counted fragment
        // drops), 3 stale at encoding, 1 lost on the return hop.
        FrameLedger {
            emitted: 100,
            completed: 64,
            stale: 5,
            fragment: 5,
            net: 10,
            services: [(90, 88), (68, 68), (68, 65), (65, 65), (65, 65)],
            ..Default::default()
        }
    }

    #[test]
    fn unattributed_is_the_uncounted_remainder() {
        let l = ledger();
        assert_eq!(l.hop_gaps(), [10, 20, 0, 0, 0, 1]);
        assert_eq!(l.in_service_losses(), 5);
        assert_eq!(l.attributed(), 20);
        // 36 lost, 20 named: 15 between primary and sift, 1 on return.
        assert_eq!(l.unattributed(), 16);
        assert!(l.conserves());
    }

    #[test]
    fn conservation_rejects_double_counting() {
        let mut l = ledger();
        l.fragment = 30; // more named losses than frames went missing
        assert_eq!(l.unattributed(), -9);
        assert!(!l.conserves());
        let mut l = ledger();
        l.services[1].0 = 90; // sift took in more than primary passed on
        assert!(!l.conserves());
        let mut l = ledger();
        l.services[3].1 = 66; // lsh processed a frame it never received
        assert!(!l.conserves());
    }
}
