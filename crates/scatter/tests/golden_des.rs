//! Golden DES fingerprints: a handful of seeded runs whose reports are
//! pinned bit for bit. A storage or scheduling change that is meant to
//! be behaviour-neutral must leave every one of them unchanged; a change
//! that alters behaviour on purpose re-records them and says why.
//!
//! The cells cover the paper's testbed — {scAtteR, scAtteR++} × {C1,
//! C12} × {no netem, LTE} — plus one sited scale world with more than 64
//! topology nodes and a crash schedule.

use scatter::config::{placements, RunConfig, ScaleConfig};
use scatter::{run_experiment, Mode, RunReport, ServiceKind};
use simcore::SimDuration;
use simnet::NetemProfile;

/// FNV-1a over a stream of `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }
}

/// `(events_executed, digest)`. The digest folds per-client FPS bits,
/// bytes on wire, lost datagrams, the e2e sample count and p95 bits, and
/// every service instance's processed and per-reason drop counters.
fn fingerprint(r: &RunReport) -> (u64, u64) {
    let (e2e_count, e2e_p95) = match &r.scale {
        Some(s) => (s.e2e_hist.count(), s.e2e_hist.quantile(0.95)),
        None => (r.e2e_ms.len() as u64, r.e2e_ms.clone().p95()),
    };
    let mut h = Fnv::new()
        .word(r.per_client_fps.len() as u64)
        .word(r.fps().to_bits());
    for f in &r.per_client_fps {
        h = h.word(f.to_bits());
    }
    h = h
        .word(r.bytes_on_wire)
        .word(r.datagrams_lost)
        .word(e2e_count)
        .word(e2e_p95.to_bits());
    for s in &r.services {
        h = h
            .word(s.processed)
            .word(s.drops.busy)
            .word(s.drops.stale)
            .word(s.drops.fetch_timeout)
            .word(s.drops.down);
    }
    (r.events_executed, h.0)
}

/// `(mode, placement, LTE netem, (events_executed, digest))`: three
/// clients, 4 s with 1 s warmup, seed 42.
const TESTBED_GOLDEN: [(Mode, &str, bool, (u64, u64)); 8] = [
    (Mode::Scatter, "C1", false, (2712, 0x5b3b025227758dc7)),
    (Mode::Scatter, "C1", true, (2729, 0xd1c5b3bed3c36e8a)),
    (Mode::Scatter, "C12", false, (3021, 0x773a8d55dfaac91f)),
    (Mode::Scatter, "C12", true, (2766, 0xac132becf2ba3e83)),
    (Mode::ScatterPP, "C1", false, (3294, 0x8ff1fe632124bd9c)),
    (Mode::ScatterPP, "C1", true, (3211, 0x772aed578ea168dc)),
    (Mode::ScatterPP, "C12", false, (4090, 0xc4d153482405362d)),
    (Mode::ScatterPP, "C12", true, (3985, 0x7e5ad5f3ada2a37a)),
];

#[test]
fn testbed_cells_match_golden_fingerprints() {
    let mut diverged = Vec::new();
    for (mode, placement, lte, golden) in TESTBED_GOLDEN {
        let spec = match placement {
            "C1" => placements::c1(),
            _ => placements::c12(),
        };
        let mut cfg = RunConfig::new(mode, spec, 3)
            .with_duration(SimDuration::from_secs(4))
            .with_warmup(SimDuration::from_secs(1))
            .with_seed(42);
        if lte {
            cfg = cfg.with_netem(NetemProfile::lte());
        }
        let got = fingerprint(&run_experiment(cfg));
        if got != golden {
            diverged.push(format!(
                "{mode:?} {placement} lte={lte}: got {got:?}, golden {golden:?}"
            ));
        }
    }
    assert!(
        diverged.is_empty(),
        "fingerprints diverged:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn sited_crash_world_matches_golden_fingerprint() {
    // 70 access sites + E1, E2 and the cloud: 73 topology nodes.
    let cfg = RunConfig::new(Mode::ScatterPP, placements::c12(), 140)
        .with_duration(SimDuration::from_millis(2500))
        .with_warmup(SimDuration::from_millis(500))
        .with_seed(42)
        .with_scale(ScaleConfig::new(70))
        .with_failure(SimDuration::from_millis(1200), ServiceKind::Sift, 0)
        .with_failure(SimDuration::from_millis(1700), ServiceKind::Encoding, 0);
    assert_eq!(
        fingerprint(&run_experiment(cfg)),
        (22536, 0x1e326574a8c7fae3)
    );
}
