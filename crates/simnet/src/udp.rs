//! UDP datagram transport over a [`Topology`].
//!
//! [`UdpNet`] is the single place the pipeline layer asks "what happens
//! to this datagram?". It owns its RNG stream (split from the experiment
//! seed) and per-pair traffic counters, so experiments can report bytes
//! on the wire per link — how we verified scAtteR++'s 180 KB → 480 KB
//! frame growth shows up as ~2.7× client-uplink traffic.

use simcore::{SimDuration, SimRng, SimTime};

use crate::gilbert::GilbertElliott;
use crate::link::{Delivery, Link};
use crate::topology::{NodeId, Topology};

/// Traffic counters for one direction of one node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    pub datagrams_sent: u64,
    pub datagrams_lost: u64,
    pub bytes_sent: u64,
}

/// Transport state for one direction of one node pair: counters, the
/// transmitter's free time, and an optional burst-loss channel.
#[derive(Debug, Default)]
struct DirState {
    stats: PairStats,
    tx_free_at: SimTime,
    burst: Option<GilbertElliott>,
}

/// Datagram transport facade: topology + RNG + counters + per-direction
/// serialization queues for bandwidth-limited links.
///
/// Directed state is kept per *connected edge* (`2 * edge_id +
/// direction`) plus one loopback slot per node — O(edges) rather than
/// O(n²), which is what lets a 100k-client world with thousands of
/// access-site nodes keep the transport's memory flat. The topology is
/// fixed once the transport is built.
#[derive(Debug)]
pub struct UdpNet {
    topo: Topology,
    rng: SimRng,
    edges: Vec<DirState>,
    loops: Vec<DirState>,
    /// `true` only when at least one burst channel is installed, so the
    /// common no-burst run skips the per-send check entirely.
    has_burst: bool,
}

/// Index of the `(src, dst)` direction of edge `edge` in `UdpNet::edges`.
fn edge_slot(edge: u32, src: NodeId, dst: NodeId) -> usize {
    2 * edge as usize + usize::from(src > dst)
}

/// Resolve the `(src, dst)` direction to its link and state with one
/// adjacency lookup. Panics if the pair is unroutable — a placement
/// bug, not a runtime condition.
#[inline]
fn route<'a>(
    topo: &'a Topology,
    edges: &'a mut [DirState],
    loops: &'a mut [DirState],
    src: NodeId,
    dst: NodeId,
) -> (&'a Link, &'a mut DirState) {
    if src == dst {
        return (topo.loopback(), &mut loops[src.0 as usize]);
    }
    let (edge, link) = topo
        .edge_entry(src, dst)
        .unwrap_or_else(|| panic!("no route {:?} -> {:?}", src, dst));
    (link, &mut edges[edge_slot(edge, src, dst)])
}

impl UdpNet {
    pub fn new(topo: Topology, rng: SimRng) -> Self {
        let mut edges = Vec::new();
        edges.resize_with(2 * topo.edge_count(), DirState::default);
        let mut loops = Vec::new();
        loops.resize_with(topo.node_count(), DirState::default);
        UdpNet {
            topo,
            rng,
            edges,
            loops,
            has_burst: false,
        }
    }

    /// Install a burst-loss channel on the `(src, dst)` direction (and
    /// an independent one on the reverse if called twice). Fragment
    /// losses on this direction then come from the Markov channel
    /// instead of the link's i.i.d. loss probability.
    pub fn set_burst_channel(&mut self, src: NodeId, dst: NodeId, ch: GilbertElliott) {
        let (_, dir) = route(&self.topo, &mut self.edges, &mut self.loops, src, dst);
        dir.burst = Some(ch);
        self.has_burst = true;
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Offer a datagram of `bytes` from `src` to `dst` at instant `now`.
    ///
    /// Bandwidth-limited links serialize datagrams in FIFO order per
    /// direction: a busy transmitter queues the datagram (adding delay)
    /// up to the link's queue limit, beyond which the buffer drops it —
    /// the congestion behaviour the paper's hybrid edge-cloud deployment
    /// suffers from. Panics if the pair is unroutable — a placement bug,
    /// not a runtime condition.
    pub fn send(&mut self, src: NodeId, dst: NodeId, bytes: usize, now: SimTime) -> Delivery {
        let (link, dir) = route(&self.topo, &mut self.edges, &mut self.loops, src, dst);
        // Per-fragment loss / propagation from the link model (which also
        // accounts for per-byte serialization on an idle transmitter).
        let mut outcome = link.send(bytes, &mut self.rng);
        let (bandwidth_bps, queue_limit) = (link.bandwidth_bps, link.queue_limit);
        // Burst-loss override: advance the Markov channel one step per
        // fragment; any lost fragment kills the datagram.
        if self.has_burst {
            if let Some(ch) = dir.burst.as_mut() {
                let frags = Link::fragments(bytes);
                let mut lost = false;
                for _ in 0..frags {
                    lost |= ch.lose_packet(&mut self.rng);
                }
                if lost {
                    outcome = Delivery::Lost;
                }
            }
        }
        // FIFO transmitter queueing for bandwidth-limited links.
        if let (Delivery::Delayed(d), Some(bps)) = (outcome, bandwidth_bps) {
            let ser = SimDuration::from_secs_f64(bytes as f64 * 8.0 / bps);
            let start = dir.tx_free_at.max(now);
            let queue_wait = start.saturating_since(now);
            if queue_wait > queue_limit {
                outcome = Delivery::Lost;
            } else {
                dir.tx_free_at = start + ser;
                // `link.send` already charged one serialization time; add
                // only the queueing component.
                outcome = Delivery::Delayed(d + queue_wait);
            }
        }
        let entry = &mut dir.stats;
        entry.datagrams_sent += 1;
        entry.bytes_sent += bytes as u64;
        if outcome.is_lost() {
            entry.datagrams_lost += 1;
        }
        outcome
    }

    /// Counters for the `(src, dst)` direction.
    pub fn pair_stats(&self, src: NodeId, dst: NodeId) -> PairStats {
        let dir = if src == dst {
            self.loops.get(src.0 as usize)
        } else {
            self.topo
                .edge_entry(src, dst)
                .and_then(|(edge, _)| self.edges.get(edge_slot(edge, src, dst)))
        };
        dir.map(|d| d.stats).unwrap_or_default()
    }

    fn all_stats(&self) -> impl Iterator<Item = &PairStats> {
        self.edges.iter().chain(&self.loops).map(|d| &d.stats)
    }

    /// Total bytes offered to the network (all pairs, both directions).
    pub fn total_bytes(&self) -> u64 {
        self.all_stats().map(|s| s.bytes_sent).sum()
    }

    /// Total datagrams lost across all pairs.
    pub fn total_lost(&self) -> u64 {
        self.all_stats().map(|s| s.datagrams_lost).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Testbed;
    use simcore::SimDuration;

    #[test]
    fn burst_channel_overrides_link_loss() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
        let mut net = UdpNet::new(topo, SimRng::new(9));
        net.set_burst_channel(a, b, GilbertElliott::with_average_loss(0.3, 10.0));
        let mut lost = 0;
        for _ in 0..5000 {
            if net.send(a, b, 100, SimTime::ZERO).is_lost() {
                lost += 1;
            }
        }
        let rate = lost as f64 / 5000.0;
        assert!((rate - 0.3).abs() < 0.06, "burst loss rate {rate}");
        // Reverse direction untouched.
        assert!(!net.send(b, a, 100, SimTime::ZERO).is_lost());
    }

    #[test]
    fn bandwidth_queueing_is_fifo_per_direction() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        // 8 Mbps: a 10_000-byte datagram takes 10 ms to serialize.
        topo.connect(
            a,
            b,
            Link::with_latency(SimDuration::from_millis(1)).bandwidth_mbps(8.0),
        );
        let mut net = UdpNet::new(topo, SimRng::new(4));
        let d1 = net.send(a, b, 10_000, SimTime::ZERO).delay().unwrap();
        let d2 = net.send(a, b, 10_000, SimTime::ZERO).delay().unwrap();
        // Second datagram queues behind the first: ≥ 10 ms more delay.
        assert!(
            d2.as_millis_f64() >= d1.as_millis_f64() + 9.5,
            "{d1} then {d2}"
        );
    }

    #[test]
    fn bandwidth_queue_overflow_drops() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let mut link = Link::with_latency(SimDuration::from_millis(1)).bandwidth_mbps(8.0);
        link.queue_limit = SimDuration::from_millis(15);
        topo.connect(a, b, link);
        let mut net = UdpNet::new(topo, SimRng::new(5));
        // Each datagram serializes in 10 ms; the third would wait 20 ms.
        assert!(!net.send(a, b, 10_000, SimTime::ZERO).is_lost());
        assert!(!net.send(a, b, 10_000, SimTime::ZERO).is_lost());
        assert!(net.send(a, b, 10_000, SimTime::ZERO).is_lost());
    }

    #[test]
    fn send_over_testbed_accumulates_stats() {
        let (topo, tb) = Testbed::build();
        let mut net = UdpNet::new(topo, SimRng::new(1));
        for _ in 0..10 {
            let d = net.send(tb.client_host, tb.e1, 1400, SimTime::ZERO);
            assert!(!d.is_lost());
        }
        let s = net.pair_stats(tb.client_host, tb.e1);
        assert_eq!(s.datagrams_sent, 10);
        assert_eq!(s.bytes_sent, 14_000);
        assert_eq!(s.datagrams_lost, 0);
        // Reverse direction untouched.
        assert_eq!(net.pair_stats(tb.e1, tb.client_host).datagrams_sent, 0);
    }

    #[test]
    fn lossy_link_counts_losses() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(
            a,
            b,
            Link::with_latency(SimDuration::from_millis(1)).loss(0.5),
        );
        let mut net = UdpNet::new(topo, SimRng::new(2));
        for _ in 0..1000 {
            net.send(a, b, 100, SimTime::ZERO);
        }
        let s = net.pair_stats(a, b);
        assert!(s.datagrams_lost > 350 && s.datagrams_lost < 650, "{s:?}");
        assert_eq!(net.total_lost(), s.datagrams_lost);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_pair_panics() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let mut net = UdpNet::new(topo, SimRng::new(3));
        net.send(a, b, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn sparse_unroutable_pair_panics() {
        // Both endpoints have links, just not to each other.
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        let c = topo.add_node("c");
        topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
        topo.connect(b, c, Link::with_latency(SimDuration::from_millis(1)));
        let mut net = UdpNet::new(topo, SimRng::new(3));
        net.send(a, c, 1, SimTime::ZERO);
    }

    #[test]
    fn same_seed_same_outcomes() {
        let run = |seed| {
            let (topo, tb) = Testbed::build();
            let mut net = UdpNet::new(topo, SimRng::new(seed));
            (0..100)
                .map(|_| {
                    net.send(tb.client_host, tb.cloud, 50_000, SimTime::ZERO)
                        .delay()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn sparse_loopback_and_stats() {
        let mut topo = Topology::new();
        let a = topo.add_node("a");
        let b = topo.add_node("b");
        topo.connect(a, b, Link::with_latency(SimDuration::from_millis(1)));
        let mut net = UdpNet::new(topo, SimRng::new(6));
        assert!(!net.send(a, a, 500, SimTime::ZERO).is_lost());
        net.send(a, b, 100, SimTime::ZERO);
        net.send(b, a, 100, SimTime::ZERO);
        assert_eq!(net.pair_stats(a, a).bytes_sent, 500);
        assert_eq!(net.pair_stats(a, b).datagrams_sent, 1);
        assert_eq!(net.pair_stats(b, a).datagrams_sent, 1);
        assert_eq!(net.total_bytes(), 700);
        assert_eq!(net.total_lost(), 0);
    }
}
