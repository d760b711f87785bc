//! The DES plane: the paper's figure matrix (`des_testbed`), driven
//! through `scatter::run_experiment` / `run_experiment_observed`, plus the layer
//! probes that time `simcore`, `simnet`, `scatter::costmodel` and
//! `metrics` from outside through their public functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use metrics::{Summary, TimeSeries};
use scatter::config::{placements, RunConfig};
use scatter::{CostModel, Mode, RunReport, SERVICE_KINDS};
use simcore::{Sim, SimDuration, SimRng, SimTime};
use simnet::{NetemProfile, Testbed, UdpNet};

use crate::stats::{self, percentile};
use crate::{cpu_jiffies, Outcome};

/// Simulated seconds per cell of the figure matrix.
const TESTBED_SECS: u64 = 60;
/// Zero-horizon builds of the whole workload before each pass: at least
/// the minimum, then more until the budget is spent.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 40;
const SETUP_BUDGET: Duration = Duration::from_millis(80);
/// Wall time each layer probe runs for.
const PROBE_BUDGET: Duration = Duration::from_millis(150);

pub struct DesWorkload {
    pub cells: Vec<RunConfig>,
}

impl DesWorkload {
    /// The paper's figure matrix: {scAtteR, scAtteR++} × {C1, C2, C12,
    /// C21} × {1, 2, 4, 6, 8, 10} clients × {no netem, LTE, 5G, WiFi-6},
    /// 60 simulated seconds each, exact collectors.
    pub fn testbed(seed: u64) -> DesWorkload {
        let mut cells = Vec::new();
        for mode in [Mode::Scatter, Mode::ScatterPP] {
            for placement in [
                placements::c1(),
                placements::c2(),
                placements::c12(),
                placements::c21(),
            ] {
                for clients in [1, 2, 4, 6, 8, 10] {
                    for netem in [
                        None,
                        Some(NetemProfile::lte()),
                        Some(NetemProfile::fiveg()),
                        Some(NetemProfile::wifi6()),
                    ] {
                        let mut cfg = RunConfig::new(mode, placement.clone(), clients)
                            .with_duration(SimDuration::from_secs(TESTBED_SECS))
                            .with_seed(seed.wrapping_add(cells.len() as u64));
                        if let Some(p) = netem {
                            cfg = cfg.with_netem(p);
                        }
                        cells.push(cfg);
                    }
                }
            }
        }
        DesWorkload { cells }
    }

    pub fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("cells", self.cells.len().to_string()),
            ("modes", "scAtteR,scAtteR++".into()),
            ("placements", "C1,C2,C12,C21".into()),
            ("clients", "1,2,4,6,8,10".into()),
            ("netem", "none,LTE,5G,WiFi-6".into()),
            ("sim_secs_per_cell", TESTBED_SECS.to_string()),
            ("collectors", "exact".into()),
        ]
    }

    /// Wall seconds of zero-horizon builds of every cell.
    fn setup_samples(&self) -> Vec<f64> {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < SETUP_MIN_REPS
            || (samples.len() < SETUP_MAX_REPS && start.elapsed() < SETUP_BUDGET)
        {
            let t = Instant::now();
            for cfg in &self.cells {
                let cfg = cfg
                    .clone()
                    .with_duration(SimDuration::ZERO)
                    .with_warmup(SimDuration::ZERO);
                black_box(scatter::run_experiment(cfg));
            }
            samples.push(t.elapsed().as_secs_f64());
        }
        samples
    }

    /// Set-up samples, then every cell once.
    fn pass(&self, observed: bool) -> Pass {
        let mut pass = Pass {
            setup_s: self.setup_samples(),
            ..Pass::default()
        };
        let jiffies = cpu_jiffies();
        let start = Instant::now();
        for cfg in &self.cells {
            let t = Instant::now();
            let report = if observed {
                let cfg = cfg
                    .clone()
                    .with_observatory(observatory::ObservatoryConfig::default());
                let (report, _log, art) = scatter::run_experiment_observed(cfg);
                pass.fold_artifacts(&art);
                report
            } else {
                scatter::run_experiment(cfg.clone())
            };
            pass.cell_s.push(t.elapsed().as_secs_f64());
            pass.fold(report);
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.steal = stats::steal_share(jiffies, cpu_jiffies());
        pass
    }

    /// Passes until `budget` would be exceeded (at least two, so the
    /// report digest is always compared between two in-process runs).
    fn passes(&self, budget: Duration, observed: bool) -> Vec<Pass> {
        let start = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        loop {
            passes.push(self.pass(observed));
            let last = passes.last().expect("one pass").wall_s;
            if passes.len() >= 2 && start.elapsed().as_secs_f64() + last > budget.as_secs_f64() {
                return passes;
            }
        }
    }
}

/// What one pass over a workload's cells produced.
#[derive(Debug, Default)]
struct Pass {
    /// Zero-horizon builds of every cell, taken before the pass.
    setup_s: Vec<f64>,
    wall_s: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    steal: f64,
    /// Per cell: wall seconds of its `run_experiment`.
    cell_s: Vec<f64>,
    /// FNV-1a over every cell's report fingerprint, in cell order.
    digest: u64,
    /// Client frames the model emitted: clients × horizon / frame period.
    sim_frames: f64,
    success_x_clients: f64,
    clients: f64,
    events: u64,
    lost: u64,
    records: u64,
    sidecar_drops: f64,
    sidecar_ingress: f64,
    /// From the observed passes' profilers.
    net_sends: u64,
    cost_samples: u64,
}

impl Pass {
    fn fold(&mut self, mut r: RunReport) {
        let horizon = r.measure_end.as_nanos() as f64;
        self.sim_frames +=
            r.clients as f64 * horizon / scatter::client::FRAME_PERIOD.as_nanos() as f64;
        self.success_x_clients += r.success_rate * r.clients as f64;
        self.clients += r.clients as f64;
        self.events += r.events_executed;
        self.lost += r.datagrams_lost;
        self.records += collector_records(&r);
        for s in &r.services {
            if let Some(ratio) = s.sidecar_drop_ratio {
                self.sidecar_drops += ratio * s.ingress_total as f64;
                self.sidecar_ingress += s.ingress_total as f64;
            }
        }
        self.digest = fnv(self.digest, &report_digest(&mut r).to_le_bytes());
    }

    fn fold_artifacts(&mut self, art: &scatter::ObsArtifacts) {
        if let Some(prof) = &art.prof {
            for p in &prof.phases {
                match p.name {
                    "net-decide" => self.net_sends += p.calls,
                    "cost-sample" => self.cost_samples += p.calls,
                    _ => {}
                }
            }
        }
    }
}

/// Samples the report's exact collectors hold.
fn collector_records(r: &RunReport) -> u64 {
    let mut n = r.e2e_ms.len() + r.breakdown_network.len();
    n += r.breakdown_compute.iter().map(Summary::len).sum::<usize>();
    n += r.breakdown_queue.iter().map(Summary::len).sum::<usize>();
    for s in &r.services {
        n += s.latency_ms.len() + s.ingress.len() + s.drops_over_time.len();
    }
    n as u64
}

/// FNV-1a, continuing from `h` (0 starts a fresh hash).
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fingerprint of one report: FPS, success, the e2e summary, every
/// service's processed and drop counters, lost datagrams and
/// `events_executed`.
fn report_digest(r: &mut RunReport) -> u64 {
    let mut words = vec![
        r.fps().to_bits(),
        r.success_rate.to_bits(),
        r.e2e_mean_ms().to_bits(),
        r.e2e_ms.len() as u64,
        r.e2e_ms.p95().to_bits(),
        r.events_executed,
        r.datagrams_lost,
        r.bytes_on_wire,
    ];
    for s in &r.services {
        words.extend([
            s.processed,
            s.drops.busy,
            s.drops.stale,
            s.drops.fetch_timeout,
            s.drops.down,
        ]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv(0, &bytes)
}

/// Layer probes: each times one layer's public function from outside
/// on inputs shaped like the workload's.
struct Probes {
    event_ns: f64,
    send_ns: f64,
    sample_ns: f64,
    record_ns: f64,
}

/// Mean ns per call of `op`, run in batches until `PROBE_BUDGET` passes.
fn ns_per_op(mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < PROBE_BUDGET {
        for _ in 0..1024 {
            op(calls);
            calls += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

impl DesWorkload {
    /// Queue depth of the `simcore` probe: one pending frame timer per
    /// client of the largest cell plus the deployment's in-flight work.
    fn probe_depth(&self) -> usize {
        self.cells.iter().map(|c| c.clients).max().unwrap_or(1) + 64
    }

    fn probes(&self, seed: u64) -> Probes {
        // `simcore`: pop + run + reschedule one event at the workload's
        // queue depth.
        let depth = self.probe_depth();
        let mut sim: Sim<u64> = Sim::new();
        let mut rng = SimRng::new(seed);
        fn tick(w: &mut u64, sim: &mut Sim<u64>) {
            *w = w.wrapping_add(1);
            let delay = SimDuration::from_micros(1 + (*w * 0x9E37_79B9) % 33_000);
            sim.schedule(delay, tick);
        }
        for _ in 0..depth {
            sim.schedule(SimDuration::from_micros(rng.next_u64() % 33_000), tick);
        }
        let mut world = 0u64;
        let event_ns = ns_per_op(|_| {
            black_box(sim.step(&mut world));
        });
        drop(sim);

        // `simnet`: one datagram decision on the workload's topology,
        // client side to ingress and between the edge machines, at the
        // cost model's payload sizes; the LTE netem link stands in for
        // the matrix's impaired access links.
        let (mut topo, tb) = Testbed::build();
        topo.connect(tb.client_host, tb.e1, NetemProfile::lte().to_link());
        let mut net = UdpNet::new(topo, SimRng::new(seed ^ 0x5eed));
        let cost = CostModel::default();
        let sizes: Vec<usize> = SERVICE_KINDS
            .iter()
            .map(|&k| cost.payload_into(k, self.cells[0].mode))
            .collect();
        let send_ns = ns_per_op(|i| {
            let (a, b) = if i % 2 == 0 {
                (tb.client_host, tb.e1)
            } else {
                (tb.e1, tb.e2)
            };
            let now = SimTime::ZERO + SimDuration::from_micros(i * 100);
            black_box(net.send(a, b, sizes[i as usize % sizes.len()], now));
        });

        // `scatter::costmodel`: one service-time draw per stage.
        let mut rng = SimRng::new(seed ^ 0xc057);
        let sample_ns = ns_per_op(|i| {
            let kind = SERVICE_KINDS[i as usize % SERVICE_KINDS.len()];
            black_box(cost.sample_service_time(kind, 1.0, i % 3 == 0, &mut rng));
        });

        // `metrics`: the exact collectors the workload folds into,
        // summaries and time series. Reset every 2^16 records so the
        // probe's memory stays small.
        let mut s = Summary::new();
        let mut ts = TimeSeries::new();
        let record_ns = ns_per_op(|i| {
            if i % 65_536 == 0 {
                s = Summary::new();
                ts = TimeSeries::new();
            }
            let v = black_box(5.0 + (i % 997) as f64 * 0.1);
            if i % 2 == 0 {
                s.record(v);
            } else {
                ts.push(SimTime::ZERO + SimDuration::from_micros(i), v);
            }
        });
        Probes {
            event_ns,
            send_ns,
            sample_ns,
            record_ns,
        }
    }
}

/// Every pass must reproduce the same report digest; under the default
/// seed it must also equal the pinned one.
fn check_digests<P: std::borrow::Borrow<Pass>>(
    passes: &[P],
    pinned: Option<u64>,
) -> Result<(), String> {
    let passes: Vec<&Pass> = passes.iter().map(|p| p.borrow()).collect();
    let first = passes[0].digest;
    if let Some(p) = passes.iter().find(|p| p.digest != first) {
        return Err(format!(
            "report digest differs between in-process runs: {first:016x} vs {:016x}",
            p.digest
        ));
    }
    match pinned {
        Some(want) if want != first => Err(format!(
            "report digest {first:016x} differs from the pinned {want:016x}"
        )),
        _ => Ok(()),
    }
}

/// Every pass repeats bit-identical work (`check_digests` holds them to
/// it), so what differs between two timings of one cell is the host:
/// another guest's load only ever adds time. Each cell's fastest pass is
/// its least disturbed timing, and the workload's run time is their sum.
fn fastest_cells_s(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].cell_s.len())
        .map(|i| {
            passes
                .iter()
                .map(|p| p.cell_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The untraced `--trace 0` run: timed passes, each after set-up samples.
pub fn run(w: &DesWorkload, budget: Duration, pinned: Option<u64>) -> Outcome {
    let passes = w.passes(budget, false);
    let mut out = Outcome::new(passes.len() * w.cells.len());
    out.check(check_digests(&passes, pinned));
    let p = &passes[0];
    let fastest = fastest_cells_s(&passes);
    // Per cell: wall ms per simulated client-second.
    let cell_ms: Vec<f64> = fastest
        .iter()
        .zip(&w.cells)
        .map(|(s, c)| s * 1e3 / (c.clients as f64 * c.duration.as_secs_f64()))
        .collect();
    let run_s: f64 = fastest.iter().sum();
    // Set-up is bit-identical work too: its fastest sample over the run.
    let setup_s = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .fold(f64::INFINITY, f64::min);
    out.e2e("setup_s", setup_s);
    out.e2e("run_s", run_s);
    // A DES run is a batch job: its goodput is the client frames it
    // simulates per wall second.
    out.e2e("goodput_fps", p.sim_frames / run_s);
    out.e2e("frame_success", p.success_x_clients / p.clients);
    out.e2e("e2e_p50_ms", percentile(&cell_ms, 0.50));
    out.e2e("e2e_p95_ms", percentile(&cell_ms, 0.95));
    out.manifest("digest", format!("{:016x}", p.digest));
    out.manifest("passes", passes.len().to_string());
    out.manifest(
        "pass_wall_s",
        format!("{:?}", passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    out.manifest(
        "pass_steal",
        format!("{:?}", passes.iter().map(|p| p.steal).collect::<Vec<_>>()),
    );
    out.manifest(
        "setup_samples",
        passes
            .iter()
            .map(|p| p.setup_s.len())
            .sum::<usize>()
            .to_string(),
    );
    out.manifest("events_per_pass", p.events.to_string());
    out
}

/// The traced `--trace 1` run: untraced passes, observed passes (the
/// difference is the observing cost), and the layer probes.
pub fn run_traced(w: &DesWorkload, seed: u64, budget: Duration, pinned: Option<u64>) -> Outcome {
    let plain = w.passes(budget / 2, false);
    let observed = w.passes(budget / 2, true);
    let probes = w.probes(seed);
    let mut out = Outcome::new((plain.len() + observed.len()) * w.cells.len());
    let both: Vec<&Pass> = plain.iter().chain(&observed).collect();
    out.check(check_digests(&both, pinned));
    let wall = |passes: &[Pass]| fastest_cells_s(passes).iter().sum::<f64>();
    let (run_s, traced_s) = (wall(&plain), wall(&observed));
    let o = &observed[0];
    let layers = [
        (o.events as f64, probes.event_ns),
        (o.net_sends as f64, probes.send_ns),
        (o.cost_samples as f64, probes.sample_ns),
        (o.records as f64, probes.record_ns),
    ];
    let layer_s: f64 = layers.iter().map(|(n, ns)| n * ns / 1e9).sum();
    out.layer("simcore.events", o.events as f64);
    out.layer("simcore.event_ns", probes.event_ns);
    out.layer("simnet.sends", o.net_sends as f64);
    out.layer("simnet.lost", o.lost as f64);
    out.layer("simnet.send_ns", probes.send_ns);
    out.layer("costmodel.samples", o.cost_samples as f64);
    out.layer("costmodel.sample_ns", probes.sample_ns);
    out.layer(
        "sidecar.drop_ratio",
        if o.sidecar_ingress > 0.0 {
            o.sidecar_drops / o.sidecar_ingress
        } else {
            0.0
        },
    );
    out.layer("metrics.records", o.records as f64);
    out.layer("metrics.record_ns", probes.record_ns);
    out.layer("world.self_s", run_s - layer_s);
    out.layer("des.served_fraction", o.success_x_clients / o.clients);
    out.layer("trace.overhead", (traced_s - run_s) / run_s);
    out.manifest("run_s_untraced", run_s.to_string());
    out.manifest("run_s_observed", traced_s.to_string());
    out.manifest("layer_estimate_s", layer_s.to_string());
    out.manifest("simcore_probe_depth", w.probe_depth().to_string());
    out
}
