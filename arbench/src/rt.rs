//! The runtime plane: the real five-service pipeline on loopback UDP,
//! driven through `LocalDeployment::start` + `run_client`, and a traced
//! replay of the same frames through the stage functions the services
//! call, with every call wrapped in a span.

use std::collections::HashSet;
use std::io::Write;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use scatter::message::ServiceKind;
use scatter::obs::RT_PLANE;
use scatter::runtime::wire::{self, FrameState, Reassembler, WireMsg};
use scatter::runtime::{
    Ep, LocalDeployment, RtSocket, RuntimeOptions, RuntimeReport, SendDisposition,
};
use scatter::wirev2::predict;
use simcore::SimRng;
use telemetry::{HistSnapshot, Labels, Registry};
use vision::db::TrainParams;
use vision::keypoints::DetectorParams;
use vision::scene::SceneGenerator;
use vision::ReferenceDb;

use crate::json::J;
use crate::stats::{self, FrameLedger, Percentile, Span};
use crate::{cpu_jiffies, Outcome, HOPS, OUT_DIR, SERVICES};

const CLIENTS: u16 = 2;
const FPS: f64 = 30.0;
/// The sidecar staleness threshold of scAtteR++.
const THRESHOLD_MS: f64 = 100.0;
/// How long a client waits after its last frame for stragglers: five
/// times the slowest completion seen under overload (`--probe-geometry`),
/// well above anything `rt_camera` takes.
const DRAIN: Duration = Duration::from_millis(500);
/// Wall time per deployment. A timed run is a series of deployments,
/// each set up, streaming for this long less the drain, and shut down.
const DEPLOYMENT_SECS: f64 = 5.0;
/// Set-up-only deployments (started and shut down at once) after each
/// timed one in an untraced run, so the set-up median rests on four
/// samples per deployment rather than one.
const EXTRA_SETUPS: usize = 3;
/// What `services::process` keeps of sift's descriptors.
const MAX_DESCRIPTORS: usize = 200;
/// Primary's dimension reduction.
const REDUCE: f32 = 0.75;
/// Replay frames per block; blocks alternate spans on and off.
const REPLAY_BLOCK: u32 = 4;
/// Frames of the replay whose spans are written out.
const SPANS_WRITTEN_FRAMES: u32 = 200;

pub struct RtWorkload {
    base: RuntimeOptions,
    frames_per_client: u32,
    budget: Duration,
    /// Per deployment: the seed of its cameras and database, and the
    /// database `LocalDeployment::start` trains from it.
    seeds: Vec<u64>,
    dbs: Vec<ReferenceDb>,
}

impl RtWorkload {
    /// `rt_camera`: 256×144 (the runtime's default geometry), below the
    /// knee, so vision compute sets the latency.
    pub fn camera(seed: u64, budget: Duration) -> RtWorkload {
        let (width, height) = (256, 144);
        // At least two deployments, so short budgets still compare two.
        let deployments = ((budget.as_secs_f64() / DEPLOYMENT_SECS).round() as u64).max(2);
        let window = (DEPLOYMENT_SECS - DRAIN.as_secs_f64()).min(budget.as_secs_f64() / 2.0);
        let base = RuntimeOptions {
            clients: CLIENTS,
            frames: (window * FPS).round().max(1.0) as u32,
            fps: FPS,
            width,
            height,
            threshold_ms: THRESHOLD_MS,
            seed,
            drain: DRAIN,
            ..RuntimeOptions::default()
        };
        // Every deployment films its own scenes, so one run averages
        // over several inputs rather than resting on one.
        let seeds: Vec<u64> = (0..deployments)
            .map(|d| seed.wrapping_mul(1000).wrapping_add(d))
            .collect();
        RtWorkload {
            frames_per_client: base.frames,
            dbs: seeds.iter().map(|&s| train_db(s, width, height)).collect(),
            seeds,
            base,
            budget,
        }
    }

    pub fn params(&self) -> Vec<(&'static str, String)> {
        let o = &self.base;
        vec![
            ("geometry", format!("{}x{}", o.width, o.height)),
            ("clients", o.clients.to_string()),
            ("fps", o.fps.to_string()),
            ("loop", "open (paced client)".into()),
            ("frames_per_client_per_deployment", o.frames.to_string()),
            ("deployments", self.seeds.len().to_string()),
            (
                "deployment_seeds",
                self.seeds
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            ("threshold_ms", o.threshold_ms.to_string()),
            ("stateful_sift", o.stateful.to_string()),
            ("drain_ms", o.drain.as_millis().to_string()),
            ("shards", o.shards.to_string()),
            ("batch", o.batch.to_string()),
        ]
    }
}

/// The recognition database `LocalDeployment::start` trains: client 0's
/// scene, the default training parameters, the deployment's seed.
fn train_db(seed: u64, width: usize, height: usize) -> ReferenceDb {
    let scene = predict::client_scene(seed, 0, width, height);
    ReferenceDb::train(&scene, TrainParams::default(), &mut SimRng::new(seed))
}

fn object_names(db: &ReferenceDb) -> HashSet<&str> {
    db.objects().iter().map(|o| o.name.as_str()).collect()
}

/// One timed deployment.
struct Deployment {
    /// Wall time of its `run_client`.
    wall_s: f64,
    /// Share of the machine's CPU time the hypervisor stole while it
    /// streamed.
    steal: f64,
    emitted: u64,
    completed: u64,
    /// Its completed frames' latencies: the program's own
    /// `scatter_e2e_latency_ms` histogram.
    e2e: HistSnapshot,
}

/// Timed deployments, pooled.
#[derive(Default)]
struct Deployments {
    runs: Vec<Deployment>,
    /// Every `LocalDeployment::start` timed, the timed deployments' first.
    setups_s: Vec<f64>,
    ledger: FrameLedger,
    io_errors: u64,
    stale_by_service: [u64; 5],
    recognitions: Vec<(String, u32)>,
    /// Recognized names that are not objects of their deployment's
    /// trained database.
    unknown: Vec<String>,
}

fn run_deployments(w: &RtWorkload, n: usize, extra_setups: usize) -> Deployments {
    let mut d = Deployments::default();
    for (&seed, db) in w.seeds.iter().zip(&w.dbs).take(n) {
        let registry = Registry::new();
        let opts = RuntimeOptions {
            registry: Some(registry.clone()),
            seed,
            ..w.base.clone()
        };
        let t = Instant::now();
        let dep = LocalDeployment::start(opts);
        let setup_s = t.elapsed().as_secs_f64();
        let jiffies = cpu_jiffies();
        let t = Instant::now();
        let r = dep.run_client();
        let wall_s = t.elapsed().as_secs_f64();
        let steal = stats::steal_share(jiffies, cpu_jiffies());
        let _ = dep.shutdown();
        d.setups_s.push(setup_s);
        for _ in 0..extra_setups {
            let opts = RuntimeOptions {
                registry: Some(Registry::new()),
                seed,
                ..w.base.clone()
            };
            let t = Instant::now();
            let dep = LocalDeployment::start(opts);
            d.setups_s.push(t.elapsed().as_secs_f64());
            let _ = dep.shutdown();
        }
        d.fold(&r);
        let known = object_names(db);
        d.unknown.extend(
            r.recognitions
                .keys()
                .filter(|n| !known.contains(n.as_str()))
                .cloned(),
        );
        let e2e = registry
            .snapshot()
            .histogram(
                "scatter_e2e_latency_ms",
                &Labels::EMPTY.with_plane(RT_PLANE),
            )
            .cloned()
            .unwrap_or_else(HistSnapshot::empty_latency_ms);
        d.runs.push(Deployment {
            wall_s,
            steal,
            emitted: r.emitted as u64,
            completed: r.completed as u64,
            e2e,
        });
    }
    d
}

impl Deployments {
    fn fold(&mut self, r: &RuntimeReport) {
        let l = &mut self.ledger;
        l.emitted += r.emitted as u64;
        l.completed += r.completed as u64;
        l.fragment += r.fragment_drops;
        l.malformed += r.malformed_datagrams;
        l.busy += r.busy_drops;
        l.net += r.net_drops;
        l.crash += r.crash_drops;
        for (i, &(kind, received, processed, stale)) in r.service_counts.iter().enumerate() {
            assert_eq!(kind.index(), i, "service counts in pipeline order");
            l.services[i].0 += received;
            l.services[i].1 += processed;
            l.stale += stale;
            self.stale_by_service[i] += stale;
        }
        self.io_errors += r.io_errors;
        for (name, n) in &r.recognitions {
            match self.recognitions.iter_mut().find(|(k, _)| k == name) {
                Some((_, c)) => *c += n,
                None => self.recognitions.push((name.clone(), *n)),
            }
        }
        self.recognitions.sort();
    }

    /// Output checks: recognitions name only trained objects, every
    /// client emitted its schedule, each histogram holds exactly its
    /// deployment's completed frames, and every frame is accounted for.
    fn check(&self, w: &RtWorkload, out: &mut Outcome) {
        out.check(if self.recognitions.is_empty() {
            Err("no frame came back with a recognition".into())
        } else if let Some(name) = self.unknown.first() {
            Err(format!(
                "recognition names `{name}`, not an object of the trained database"
            ))
        } else {
            Ok(())
        });
        let expect = CLIENTS as u64 * w.frames_per_client as u64;
        for (i, r) in self.runs.iter().enumerate() {
            out.check(if r.emitted != expect {
                Err(format!(
                    "deployment {i} emitted {} frames, expected {expect}",
                    r.emitted
                ))
            } else if r.e2e.count() != r.completed {
                Err(format!(
                    "deployment {i}: e2e histogram holds {} samples for {} completed frames",
                    r.e2e.count(),
                    r.completed
                ))
            } else {
                Ok(())
            });
        }
        out.check(if self.ledger.conserves() {
            Ok(())
        } else {
            Err(format!("frame ledger does not conserve: {:?}", self.ledger))
        });
    }

    fn ledger_manifest(&self, out: &mut Outcome) {
        let l = &self.ledger;
        out.manifest("emitted", l.emitted.to_string());
        out.manifest("completed", l.completed.to_string());
        out.manifest("stale_drops", l.stale.to_string());
        out.manifest("fragment_drops", l.fragment.to_string());
        out.manifest("unattributed_drops", l.unattributed().to_string());
        let per = |f: &dyn Fn(&Deployment) -> f64| {
            format!("{:?}", self.runs.iter().map(f).collect::<Vec<_>>())
        };
        out.manifest("completed_by_deployment", per(&|r| r.completed as f64));
        out.manifest("setup_s_samples", format!("{:?}", self.setups_s));
        out.manifest("steal_by_deployment", per(&|r| r.steal));
        out.manifest(
            "recognitions",
            J::Obj(
                self.recognitions
                    .iter()
                    .map(|(k, v)| (k.clone(), J::Int(*v as i64)))
                    .collect(),
            )
            .render(),
        );
    }
}

/// One deployment's latency percentile over its emitted frames,
/// reported with its censoring bound when unbounded, and whether it was.
fn percentile_ms(r: &Deployment, frames_per_client: u32, fps: f64, q: f64) -> (f64, bool) {
    let sorted = r.e2e.midpoint_samples();
    let p = stats::percentile_over_emitted(&sorted, r.emitted, q);
    // A lost frame was still missing when its client stopped waiting,
    // `wall - (frames - 1) / fps` after its last frame was due.
    let censor_ms = (r.wall_s - (frames_per_client - 1) as f64 / fps) * 1e3;
    let slowest = sorted.last().copied().unwrap_or(0.0);
    (
        stats::reported_ms(p, censor_ms, slowest),
        p == Percentile::Unbounded,
    )
}

/// The median over deployments of each one's `q`-percentile, and how
/// many of them were unbounded. A deployment the host disturbed (CPU
/// stolen by another guest stretches every latency it overlaps) moves
/// the median less than it would move a percentile over pooled frames.
fn median_percentile_ms(w: &RtWorkload, runs: &[Deployment], q: f64) -> (f64, Vec<f64>, usize) {
    let per: Vec<(f64, bool)> = runs
        .iter()
        .map(|r| percentile_ms(r, w.frames_per_client, w.base.fps, q))
        .collect();
    let values: Vec<f64> = per.iter().map(|p| p.0).collect();
    let unbounded = per.iter().filter(|p| p.1).count();
    (stats::median(&values), values, unbounded)
}

/// The untraced `--trace 0` run.
pub fn run(w: &RtWorkload) -> Outcome {
    let d = run_deployments(w, w.seeds.len(), EXTRA_SETUPS);
    let mut out = Outcome::new(d.ledger.emitted as usize);
    d.check(w, &mut out);
    let (p50, p50s, p50_unbounded) = median_percentile_ms(w, &d.runs, 0.50);
    let (p95, p95s, p95_unbounded) = median_percentile_ms(w, &d.runs, 0.95);
    let walls: Vec<f64> = d.runs.iter().map(|r| r.wall_s).collect();
    let completed: u64 = d.runs.iter().map(|r| r.completed).sum();
    let emitted: u64 = d.runs.iter().map(|r| r.emitted).sum();
    out.e2e("setup_s", stats::median(&d.setups_s));
    out.e2e("run_s", walls.iter().sum());
    out.e2e(
        "goodput_fps",
        stats::goodput_fps(completed, &walls, DRAIN.as_secs_f64(), w.base.fps),
    );
    out.e2e("frame_success", completed as f64 / emitted as f64);
    out.e2e("e2e_p50_ms", p50);
    out.e2e("e2e_p95_ms", p95);
    out.manifest("e2e_p50_ms_by_deployment", format!("{p50s:?}"));
    out.manifest("e2e_p95_ms_by_deployment", format!("{p95s:?}"));
    out.manifest("e2e_p50_unbounded_deployments", p50_unbounded.to_string());
    out.manifest("e2e_p95_unbounded_deployments", p95_unbounded.to_string());
    d.ledger_manifest(&mut out);
    out
}

/// The traced `--trace 1` run: half the budget runs deployments with
/// every span off (counts, gen lag, the e2e the replay reconciles with),
/// the other half replays the workload's frames through the stage
/// functions with spans alternately on and off.
pub fn run_traced(w: &RtWorkload, workload: &str, seed: u64) -> Outcome {
    let decks = w.seeds.len() / 2;
    let d = run_deployments(w, decks, 0);
    let mut out = Outcome::new(d.ledger.emitted as usize);
    d.check(w, &mut out);
    let l = &d.ledger;
    for (i, svc) in SERVICES.iter().enumerate() {
        out.layer(&format!("{svc}.received"), l.services[i].0 as f64);
        out.layer(&format!("{svc}.processed"), l.services[i].1 as f64);
    }
    for (svc, stale) in SERVICES.iter().zip(d.stale_by_service) {
        out.layer(&format!("{svc}.stale_drops"), stale as f64);
    }
    for (hop, gap) in HOPS.iter().zip(l.hop_gaps()) {
        out.layer(hop, gap as f64);
    }
    out.layer("rt.fragment_drops", l.fragment as f64);
    out.layer("rt.unattributed_drops", l.unattributed() as f64);
    out.layer("rt.malformed", l.malformed as f64);
    out.layer("rt.io_errors", d.io_errors as f64);
    let m: Vec<&Deployment> = d.runs.iter().collect();
    let lags: Vec<f64> = m
        .iter()
        .map(|r| {
            stats::gen_lag_s(
                r.wall_s,
                DRAIN.as_secs_f64(),
                w.frames_per_client,
                w.base.fps,
            )
        })
        .collect();
    out.layer("client.gen_lag_ms", stats::median(&lags) * 1e3);
    let mut pooled = HistSnapshot::empty_latency_ms();
    for r in &m {
        pooled.merge(&r.e2e);
    }
    let e2e_mean_ms = pooled.mean();

    let streamed: f64 = d.runs.iter().map(|r| r.wall_s).sum();
    let replay_budget = w.budget.saturating_sub(Duration::from_secs_f64(streamed));
    match replay(w, decks, replay_budget.max(Duration::from_secs(1))) {
        Ok(rep) => {
            let self_times = stats::self_times(&rep.spans);
            let per_frame = |name: &str| rep.self_ns(&self_times, name) / rep.traced_frames as f64;
            for &(span, metric, scale) in &LAYERS {
                out.layer(metric, per_frame(span) * scale);
            }
            // The e2e clock starts after the client's encode, so the
            // layers on its path are every replayed layer but that one.
            let path_ms = LAYERS
                .iter()
                .filter(|(span, _, _)| *span != "client.encode")
                .map(|(span, _, _)| per_frame(span))
                .sum::<f64>()
                * 1e-6;
            out.layer("rt.layer_coverage", path_ms / e2e_mean_ms);
            out.layer(
                "trace.overhead",
                rep.on_ms_per_frame / rep.off_ms_per_frame - 1.0,
            );
            out.manifest("replay_frames_traced", rep.traced_frames.to_string());
            out.manifest("replay_frames_untraced", rep.untraced_frames.to_string());
            out.manifest("replay_path_ms_per_frame", path_ms.to_string());
            out.manifest("e2e_mean_completed_ms", e2e_mean_ms.to_string());
            let path = format!("{OUT_DIR}/{workload}-seed{seed}-spans.jsonl");
            if let Err(e) = write_spans(&path, &rep.spans) {
                eprintln!("arbench: writing {path}: {e}");
            }
            out.manifest("spans_file", path);
            out.check(rep.check);
        }
        Err(e) => out.check(Err(e)),
    }
    d.ledger_manifest(&mut out);
    out
}

/// Leaf spans, one per layer call: span name, metric, and the scale
/// from ns per frame to the metric's unit.
const LAYERS: [(&str, &str, f64); 13] = [
    ("client.encode", "client.encode_ms", 1e-6),
    ("primary.decode", "primary.decode_ms", 1e-6),
    ("primary.resize", "primary.resize_ms", 1e-6),
    ("sift.detect", "sift.detect_ms", 1e-6),
    ("sift.describe", "sift.describe_ms", 1e-6),
    ("encoding.fisher", "encoding.fisher_ms", 1e-6),
    ("lsh.query", "lsh.query_ms", 1e-6),
    ("matching.match", "matching.match_ms", 1e-6),
    ("wire.fragment", "wire.fragment_us", 1e-3),
    ("wire.reassemble", "wire.reassemble_us", 1e-3),
    ("wire.payload_codec", "wire.payload_codec_us", 1e-3),
    ("socket.send", "socket.send_us", 1e-3),
    ("socket.recv", "socket.recv_us", 1e-3),
];

/// In-memory span log. With `on` false nothing is recorded and a call
/// costs one branch.
struct Tracer {
    epoch: Instant,
    on: bool,
    frame: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let t = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            frame: self.frame,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span named `name` under `parent`.
    fn span<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let s = self.open(name, parent);
        let v = f();
        self.close(s);
        v
    }
}

/// One loopback hop: the datagrams of a message go out of one `RtSocket`
/// and into another, one at a time, so the receive buffer never fills.
struct Hop {
    tx: RtSocket,
    rx: RtSocket,
    buf: Vec<u8>,
    reasm: Reassembler,
}

impl Hop {
    fn new() -> std::io::Result<Hop> {
        let bind = || UdpSocket::bind("127.0.0.1:0").map(Arc::new);
        let rx = RtSocket::new(bind()?, Ep::Svc(ServiceKind::Primary), None);
        rx.set_read_timeout(Some(Duration::from_secs(1)))?;
        Ok(Hop {
            tx: RtSocket::new(bind()?, Ep::Client, None),
            rx,
            buf: vec![0u8; 65_536],
            reasm: Reassembler::new(),
        })
    }

    fn carry(
        &mut self,
        t: &mut Tracer,
        parent: Option<usize>,
        msg: &WireMsg,
    ) -> Result<WireMsg, String> {
        let hop = t.open("hop", parent);
        let datagrams = t.span("wire.fragment", hop, || wire::encode(msg));
        let to = self.rx.local_addr().map_err(|e| e.to_string())?;
        let mut done = None;
        for dg in &datagrams {
            let sent = t.span("socket.send", hop, || self.tx.send_to(dg, to));
            if sent != SendDisposition::Sent {
                return Err(format!("loopback send failed: {sent:?}"));
            }
            let (n, _) = t
                .span("socket.recv", hop, || self.rx.recv_from(&mut self.buf))
                .map_err(|e| format!("loopback receive failed: {e}"))?;
            let buf = &self.buf[..n];
            let reasm = &mut self.reasm;
            done = t
                .span("wire.reassemble", hop, || {
                    wire::decode_fragment(buf).map(|f| reasm.offer(f))
                })
                .map_err(|e| format!("replayed datagram rejected: {e}"))?;
        }
        t.close(hop);
        done.ok_or_else(|| "replayed message did not reassemble".to_string())
    }
}

struct Replay {
    spans: Vec<Span>,
    traced_frames: u32,
    untraced_frames: u32,
    on_ms_per_frame: f64,
    off_ms_per_frame: f64,
    check: Result<(), String>,
}

impl Replay {
    /// Total self time of the spans named `name`, ns.
    fn self_ns(&self, self_times: &[u64], name: &str) -> f64 {
        self_times
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&ns, _)| ns as f64)
            .sum()
    }
}

/// Replay the workload's frames — the same scenes and trained database
/// the deployment uses — through the stage functions of
/// `services::process`, in blocks alternating spans on and off.
fn replay(w: &RtWorkload, n_decks: usize, budget: Duration) -> Result<Replay, String> {
    let o = &w.base;
    // One deck per deployment replayed: its clients' cameras and its
    // database. Decks rotate every on/off pair of blocks.
    let decks: Vec<(Vec<SceneGenerator>, &ReferenceDb, HashSet<&str>)> = w
        .seeds
        .iter()
        .zip(&w.dbs)
        .take(n_decks)
        .map(|(&seed, db)| {
            let scenes = (0..CLIENTS)
                .map(|c| predict::client_scene(seed, c, o.width, o.height))
                .collect();
            (scenes, db, object_names(db))
        })
        .collect();
    let mut hop = Hop::new().map_err(|e| format!("loopback bind failed: {e}"))?;
    let mut rng = SimRng::new(o.seed ^ 0x9E37);
    let mut t = Tracer {
        epoch: Instant::now(),
        on: false,
        frame: 0,
        spans: Vec::new(),
    };
    let (mut on_ns, mut off_ns, mut on_frames, mut off_frames) = (0u128, 0u128, 0u32, 0u32);
    let mut recognized = 0u32;
    let start = Instant::now();
    let mut i = 0u32;
    while start.elapsed() < budget || on_frames == 0 || off_frames == 0 {
        t.on = (i / REPLAY_BLOCK) % 2 == 1;
        let (scenes, db, known) = &decks[(i / (2 * REPLAY_BLOCK)) as usize % decks.len()];
        let client = (i % CLIENTS as u32) as u16;
        let frame_no = (i / CLIENTS as u32) % w.frames_per_client;
        // The camera: rendering the scene is input, not a layer.
        let img = scenes[client as usize].frame(frame_no);
        t.frame = i;
        let began = Instant::now();
        let recs = replay_frame(&mut t, &mut hop, db, &mut rng, img, client, frame_no)?;
        let ns = began.elapsed().as_nanos();
        if let Some((name, _)) = recs.iter().find(|(n, _)| !known.contains(n.as_str())) {
            return Err(format!(
                "replayed recognition names unknown object `{name}`"
            ));
        }
        recognized += u32::from(!recs.is_empty());
        if t.on {
            on_ns += ns;
            on_frames += 1;
        } else {
            off_ns += ns;
            off_frames += 1;
        }
        i += 1;
    }
    Ok(Replay {
        spans: t.spans,
        traced_frames: on_frames,
        untraced_frames: off_frames,
        on_ms_per_frame: on_ns as f64 / 1e6 / on_frames as f64,
        off_ms_per_frame: off_ns as f64 / 1e6 / off_frames as f64,
        check: if recognized == 0 {
            Err("the replay recognized nothing".into())
        } else {
            Ok(())
        },
    })
}

type Recognitions = Vec<(String, [(f64, f64); 4])>;

/// One frame through the client and the five stages of
/// `services::process` (stateless sift), with a loopback hop between
/// each pair.
fn replay_frame(
    t: &mut Tracer,
    hop: &mut Hop,
    db: &ReferenceDb,
    rng: &mut SimRng,
    img: vision::GrayImage,
    client: u16,
    frame_no: u32,
) -> Result<Recognitions, String> {
    let root = t.open("frame", None);
    let bad = |e: wire::WireError| format!("replayed payload rejected: {e}");
    let mut msg = WireMsg {
        client,
        frame_no,
        step: ServiceKind::Primary,
        emit_micros: 0,
        return_port: 0,
        trace_id: 0,
        flags: 0,
        sent_micros: 0,
        payload: Bytes::new(),
    };

    let s = t.open("client", root);
    msg.payload = t.span("client.encode", s, || {
        vision::codec::encode(&img, vision::codec::Quality(85))
    });
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("primary", root);
    let img = t
        .span("primary.decode", s, || {
            vision::codec::decode(msg.payload.clone())
        })
        .ok_or("primary could not decode the client's frame")?;
    let (w, h) = (
        ((img.width() as f32 * REDUCE) as usize).max(16),
        ((img.height() as f32 * REDUCE) as usize).max(16),
    );
    let small = t.span("primary.resize", s, || img.resize(w, h));
    msg.payload = t.span("wire.payload_codec", s, || wire::encode_frame(&small));
    msg.step = ServiceKind::Sift;
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("sift", root);
    let img = t
        .span("wire.payload_codec", s, || {
            wire::decode_frame(msg.payload.clone())
        })
        .map_err(bad)?;
    let (pyr, kps) = t.span("sift.detect", s, || {
        vision::keypoints::detect(&img, &DetectorParams::default())
    });
    let mut descriptors = t.span("sift.describe", s, || {
        vision::descriptor::describe_all(&pyr, &kps)
    });
    descriptors.truncate(MAX_DESCRIPTORS);
    let state = FrameState {
        descriptors,
        fisher: Vec::new(),
        candidates: Vec::new(),
    };
    msg.payload = t.span("wire.payload_codec", s, || wire::encode_state(&state));
    msg.step = ServiceKind::Encoding;
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("encoding", root);
    let mut state = t
        .span("wire.payload_codec", s, || {
            wire::decode_state(msg.payload.clone())
        })
        .map_err(bad)?;
    let fisher = t.span("encoding.fisher", s, || db.encode_frame(&state.descriptors));
    state.fisher = fisher.iter().map(|&v| v as f32).collect();
    msg.payload = t.span("wire.payload_codec", s, || wire::encode_state(&state));
    msg.step = ServiceKind::Lsh;
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("lsh", root);
    let mut state = t
        .span("wire.payload_codec", s, || {
            wire::decode_state(msg.payload.clone())
        })
        .map_err(bad)?;
    let fisher: Vec<f64> = state.fisher.iter().map(|&v| v as f64).collect();
    state.candidates = t.span("lsh.query", s, || {
        db.lsh_candidates(&fisher, 2)
            .into_iter()
            .map(|(idx, _)| idx as u32)
            .collect()
    });
    msg.payload = t.span("wire.payload_codec", s, || wire::encode_state(&state));
    msg.step = ServiceKind::Matching;
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("matching", root);
    let state = t
        .span("wire.payload_codec", s, || {
            wire::decode_state(msg.payload.clone())
        })
        .map_err(bad)?;
    let recognitions: Recognitions = t.span("matching.match", s, || {
        state
            .candidates
            .iter()
            .filter_map(|&c| db.match_object(c as usize, &state.descriptors, 0.0, rng))
            .map(|r| (r.name, r.pose.corners))
            .collect()
    });
    msg.payload = t.span("wire.payload_codec", s, || {
        wire::encode_result(&recognitions)
    });
    t.close(s);
    msg = hop.carry(t, root, &msg)?;

    let s = t.open("client", root);
    let recs = t
        .span("wire.payload_codec", s, || {
            wire::decode_result(msg.payload.clone())
        })
        .map_err(bad)?;
    t.close(s);
    t.close(root);
    Ok(recs)
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let first = spans.first().map(|s| s.frame).unwrap_or(0);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut frames = 0u32;
    let mut last = None;
    for (i, s) in spans.iter().enumerate() {
        if last != Some(s.frame) {
            frames += 1;
            last = Some(s.frame);
        }
        if frames > SPANS_WRITTEN_FRAMES {
            break;
        }
        let rec = J::obj([
            ("id", J::Int(i as i64)),
            ("name", J::str(s.name)),
            ("start_ns", J::Int(s.start_ns as i64)),
            ("end_ns", J::Int(s.end_ns as i64)),
            (
                "parent",
                s.parent.map(|p| J::Int(p as i64)).unwrap_or(J::Int(-1)),
            ),
            ("frame", J::Int((s.frame - first) as i64)),
        ]);
        writeln!(f, "{}", rec.render())?;
    }
    f.flush()
}

/// Reproduce the large-frame defect: one deployment of the same shape at
/// `width`×`height`, printing what came back. Returns false when the
/// deployment itself misbehaves (not when frames are lost).
pub fn probe_geometry(width: usize, height: usize, frames: u32, seed: u64) -> bool {
    let opts = RuntimeOptions {
        clients: CLIENTS,
        frames,
        fps: FPS,
        width,
        height,
        threshold_ms: THRESHOLD_MS,
        seed,
        drain: DRAIN,
        ..RuntimeOptions::default()
    };
    let dep = LocalDeployment::start(opts);
    let r = dep.run_client();
    let _ = dep.shutdown();
    let mut d = Deployments::default();
    d.fold(&r);
    let l = &d.ledger;
    let primary_sift_bytes =
        (width as f32 * REDUCE) as usize * (height as f32 * REDUCE) as usize + 8;
    println!(
        "{width}x{height}: completed {} of {} frames; fragment drops {}, stale drops {}, \
         unattributed drops {}; primary->sift message {} B in {} datagrams; rmem_default {} B",
        l.completed,
        l.emitted,
        l.fragment,
        l.stale,
        l.unattributed(),
        primary_sift_bytes,
        primary_sift_bytes.div_ceil(wire::CHUNK_BYTES),
        std::fs::read_to_string("/proc/sys/net/core/rmem_default")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unavailable".into()),
    );
    l.conserves()
}
