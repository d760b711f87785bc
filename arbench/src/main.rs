//! One benchmark for both planes of the scAtteR reproduction.
//!
//! ```text
//! arbench --workload <des_testbed|rt_camera>
//!         --seed <n> --seconds <s> --trace <0|1>
//! arbench --probe-geometry <W>x<H> [--frames <n>] [--seed <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with every span
//! off; `--trace 1` prints the per-layer metrics from a separate traced
//! run. Either way the workload's outputs are checked, the last stdout
//! line is one JSON object `{correct, attempted, failed, metrics}`, and a
//! failed check exits non-zero. `arbench/run.py` builds this binary and
//! is the entry point; see `arbench/README.md` for what each metric and
//! workload means.

mod des;
mod json;
mod rt;
mod stats;

use std::collections::BTreeMap;
use std::time::Duration;

use json::J;

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("goodput_fps", "fps"),
    ("frame_success", "ratio"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p95_ms", "ms"),
];

pub const SERVICES: [&str; 5] = ["primary", "sift", "encoding", "lsh", "matching"];

/// Hops of the pipeline, uplink first and the return hop last.
pub const HOPS: [&str; 6] = [
    "hop.uplink.lost",
    "hop.primary_sift.lost",
    "hop.sift_encoding.lost",
    "hop.encoding_lsh.lost",
    "hop.lsh_matching.lost",
    "hop.return.lost",
];

/// Per-layer metrics, reported by every `--trace 1` run. A layer a
/// workload never runs reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("simcore.events", "count"),
        ("simcore.event_ns", "ns"),
        ("simnet.sends", "count"),
        ("simnet.lost", "count"),
        ("simnet.send_ns", "ns"),
        ("costmodel.samples", "count"),
        ("costmodel.sample_ns", "ns"),
        ("sidecar.drop_ratio", "ratio"),
        ("metrics.records", "count"),
        ("metrics.record_ns", "ns"),
        ("world.self_s", "s"),
        ("des.served_fraction", "ratio"),
        ("client.encode_ms", "ms"),
        ("client.gen_lag_ms", "ms"),
        ("primary.decode_ms", "ms"),
        ("primary.resize_ms", "ms"),
        ("sift.detect_ms", "ms"),
        ("sift.describe_ms", "ms"),
        ("encoding.fisher_ms", "ms"),
        ("lsh.query_ms", "ms"),
        ("matching.match_ms", "ms"),
        ("wire.fragment_us", "us"),
        ("wire.reassemble_us", "us"),
        ("wire.payload_codec_us", "us"),
        ("socket.send_us", "us"),
        ("socket.recv_us", "us"),
        ("rt.fragment_drops", "count"),
        ("rt.unattributed_drops", "count"),
        ("rt.malformed", "count"),
        ("rt.io_errors", "count"),
        ("rt.layer_coverage", "ratio"),
        ("trace.overhead", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for svc in SERVICES {
        for what in ["received", "processed", "stale_drops"] {
            v.push((format!("{svc}.{what}"), "count"));
        }
    }
    v.extend(HOPS.iter().map(|h| (h.to_string(), "count")));
    v
}

/// What one workload run measured and whether its outputs checked out.
pub struct Outcome {
    attempted: u64,
    errors: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    manifest: Vec<(String, J)>,
}

impl Outcome {
    pub fn new(attempted: usize) -> Outcome {
        Outcome {
            attempted: attempted as u64,
            errors: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            manifest: Vec::new(),
        }
    }

    pub fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            eprintln!("output check FAILED: {e}");
            self.errors.push(e);
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|&(n, _)| n == name),
            "unknown end-to-end metric {name}"
        );
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(
            per_layer().iter().any(|(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name.to_string(), value);
    }

    pub fn manifest(&mut self, key: &str, value: impl Into<String>) {
        self.manifest.push((key.to_string(), J::Str(value.into())));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: Option<(usize, usize)>,
    frames: u32,
    extra_manifest: Vec<(String, String)>,
}

/// Where each run's record and the traced replay's spans are written,
/// relative to the repository root.
pub const OUT_DIR: &str = ".bench_out";

/// The seed the pinned DES report digests belong to.
pub const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25,
        trace: false,
        probe: None,
        frames: 20,
        extra_manifest: Vec::new(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = num(val()?)?,
            "--seconds" => a.seconds = num(val()?)?.max(1),
            "--trace" => a.trace = num(val()?)? != 0,
            "--frames" => a.frames = num(val()?)? as u32,
            "--probe-geometry" => {
                let v = val()?;
                let (w, h) = v
                    .split_once('x')
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                    .ok_or(format!("--probe-geometry wants WxH, got {v}"))?;
                a.probe = Some((w, h));
            }
            // `key=value` facts the launcher gathered (git revision,
            // environment knobs it cleared).
            "--manifest" => {
                let v = val()?;
                let (k, x) = v
                    .split_once('=')
                    .ok_or(format!("--manifest wants k=v, got {v}"))?;
                a.extra_manifest.push((k.to_string(), x.to_string()));
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.probe.is_none() && a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn pinned_digest(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| u64::from_str_radix(d.trim(), 16).expect("digests.txt holds hex digests"))
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn read_trim(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unavailable".into())
}

/// `(steal, total)` jiffies over all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn host_facts() -> Vec<(String, J)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unavailable".into());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as i64)
        .unwrap_or(0);
    vec![
        ("nproc".into(), J::Int(nproc)),
        ("cpu_model".into(), J::Str(cpu)),
        (
            "kernel".into(),
            J::Str(read_trim("/proc/sys/kernel/osrelease")),
        ),
        (
            "rmem_default".into(),
            J::Str(read_trim("/proc/sys/net/core/rmem_default")),
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("arbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((w, h)) = args.probe {
        let ok = rt::probe_geometry(w, h, args.frames, args.seed);
        std::process::exit(if ok { 0 } else { 1 });
    }
    let budget = Duration::from_secs(args.seconds);
    let jiffies0 = cpu_jiffies();
    let pinned = pinned_digest(&args.workload, args.seed);
    let (params, mut out) = match args.workload.as_str() {
        "des_testbed" => {
            let w = des::DesWorkload::testbed(args.seed);
            let out = if args.trace {
                des::run_traced(&w, args.seed, budget, pinned)
            } else {
                des::run(&w, budget, pinned)
            };
            (w.params(), out)
        }
        "rt_camera" => {
            let w = rt::RtWorkload::camera(args.seed, budget);
            let out = if args.trace {
                rt::run_traced(&w, &args.workload, args.seed)
            } else {
                rt::run(&w)
            };
            (w.params(), out)
        }
        other => {
            eprintln!("arbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if !args.trace {
        out.e2e("peak_rss_mb", peak_rss_mb());
    }
    // Share of the machine's CPU time the hypervisor gave to others
    // while the workload ran: a disturbed run shows here.
    let steal_share = stats::steal_share(jiffies0, cpu_jiffies());

    let correct = out.errors.is_empty();
    let failed = if correct { 0 } else { out.attempted };
    let values: Vec<(String, f64, &str)> = if args.trace {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = out.layers.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = out
                    .e2e
                    .get(name)
                    .expect("every end-to-end metric is measured");
                (name.to_string(), *v, unit)
            })
            .collect()
    };
    for (name, v, unit) in &values {
        println!("{name:<24} {v:>16.6} {unit}");
    }
    let metrics: Vec<(String, J)> = values
        .into_iter()
        .map(|(name, v, unit)| (name, J::obj([("value", J::Num(v)), ("unit", J::str(unit))])))
        .collect();

    let mut manifest = vec![
        ("workload".to_string(), J::str(args.workload.clone())),
        ("seed".into(), J::Int(args.seed as i64)),
        ("seconds".into(), J::Int(args.seconds as i64)),
        ("trace".into(), J::Bool(args.trace)),
        (
            "params".into(),
            J::Obj(
                params
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), J::Str(v)))
                    .collect(),
            ),
        ),
        ("host".into(), J::Obj(host_facts())),
        ("cpu_steal_share".into(), J::Num(steal_share)),
    ];
    manifest.extend(args.extra_manifest.into_iter().map(|(k, v)| (k, J::Str(v))));
    manifest.extend(out.manifest);
    manifest.push((
        "check_errors".into(),
        J::Arr(out.errors.iter().cloned().map(J::Str).collect()),
    ));
    let manifest = J::Obj(manifest);
    let result = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Int(out.attempted as i64)),
        ("failed", J::Int(failed as i64)),
        ("metrics", J::Obj(metrics)),
    ]);
    let record = J::obj([("manifest", manifest.clone()), ("result", result.clone())]);
    let path = format!(
        "{}/{}-seed{}-trace{}.json",
        OUT_DIR,
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, record.render() + "\n"))
    {
        eprintln!("arbench: writing {path}: {e}");
    }
    println!("{}", J::obj([("manifest", manifest)]).render());
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
