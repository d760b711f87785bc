//! Reproducible performance benchmark suite — the gate behind
//! `scripts/bench.sh`.
//!
//! Times a fixed matrix over fixed seeds:
//!
//! * `des_steady` / `des_scatter` — single-thread DES throughput on the
//!   scAtteR++ / scAtteR C12×4 steady state (60 simulated seconds),
//!   reported as wall time and events/sec.
//! * `fig2_fig6` — regeneration of the two core figure tables, timed
//!   sequentially (`SCATTER_JOBS=1`, cache off) and again with the
//!   parallel cached harness, yielding `speedup_vs_sequential`.
//! * `figure_suite` — every simulation figure module (the `--bin all`
//!   set minus `fast_extractor`, which times real kernel wall-clock and
//!   would pollute a throughput measurement), same two passes.
//! * `vision_pyramid` / `vision_blur` — the sift-stage kernels on a
//!   synthetic 320×240 frame.
//!
//! Results land in `BENCH_2.json` as `name → {wall_ms, events_per_sec,
//! speedup_vs_sequential}` (null where a field is not meaningful).
//!
//! `perfbench --smoke <BENCH_2.json>` re-measures `des_steady` quickly
//! and fails (exit 1) if throughput regressed below 25% of the recorded
//! figure — the floor `scripts/verify.sh` enforces.
//!
//! The scale stage (DESIGN.md §14) is separate because its numbers are
//! memory- as well as time-shaped:
//!
//! * `perfbench --scale [--full] [OUT]` — the sited streaming
//!   ladder (1k/10k/100k clients, 1M with `--full`), ascending so each
//!   stage's `VmHWM` read is its own peak; lands in `BENCH_7.json` as
//!   `scale_<n> → {wall_ms, events_per_sec, peak_rss_mb}`.
//! * `perfbench --smoke-scale <BENCH_7.json>` — fresh-process 100k run
//!   gated on the ISSUE's absolute acceptance: ≥ 2M events/sec AND
//!   peak RSS ≤ 2048 MiB.
//!
//! `perfbench --diff [DIR]` compares the two newest committed
//! `BENCH_<n>.json` (by numeric suffix) over their common bench names
//! and fails (exit 1) on a >10 % events/sec regression or >20 % peak-RSS
//! growth — the cross-PR ratchet behind `scripts/bench_diff.sh`.

use std::fmt::Write as _;
use std::time::Instant;

use scatter::config::{placements, RunConfig};
use scatter::{run_experiment, Mode};
use simcore::SimDuration;

/// Best-of-`reps` wall time in ms.
fn time_ms<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn des_cfg(mode: Mode, secs: u64) -> RunConfig {
    RunConfig::new(mode, placements::c12(), 4)
        .with_duration(SimDuration::from_secs(secs))
        .with_warmup(SimDuration::from_secs(5))
        .with_seed(experiments::common::SEED)
}

/// One timed DES point: (wall_ms best-of-reps, events/sec at that wall).
fn bench_des(mode: Mode, secs: u64, reps: usize) -> (f64, f64) {
    let mut events = 0u64;
    let wall_ms = time_ms(
        || {
            let r = run_experiment(des_cfg(mode, secs));
            assert!(r.fps() > 0.5, "bench run produced no frames");
            events = r.events_executed;
        },
        reps,
    );
    (wall_ms, events as f64 / (wall_ms / 1e3))
}

type FigureFn = fn() -> Vec<experiments::Table>;

/// The simulation figure modules (the `--bin all` set minus
/// `fast_extractor`, which measures real kernel wall-clock).
fn sim_figures() -> Vec<(&'static str, FigureFn)> {
    vec![
        (
            "fig2",
            experiments::fig2_baseline_edge::run_figure as FigureFn,
        ),
        ("fig3", experiments::fig3_scalability::run_figure),
        ("fig4", experiments::fig4_cloud::run_figure),
        ("fig6", experiments::fig6_scatterpp_edge::run_figure),
        ("fig7", experiments::fig7_scaling::run_figure),
        ("fig8", experiments::fig8_sidecar::run_figure),
        ("fig9", experiments::fig9_network::run_figure),
        ("fig10", experiments::fig10_jitter::run_figure),
        ("fig11", experiments::fig11_hybrid::run_figure),
        ("fig12", experiments::fig12_timeline::run_figure),
        ("headline", experiments::headline::run_figure),
        ("ablation", experiments::ablation::run_figure),
        ("autoscale", experiments::autoscale_study::run_figure),
        ("scheduler", experiments::scheduler_study::run_figure),
        ("migration", experiments::migration_study::run_figure),
        ("burst_loss", experiments::burst_loss::run_figure),
        (
            "latency_breakdown",
            experiments::latency_breakdown::run_figure,
        ),
    ]
}

/// Render a set of figures, returning total rendered length (a cheap
/// checksum keeping the work from being optimized away).
fn render_figures(figs: &[(&'static str, FigureFn)]) -> usize {
    figs.iter()
        .flat_map(|(_, f)| f())
        .map(|t| t.render().len())
        .sum()
}

/// Time one figure set sequentially (jobs=1, cache off) and then with
/// the parallel cached harness; returns (par_wall_ms, speedup).
fn bench_figures(figs: &[(&'static str, FigureFn)], jobs: usize) -> (f64, f64) {
    std::env::set_var("SCATTER_JOBS", "1");
    std::env::set_var("SCATTER_RUN_CACHE", "0");
    experiments::common::clear_run_cache();
    let seq_ms = time_ms(|| assert!(render_figures(figs) > 0), 1);

    std::env::set_var("SCATTER_JOBS", jobs.to_string());
    std::env::set_var("SCATTER_RUN_CACHE", "1");
    experiments::common::clear_run_cache();
    let par_ms = time_ms(|| assert!(render_figures(figs) > 0), 1);
    experiments::common::clear_run_cache();
    (par_ms, seq_ms / par_ms)
}

fn synthetic_frame() -> vision::GrayImage {
    let (w, h) = (320usize, 240usize);
    let mut v = vec![0f32; w * h];
    for (i, px) in v.iter_mut().enumerate() {
        let (x, y) = (i % w, i / w);
        *px = ((x * 7 + y * 13) % 251) as f32 / 251.0;
    }
    vision::GrayImage::from_vec(w, h, v)
}

struct Entry {
    name: &'static str,
    wall_ms: f64,
    events_per_sec: Option<f64>,
    speedup_vs_sequential: Option<f64>,
}

fn render_json(entries: &[Entry], jobs: usize) -> String {
    let opt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.2}"),
        None => "null".into(),
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    // Context for reading `speedup_vs_sequential`: thread fan-out can
    // only beat sequential when host_cpus > 1 — on a single-core host
    // the recorded suite speedup is the run cache's contribution alone.
    let _ = writeln!(out, "  \"host_cpus\": {cpus},");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "  \"{}\": {{\"wall_ms\": {:.2}, \"events_per_sec\": {}, \
             \"speedup_vs_sequential\": {}}}{comma}",
            e.name,
            e.wall_ms,
            opt(e.events_per_sec),
            opt(e.speedup_vs_sequential),
        );
    }
    out.push_str("}\n");
    out
}

/// Pull `"<bench>": {... "<field>": <number> ...}` out of BENCH_2.json.
/// The file is machine-written by this binary with one bench per line,
/// so a line scan is a full parser for it.
fn read_recorded(json: &str, bench: &str, field: &str) -> Option<f64> {
    let line = json.lines().find(|l| l.contains(&format!("\"{bench}\"")))?;
    let at = line.find(&format!("\"{field}\""))?;
    let rest = &line[at..];
    let colon = rest.find(':')?;
    let num: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Bench names of a machine-written `BENCH_*.json`: one
/// `"name": { ... }` object per line (scalar context fields like
/// `"jobs"` and `"host_cpus"` have no object and are skipped).
fn bench_names(json: &str) -> Vec<String> {
    json.lines()
        .filter(|l| l.contains(": {"))
        .filter_map(|l| {
            let rest = l.trim_start().strip_prefix('"')?;
            Some(rest[..rest.find('"')?].to_string())
        })
        .collect()
}

/// `--diff` tolerances: a bench may lose at most 10 % events/sec and
/// gain at most 20 % peak RSS against the previous recorded file.
const DIFF_EPS_FLOOR: f64 = 0.90;
const DIFF_RSS_CEILING: f64 = 1.20;

/// Compare the two newest `BENCH_<n>.json` in `dir` by numeric suffix.
/// Bench sets legitimately drift across PRs (BENCH_2 is the figure
/// suite, BENCH_7+ the scale ladder), so only names present in both
/// files are compared — and an empty intersection is reported loudly
/// rather than passed off as coverage.
fn diff(dir: &str) -> i32 {
    let mut files: Vec<(u64, std::path::PathBuf)> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| {
                let p = e.ok()?.path();
                let name = p.file_name()?.to_str()?;
                let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
                Some((n.parse().ok()?, p))
            })
            .collect(),
        Err(e) => {
            eprintln!("perfbench --diff: cannot read {dir}: {e}");
            return 1;
        }
    };
    files.sort();
    let Some([(old_n, old_path), (new_n, new_path)]) = files.last_chunk::<2>() else {
        eprintln!(
            "perfbench --diff: found {} BENCH_<n>.json in {dir}, need 2 — nothing to diff",
            files.len()
        );
        return 0;
    };
    let read = |p: &std::path::Path| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("perfbench --diff: cannot read {}: {e}", p.display());
            None
        }
    };
    let (Some(old_json), Some(new_json)) = (read(old_path), read(new_path)) else {
        return 1;
    };

    println!(
        "perfbench --diff: BENCH_{new_n}.json vs BENCH_{old_n}.json \
         (floor {DIFF_EPS_FLOOR:.2}x events/sec, ceiling {DIFF_RSS_CEILING:.2}x peak RSS)"
    );
    let mut compared = 0usize;
    let mut failed = false;
    for name in bench_names(&new_json) {
        let pair = |field: &str| {
            Some((
                read_recorded(&old_json, &name, field)?,
                read_recorded(&new_json, &name, field)?,
            ))
        };
        if let Some((old, new)) = pair("events_per_sec") {
            compared += 1;
            let ratio = new / old.max(1e-9);
            println!(
                "  {name}: events/sec {old:.0} -> {new:.0} ({:+.1} %)",
                (ratio - 1.0) * 100.0
            );
            if ratio < DIFF_EPS_FLOOR {
                eprintln!("perfbench --diff: {name} lost more than 10 % events/sec");
                failed = true;
            }
        }
        if let Some((old, new)) = pair("peak_rss_mb") {
            compared += 1;
            let ratio = new / old.max(1e-9);
            println!(
                "  {name}: peak RSS {old:.1} MiB -> {new:.1} MiB ({:+.1} %)",
                (ratio - 1.0) * 100.0
            );
            if ratio > DIFF_RSS_CEILING {
                eprintln!("perfbench --diff: {name} grew peak RSS more than 20 %");
                failed = true;
            }
        }
    }
    if compared == 0 {
        eprintln!(
            "perfbench --diff: BENCH_{new_n}.json and BENCH_{old_n}.json share no \
             comparable bench (events_per_sec/peak_rss_mb) — diff is vacuous"
        );
        return 1;
    }
    if failed {
        return 1;
    }
    println!("perfbench --diff: {compared} comparison(s) within tolerance");
    0
}

/// One scale-ladder point: run it once, return (wall_ms, events/sec,
/// peak_rss_mb so far). Ascending callers get per-stage peaks because
/// `VmHWM` only ratchets upward with the largest world yet built.
fn bench_scale_point(clients: usize) -> (f64, f64, Option<f64>) {
    let t = Instant::now();
    let r = run_experiment(experiments::scale::scale_cfg(clients));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        r.scale.is_some() && r.events_executed > 0,
        "scale run produced no events"
    );
    let eps = r.events_executed as f64 / (wall_ms / 1e3);
    let rss_mb = bench::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0));
    (wall_ms, eps, rss_mb)
}

fn render_scale_json(entries: &[(usize, f64, f64, Option<f64>)]) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"host_cpus\": {cpus},");
    for (i, (clients, wall_ms, eps, rss_mb)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let rss = match rss_mb {
            Some(mb) => format!("{mb:.1}"),
            None => "null".into(),
        };
        let _ = writeln!(
            out,
            "  \"scale_{clients}\": {{\"wall_ms\": {wall_ms:.2}, \
             \"events_per_sec\": {eps:.2}, \"peak_rss_mb\": {rss}}}{comma}"
        );
    }
    out.push_str("}\n");
    out
}

fn scale_stage(full: bool, out_path: &str) {
    let mut counts: Vec<usize> = experiments::scale::SCALE_CLIENTS.to_vec();
    if full {
        counts.push(experiments::scale::SCALE_CLIENTS_FULL);
    }
    let mut entries = Vec::new();
    for clients in counts {
        eprintln!("perfbench --scale: {clients} clients...");
        let (wall_ms, eps, rss_mb) = bench_scale_point(clients);
        eprintln!(
            "perfbench --scale: {clients} clients: {eps:.0} events/sec \
             ({wall_ms:.1} ms, peak rss {})",
            rss_mb.map_or("n/a".into(), |m| format!("{m:.0} MiB")),
        );
        entries.push((clients, wall_ms, eps, rss_mb));
    }
    let json = render_scale_json(&entries);
    print!("{json}");
    std::fs::write(out_path, &json).expect("write scale benchmark results");
    eprintln!("perfbench: wrote {out_path}");
}

/// Absolute acceptance gates for the 100k-client point (single-core
/// container budget): events/sec floor and peak-RSS ceiling.
const SCALE_EPS_FLOOR: f64 = 2_000_000.0;
const SCALE_RSS_CEILING_MB: f64 = 2048.0;

fn smoke_scale(path: &str) -> i32 {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench --smoke-scale: cannot read {path}: {e}");
            return 1;
        }
    };
    if read_recorded(&json, "scale_100000", "events_per_sec").is_none() {
        eprintln!("perfbench --smoke-scale: no scale_100000.events_per_sec in {path}");
        return 1;
    }
    let (wall_ms, eps, rss_mb) = bench_scale_point(100_000);
    println!(
        "smoke scale_100000: {eps:.0} events/sec ({wall_ms:.1} ms), \
         peak rss {} (floor {SCALE_EPS_FLOOR:.0} ev/s, ceiling {SCALE_RSS_CEILING_MB:.0} MiB)",
        rss_mb.map_or("n/a".into(), |m| format!("{m:.0} MiB")),
    );
    if eps < SCALE_EPS_FLOOR {
        eprintln!("perfbench --smoke-scale: events/sec below the 100k-client floor");
        return 1;
    }
    if let Some(mb) = rss_mb {
        if mb > SCALE_RSS_CEILING_MB {
            eprintln!("perfbench --smoke-scale: peak RSS above the 2 GiB ceiling");
            return 1;
        }
    }
    0
}

fn smoke(path: &str) -> i32 {
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench --smoke: cannot read {path}: {e}");
            return 1;
        }
    };
    let Some(recorded) = read_recorded(&json, "des_steady", "events_per_sec") else {
        eprintln!("perfbench --smoke: no des_steady.events_per_sec in {path}");
        return 1;
    };
    // Short run, generous floor: the gate catches order-of-magnitude
    // regressions (an accidental O(n²) or debug-only path), not noise.
    let (wall_ms, eps) = bench_des(Mode::ScatterPP, 15, 2);
    let floor = recorded * 0.25;
    println!(
        "smoke des_steady: {eps:.0} events/sec ({wall_ms:.1} ms), \
         recorded {recorded:.0}, floor {floor:.0}"
    );
    if eps < floor {
        eprintln!("perfbench --smoke: throughput below floor — perf regression");
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--smoke") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_2.json");
        std::process::exit(smoke(path));
    }
    if args.first().map(String::as_str) == Some("--smoke-scale") {
        let path = args.get(1).map(String::as_str).unwrap_or("BENCH_7.json");
        std::process::exit(smoke_scale(path));
    }
    if args.first().map(String::as_str) == Some("--diff") {
        let dir = args.get(1).map(String::as_str).unwrap_or(".");
        std::process::exit(diff(dir));
    }
    if args.first().map(String::as_str) == Some("--scale") {
        let full = args.get(1).map(String::as_str) == Some("--full");
        let out = args
            .get(if full { 2 } else { 1 })
            .map(String::as_str)
            .unwrap_or("BENCH_7.json");
        scale_stage(full, out);
        return;
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_2.json".to_string());
    let jobs = 4; // fixed for reproducible speedup accounting

    eprintln!("perfbench: DES steady state (scAtteR++ C12, 4 clients, 60 s)...");
    let (des_ms, des_eps) = bench_des(Mode::ScatterPP, 60, 3);
    eprintln!("perfbench: DES scAtteR (cancel-heavy fetch path)...");
    let (sca_ms, sca_eps) = bench_des(Mode::Scatter, 60, 3);

    eprintln!("perfbench: fig2 + fig6 regeneration, sequential vs parallel...");
    let core: Vec<(&'static str, FigureFn)> = vec![
        (
            "fig2",
            experiments::fig2_baseline_edge::run_figure as FigureFn,
        ),
        ("fig6", experiments::fig6_scatterpp_edge::run_figure),
    ];
    let (core_ms, core_speedup) = bench_figures(&core, jobs);
    eprintln!("perfbench: full simulation figure suite, sequential vs parallel...");
    let (suite_ms, suite_speedup) = bench_figures(&sim_figures(), jobs);

    eprintln!("perfbench: sift-stage vision kernels (320x240)...");
    let img = synthetic_frame();
    let pyr_ms = time_ms(
        || {
            assert!(!vision::pyramid::Pyramid::build(&img, 4, 3, 1.6)
                .octaves
                .is_empty())
        },
        5,
    );
    let blur_ms = time_ms(
        || assert_eq!(vision::pyramid::gaussian_blur(&img, 2.0).width(), 320),
        10,
    );

    let entries = [
        Entry {
            name: "des_steady",
            wall_ms: des_ms,
            events_per_sec: Some(des_eps),
            speedup_vs_sequential: None,
        },
        Entry {
            name: "des_scatter",
            wall_ms: sca_ms,
            events_per_sec: Some(sca_eps),
            speedup_vs_sequential: None,
        },
        Entry {
            name: "fig2_fig6",
            wall_ms: core_ms,
            events_per_sec: None,
            speedup_vs_sequential: Some(core_speedup),
        },
        Entry {
            name: "figure_suite",
            wall_ms: suite_ms,
            events_per_sec: None,
            speedup_vs_sequential: Some(suite_speedup),
        },
        Entry {
            name: "vision_pyramid",
            wall_ms: pyr_ms,
            events_per_sec: None,
            speedup_vs_sequential: None,
        },
        Entry {
            name: "vision_blur",
            wall_ms: blur_ms,
            events_per_sec: None,
            speedup_vs_sequential: None,
        },
    ];
    let json = render_json(&entries, jobs);
    print!("{json}");
    std::fs::write(&out_path, &json).expect("write benchmark results");
    eprintln!("perfbench: wrote {out_path}");
}
