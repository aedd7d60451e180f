//! The fmaverify benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the workload's end-to-end metrics (tracing
//! off); with `--trace 1` it makes untraced and traced passes and reports
//! per-layer metrics from the trace. Either way it checks every verdict and
//! prints, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero when a check
//! fails. See `perfbench/README.md` for the workloads and metrics.

mod campaign;
mod cases;
mod layers;
mod rng;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fmaverify::prelude::*;

use cases::{CaseWorkload, Effort};
use stats::Summary;

/// Standalone set-up repetitions, on top of each pass's own, made in a
/// burst before every pass and after the last: at least `SETUP_MIN_REPS`,
/// and more until `SETUP_BURST` is spent. The host's speed drifts over
/// seconds, and a millisecond-scale set-up timed in one block would take
/// its median from whatever state the host was in at that moment.
const SETUP_MIN_REPS: usize = 5;
const SETUP_BURST: Duration = Duration::from_millis(150);
/// Passes a measured run makes even when they overrun `--seconds`: a
/// median needs more than one sample.
const MIN_PASSES: usize = 2;

const WORKLOADS: [&str; 4] = [
    "table1_cold",
    "b32_bdd_sample",
    "b32_sat_farout",
    "campaign_3x2",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} must be a whole number"))
    };
    let workload = get("workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds: num("seconds")?.max(1),
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: the verdict checks and the metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The measured program must not be steered by stray environment: the
    // benchmark configures every run explicitly and refuses to run when a
    // variable the library or its bench tools read is set.
    let stray: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("FMAVERIFY_"))
        .collect();
    if !stray.is_empty() {
        eprintln!("perfbench: refusing to run with {stray:?} set; unset them");
        return ExitCode::from(2);
    }

    settle_malloc();
    print_config(&args);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let outcome = match (args.workload.as_str(), args.trace) {
        ("campaign_3x2", false) => measure_campaign(&campaign::campaign_3x2(), deadline),
        ("campaign_3x2", true) => layers::trace_campaign(&campaign::campaign_3x2(), deadline),
        (name, trace) => {
            let w = case_workload(name, args.seed);
            print_case_list(&w);
            if trace {
                layers::trace_cases(name, &w, deadline)
            } else {
                measure_cases(name, &w, deadline)
            }
        }
    };
    report(&outcome)
}

/// glibc raises its mmap threshold each time a large block is freed, up to
/// 32 MiB. Until it gets there, a fresh process places the BDD arenas
/// differently from pass to pass, and peak_rss_mb swings by ±20%. Starting
/// at the ceiling gives every pass the placement that a long-running
/// verifier settles into. (Fixing the threshold also fixes the trim
/// threshold at its default, so each pass's heap is returned to the kernel
/// and the next pass's peak is its own.)
fn settle_malloc() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` is glibc's documented tuning entry point and
        // takes plain integers; it runs before this process starts any other
        // thread.
        if unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) } != 1 {
            eprintln!("perfbench: mallopt(M_MMAP_THRESHOLD) failed; peak_rss_mb will be noisier");
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn case_workload(name: &str, seed: u64) -> CaseWorkload {
    match name {
        "table1_cold" => cases::table1(nproc()),
        "b32_bdd_sample" => cases::b32_bdd_sample(seed),
        "b32_sat_farout" => cases::b32_sat_farout(),
        _ => unreachable!("workload names are checked in parse_args"),
    }
}

/// The effective configuration, recorded with every result.
fn print_config(args: &Args) {
    let (format, workers, cache) = match args.workload.as_str() {
        "table1_cold" => ("(4,4) FTZ", nproc(), "off"),
        "campaign_3x2" => ("(3,2) FTZ, three-stage pipeline", 1, "rw (fresh per pass)"),
        _ => ("(8,23) FTZ", 1, "off"),
    };
    let d = RunConfig::default();
    println!(
        "config: workload={} seed={} seconds={} trace={} format={format} workers={workers} \
         cache={cache} gc_threshold={} bdd_cache_size={} nproc={} rev={} src_sha256={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        d.gc_threshold,
        d.bdd_cache_size,
        nproc(),
        git_rev(),
        source_digest(),
    );
}

fn print_case_list(w: &CaseWorkload) {
    for job in &w.jobs {
        let labels: Vec<String> = job.cases.iter().map(|c| c.label()).collect();
        let shown = if labels.len() > 16 {
            format!("all {} cases", labels.len())
        } else {
            labels.join(", ")
        };
        println!("cases: {:?} {:?}: {shown}", job.cfg.format, job.op);
    }
}

/// The checkout's git revision, when the checkout is a git repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.chars().take(12).collect(),
        None => "none".into(),
    }
}

/// SHA-256 over the library sources (`crates/**`, `.rs` and `.toml`), so a
/// result names the program it measured even outside a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = fmaverify_netlist::Sha256::new();
    for f in &files {
        h.update_bytes(f.to_string_lossy().as_bytes());
        h.update_bytes(&std::fs::read(f).unwrap_or_default());
    }
    let hex = fmaverify_netlist::Sha256::to_hex(&h.finalize());
    hex[..16].to_string()
}

/// Resets this process's resident-set high-water mark to its current
/// resident set, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Prints a timing sample as median with its spread.
fn print_timing(name: &str, unit: &str, values: &[f64]) -> f64 {
    let s = Summary::of(values);
    println!(
        "  {name:<14} {:>12.4} {unit:<3} median  [q1 {:.4}, q3 {:.4}]  n={}  spread {:.2}%",
        s.median,
        s.q1,
        s.q3,
        s.n,
        100.0 * s.spread()
    );
    s.median
}

fn print_tail(values_ms: &[f64], what: &str) {
    match stats::tail(values_ms, 10) {
        Some((pct, v)) => println!(
            "  case_tail_ms   {v:>12.4} ms  at p{pct:.1} of n={} {what} (10 samples beyond)",
            values_ms.len()
        ),
        None => println!(
            "  case_tail_ms   not reported: n={} {what} leave no percentile >= p75 with 10 samples beyond",
            values_ms.len()
        ),
    }
}

/// Times one burst of `once`, in seconds.
fn setup_samples(mut once: impl FnMut() -> Duration) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_BURST {
        samples.push(once().as_secs_f64());
    }
    samples
}

/// Compares the deterministic effort of every repetition with the first.
pub fn check_effort(efforts: &[Effort], problems: &mut Vec<String>) {
    let Some(first) = efforts.first() else {
        return;
    };
    let mut line = String::new();
    for (k, v) in first {
        let _ = write!(line, " {k}={v}");
    }
    println!("effort:{line}");
    for (i, e) in efforts.iter().enumerate().skip(1) {
        if e != first {
            problems.push(format!(
                "effort counts of repetition {i} differ from repetition 0: {e:?}"
            ));
        }
    }
}

fn measure_cases(name: &str, w: &CaseWorkload, deadline: Instant) -> Outcome {
    let prepare_all = || {
        let t = Instant::now();
        for job in &w.jobs {
            drop(cases::prepare(job));
        }
        t.elapsed()
    };
    let mut setup = Vec::new();
    let (mut walls, mut accs, mut case_ms, mut efforts) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut rss = Vec::new();
    loop {
        setup.extend(setup_samples(prepare_all));
        reset_peak_rss();
        let pass = cases::run_pass(w, &Tracer::disabled());
        rss.push(peak_rss_mb());
        walls.push(pass.wall.as_secs_f64());
        setup.push(pass.setup.as_secs_f64());
        accs.push(pass.results.iter().map(|r| r.duration.as_secs_f64()).sum());
        case_ms.extend(pass.results.iter().map(|r| ms(r.duration)));
        let (a, f, p) = cases::check(name, &pass.results);
        attempted += a;
        failed += f;
        problems.extend(p);
        efforts.push(cases::effort_of(&pass.results));
        if walls.len() >= MIN_PASSES && Instant::now() + pass.wall > deadline {
            break;
        }
    }
    setup.extend(setup_samples(prepare_all));
    check_effort(&efforts, &mut problems);
    println!("passes: {}", walls.len());
    let metrics = end_to_end([&walls, &setup, &accs, &case_ms, &rss]);
    print_tail(&case_ms, "cases");
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}

fn measure_campaign(w: &campaign::CampaignWorkload, deadline: Instant) -> Outcome {
    let dir = campaign::scratch_dir();
    println!(
        "campaign: {:?} {:?} three-stage pipeline, {} mutants, mutation_seed={:#x}",
        w.cfg.format,
        w.op,
        campaign::MUTANTS,
        w.mutation_seed
    );
    println!(
        "note: run_campaign builds its harness and case constraints inside the \
         measured call (part of wall_s); setup_s times the same calls standalone \
         plus opening the cache"
    );
    let setup_dir = dir.join("setup");
    let prepare = || campaign::setup(w, &setup_dir);
    let mut setup = Vec::new();
    let (mut walls, mut warm, mut accs, mut mutant_ms, mut efforts) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut rss = Vec::new();
    loop {
        setup.extend(setup_samples(prepare));
        reset_peak_rss();
        let pass = campaign::run_pass(w, &dir.join("cache"), &Tracer::disabled());
        rss.push(peak_rss_mb());
        if efforts.is_empty() {
            let list: Vec<String> = pass.cold.outcomes.iter().map(campaign::label).collect();
            println!("mutants: {}", list.join(" "));
        }
        walls.push(pass.cold_wall.as_secs_f64());
        warm.push(pass.warm_wall.as_secs_f64());
        accs.push(
            pass.cold
                .outcomes
                .iter()
                .map(|o| o.wall.as_secs_f64())
                .sum(),
        );
        mutant_ms.extend(pass.cold.outcomes.iter().map(|o| ms(o.wall)));
        let (a, f, p) = campaign::check(&pass);
        attempted += a;
        failed += f;
        problems.extend(p);
        efforts.push(campaign::effort(&pass));
        if walls.len() >= MIN_PASSES && Instant::now() + pass.cold_wall + pass.warm_wall > deadline
        {
            break;
        }
    }
    setup.extend(setup_samples(prepare));
    campaign::remove_scratch(&dir);
    check_effort(&efforts, &mut problems);
    println!(
        "passes: {} (each a cold campaign and its warm rerun)",
        walls.len()
    );
    println!("note: accumulated_s and case_p50_ms are over per-mutant verification times");
    let metrics = end_to_end([&walls, &setup, &accs, &mutant_ms, &rss]);
    print_timing("warm_wall_s", "s", &warm);
    print_tail(&mutant_ms, "mutants");
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}

/// Prints the end-to-end metrics, in `BENCHMARK.json` order, from their
/// samples, and reports each sample's median.
fn end_to_end(samples: [&[f64]; 5]) -> Vec<Metric> {
    const METRICS: [(&str, &str); 5] = [
        ("wall_s", "s"),
        ("setup_s", "s"),
        ("accumulated_s", "s"),
        ("case_p50_ms", "ms"),
        ("peak_rss_mb", "MB"),
    ];
    METRICS
        .iter()
        .zip(samples)
        .map(|(&(name, unit), values)| Metric {
            name,
            value: print_timing(name, unit, values),
            unit,
        })
        .collect()
}

/// Prints the problems, every metric with its unit, and the JSON result
/// line; fails the process when any check failed.
fn report(o: &Outcome) -> ExitCode {
    for p in &o.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "  failed_frac    {:>12.4}      ({} of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    let correct = o.problems.is_empty() && o.failed == 0;
    let mut json = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.attempted.max(1),
        o.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
