//! The three case-list workloads: the workload's case list is generated
//! here from the seed, and the program sees only that list, through
//! `build_harness`, `Harness::case_constraint_parts` and
//! `Session::run_prepared`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fmaverify::prelude::*;
use fmaverify::{build_harness, enumerate_cases, CaseResult, EngineKind, Harness, ShaCase};
use fmaverify_netlist::Signal;

use crate::rng::SplitMix64;

/// One `run_prepared` call: an instruction of one FPU format and the cases
/// to verify.
#[derive(Clone, Debug)]
pub struct Job {
    pub cfg: FpuConfig,
    pub op: FpuOp,
    pub cases: Vec<CaseId>,
}

/// A case-list workload: its jobs, run one after another, each on a pool
/// of `workers` threads.
#[derive(Clone, Debug)]
pub struct CaseWorkload {
    pub jobs: Vec<Job>,
    pub workers: usize,
}

pub fn ftz(format: FpFormat) -> FpuConfig {
    FpuConfig {
        format,
        denormals: DenormalMode::FlushToZero,
    }
}

/// `table1_cold`: add, mul and FMA at (4,4) FTZ, every case of Table 1.
/// The case set is fixed, so the seed does not change it.
pub fn table1(workers: usize) -> CaseWorkload {
    let cfg = ftz(FpFormat::new(4, 4));
    let jobs = [FpuOp::Add, FpuOp::Mul, FpuOp::Fma]
        .into_iter()
        .map(|op| Job {
            cfg,
            op,
            cases: enumerate_cases(&cfg, op),
        })
        .collect();
    CaseWorkload { jobs, workers }
}

/// `b32_sat_farout`: the binary32 far-out case of FMA and of add.
pub fn b32_sat_farout() -> CaseWorkload {
    let cfg = ftz(FpFormat::SINGLE);
    let jobs = [FpuOp::Fma, FpuOp::Add]
        .into_iter()
        .map(|op| Job {
            cfg,
            op,
            cases: vec![CaseId::FarOut],
        })
        .collect();
    CaseWorkload { jobs, workers: 1 }
}

/// Each stratum of `b32_bdd_sample` is a window of this many neighbouring
/// cases; the seed picks one case per window.
const B32_WINDOW: usize = 4;
/// Shift-amount windows of the cancellation sub-cases: a cheap one (about
/// 0.3 s per case at binary32) and an expensive one (0.5–1.2 s).
const B32_LOW_SHA: usize = 8;
const B32_HIGH_SHA: usize = 40;

/// `b32_bdd_sample`: a seeded, stratified sample of 12 binary32 FMA overlap
/// cases — 4 no-cancellation δs, and for each of the 4 cancellation δs one
/// cheap and one expensive `C_sha` sub-case (so every cancellation δ is
/// shared by two sub-cases).
///
/// The strata are windows of neighbouring cases, which cost about the
/// same: 4 windows of δs evenly spaced over the no-cancellation range, and
/// per cancellation δ a window of low and a window of high shift amounts.
/// The seed picks one case in each window, so every seed measures the same
/// cost profile and the timings depend little on the seed.
pub fn b32_bdd_sample(seed: u64) -> CaseWorkload {
    let cfg = ftz(FpFormat::SINGLE);
    let all = enumerate_cases(&cfg, FpuOp::Fma);
    let no_cancel: Vec<CaseId> = all
        .iter()
        .copied()
        .filter(|c| matches!(c, CaseId::OverlapNoCancel { .. }))
        .collect();
    let mut rng = SplitMix64::new(seed);
    let strata = 4;
    let stride = no_cancel.len() / strata;
    let mut picked: Vec<CaseId> = (0..strata)
        .map(|i| no_cancel[i * stride + (stride - B32_WINDOW) / 2 + rng.below(B32_WINDOW)])
        .collect();
    for &delta in &cfg.cancellation_deltas() {
        for window in [B32_LOW_SHA, B32_HIGH_SHA] {
            picked.push(CaseId::OverlapCancel {
                delta,
                sha: ShaCase::Exact(window + rng.below(B32_WINDOW)),
            });
        }
    }
    // Verify in the program's own enumeration order.
    picked.sort_by_key(|c| all.iter().position(|a| a == c));
    CaseWorkload {
        jobs: vec![Job {
            cfg,
            op: FpuOp::Fma,
            cases: picked,
        }],
        workers: 1,
    }
}

/// A job's harness and case constraints, with the time each took.
pub struct Prepared {
    pub harness: Harness,
    pub constraints: Vec<(CaseId, Vec<Signal>)>,
    pub build: Duration,
    pub constrain: Duration,
}

pub fn prepare(job: &Job) -> Prepared {
    let t = Instant::now();
    let mut harness = build_harness(&job.cfg, HarnessOptions::default());
    let build = t.elapsed();
    let t = Instant::now();
    let constraints = job
        .cases
        .iter()
        .map(|&case| (case, harness.case_constraint_parts(job.op, case)))
        .collect();
    let constrain = t.elapsed();
    Prepared {
        harness,
        constraints,
        build,
        constrain,
    }
}

/// The configuration every measured session runs under: the library's
/// defaults with the worker count and the cache set explicitly. Nothing is
/// read from the environment.
pub fn run_config(workers: usize) -> RunConfig {
    RunConfig {
        threads: workers,
        cache_mode: CacheMode::Off,
        ..RunConfig::default()
    }
}

pub fn session(cfg: &FpuConfig, workers: usize, tracer: Tracer) -> Session {
    Session::new(cfg).configure(run_config(workers).tracer(tracer))
}

/// Deterministic engine effort of one pass: counters that must repeat
/// exactly whenever the same inputs are verified again.
pub type Effort = BTreeMap<&'static str, u64>;

pub fn effort_of(results: &[CaseResult]) -> Effort {
    let mut e = Effort::new();
    let mut peak_max = 0;
    let mut add = |k: &'static str, v: u64| *e.entry(k).or_insert(0) += v;
    for r in results {
        add("cases", 1);
        add("holds", u64::from(r.holds()));
        add("escalations", r.escalations() as u64);
        for a in &r.attempts {
            let m = &a.stats.metrics;
            match a.engine {
                EngineKind::Sat => {
                    add("sat.conflicts", m.get(Counter::SatConflicts));
                    add("sat.decisions", m.get(Counter::SatDecisions));
                    add("sat.propagations", m.get(Counter::SatPropagations));
                }
                EngineKind::Bdd | EngineKind::BddSequential => {
                    add("bdd.ite_calls", m.get(Counter::BddIteCalls));
                    add("bdd.nodes_created", m.get(Counter::BddNodesAllocated));
                    add("bdd.gc_runs", m.get(Counter::BddGcRuns));
                    let peak = a.stats.peak_bdd_nodes.unwrap_or(0) as u64;
                    add("engine_bdd.peak_nodes_sum", peak);
                    peak_max = peak_max.max(peak);
                }
            }
        }
    }
    e.insert("engine_bdd.peak_nodes_max", peak_max);
    e
}

/// One pass over a case-list workload: set-up, then every job's cases.
pub struct Pass {
    pub wall: Duration,
    pub setup: Duration,
    pub results: Vec<CaseResult>,
    pub prepared: Vec<Prepared>,
}

/// Runs one pass. With a recording `tracer`, the benchmark brackets each
/// public call in its own span (under a `bench.pass` span) and the
/// sessions stream the program's spans into the same tracer.
pub fn run_pass(w: &CaseWorkload, tracer: &Tracer) -> Pass {
    let start = Instant::now();
    let mut pass_span = tracer.span(SpanKind::Run, || "bench.pass".into());
    let mut prepared = Vec::new();
    let mut setup = Duration::ZERO;
    let mut results = Vec::new();
    for job in &w.jobs {
        let p = {
            let _span = pass_span.child(SpanKind::Op, || "bench.setup".into());
            prepare(job)
        };
        setup += p.build + p.constrain;
        let _span = pass_span.child(SpanKind::Op, || "bench.run_prepared".into());
        let s = session(&job.cfg, w.workers, tracer.clone());
        results.extend(s.run_prepared(&p.harness, job.op, &p.constraints));
        prepared.push(p);
    }
    pass_span.field("cases", fmaverify::JsonValue::int(results.len() as u64));
    drop(pass_span);
    Pass {
        wall: start.elapsed(),
        setup,
        results,
        prepared,
    }
}

/// Cases attempted and failed in one pass, plus a line per problem. A
/// case fails on any verdict but holds; on `table1_cold` the shape
/// relations must hold as well.
pub fn check(workload: &str, results: &[CaseResult]) -> (u64, u64, Vec<String>) {
    let mut problems: Vec<String> = results
        .iter()
        .filter(|r| !r.holds())
        .map(|r| format!("{:?} {}: {:?}", r.op, r.case.label(), r.verdict))
        .collect();
    let failed = problems.len() as u64;
    if workload == "table1_cold" {
        for f in table1_shape_failures(results) {
            problems.push(format!("Table-1 shape relation failed: {f}"));
        }
    }
    (results.len() as u64, failed, problems)
}

/// The Table-1 shape relations, checked on deterministic peak nodes rather
/// than wall time so that they cannot flip with the worker count. Returns
/// the failed relations.
fn table1_shape_failures(results: &[CaseResult]) -> Vec<&'static str> {
    let peak = |op: FpuOp, class: CaseClass| {
        results
            .iter()
            .filter(|r| r.op == op && r.case.class() == class)
            .filter_map(|r| r.bdd_peak_nodes())
            .max()
            .unwrap_or(0)
    };
    let overlap_peak = |op| {
        peak(op, CaseClass::OverlapWithCancellation).max(peak(op, CaseClass::OverlapNoCancellation))
    };
    let sat_only = |r: &&CaseResult| {
        r.attempts.iter().all(|a| a.engine == EngineKind::Sat) && !r.attempts.is_empty()
    };
    let mut failed = Vec::new();
    if overlap_peak(FpuOp::Fma) < overlap_peak(FpuOp::Add) {
        failed.push("FMA overlap peak nodes >= add overlap peak nodes");
    }
    if peak(FpuOp::Fma, CaseClass::OverlapWithCancellation)
        < peak(FpuOp::Fma, CaseClass::OverlapNoCancellation)
    {
        failed.push("FMA cancellation peak nodes >= FMA no-cancellation peak nodes");
    }
    let far_or_mul: Vec<&CaseResult> = results
        .iter()
        .filter(|r| r.op == FpuOp::Mul || r.case == CaseId::FarOut)
        .collect();
    if far_or_mul.len() != 3 || !far_or_mul.iter().all(sat_only) {
        failed.push("far-out and mul cases are decided by SAT alone");
    }
    failed
}
