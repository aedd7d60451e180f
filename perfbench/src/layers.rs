//! The traced run (`--trace 1`): per-layer metrics.
//!
//! A run alternates untraced passes with passes that have the program's
//! `Tracer::in_memory` attached; the benchmark records its own spans around
//! every public call into the same tracer. The last traced pass is broken
//! into layers:
//!
//! * set-up — the benchmark's spans around `build_harness` and
//!   `Harness::case_constraint_parts`;
//! * per scheduler pool (the program's `run` spans) — engine stage spans,
//!   counterexample replay spans, the rest of each case span (fingerprint,
//!   cache lookup and store, bookkeeping), the gaps between cases while
//!   work was still queued (dispatch) and the idle worker time after the
//!   last case started (tail idle); worker time is divided by the pool's
//!   worker count to give each layer's share of the wall;
//! * for the campaign, the time `run_campaign` spends outside its pools
//!   (its own set-up, fault injection, unrolling, screening);
//! * whatever is left of the traced wall is reported as `unattributed`.
//!
//! Engine internals are split by probes made after the traced pass, on the
//! same harness and constraints: the BDD care-set pass by
//! `check_miter_bdd_parts` with a constant-false miter (the miter pass is
//! the remainder of the engine time), SAT encoding by replaying the
//! engine's sequence through `SatEncoder::lit` and
//! `Solver::solve_with_assumptions` (the search is the remainder), and
//! fingerprinting by
//! `Fingerprint::compute` on the campaign's unrolled clean harness.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fmaverify::prelude::*;
use fmaverify::{
    build_harness, check_miter_bdd_parts, enumerate_cases, paper_order, unroll_harness,
    BddEngineOptions, EngineKind, Fingerprint, TraceEvent,
};
use fmaverify_netlist::{SatEncoder, Signal};
use fmaverify_sat::{SolveResult, Solver};

use crate::campaign::{self, CampaignWorkload};
use crate::cases::{self, CaseWorkload};
use crate::stats::{self, Summary};
use crate::{check_effort, ms, Metric, Outcome};

/// Every per-layer metric: name, unit, and the end-to-end metric (and
/// workload) it is predicted to move. The order is the report order.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("harness.build_ms", "ms", "setup_s on every workload"),
    ("harness.and_gates", "count", "setup_s on every workload"),
    ("cases.count", "count", "setup_s on every workload"),
    ("cases.constraint_ms", "ms", "setup_s on every workload"),
    (
        "runner.utilization",
        "ratio",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    (
        "runner.makespan_gap_ms",
        "ms",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    (
        "runner.queue_p50_ms",
        "ms",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    (
        "runner.queue_tail_ms",
        "ms",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    (
        "runner.stolen",
        "count",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    (
        "runner.escalations",
        "count",
        "wall_s on table1_cold; flat on 1-worker workloads",
    ),
    ("runner.dispatch_ms", "ms", "wall_s on table1_cold"),
    ("runner.tail_idle_ms", "ms", "wall_s on table1_cold"),
    (
        "runner.case_overhead_ms",
        "ms",
        "wall_s and warm_wall_s on campaign_3x2",
    ),
    ("runner.cex_replay_ms", "ms", "wall_s on campaign_3x2"),
    (
        "engine_bdd.ms",
        "ms",
        "accumulated_s on b32_bdd_sample and table1_cold",
    ),
    (
        "engine_bdd.peak_nodes_max",
        "count",
        "accumulated_s on b32_bdd_sample and table1_cold",
    ),
    (
        "engine_bdd.peak_nodes_sum",
        "count",
        "accumulated_s on b32_bdd_sample and table1_cold",
    ),
    (
        "engine_bdd.care_pass_ms",
        "ms",
        "accumulated_s on b32_bdd_sample; flat on b32_sat_farout",
    ),
    (
        "engine_bdd.miter_pass_ms",
        "ms",
        "accumulated_s on b32_bdd_sample; flat on b32_sat_farout",
    ),
    (
        "bdd.ite_calls",
        "count",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.ite_per_s",
        "1/s",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.cache_hit_ratio",
        "ratio",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.cache_evictions",
        "count",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.nodes_created",
        "count",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.unique_probes_per_node",
        "ratio",
        "accumulated_s and peak_rss_mb on b32_bdd_sample",
    ),
    (
        "bdd.gc_runs",
        "count",
        "accumulated_s and peak_rss_mb on b32_bdd_sample; flat on table1_cold",
    ),
    (
        "bdd.gc_freed",
        "count",
        "accumulated_s and peak_rss_mb on b32_bdd_sample; flat on table1_cold",
    ),
    (
        "engine_sat.ms",
        "ms",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold; flat on b32_bdd_sample",
    ),
    (
        "engine_sat.cone_ands",
        "count",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "engine_sat.encode_ms",
        "ms",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "engine_sat.solve_ms",
        "ms",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "sat.conflicts",
        "count",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "sat.decisions",
        "count",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "sat.propagations",
        "count",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "sat.restarts",
        "count",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "sat.props_per_s",
        "1/s",
        "wall_s on b32_sat_farout, accumulated_s on table1_cold",
    ),
    (
        "cache.fingerprint_ms",
        "ms",
        "warm_wall_s and wall_s on campaign_3x2; cache off elsewhere",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        "warm_wall_s and wall_s on campaign_3x2; cache off elsewhere",
    ),
    (
        "cache.replayed_cases",
        "count",
        "warm_wall_s and wall_s on campaign_3x2",
    ),
    ("campaign.mutants", "count", "wall_s on campaign_3x2"),
    ("campaign.killed", "count", "wall_s on campaign_3x2"),
    ("campaign.screened_out", "count", "wall_s on campaign_3x2"),
    ("campaign.cases_run", "count", "wall_s on campaign_3x2"),
    ("campaign.warm_wall_ms", "ms", "warm_wall_s on campaign_3x2"),
    ("campaign.outside_runner_ms", "ms", "wall_s on campaign_3x2"),
    (
        "trace.overhead_frac",
        "ratio",
        "none: tracing is off in measured runs (ROADMAP: <= 1%)",
    ),
    (
        "trace.unattributed_frac",
        "ratio",
        "none: traced-run integrity",
    ),
];

/// Largest share of the traced wall the layers may leave unattributed.
const MAX_UNATTRIBUTED: f64 = 0.05;

type Layers = BTreeMap<&'static str, f64>;

/// A closed span, with start and end in seconds since the tracer's epoch.
struct Rec {
    id: u64,
    parent: Option<u64>,
    kind: SpanKind,
    name: String,
    start: f64,
    end: f64,
    metrics: fmaverify::MetricSet,
    cached: bool,
}

fn records(events: &[TraceEvent]) -> Vec<Rec> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SpanEnd {
                id,
                parent,
                kind,
                name,
                t,
                dur,
                metrics,
                fields,
            } => Some(Rec {
                id: *id,
                parent: *parent,
                kind: *kind,
                name: name.clone(),
                start: (*t - *dur).as_secs_f64(),
                end: t.as_secs_f64(),
                metrics: metrics.clone(),
                cached: fields
                    .iter()
                    .any(|(k, v)| k == "cached" && *v == fmaverify::JsonValue::Bool(true)),
            }),
            _ => None,
        })
        .collect()
}

impl Rec {
    fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Folds the program's pool, case and stage spans into `m` (milliseconds
/// of wall share for the time layers, raw sums for the counters) and
/// returns the wall the pools covered, in seconds.
fn fold_pools(recs: &[Rec], workers: usize, m: &mut Layers) -> f64 {
    let add = |m: &mut Layers, k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
    let mut pools_wall = 0.0;
    let mut queue_ms = Vec::new();
    let mut case_total = 0.0;
    let (mut hits, mut misses) = (0u64, 0u64);
    for pool in recs
        .iter()
        .filter(|r| r.kind == SpanKind::Run && r.name.starts_with("cases:"))
    {
        let cases: Vec<&Rec> = recs
            .iter()
            .filter(|r| r.kind == SpanKind::Case && r.parent == Some(pool.id))
            .collect();
        let k = workers.min(cases.len()).max(1) as f64;
        let wall = pool.dur();
        pools_wall += wall;
        let (mut busy, mut longest, mut last_start) = (0.0f64, 0.0f64, pool.start);
        for c in &cases {
            let children = recs.iter().filter(|r| r.parent == Some(c.id));
            let (mut stages, mut replay) = (0.0, 0.0);
            for s in children {
                match s.kind {
                    SpanKind::Stage => {
                        stages += s.dur();
                        let sat = s.name.starts_with("sat");
                        let key = if sat {
                            "engine_sat.ms"
                        } else {
                            "engine_bdd.ms"
                        };
                        add(m, key, 1e3 * s.dur());
                        add(
                            m,
                            if sat { "layer.sat" } else { "layer.bdd" },
                            1e3 * s.dur() / k,
                        );
                        fold_counters(&s.metrics, sat, m);
                    }
                    SpanKind::Op if s.name == "replay" => replay += s.dur(),
                    _ => {}
                }
            }
            add(m, "runner.cex_replay_ms", 1e3 * replay / k);
            add(
                m,
                "runner.case_overhead_ms",
                1e3 * (c.dur() - stages - replay) / k,
            );
            add(
                m,
                "runner.stolen",
                c.metrics.get(Counter::SchedSteals) as f64,
            );
            add(
                m,
                "runner.escalations",
                c.metrics.get(Counter::SchedEscalations) as f64,
            );
            queue_ms.push(c.metrics.get(Counter::SchedQueueLatencyMicros) as f64 / 1e3);
            if c.cached {
                hits += 1;
            } else {
                misses += 1;
            }
            busy += c.dur();
            longest = longest.max(c.dur());
            last_start = last_start.max(c.start);
        }
        case_total += busy;
        // Worker time after the last case started, when nothing was left
        // to dispatch: idle workers waiting for the slowest case.
        let after: f64 = cases
            .iter()
            .map(|c| (c.end.min(pool.end) - c.start.max(last_start)).max(0.0))
            .sum();
        let tail = k * (pool.end - last_start) - after;
        add(m, "runner.tail_idle_ms", 1e3 * tail / k);
        add(m, "runner.dispatch_ms", 1e3 * (k * wall - busy - tail) / k);
        add(
            m,
            "runner.makespan_gap_ms",
            1e3 * (wall - longest.max(busy / k)),
        );
    }
    m.insert("layer.case_total_s", case_total);
    if !queue_ms.is_empty() {
        m.insert("runner.queue_p50_ms", Summary::of(&queue_ms).median);
        // Small pools have no supported tail; their maximum stands in.
        let tail = stats::tail(&queue_ms, 10)
            .map_or_else(|| queue_ms.iter().copied().fold(0.0, f64::max), |t| t.1);
        m.insert("runner.queue_tail_ms", tail);
    }
    if hits + misses > 0 {
        m.insert("cache.hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    pools_wall
}

fn fold_counters(metrics: &fmaverify::MetricSet, sat: bool, m: &mut Layers) {
    let mut add = |k: &'static str, c: Counter| {
        *m.entry(k).or_insert(0.0) += metrics.get(c) as f64;
    };
    if sat {
        add("sat.conflicts", Counter::SatConflicts);
        add("sat.decisions", Counter::SatDecisions);
        add("sat.propagations", Counter::SatPropagations);
        add("sat.restarts", Counter::SatRestarts);
        return;
    }
    add("bdd.ite_calls", Counter::BddIteCalls);
    add("bdd.cache_hits", Counter::BddCacheHits);
    add("bdd.cache_misses", Counter::BddCacheMisses);
    add("bdd.cache_evictions", Counter::BddCacheEvictions);
    add("bdd.nodes_created", Counter::BddNodesAllocated);
    add("bdd.unique_probes", Counter::BddUniqueProbes);
    add("bdd.gc_runs", Counter::BddGcRuns);
    add("bdd.gc_freed", Counter::BddGcFreed);
    add("engine_bdd.peak_nodes_sum", Counter::BddPeakLiveNodes);
    let peak = metrics.get(Counter::BddPeakLiveNodes) as f64;
    let max = m.entry("engine_bdd.peak_nodes_max").or_insert(0.0);
    *max = max.max(peak);
}

/// Ratios derived from the folded sums.
fn derive_ratios(m: &mut Layers) {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = get(m, "bdd.cache_hits");
    let lookups = hits + get(m, "bdd.cache_misses");
    m.insert("bdd.cache_hit_ratio", ratio(hits, lookups));
    let per_node = ratio(get(m, "bdd.unique_probes"), get(m, "bdd.nodes_created"));
    m.insert("bdd.unique_probes_per_node", per_node);
    let ite = ratio(get(m, "bdd.ite_calls"), get(m, "engine_bdd.ms") / 1e3);
    m.insert("bdd.ite_per_s", ite);
    let props = ratio(get(m, "sat.propagations"), get(m, "engine_sat.ms") / 1e3);
    m.insert("sat.props_per_s", props);
}

/// Prints the layer breakdown of one traced pass and checks that the
/// layers account for its wall. `named` lists the layers (ms of wall).
fn print_layer_sum(wall_s: f64, named: &[(&str, f64)], m: &mut Layers, problems: &mut Vec<String>) {
    let wall_ms = 1e3 * wall_s;
    let attributed: f64 = named.iter().map(|(_, v)| v).sum();
    let unattributed = wall_ms - attributed;
    println!("layers of the traced pass (self time, ms of wall; worker time / workers):");
    for (name, v) in named.iter().chain([("unattributed", unattributed)].iter()) {
        println!("  {name:<28} {v:>12.3} ms  {:>6.2}%", 100.0 * v / wall_ms);
    }
    println!("  {:<28} {wall_ms:>12.3} ms", "traced wall");
    let frac = (unattributed / wall_ms).abs();
    m.insert("trace.unattributed_frac", frac);
    if frac > MAX_UNATTRIBUTED {
        problems.push(format!(
            "layers leave {:.1}% of the traced wall unattributed (limit {:.0}%)",
            100.0 * frac,
            100.0 * MAX_UNATTRIBUTED
        ));
    }
}

fn overhead(untraced: &[f64], traced: &[f64], m: &mut Layers) {
    let u = Summary::of(untraced).median;
    let t = Summary::of(traced).median;
    println!(
        "trace overhead: traced wall median {t:.4} s vs untraced {u:.4} s over {} pairs",
        traced.len()
    );
    m.insert("trace.overhead_frac", t / u - 1.0);
}

/// Prints every per-layer metric with its unit and prediction, and turns
/// them into the result's metrics (absent layers report 0).
fn finish(m: &Layers, attempted: u64, failed: u64, problems: Vec<String>) -> Outcome {
    println!("per-layer metrics (predicted to move -> end-to-end metric on workload):");
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, moves)| {
            let value = m.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {value:>16.4} {unit:<6} -> {moves}");
            Metric { name, value, unit }
        })
        .collect();
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
    }
}

fn get(m: &Layers, k: &str) -> f64 {
    m.get(k).copied().unwrap_or(0.0)
}

fn case_delta(case: CaseId) -> Option<i64> {
    match case {
        CaseId::OverlapNoCancel { delta } | CaseId::OverlapCancel { delta, .. } => Some(delta),
        CaseId::FarOut | CaseId::Monolithic => None,
    }
}

pub fn trace_cases(name: &str, w: &CaseWorkload, deadline: Instant) -> Outcome {
    let (mut untraced, mut traced, mut efforts) = (vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut last;
    loop {
        let start = Instant::now();
        // Alternate which side runs first, so warming up favours neither.
        let (tracer, sink) = Tracer::in_memory();
        let (plain, pass) = if untraced.len() % 2 == 0 {
            let plain = cases::run_pass(w, &Tracer::disabled());
            (plain, cases::run_pass(w, &tracer))
        } else {
            let pass = cases::run_pass(w, &tracer);
            (cases::run_pass(w, &Tracer::disabled()), pass)
        };
        for p in [&plain, &pass] {
            let (a, f, msgs) = cases::check(name, &p.results);
            attempted += a;
            failed += f;
            problems.extend(msgs);
            efforts.push(cases::effort_of(&p.results));
        }
        untraced.push(plain.wall.as_secs_f64());
        traced.push(pass.wall.as_secs_f64());
        last = Some((pass, sink.events()));
        if Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    check_effort(&efforts, &mut problems);
    let (pass, events) = last.expect("at least one traced pass");

    let mut m = Layers::new();
    overhead(&untraced, &traced, &mut m);
    let build: Duration = pass.prepared.iter().map(|p| p.build).sum();
    let constrain: Duration = pass.prepared.iter().map(|p| p.constrain).sum();
    m.insert("harness.build_ms", ms(build));
    m.insert("cases.constraint_ms", ms(constrain));
    let gates: usize = pass
        .prepared
        .iter()
        .map(|p| p.harness.netlist.num_ands())
        .sum();
    m.insert("harness.and_gates", gates as f64);
    m.insert("cases.count", pass.results.len() as f64);

    let recs = records(&events);
    fold_pools(&recs, w.workers, &mut m);
    let accumulated: f64 = pass.results.iter().map(|r| r.duration.as_secs_f64()).sum();
    let wall = pass.wall.as_secs_f64();
    m.insert(
        "runner.utilization",
        accumulated / (wall * w.workers as f64),
    );
    let cone: usize = pass
        .results
        .iter()
        .flat_map(|r| &r.attempts)
        .filter_map(|a| a.stats.coi_ands)
        .sum();
    m.insert("engine_sat.cone_ands", cone as f64);
    probe_engines(&pass, &mut m, &mut problems);
    derive_ratios(&mut m);

    let named = [
        ("harness.build", get(&m, "harness.build_ms")),
        ("cases.constraint", get(&m, "cases.constraint_ms")),
        ("engine_bdd", get(&m, "layer.bdd")),
        ("engine_sat", get(&m, "layer.sat")),
        ("runner.case_overhead", get(&m, "runner.case_overhead_ms")),
        ("runner.cex_replay", get(&m, "runner.cex_replay_ms")),
        ("runner.dispatch", get(&m, "runner.dispatch_ms")),
        ("runner.tail_idle", get(&m, "runner.tail_idle_ms")),
    ];
    print_layer_sum(wall, &named, &mut m, &mut problems);
    println!(
        "engine splits (worker time, ms): bdd care {:.3} (probe) + miter {:.3} = {:.3}; \
         sat encode {:.3} (probe) + solve {:.3} = {:.3} (the probe's own search took {:.3})",
        get(&m, "engine_bdd.care_pass_ms"),
        get(&m, "engine_bdd.miter_pass_ms"),
        get(&m, "engine_bdd.ms"),
        get(&m, "engine_sat.encode_ms"),
        get(&m, "engine_sat.solve_ms"),
        get(&m, "engine_sat.ms"),
        get(&m, "probe.sat_solve_ms"),
    );
    finish(&m, attempted, failed, problems)
}

/// Splits engine time with probes on the traced pass's own harnesses: the
/// BDD care-set pass of every BDD-decided case, and SAT encoding and search
/// of every SAT-decided case. The probes re-check each verdict, and the SAT
/// replay must spend exactly the conflicts the engine reported.
fn probe_engines(pass: &cases::Pass, m: &mut Layers, problems: &mut Vec<String>) {
    let d = RunConfig::default();
    let (mut care, mut encode, mut solve) = (0.0, 0.0, 0.0);
    let mut results = pass.results.iter();
    for p in &pass.prepared {
        let (netlist, miter) = (&p.harness.netlist, p.harness.miter);
        for ((case, parts), r) in p.constraints.iter().zip(results.by_ref()) {
            let Some(attempt) = r.attempts.last() else {
                continue;
            };
            if attempt.engine == EngineKind::Sat {
                let mut solver = Solver::new();
                let mut enc = SatEncoder::new();
                let t = Instant::now();
                let mut lits: Vec<_> = parts
                    .iter()
                    .map(|&c| enc.lit(netlist, &mut solver, c))
                    .collect();
                lits.push(enc.lit(netlist, &mut solver, miter));
                encode += ms(t.elapsed());
                let t = Instant::now();
                let verdict = solver.solve_with_assumptions(&lits);
                solve += ms(t.elapsed());
                if verdict != SolveResult::Unsat {
                    problems.push(format!("SAT probe of {}: {verdict:?}", case.label()));
                }
                let conflicts = solver.stats().conflicts;
                if Some(conflicts) != attempt.stats.sat_conflicts {
                    problems.push(format!(
                        "SAT probe of {} spent {conflicts} conflicts, the engine {:?}",
                        case.label(),
                        attempt.stats.sat_conflicts
                    ));
                }
            } else {
                let opts = BddEngineOptions {
                    minimize: d.minimize,
                    order: paper_order(&p.harness, case_delta(*case)),
                    gc_threshold: d.gc_threshold,
                    node_limit: None,
                    cache_size: d.bdd_cache_size,
                };
                let out = check_miter_bdd_parts(netlist, Signal::FALSE, parts, &opts);
                care += ms(out.duration);
                if !out.holds {
                    problems.push(format!("BDD care probe of {} did not hold", case.label()));
                }
            }
        }
    }
    m.insert("engine_bdd.care_pass_ms", care);
    let bdd = get(m, "engine_bdd.ms");
    m.insert("engine_bdd.miter_pass_ms", bdd - care);
    // As for the BDD passes, the traced engine time minus the probed
    // encoding is the search; the probe's own search time is a cross-check.
    m.insert("engine_sat.encode_ms", encode);
    m.insert("engine_sat.solve_ms", get(m, "engine_sat.ms") - encode);
    m.insert("probe.sat_solve_ms", solve);
}

pub fn trace_campaign(w: &CampaignWorkload, deadline: Instant) -> Outcome {
    let dir = campaign::scratch_dir();
    let (mut untraced, mut traced, mut warm, mut efforts) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut problems = Vec::new();
    let mut last;
    loop {
        let start = Instant::now();
        let cache = dir.join("cache");
        let (tracer, sink) = Tracer::in_memory();
        let (plain, pass) = if untraced.len() % 2 == 0 {
            let plain = campaign::run_pass(w, &cache, &Tracer::disabled());
            (plain, campaign::run_pass(w, &cache, &tracer))
        } else {
            let pass = campaign::run_pass(w, &cache, &tracer);
            (campaign::run_pass(w, &cache, &Tracer::disabled()), pass)
        };
        for p in [&plain, &pass] {
            let (a, f, msgs) = campaign::check(p);
            attempted += a;
            failed += f;
            problems.extend(msgs);
            efforts.push(campaign::effort(p));
        }
        untraced.push((plain.cold_wall + plain.warm_wall).as_secs_f64());
        traced.push((pass.cold_wall + pass.warm_wall).as_secs_f64());
        warm.push(plain.warm_wall.as_secs_f64());
        last = Some((pass, sink.events()));
        if Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    check_effort(&efforts, &mut problems);
    let (pass, events) = last.expect("at least one traced pass");

    let mut m = Layers::new();
    overhead(&untraced, &traced, &mut m);
    // The campaign's set-up calls, timed standalone (run_campaign repeats
    // them inside its own wall).
    let t = Instant::now();
    let mut h = build_harness(&w.cfg, campaign::harness_options());
    m.insert("harness.build_ms", ms(t.elapsed()));
    m.insert("harness.and_gates", h.netlist.num_ands() as f64);
    let cases = enumerate_cases(&w.cfg, w.op);
    let t = Instant::now();
    for &case in &cases {
        h.case_constraint_parts(w.op, case);
    }
    m.insert("cases.constraint_ms", ms(t.elapsed()));
    m.insert("cases.count", cases.len() as f64);
    m.insert("cache.fingerprint_ms", fingerprint_probe(w, &dir));
    campaign::remove_scratch(&dir);

    let recs = records(&events);
    let pools = fold_pools(&recs, 1, &mut m);
    let wall = (pass.cold_wall + pass.warm_wall).as_secs_f64();
    let accumulated = get(&m, "layer.case_total_s");
    m.insert("runner.utilization", accumulated / wall);
    let bench: f64 = recs
        .iter()
        .filter(|r| r.name.starts_with("bench.campaign."))
        .map(Rec::dur)
        .sum();
    m.insert("campaign.outside_runner_ms", 1e3 * (bench - pools));
    let e = campaign::effort(&pass);
    for k in [
        "campaign.mutants",
        "campaign.killed",
        "campaign.screened_out",
        "campaign.cases_run",
    ] {
        m.insert(k, e[k] as f64);
    }
    m.insert(
        "cache.replayed_cases",
        (e["cache.replayed_cases.cold"] + e["cache.replayed_cases.warm"]) as f64,
    );
    m.insert("campaign.warm_wall_ms", 1e3 * Summary::of(&warm).median);
    derive_ratios(&mut m);

    let named = [
        (
            "campaign.outside_runner",
            get(&m, "campaign.outside_runner_ms"),
        ),
        ("engine_bdd", get(&m, "layer.bdd")),
        ("engine_sat", get(&m, "layer.sat")),
        ("runner.case_overhead", get(&m, "runner.case_overhead_ms")),
        ("runner.cex_replay", get(&m, "runner.cex_replay_ms")),
        ("runner.dispatch", get(&m, "runner.dispatch_ms")),
        ("runner.tail_idle", get(&m, "runner.tail_idle_ms")),
    ];
    print_layer_sum(wall, &named, &mut m, &mut problems);
    println!(
        "note: runner.case_overhead holds fingerprinting and cache lookup/store; \
         engine_sat.cone_ands and the engine splits are not exposed by run_campaign (0)"
    );
    finish(&m, attempted, failed, problems)
}

/// `Fingerprint::compute` over every case of the campaign's clean,
/// unrolled harness with the campaign's engine ladder, in ms.
fn fingerprint_probe(w: &CampaignWorkload, dir: &std::path::Path) -> f64 {
    let mut h = build_harness(&w.cfg, campaign::harness_options());
    let cases = enumerate_cases(&w.cfg, w.op);
    let (unrolled, constraints) = unroll_harness(&mut h, w.op, &cases);
    let view = h.rebind(unrolled.netlist, unrolled.miter);
    let policy = Session::new(&w.cfg)
        .configure(campaign::run_config(
            w,
            &dir.join("probe"),
            Tracer::disabled(),
        ))
        .effective_policy();
    let t = Instant::now();
    for (case, parts) in &constraints {
        std::hint::black_box(Fingerprint::compute(
            &view,
            w.op,
            *case,
            parts,
            policy.ladder(w.op, *case),
        ));
    }
    ms(t.elapsed())
}
