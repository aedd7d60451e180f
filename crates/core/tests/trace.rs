//! Telemetry integration tests: span nesting across a real verification
//! run, totals folded from spans across scheduler threads, the JSONL
//! round-trip of a real trace, warm-cache totals that claim no replayed
//! work, and the no-op fast path.

use std::collections::HashSet;
use std::path::PathBuf;

use fmaverify::prelude::*;
use fmaverify::trace::{SpanKind as K, TraceEvent};
use fmaverify::{JsonValue, MetricSet};

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

/// A session on `threads` workers reporting to `tracer`.
fn session(cfg: &FpuConfig, threads: usize, tracer: Tracer) -> Session {
    Session::new(cfg).configure(
        RunConfig {
            threads,
            ..RunConfig::default()
        }
        .tracer(tracer),
    )
}

/// The metrics of the last `totals` event.
fn last_totals(events: &[TraceEvent]) -> MetricSet {
    events
        .iter()
        .rev()
        .find_map(|e| match e {
            TraceEvent::Totals { metrics, .. } => Some(metrics.clone()),
            _ => None,
        })
        .expect("a totals event at end of run")
}

/// The merge of every `span_end` event's metrics.
fn merged_span_metrics(events: &[TraceEvent]) -> MetricSet {
    let mut out = MetricSet::new();
    for e in events {
        if let TraceEvent::SpanEnd { metrics, .. } = e {
            out.merge(metrics);
        }
    }
    out
}

#[test]
fn spans_nest_run_case_stage_across_a_real_run() {
    let cfg = tiny();
    let (tracer, sink) = Tracer::in_memory();
    let report = session(&cfg, 3, tracer).run(FpuOp::Add);
    assert!(report.all_hold());

    let events = sink.events();
    let mut run_ids = HashSet::new();
    let mut case_ids = HashSet::new();
    let mut cases = 0usize;
    let mut stages = 0usize;
    let mut ops = 0usize;
    for ev in &events {
        if let TraceEvent::SpanStart { id, kind, .. } = ev {
            match kind {
                K::Run => {
                    run_ids.insert(*id);
                }
                K::Case => {
                    case_ids.insert(*id);
                }
                _ => {}
            }
        }
    }
    assert_eq!(run_ids.len(), 1, "exactly one run span");
    for ev in &events {
        if let TraceEvent::SpanStart {
            kind, parent, name, ..
        } = ev
        {
            match kind {
                K::Run => assert_eq!(*parent, None),
                K::Case => {
                    cases += 1;
                    assert!(
                        parent.map(|p| run_ids.contains(&p)).unwrap_or(false),
                        "case span {name} must be parented to the run span"
                    );
                }
                K::Stage => {
                    stages += 1;
                    assert!(
                        parent.map(|p| case_ids.contains(&p)).unwrap_or(false),
                        "stage span {name} must be parented to a case span"
                    );
                }
                K::Op => ops += 1,
            }
        }
    }
    assert_eq!(cases, report.results.len());
    // No escalation on the clean design: one stage per case.
    assert_eq!(stages, report.results.len());
    // build_harness + constraints, at minimum.
    assert!(ops >= 2);
    // Every start has a matching end.
    let starts = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SpanStart { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SpanEnd { .. }))
        .count();
    assert_eq!(starts, ends);
}

#[test]
fn counters_aggregate_across_scheduler_threads() {
    let cfg = tiny();
    let (tracer, sink) = Tracer::in_memory();
    let report = session(&cfg, 3, tracer).run(FpuOp::Fma);
    assert!(report.all_hold());

    let events = sink.events();
    let metrics = last_totals(&events);

    // Totals are the span fold: every counter is recorded on exactly one
    // span, so the merge of all span ends reproduces them.
    assert_eq!(metrics, merged_span_metrics(&events));
    // ...and they equal the sums over the per-case reports.
    assert_eq!(
        metrics.get(Counter::SchedCasesCompleted),
        report.results.len() as u64
    );
    let conflicts: u64 = report
        .results
        .iter()
        .flat_map(|r| &r.attempts)
        .map(|a| a.stats.sat_conflicts.unwrap_or(0))
        .sum();
    assert_eq!(metrics.get(Counter::SatConflicts), conflicts);
    // The FMA split runs both engine classes, so both sides count.
    assert!(metrics.get(Counter::BddIteCalls) > 0);
    assert!(metrics.get(Counter::SatPropagations) > 0);
    assert!(metrics.get(Counter::BddNodesAllocated) > 0);
    // The kernel's table and collector counters reach the trace too.
    assert!(metrics.get(Counter::BddCacheEvictions) > 0);
    assert!(metrics.get(Counter::BddUniqueProbes) > 0);
    assert!(metrics.get(Counter::BddGcFreed) > 0);
}

#[test]
fn jsonl_round_trip_reproduces_per_case_columns() {
    let cfg = tiny();
    let (tracer, sink) = Tracer::in_memory();
    let report = session(&cfg, 2, tracer).run(FpuOp::Add);
    assert!(report.all_hold());

    // Serialize to JSONL text and parse it back with the crate's own
    // parser — the exact pipeline an external consumer would run.
    let events = sink.events();
    let reparsed: Vec<TraceEvent> = sink
        .to_jsonl()
        .lines()
        .map(|line| TraceEvent::from_json(&JsonValue::parse(line).unwrap()).unwrap())
        .collect();
    assert_eq!(reparsed, events);

    // Each case span's stage children carry exactly the engine counters of
    // the matching result's attempts.
    let mut seen = 0;
    for ev in &reparsed {
        let TraceEvent::SpanEnd {
            id,
            kind: K::Case,
            name,
            ..
        } = ev
        else {
            continue;
        };
        let result = report
            .results
            .iter()
            .find(|r| format!("{:?}", r.case) == *name)
            .unwrap_or_else(|| panic!("no result for case span {name}"));
        let mut stages = MetricSet::new();
        for child in &reparsed {
            if let TraceEvent::SpanEnd {
                parent: Some(p),
                kind: K::Stage,
                metrics,
                ..
            } = child
            {
                if p == id {
                    stages.merge(metrics);
                }
            }
        }
        let mut attempts = MetricSet::new();
        for a in &result.attempts {
            attempts.merge(&a.stats.metrics);
        }
        assert!(!attempts.is_empty(), "case {name} recorded no counters");
        assert_eq!(stages, attempts, "stage counters of case {name}");
        seen += 1;
    }
    assert_eq!(seen, report.results.len());
}

/// A unique temp cache directory per test (removed on drop).
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn warm_totals_claim_no_replayed_work() {
    let dir = TempDir(
        std::env::temp_dir().join(format!("fmaverify-trace-it-warm-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    // A node budget this small blows the BDD rung of every overlap case,
    // so the cold run escalates almost every case to SAT.
    let config = RunConfig {
        threads: 2,
        node_budget: Some(16),
        escalate: true,
        cache_mode: CacheMode::ReadWrite,
        cache_dir: dir.0.clone(),
        ..RunConfig::default()
    };
    let cold = Session::new(&tiny())
        .configure(config.clone())
        .run(FpuOp::Add);
    assert!(cold.all_hold());
    assert!(
        cold.escalated_cases() > 0,
        "the budget must force escalations"
    );

    let (tracer, sink) = Tracer::in_memory();
    let warm = Session::new(&tiny())
        .configure(config.tracer(tracer))
        .run(FpuOp::Add);
    assert!(warm.all_hold());
    assert!(warm.results.iter().all(|r| r.cached));

    let events = sink.events();
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanEnd { kind: K::Stage, .. })),
        "a fully cached run runs no engine"
    );
    let totals = last_totals(&events);
    assert_eq!(totals.get(Counter::SchedEscalations), 0);
    assert_eq!(totals.get(Counter::CacheHits), warm.results.len() as u64);
    assert_eq!(
        totals.get(Counter::SchedCasesCompleted),
        warm.results.len() as u64
    );
    assert_eq!(totals.get(Counter::SatConflicts), 0);
    assert_eq!(totals, merged_span_metrics(&events));
}

#[test]
fn disabled_tracer_changes_nothing_and_emits_nothing() {
    let cfg = tiny();
    let base = session(&cfg, 2, Tracer::disabled()).run(FpuOp::Add);
    let (tracer, sink) = Tracer::in_memory();
    let traced = session(&cfg, 2, tracer).run(FpuOp::Add);

    // Identical verdicts and case order with and without telemetry.
    assert_eq!(base.results.len(), traced.results.len());
    for (b, t) in base.results.iter().zip(&traced.results) {
        assert_eq!(b.case, t.case);
        assert_eq!(b.verdict, t.verdict);
    }
    assert!(!sink.events().is_empty());

    // The disabled tracer is inert end to end: no spans and no totals.
    let disabled = Tracer::disabled();
    assert!(!disabled.is_enabled());
    let mut span = disabled.span(SpanKind::Run, || unreachable!("lazy name must not run"));
    assert!(!span.is_recording());
    span.record(Counter::SatConflicts, 1);
    drop(span);
    assert!(disabled.totals().is_empty());
}
