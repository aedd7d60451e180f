//! Telemetry integration tests: span nesting across a real verification
//! run, counter aggregation across scheduler threads, the JSONL round-trip
//! through `trace::summary`, and the no-op fast path.

use std::collections::HashSet;

use fmaverify::prelude::*;
use fmaverify::trace::{summary, SpanKind as K, TraceEvent};

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
    let totals = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Totals {
                metrics, threads, ..
            } => Some((metrics.clone(), *threads)),
            _ => None,
        })
        .expect("a totals event at end of run");
    let (metrics, threads) = totals;
    assert!(threads >= 1, "at least one worker registered a slot");

    // Registry totals must equal the sums over the per-case reports.
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
}

#[test]
fn jsonl_round_trip_reproduces_per_case_columns() {
    let cfg = tiny();
    let (tracer, sink) = Tracer::in_memory();
    let report = session(&cfg, 2, tracer).run(FpuOp::Add);
    assert!(report.all_hold());

    // Serialize to JSONL text and parse it back with the crate's own
    // parser — the exact pipeline an external consumer would run.
    let text = sink.to_jsonl();
    let summary = summary::summarize_jsonl(&text).expect("well-formed JSONL");

    assert_eq!(summary.run_name.as_deref(), Some("verify:Add"));
    assert_eq!(summary.cases.len(), report.results.len());
    let by_name = |name: &str| {
        summary
            .cases
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("case row {name}"))
    };
    for r in &report.results {
        let row = by_name(&format!("{:?}", r.case));
        assert_eq!(row.verdict, "holds");
        assert_eq!(row.attempts, r.attempts.len() as u64);
        let nodes: u64 = r
            .attempts
            .iter()
            .map(|a| a.stats.peak_bdd_nodes.unwrap_or(0) as u64)
            .max()
            .unwrap_or(0);
        assert_eq!(row.peak_bdd_nodes.unwrap_or(0), nodes);
        let conflicts: u64 = r
            .attempts
            .iter()
            .map(|a| a.stats.sat_conflicts.unwrap_or(0))
            .sum();
        assert_eq!(row.sat_conflicts.unwrap_or(0), conflicts);
    }
    // Engine aggregates cover every attempt.
    let attempts: usize = report.results.iter().map(|r| r.attempts.len()).sum();
    assert_eq!(
        summary.engines.iter().map(|e| e.attempts).sum::<usize>(),
        attempts
    );
    // The rendered table mentions every case.
    let rendered = summary.render();
    for r in &report.results {
        assert!(rendered.contains(&format!("{:?}", r.case)));
    }
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

    // The disabled tracer is inert end to end: no spans, no totals, and
    // the per-thread handle refuses to record.
    let disabled = Tracer::disabled();
    assert!(!disabled.is_enabled());
    assert!(!disabled.handle().is_recording());
    let mut span = disabled.span(SpanKind::Run, || unreachable!("lazy name must not run"));
    assert!(!span.is_recording());
    span.record(Counter::SatConflicts, 1);
    drop(span);
    assert!(disabled.totals().is_empty());
}
