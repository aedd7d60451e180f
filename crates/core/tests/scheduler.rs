//! Scheduler-level tests: engines drive through the [`CaseEngine`] trait,
//! budgets escalate without changing verdicts, results come back in
//! deterministic order, and the cancellation token stops a sweep.

use std::collections::HashMap;
use std::sync::Arc;

use fmaverify::{
    build_harness, enumerate_cases, BddCaseEngine, CancellationToken, CaseEngine, CaseId,
    CaseResult, EngineBudget, EngineKind, EngineOutcome, EngineStage, EngineStats, EngineVerdict,
    Error, Harness, HarnessOptions, RunConfig, SatCaseEngine, SchedulePolicy, Session, Verdict,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp, PipelineMode};
use fmaverify_netlist::Signal;
use fmaverify_softfloat::FpFormat;

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

fn unlimited(engine: Arc<dyn CaseEngine>) -> EngineStage {
    EngineStage {
        engine,
        budget: EngineBudget::UNLIMITED,
    }
}

/// Runs one case through the scheduler with `ladder` for every case class.
fn run_ladder(
    h: &Harness,
    op: FpuOp,
    case: CaseId,
    parts: &[Signal],
    ladder: Vec<EngineStage>,
) -> CaseResult {
    let policy = SchedulePolicy {
        overlap: ladder.clone(),
        farout: ladder,
    };
    Session::new(&h.cfg)
        .policy(policy)
        .run_prepared(h, op, &[(case, parts.to_vec())])
        .remove(0)
}

#[test]
fn bdd_and_sat_agree_on_the_same_case_through_the_trait() {
    let cfg = tiny();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let op = FpuOp::Fma;
    let case = CaseId::OverlapNoCancel { delta: 1 };
    let parts = h.case_constraint_parts(op, case);

    let by_bdd = run_ladder(
        &h,
        op,
        case,
        &parts,
        vec![unlimited(Arc::new(BddCaseEngine::default()))],
    );
    let by_sat = run_ladder(
        &h,
        op,
        case,
        &parts,
        vec![unlimited(Arc::new(SatCaseEngine { sweep_first: false }))],
    );
    assert_eq!(by_bdd.verdict, by_sat.verdict, "engines disagree");
    assert_eq!(by_bdd.verdict, Verdict::Holds);
    assert_eq!(by_bdd.engine(), Some(EngineKind::Bdd));
    assert_eq!(by_sat.engine(), Some(EngineKind::Sat));
    // Both report stats in the unified shape, each filling its own fields.
    assert!(by_bdd.bdd_peak_nodes().unwrap_or(0) > 0);
    assert!(by_sat.stats().and_then(|s| s.coi_ands).unwrap_or(0) > 0);
}

#[test]
fn tiny_budget_reports_budget_exceeded_without_escalation() {
    let cfg = tiny();
    // The derived policy with its overlap ladder cut to the budgeted BDD
    // rung alone, so nothing escalates.
    let mut policy = SchedulePolicy::from_config(&RunConfig {
        node_budget: Some(16),
        ..RunConfig::default()
    });
    policy.overlap.truncate(1);
    let report = Session::new(&cfg).policy(policy).run(FpuOp::Fma);
    let exceeded = report
        .results
        .iter()
        .filter(|r| r.verdict == Verdict::BudgetExceeded)
        .count();
    assert!(exceeded > 0, "a 16-node budget must blow on overlap cases");
    // Nothing may be misreported as a proof or a failure.
    assert!(report.first_failure().is_none());
    assert!(!report.all_hold());
}

#[test]
fn escalation_recovers_every_budget_exceeded_case_with_unchanged_verdicts() {
    let cfg = tiny();
    let op = FpuOp::Fma;
    let baseline = Session::new(&cfg).run(op);
    assert!(baseline.all_hold());

    // Same sweep with a per-case BDD budget far too small: every overlap
    // case exceeds it, escalates to swept SAT, and still proves.
    let budgeted = Session::new(&cfg)
        .configure(RunConfig {
            node_budget: Some(16),
            ..RunConfig::default()
        })
        .run(op);
    assert!(budgeted.all_hold(), "{:?}", budgeted.first_failure());
    assert!(budgeted.escalated_cases() > 0, "no case escalated");
    assert_eq!(baseline.results.len(), budgeted.results.len());
    for (b, e) in baseline.results.iter().zip(&budgeted.results) {
        assert_eq!(b.case, e.case, "case order must be deterministic");
        assert_eq!(b.verdict, e.verdict, "escalation changed a verdict");
    }
    // An escalated case carries its whole attempt history: the blown BDD
    // rung first, then the deciding SAT rung.
    let escalated = budgeted
        .results
        .iter()
        .find(|r| r.escalations() > 0)
        .expect("at least one escalated case");
    assert_eq!(escalated.attempts[0].engine, EngineKind::Bdd);
    assert_eq!(escalated.attempts[0].verdict, Verdict::BudgetExceeded);
    // The deciding engine and its stats are those of the last attempt.
    let last = escalated.attempts.last().unwrap();
    assert_eq!(last.verdict, Verdict::Holds);
    assert_eq!(escalated.engine(), Some(EngineKind::Sat));
    assert_eq!(escalated.engine(), Some(last.engine));
    assert!(escalated.sat_conflicts().is_some());
    assert_eq!(escalated.sat_conflicts(), last.stats.sat_conflicts);
    assert_eq!(
        escalated.stats().map(|s| s.wall),
        Some(last.stats.wall),
        "the deciding stats are the SAT rung's"
    );
    // The blown BDD rung's peak is not the case's.
    assert!(escalated.attempts[0].stats.peak_bdd_nodes.is_some());
    assert_eq!(escalated.bdd_peak_nodes(), None);
}

#[test]
fn result_order_is_deterministic_across_thread_counts() {
    let cfg = tiny();
    let op = FpuOp::Add;
    let expected: Vec<CaseId> = enumerate_cases(&cfg, op);
    for threads in [1, 3] {
        let report = Session::new(&cfg)
            .configure(RunConfig {
                threads,
                ..RunConfig::default()
            })
            .run(op);
        let got: Vec<CaseId> = report.results.iter().map(|r| r.case).collect();
        assert_eq!(got, expected, "order differs at {threads} threads");
    }
}

#[test]
fn pre_canceled_token_skips_every_case() {
    let cfg = tiny();
    let cancel = CancellationToken::new();
    cancel.cancel();
    let report = Session::new(&cfg).cancel(cancel).run(FpuOp::Fma);
    assert!(!report.results.is_empty());
    assert!(report
        .results
        .iter()
        .all(|r| r.verdict == Verdict::Canceled));
    // No engine ran, so a canceled result has no engine and no stats.
    assert!(report
        .results
        .iter()
        .all(|r| r.attempts.is_empty() && r.engine().is_none() && r.stats().is_none()));
    assert!(!report.all_hold());
}

/// A mock engine (exercising third-party [`CaseEngine`] impls) that fails
/// every case with an empty assignment — which also demonstrates the
/// always-on counterexample replay: an assignment the design does not
/// actually fail on comes back with `replay_confirmed == false`.
struct AlwaysFails;

impl CaseEngine for AlwaysFails {
    fn kind(&self) -> EngineKind {
        EngineKind::Sat
    }

    fn name(&self) -> &'static str {
        "mock/fails"
    }

    fn check(
        &self,
        _harness: &fmaverify::Harness,
        _op: FpuOp,
        _case: CaseId,
        _constraint_parts: &[Signal],
        _budget: &EngineBudget,
    ) -> EngineOutcome {
        EngineOutcome {
            verdict: EngineVerdict::Counterexample(HashMap::new()),
            stats: EngineStats::default(),
        }
    }
}

#[test]
fn stop_on_failure_cancels_the_remaining_cases() {
    let cfg = tiny();
    let op = FpuOp::Fma;
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let constraints: Vec<(CaseId, Vec<Signal>)> = enumerate_cases(&cfg, op)
        .into_iter()
        .map(|case| {
            let parts = h.case_constraint_parts(op, case);
            (case, parts)
        })
        .collect();
    assert!(constraints.len() > 2);

    let policy = SchedulePolicy {
        overlap: vec![unlimited(Arc::new(AlwaysFails))],
        farout: vec![unlimited(Arc::new(AlwaysFails))],
    };
    let cancel = CancellationToken::new();
    let results = Session::new(&cfg)
        .configure(RunConfig {
            threads: 1,
            stop_on_failure: true,
            ..RunConfig::default()
        })
        .cancel(cancel.clone())
        .policy(policy)
        .run_prepared(&h, op, &constraints);

    assert!(cancel.is_canceled(), "a failure must trip the token");
    assert_eq!(results[0].verdict, Verdict::Fails);
    let cex = results[0].counterexample.as_ref().expect("counterexample");
    assert!(
        !cex.replay_confirmed,
        "a fabricated counterexample must fail the replay check"
    );
    // Single-threaded: everything after the first failure is canceled.
    assert!(results[1..].iter().all(|r| r.verdict == Verdict::Canceled));
}

#[test]
fn errors_escalate_to_the_next_rung() {
    /// An engine that always panics; the scheduler must fold the panic into
    /// an error attempt and walk on down the ladder.
    struct Panics;
    impl CaseEngine for Panics {
        fn kind(&self) -> EngineKind {
            EngineKind::Bdd
        }
        fn name(&self) -> &'static str {
            "mock/panics"
        }
        fn check(
            &self,
            _harness: &fmaverify::Harness,
            _op: FpuOp,
            _case: CaseId,
            _constraint_parts: &[Signal],
            _budget: &EngineBudget,
        ) -> EngineOutcome {
            panic!("deliberate engine failure");
        }
    }

    let cfg = tiny();
    let op = FpuOp::Fma;
    let case = CaseId::OverlapNoCancel { delta: 0 };
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let parts = h.case_constraint_parts(op, case);

    // Panicking rung followed by a real engine: the case still proves.
    let result = run_ladder(
        &h,
        op,
        case,
        &parts,
        vec![
            unlimited(Arc::new(Panics)),
            unlimited(Arc::new(SatCaseEngine { sweep_first: true })),
        ],
    );
    assert_eq!(result.verdict, Verdict::Holds);
    assert_eq!(result.attempts.len(), 2);
    assert_eq!(result.attempts[0].verdict, Verdict::Error);

    // Panicking rung alone: the error is surfaced, not swallowed.
    let result = run_ladder(&h, op, case, &parts, vec![unlimited(Arc::new(Panics))]);
    assert_eq!(result.verdict, Verdict::Error);
    match result.error.as_ref().expect("typed error") {
        Error::EnginePanic { engine, message } => {
            assert_eq!(*engine, "mock/panics");
            assert!(message.contains("deliberate"));
        }
        other => panic!("expected EnginePanic, got {other:?}"),
    }
    // The ladder folds the panic into one error attempt with zero stats.
    assert_eq!(result.attempts.len(), 1);
    assert_eq!(result.attempts[0].verdict, Verdict::Error);
}

fn pipelined(isolate_multiplier: bool) -> HarnessOptions {
    HarnessOptions {
        pipeline: PipelineMode::ThreeStage,
        isolate_multiplier,
        ..HarnessOptions::default()
    }
}

#[test]
fn session_verifies_the_pipelined_fpu() {
    let cfg = tiny();
    for isolate_multiplier in [true, false] {
        let session = Session::new(&cfg).configure(RunConfig {
            harness: pipelined(isolate_multiplier),
            ..RunConfig::default()
        });
        for op in [FpuOp::Fma, FpuOp::Add, FpuOp::Mul] {
            let report = session.run(op);
            let failing: Vec<_> = report
                .results
                .iter()
                .filter(|r| !r.holds())
                .map(|r| (r.case, r.verdict))
                .collect();
            assert!(
                failing.is_empty(),
                "{op:?} (isolate_multiplier: {isolate_multiplier}): {failing:?}"
            );
        }
    }
}

#[test]
fn run_prepared_rejects_a_harness_with_registers() {
    let cfg = tiny();
    let op = FpuOp::Fma;
    let mut h = build_harness(&cfg, pipelined(true));
    let latches = h.netlist.num_latches();
    assert!(latches > 0);
    let constraints: Vec<(CaseId, Vec<Signal>)> = enumerate_cases(&cfg, op)
        .into_iter()
        .map(|case| {
            let parts = h.case_constraint_parts(op, case);
            (case, parts)
        })
        .collect();
    let results = Session::new(&cfg).run_prepared(&h, op, &constraints);
    assert_eq!(results.len(), constraints.len());
    for r in &results {
        assert_eq!(r.verdict, Verdict::Error, "{:?}", r.case);
        assert_eq!(r.error, Some(Error::SequentialNetlist { latches }));
        assert!(r.attempts.is_empty(), "no engine may run");
    }
}

#[test]
fn an_empty_ladder_rejects_its_cases_without_panicking() {
    let cfg = tiny();
    let policy = SchedulePolicy {
        overlap: vec![],
        ..SchedulePolicy::from_config(&RunConfig::default())
    };
    let report = Session::new(&cfg).policy(policy).run(FpuOp::Fma);
    assert_eq!(
        report.results.len(),
        enumerate_cases(&cfg, FpuOp::Fma).len()
    );
    assert!(report.results.iter().any(|r| r.case == CaseId::FarOut));
    for r in &report.results {
        if r.case == CaseId::FarOut {
            assert_eq!(r.verdict, Verdict::Holds, "the far-out ladder still runs");
        } else {
            assert_eq!(r.verdict, Verdict::Error, "{:?}", r.case);
            assert_eq!(r.error, Some(Error::EmptyLadder { case: r.case }));
            assert!(r.attempts.is_empty(), "no engine may run");
        }
    }
}
