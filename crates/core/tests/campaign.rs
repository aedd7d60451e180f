//! End-to-end mutation-coverage campaigns: every seeded fault must be
//! killed with a replay-confirmed counterexample inside the case its
//! witness lies in, pipelined campaigns must reach gates behind the stage
//! registers (the sequential blind spot the fault injector used to have),
//! multi-worker campaigns must be reproducible, and warm reruns must replay
//! cases from the proof cache.

use std::path::PathBuf;

use fmaverify::{
    campaign_harness, run_campaign, CacheMode, CaseClass, HarnessOptions, MutantStatus,
    MutationKind, RunConfig,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp, PipelineMode};
use fmaverify_netlist::BitSim;
use fmaverify_softfloat::FpFormat;

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

fn campaign_config(mutants: usize, seed: u64) -> RunConfig {
    RunConfig {
        mutants: Some(mutants),
        mutation_seed: seed,
        threads: 2,
        ..RunConfig::default()
    }
}

/// A unique temp cache directory per test (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "fmaverify-campaign-it-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn mul_campaign_kills_every_sampled_mutant() {
    let report = run_campaign(&tiny(), FpuOp::Mul, &campaign_config(6, 3));

    assert!(report.candidate_gates > 0);
    assert_eq!(report.mutant_space, report.candidate_gates * 5);
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.killed(), 6);
    assert_eq!(report.survived(), 0);
    assert_eq!(report.budget_exceeded(), 0);
    assert!((report.kill_rate() - 1.0).abs() < f64::EPSILON);
    for outcome in &report.outcomes {
        let MutantStatus::Killed {
            case,
            replay_confirmed,
        } = &outcome.status
        else {
            panic!("mutant not killed: {outcome:?}");
        };
        assert!(replay_confirmed, "kill without a replayed counterexample");
        // Mul has exactly one case, so every kill lands in it.
        assert_eq!(case.class(), CaseClass::Monolithic);
        assert!(outcome.cases_run >= 1);
    }
    // The kill matrix accounts for every kill.
    let total: usize = report.kill_matrix().iter().flatten().sum();
    assert_eq!(total, report.killed());
}

#[test]
fn pipelined_campaign_reaches_gates_behind_registers() {
    let cfg = tiny();
    let config = RunConfig {
        harness: HarnessOptions {
            pipeline: PipelineMode::ThreeStage,
            ..HarnessOptions::default()
        },
        ..campaign_config(4, 5)
    };
    let report = run_campaign(&cfg, FpuOp::Mul, &config);
    // The miter compares registered outputs, so almost all of the datapath
    // hides behind latches: a candidate rule that stopped at them would
    // find no gate here, and the combinational design has 1,526.
    assert_eq!(report.candidate_gates, 1_736);
    assert_eq!(report.outcomes.len(), 4);
    assert_eq!(report.killed(), 4, "pipelined mutant survived: {report:?}");
    assert!(report.outcomes.iter().all(|o| matches!(
        o.status,
        MutantStatus::Killed {
            replay_confirmed: true,
            ..
        }
    )));
}

#[test]
fn warm_campaign_replays_cases_from_the_cache() {
    let dir = TempDir::new("warm");
    let config = RunConfig {
        cache_mode: CacheMode::ReadWrite,
        cache_dir: dir.0.clone(),
        ..campaign_config(3, 11)
    };

    let cold = run_campaign(&tiny(), FpuOp::Mul, &config);
    let warm = run_campaign(&tiny(), FpuOp::Mul, &config);

    // Same seed, same sample: the warm campaign verifies the same mutants
    // and replays the cases the cold campaign proved.
    assert_eq!(warm.outcomes.len(), cold.outcomes.len());
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert_eq!(c.mutation.node, w.mutation.node);
        assert_eq!(c.mutation.kind, w.mutation.kind);
        assert_eq!(c.status, w.status);
    }
    assert_eq!(warm.killed(), cold.killed());
    assert!(
        warm.cases_replayed() > 0,
        "warm campaign never hit the proof cache"
    );
    // The clean baseline is identical both times, so at minimum it replays.
    assert_eq!(warm.clean_cached, warm.clean_cases);
}

#[test]
fn campaign_counts_every_mutation_kind() {
    // Exhaustive over a capped sample large enough to draw all five kinds.
    let report = run_campaign(&tiny(), FpuOp::Mul, &campaign_config(25, 17));
    assert_eq!(report.outcomes.len(), 25);
    assert_eq!(report.survived(), 0);
    assert_eq!(
        report.kinds_with_kills(),
        MutationKind::ALL.len(),
        "a 25-mutant sample should kill every kind at least once"
    );
}

#[test]
fn fma_kills_satisfy_their_killing_case() {
    let cfg = tiny();
    let run = campaign_config(8, 7);
    let report = run_campaign(&cfg, FpuOp::Fma, &run);
    assert_eq!(report.killed(), report.outcomes.len(), "{report:?}");

    // The engine proved the killing case under its constraint parts, so
    // the counterexample must satisfy them on the clean harness too.
    let mut clean = campaign_harness(&cfg, &run);
    for o in &report.outcomes {
        let MutantStatus::Killed { case, .. } = o.status else {
            unreachable!("every mutant was killed");
        };
        let cex = o.counterexample.as_ref().expect("a kill carries its cex");
        let parts = clean.case_constraint_parts(FpuOp::Fma, case);
        let inputs = &clean.inputs;
        let mut sim = BitSim::new(&clean.netlist);
        sim.set_word(&inputs.a, cex.a);
        sim.set_word(&inputs.b, cex.b);
        sim.set_word(&inputs.c, cex.c);
        sim.set_word(&inputs.op, u128::from(cex.op));
        sim.set_word(&inputs.rm, u128::from(cex.rm));
        sim.eval();
        assert!(
            parts.iter().all(|&p| sim.get(p)),
            "{:?} at {:?}: the counterexample lies outside {}",
            o.mutation.kind,
            o.mutation.node,
            case.label()
        );
    }
}

#[test]
fn multi_worker_campaigns_are_reproducible() {
    // Two workers, the same seed, a fresh cache each time: each mutant runs
    // only its witness's case, so no second failing case can race the
    // first and the outcomes repeat exactly.
    let runs: Vec<_> = ["repro-a", "repro-b"]
        .into_iter()
        .map(|tag| {
            let dir = TempDir::new(tag);
            let config = RunConfig {
                cache_mode: CacheMode::ReadWrite,
                cache_dir: dir.0.clone(),
                ..campaign_config(12, 7)
            };
            run_campaign(&tiny(), FpuOp::Fma, &config)
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.outcomes.len(), 12);
    assert_eq!(b.outcomes.len(), a.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.mutation, y.mutation);
        assert_eq!(x.status, y.status, "{:?}", x.mutation);
        assert_eq!((x.cases_run, y.cases_run), (1, 1), "{:?}", x.mutation);
    }
}
