//! The verifier must actually find bugs: single-gate faults injected into
//! the implementation FPU's exclusive logic must be caught by the formal
//! flow with a replayable counterexample, and the softfloat oracle must
//! confirm that the implementation is the side the fault made wrong.
//!
//! This reproduces the paper's claim that the methodology exposed "dozens
//! of high-quality bugs". The mutants are sampled, screened and verified by
//! `run_campaign`, the crate's one mutant loop.

use fmaverify::{arbitrate_kill, campaign_harness, run_campaign, MutantStatus, RunConfig};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_softfloat::FpFormat;

/// Verified mutants per instruction.
const MUTANTS_PER_OP: usize = 10;

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

#[test]
fn injected_faults_are_caught_with_oracle_confirmed_counterexamples() {
    let cfg = tiny();
    let run = RunConfig {
        mutants: Some(MUTANTS_PER_OP),
        ..RunConfig::default()
    };
    let clean = campaign_harness(&cfg, &run);
    for op in FpuOp::ALL {
        let report = run_campaign(&cfg, op, &run);
        assert!(
            report.candidate_gates > 200,
            "{op:?}: expected a rich implementation cone, got {} gates",
            report.candidate_gates
        );
        assert_eq!(report.outcomes.len(), MUTANTS_PER_OP, "{op:?}");
        assert_eq!(
            (report.survived(), report.budget_exceeded()),
            (0, 0),
            "{op:?}: every verified mutant must be killed"
        );
        for o in &report.outcomes {
            assert!(
                matches!(
                    o.status,
                    MutantStatus::Killed {
                        replay_confirmed: true,
                        ..
                    }
                ),
                "{op:?}: {:?} at {:?} was not killed by a replayed counterexample: {:?}",
                o.mutation.kind,
                o.mutation.node,
                o.status
            );
            let cex = o
                .counterexample
                .as_ref()
                .expect("a kill carries its counterexample");
            // The decoded operands re-encode to the assignment, and both
            // clean FPUs equal the softfloat oracle on them.
            if let Err(e) = arbitrate_kill(&clean, op, cex) {
                panic!(
                    "{op:?}: {:?} at {:?}: {e}",
                    o.mutation.kind, o.mutation.node
                );
            }
        }
    }
}
