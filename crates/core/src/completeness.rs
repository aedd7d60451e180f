//! Completeness of the case split (paper Section 4): "The disjunction of
//! all the cases is easily provable as a tautology, guaranteeing
//! completeness of our methodology."
//!
//! The obligation is one SAT tautology over the constraints the engines
//! themselves assume, [`crate::Harness::case_constraint`]: the instruction's
//! own constraint (`Monolithic`: its opcode, plus the multiplier constraint
//! under isolation) implies the OR of every case's constraint. A dropped or
//! mis-built case shows up as an input the engines never check, returned as
//! [`CompletenessResult::uncovered`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fmaverify_fpu::{FpuConfig, FpuOp};
use fmaverify_netlist::Signal;

use crate::cases::CaseId;
use crate::engine_sat::prove_tautology;
use crate::harness::{build_harness, HarnessOptions};

/// Result of the completeness proof.
#[derive(Clone, Debug)]
pub struct CompletenessResult {
    /// An input assignment (by harness input name) that satisfies the
    /// instruction's own constraint but no case's constraint; `None` when
    /// the split is complete.
    pub uncovered: Option<HashMap<String, bool>>,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl CompletenessResult {
    /// True iff every input of the instruction falls into some case.
    pub fn holds(&self) -> bool {
        self.uncovered.is_none()
    }
}

/// Proves that `cases` (normally [`crate::enumerate_cases`]`(cfg, op)`)
/// cover every input the instruction `op` admits, on the default isolated
/// harness.
pub fn prove_completeness(cfg: &FpuConfig, op: FpuOp, cases: &[CaseId]) -> CompletenessResult {
    let start = Instant::now();
    let mut harness = build_harness(cfg, HarnessOptions::default());
    let assumed = harness.case_constraint(op, CaseId::Monolithic);
    let mut covered = Signal::FALSE;
    for &case in cases {
        let c = harness.case_constraint(op, case);
        covered = harness.netlist.or(covered, c);
    }
    let split = harness.netlist.implies(assumed, covered);
    let (_, uncovered) = prove_tautology(&harness.netlist, split);
    CompletenessResult {
        uncovered,
        duration: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{enumerate_cases, ShaCase};
    use crate::runner::replay;
    use fmaverify_fpu::DenormalMode;
    use fmaverify_softfloat::FpFormat;

    fn micro_ftz() -> FpuConfig {
        FpuConfig {
            format: FpFormat::MICRO,
            denormals: DenormalMode::FlushToZero,
        }
    }

    #[test]
    fn micro_split_is_complete() {
        for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
            let cfg = FpuConfig {
                format: FpFormat::MICRO,
                denormals: mode,
            };
            for op in [FpuOp::Fma, FpuOp::Add, FpuOp::Mul] {
                let r = prove_completeness(&cfg, op, &enumerate_cases(&cfg, op));
                assert!(r.holds(), "op {op:?} mode {mode:?}: {r:?}");
            }
        }
    }

    #[test]
    fn an_empty_split_leaves_the_instruction_uncovered() {
        // The left side of the implication is satisfiable: a split with no
        // cases is caught, with a witness that carries the opcode.
        let cfg = micro_ftz();
        for op in [FpuOp::Fma, FpuOp::Add, FpuOp::Mul] {
            let witness = prove_completeness(&cfg, op, &[])
                .uncovered
                .expect("an empty split is incomplete");
            let opcode: u32 = (0..3)
                .map(|i| u32::from(witness[&format!("op[{i}]")]) << i)
                .sum();
            assert_eq!(opcode, op.encode(), "{op:?}");
        }
    }

    #[test]
    fn dropping_a_delta_breaks_completeness() {
        let cfg = micro_ftz();
        let mut cases = enumerate_cases(&cfg, FpuOp::Fma);
        // Remove one overlap δ entirely.
        cases.retain(|c| !matches!(c, CaseId::OverlapNoCancel { delta: 3 }));
        let r = prove_completeness(&cfg, FpuOp::Fma, &cases);
        assert!(!r.holds(), "an incomplete split must be detected");
        assert!(r.uncovered.is_some());
    }

    #[test]
    fn dropping_a_sha_sub_case_is_caught_with_a_replaying_witness() {
        let cfg = micro_ftz();
        let dropped = CaseId::OverlapCancel {
            delta: -2,
            sha: ShaCase::Exact(3),
        };
        let mut cases = enumerate_cases(&cfg, FpuOp::Fma);
        cases.retain(|&c| c != dropped);
        let r = prove_completeness(&cfg, FpuOp::Fma, &cases);
        assert!(!r.holds(), "a missing sha sub-case must be detected");
        let witness = r.uncovered.expect("witness");

        // Replay on a fresh harness: the witness is an admitted FMA input
        // that lies in the dropped case and in no remaining one.
        let mut h = build_harness(&cfg, HarnessOptions::default());
        let mut holds_in = |case| {
            let c = h.case_constraint(FpuOp::Fma, case);
            replay(&h.netlist, c, &witness)
        };
        assert!(holds_in(CaseId::Monolithic) && holds_in(dropped));
        assert!(!cases.iter().any(|&c| holds_in(c)));
    }
}
