//! Semi-formal validation: constraint-satisfying stimulus generation.
//!
//! The paper validates the design "without the multiplier overrides or
//! case-splits using simulation and semi-formal methods". This module is
//! the semi-formal leg: the SAT solver is used as a *stimulus generator* —
//! each query returns a model of the case constraint, decision phases are
//! re-randomized between queries and previous models are blocked, so the
//! samples spread across the constrained space. The miter is then checked
//! by concrete simulation on every sample: not a proof, but a
//! coverage-directed search that reaches corners uniform random stimulus
//! cannot (e.g. a specific δ and normalization shift).

use std::collections::HashMap;
use std::time::Instant;

use fmaverify_netlist::{BitSim, Netlist, SatEncoder, Signal};
use fmaverify_sat::{Lit, SolveResult, Solver};

use crate::engine::EngineStats;

/// Result of a semi-formal run.
#[derive(Clone, Debug)]
pub struct SemiFormalOutcome {
    /// Number of constraint-satisfying vectors simulated.
    pub vectors: usize,
    /// The first miter-violating vector found, if any.
    pub failure: Option<HashMap<String, bool>>,
    /// True when the constraint space was exhausted before `count` samples
    /// (every satisfying assignment was enumerated and simulated).
    pub exhausted: bool,
    /// Unified resource statistics (total solver conflicts across all
    /// stimulus queries, wall time) in the case-engine shape.
    pub stats: EngineStats,
}

/// Draws up to `count` distinct samples satisfying all `constraint_parts`
/// and simulates `miter` on each.
///
/// Blocking clauses are added over the primary inputs, so every returned
/// vector is distinct; if the constraint space is smaller than `count`, the
/// run is exhaustive over it (and `exhausted` is set — the semi-formal
/// search degenerated into a complete one).
pub fn semi_formal_check(
    netlist: &Netlist,
    miter: Signal,
    constraint_parts: &[Signal],
    count: usize,
    seed: u64,
) -> SemiFormalOutcome {
    let start = Instant::now();
    let mut solver = Solver::new();
    let mut enc = SatEncoder::new();
    let assumptions: Vec<Lit> = constraint_parts
        .iter()
        .map(|&p| enc.lit(netlist, &mut solver, p))
        .collect();
    // Make sure every primary input is encoded so models cover all of them
    // and blocking clauses pin complete vectors.
    let input_lits: Vec<Lit> = netlist
        .inputs()
        .iter()
        .map(|&id| enc.lit(netlist, &mut solver, netlist.signal(id)))
        .collect();

    let mut sim = BitSim::new(netlist);
    let mut vectors = 0;
    let mut failure = None;
    let mut exhausted = false;
    for k in 0..count {
        solver.randomize_polarities(seed.wrapping_add(k as u64).wrapping_mul(0x9e37_79b9));
        match solver.solve_with_assumptions(&assumptions) {
            SolveResult::Unsat => {
                exhausted = true;
                break;
            }
            SolveResult::Unknown => unreachable!("no budget configured"),
            SolveResult::Sat => {}
        }
        // Extract, simulate, and block this vector.
        let vector = enc.input_model(netlist, &solver);
        for (name, &v) in &vector {
            sim.set(netlist.find_input(name).expect("input exists"), v);
        }
        sim.eval();
        vectors += 1;
        debug_assert!(
            constraint_parts.iter().all(|&p| sim.get(p)),
            "SAT model violates the constraint in simulation"
        );
        if sim.get(miter) {
            failure = Some(vector);
            break;
        }
        let blocking: Vec<Lit> = input_lits
            .iter()
            .map(|&lit| {
                if solver.model_lit_value(lit).is_true() {
                    !lit
                } else {
                    lit
                }
            })
            .collect();
        solver.add_clause(&blocking);
    }
    SemiFormalOutcome {
        vectors,
        failure,
        exhausted,
        stats: EngineStats {
            sat_conflicts: Some(solver.stats().conflicts),
            wall: start.elapsed(),
            ..EngineStats::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::CaseId;
    use crate::harness::{build_harness, HarnessOptions};
    use crate::mutate::{fault_targets, inject_fault, MutationKind};
    use crate::sequential::{engine_view, find_constraints, probe_constraints};
    use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
    use fmaverify_softfloat::FpFormat;

    fn tiny() -> FpuConfig {
        FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        }
    }

    #[test]
    fn clean_design_survives_semi_formal() {
        let mut h = build_harness(&tiny(), HarnessOptions::default());
        let parts = h.case_constraint_parts(FpuOp::Fma, CaseId::OverlapNoCancel { delta: 2 });
        let out = semi_formal_check(&h.netlist, h.miter, &parts, 200, 7);
        assert!(out.failure.is_none());
        assert!(
            out.vectors > 50,
            "expected many distinct samples, got {}",
            out.vectors
        );
    }

    #[test]
    fn samples_are_distinct_and_on_constraint() {
        let mut h = build_harness(&tiny(), HarnessOptions::default());
        let parts = h.case_constraint_parts(FpuOp::Fma, CaseId::OverlapNoCancel { delta: 0 });
        // Use the constraint itself as a "miter" that never fires, and count
        // distinct vectors via the blocking mechanism.
        let out = semi_formal_check(&h.netlist, Signal::FALSE, &parts, 64, 3);
        assert_eq!(out.vectors, 64, "blocking must yield distinct samples");
        assert!(!out.exhausted);
    }

    #[test]
    fn small_space_is_exhausted() {
        // A constraint with a tiny solution space: op fixed and a == b == c
        // == 0 except one free bit.
        let mut n = Netlist::new();
        let x = n.word_input("x", 3);
        let c = {
            let k = n.word_const(3, 2);
            n.ult(&x, &k) // x in {0, 1}
        };
        let out = semi_formal_check(&n, Signal::FALSE, &[c], 100, 1);
        assert_eq!(out.vectors, 2);
        assert!(out.exhausted);
    }

    #[test]
    fn finds_planted_bug_within_its_case() {
        let mut h = build_harness(
            &tiny(),
            HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
        );
        let case = CaseId::OverlapNoCancel { delta: 1 };
        let probes = probe_constraints(&mut h, FpuOp::Fma, &[case]);
        // Find a fault observable under this very constraint by trying
        // fault sites until the semi-formal search trips one.
        let targets = fault_targets(&h, &find_constraints(&h.netlist, &probes)[0].1);
        let mut found = false;
        for (k, &target) in targets.iter().enumerate().step_by(11) {
            let mutated = inject_fault(&h.netlist, target, MutationKind::InvertOutput);
            let (view, constraints) = engine_view(&h, mutated, &probes);
            let out =
                semi_formal_check(&view.netlist, view.miter, &constraints[0].1, 300, k as u64);
            if let Some(vector) = out.failure {
                // Replay.
                let mut sim = BitSim::new(&view.netlist);
                for (name, v) in &vector {
                    sim.set(view.netlist.find_input(name).expect("input"), *v);
                }
                sim.eval();
                assert!(sim.get(view.miter));
                found = true;
                break;
            }
        }
        assert!(
            found,
            "no candidate fault was exposed by semi-formal search"
        );
    }
}
