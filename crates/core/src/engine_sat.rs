//! SAT-based miter checking.
//!
//! The paper uses satisfiability checking for the far-out cases and the
//! multiply instruction: the solver only encodes the cone of influence, so
//! "the SAT-solver is able to identify that the shifters which align the
//! addend to the product are not needed" and drops them automatically —
//! whereas BDD symbolic simulation would build them anyway.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fmaverify_netlist::{sat_sweep, Netlist, SatEncoder, Signal, SweepOptions};
use fmaverify_sat::{SolveResult, Solver, SolverStats};

/// Options for a SAT check.
#[derive(Clone, Copy, Debug, Default)]
pub struct SatEngineOptions {
    /// Run redundancy removal (SAT sweeping) on the cone before the check,
    /// as the paper does "prior to application of BDD- and SAT-based
    /// analysis".
    pub sweep_first: bool,
    /// Conflict budget (None = run to completion).
    pub conflict_budget: Option<u64>,
}

/// Result of a SAT miter check.
#[derive(Clone, Debug)]
pub struct SatOutcome {
    /// True iff `miter AND care` is unsatisfiable.
    pub holds: bool,
    /// Input assignment (by name) when the check fails.
    pub counterexample: Option<HashMap<String, bool>>,
    /// Solver statistics.
    pub stats: SolverStats,
    /// AND gates in the encoded cone (after sweeping, if enabled).
    pub cone_ands: usize,
    /// AND gates merged away by sweeping (0 when disabled).
    pub swept_away: usize,
    /// Node merges performed by sweeping (0 when disabled).
    pub sweep_merged: usize,
    /// SAT equivalence queries issued by sweeping (0 when disabled).
    pub sweep_sat_calls: usize,
    /// Simulation rounds run by sweeping, seed plus refinement (0 when
    /// disabled).
    pub sweep_sim_rounds: usize,
    /// Wall-clock duration.
    pub duration: Duration,
    /// True when the conflict budget was exhausted (result unknown).
    pub unknown: bool,
}

/// Checks by SAT that `miter` is false everywhere on the care set, given
/// as a conjunction of parts, each assumed as a separate literal.
pub fn check_miter_sat_parts(
    netlist: &Netlist,
    miter: Signal,
    care_parts: &[Signal],
    opts: &SatEngineOptions,
) -> SatOutcome {
    let start = Instant::now();
    let mut roots: Vec<Signal> = vec![miter];
    roots.extend_from_slice(care_parts);
    let (owned, roots, swept_away, sweep_merged, sweep_sat_calls, sweep_sim_rounds) =
        if opts.sweep_first {
            let before = netlist.cone_size(&roots);
            let result = sat_sweep(netlist, &roots, SweepOptions::default());
            let after = result.ands_after;
            (
                Some(result.netlist),
                result.roots,
                before.saturating_sub(after),
                result.merged,
                result.sat_calls,
                result.sim_rounds,
            )
        } else {
            (None, roots, 0, 0, 0, 0)
        };
    let netlist = owned.as_ref().unwrap_or(netlist);
    let miter = roots[0];

    let cone_ands = netlist.cone_size(&roots);
    let mut solver = Solver::new();
    solver.set_conflict_budget(opts.conflict_budget);
    let mut enc = SatEncoder::new();
    let mut assumptions: Vec<fmaverify_sat::Lit> = roots[1..]
        .iter()
        .map(|&c| enc.lit(netlist, &mut solver, c))
        .collect();
    let miter_lit = enc.lit(netlist, &mut solver, miter);
    assumptions.push(miter_lit);
    let result = solver.solve_with_assumptions(&assumptions);
    let holds = result == SolveResult::Unsat;
    let unknown = result == SolveResult::Unknown;
    let counterexample = (result == SolveResult::Sat).then(|| enc.input_model(netlist, &solver));
    SatOutcome {
        holds,
        counterexample,
        stats: solver.stats(),
        cone_ands,
        swept_away,
        sweep_merged,
        sweep_sat_calls,
        sweep_sim_rounds,
        duration: start.elapsed(),
        unknown,
    }
}

/// Proves that `property` is a tautology (true for every input assignment):
/// used for the multiplier-isolation soundness obligation and the
/// case-split completeness check. Returns `(holds, witness_of_failure)`.
pub fn prove_tautology(
    netlist: &Netlist,
    property: Signal,
) -> (bool, Option<HashMap<String, bool>>) {
    let out = check_miter_sat_parts(
        netlist,
        !property,
        &[Signal::TRUE],
        &SatEngineOptions::default(),
    );
    (out.holds, out.counterexample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_netlist::BitSim;

    fn adder_pair(buggy: bool) -> (Netlist, Signal, Signal) {
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let b = n.word_input("b", 8);
        let s1 = n.add(&a, &b);
        let nb = n.neg(&b);
        let mut s2 = n.sub(&a, &nb);
        if buggy {
            let mut bits = s2.bits().to_vec();
            bits[5] = !bits[5];
            s2 = fmaverify_netlist::Word::from_bits(bits);
        }
        let d = n.xor_word(&s1, &s2);
        let miter = n.or_reduce(&d);
        let care = !a.bit(7);
        (n, miter, care)
    }

    #[test]
    fn equal_adders_hold() {
        let (n, miter, care) = adder_pair(false);
        for sweep in [false, true] {
            let out = check_miter_sat_parts(
                &n,
                miter,
                &[care],
                &SatEngineOptions {
                    sweep_first: sweep,
                    conflict_budget: None,
                },
            );
            assert!(out.holds, "sweep={sweep}");
            if sweep {
                assert!(out.swept_away > 0, "sweeping should reduce the cone");
            }
        }
    }

    #[test]
    fn buggy_adder_cex_replays() {
        let (n, miter, care) = adder_pair(true);
        let out = check_miter_sat_parts(&n, miter, &[care], &SatEngineOptions::default());
        assert!(!out.holds);
        let cex = out.counterexample.expect("counterexample");
        let mut sim = BitSim::new(&n);
        for (name, val) in &cex {
            let sig = n.find_input(name).expect("input");
            sim.set(sig, *val);
        }
        sim.eval();
        assert!(sim.get(miter) && sim.get(care));
    }

    #[test]
    fn tautology_checks() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let lhs = n.and(a, b);
        let taut = n.implies(lhs, a);
        let (holds, _) = prove_tautology(&n, taut);
        assert!(holds);
        let non_taut = n.or(a, b);
        let (holds, witness) = prove_tautology(&n, non_taut);
        assert!(!holds);
        let w = witness.expect("witness");
        assert!(!w["a"] && !w["b"]);
    }

    #[test]
    fn budget_reports_unknown() {
        // Equivalence of two multipliers is hard; with a 1-conflict budget
        // the engine must report unknown rather than a wrong verdict.
        let mut n = Netlist::new();
        let a = n.word_input("a", 12);
        let b = n.word_input("b", 12);
        let p1 = n.mul(&a, &b);
        let p2 = n.mul(&b, &a);
        // Build a second structure: (a+b)^2 - a^2 - b^2 == 2ab; compare with
        // p1 + p2 (both 2ab).
        let s = n.add(&a, &b);
        let s2 = n.mul(&s, &s);
        let a2 = n.mul(&a, &a);
        let b2 = n.mul(&b, &b);
        let a2x = n.zext(&a2, 24);
        let b2x = n.zext(&b2, 24);
        let lhs = {
            let t = n.sub(&s2, &a2x);
            n.sub(&t, &b2x)
        };
        let p1x = n.zext(&p1, 24);
        let p2x = n.zext(&p2, 24);
        let rhs = n.add(&p1x, &p2x);
        let d = n.xor_word(&lhs, &rhs);
        let miter = n.or_reduce(&d);
        let out = check_miter_sat_parts(
            &n,
            miter,
            &[Signal::TRUE],
            &SatEngineOptions {
                sweep_first: false,
                conflict_budget: Some(1),
            },
        );
        assert!(out.unknown);
        assert!(!out.holds);
    }
}
