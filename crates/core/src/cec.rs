//! Combinational equivalence checking (the role of Verity \[14\] in the
//! paper's flow: correlating one design representation against another).
//!
//! Two netlists with matching input and output names are merged into one
//! ([`Netlist::import`] matches the inputs by name), a miter is built over
//! all common outputs, redundancy removal shrinks it, and SAT settles the
//! remainder.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fmaverify_netlist::{sat_sweep, Netlist, SatEncoder, Signal, SweepOptions};
use fmaverify_sat::{SolveResult, Solver};

use crate::engine::EngineStats;

/// Result of an equivalence check.
#[derive(Clone, Debug)]
pub struct CecResult {
    /// True iff every common output is equivalent.
    pub equivalent: bool,
    /// The name of a failing output, if any.
    pub failing_output: Option<String>,
    /// An input assignment distinguishing the designs, if any.
    pub counterexample: Option<HashMap<String, bool>>,
    /// Gates merged by the sweep phase.
    pub swept_merges: usize,
    /// Unified resource statistics (SAT conflicts, post-sweep cone size,
    /// wall time) in the same shape the case engines report.
    pub stats: EngineStats,
}

/// Checks combinational equivalence of the outputs shared by name between
/// `left` and `right`.
///
/// # Panics
/// Panics if the designs share no output names.
pub fn check_equivalence(left: &Netlist, right: &Netlist) -> CecResult {
    let start = Instant::now();
    let mut merged = Netlist::new();
    let lmap = merged.import(left, |n, _, _, a, b| n.and(a, b));
    let rmap = merged.import(right, |n, _, _, a, b| n.and(a, b));

    let right_outputs: HashMap<&str, Signal> = right
        .outputs()
        .iter()
        .map(|(name, sig)| (name.as_str(), sig.through(&rmap)))
        .collect();
    let mut pairs: Vec<(String, Signal, Signal)> = Vec::new();
    for (name, sig) in left.outputs() {
        if let Some(&rs) = right_outputs.get(name.as_str()) {
            pairs.push((name.clone(), sig.through(&lmap), rs));
        }
    }
    assert!(!pairs.is_empty(), "no common outputs to compare");

    // Per-output miters, plus a global one for the sweep roots.
    let miters: Vec<(String, Signal)> = pairs
        .iter()
        .map(|(name, l, r)| (name.clone(), merged.xor(*l, *r)))
        .collect();
    let roots: Vec<Signal> = miters.iter().map(|(_, m)| *m).collect();
    let sweep = sat_sweep(&merged, &roots, SweepOptions::default());
    let merged = sweep.netlist;

    let mut solver = Solver::new();
    let mut enc = SatEncoder::new();
    let cone_ands = merged.cone_size(&sweep.roots);
    let stats = |solver: &Solver, wall: Duration| EngineStats {
        sat_conflicts: Some(solver.stats().conflicts),
        coi_ands: Some(cone_ands),
        wall,
        ..EngineStats::default()
    };
    for ((name, _), &root) in miters.iter().zip(&sweep.roots) {
        let lit = enc.lit(&merged, &mut solver, root);
        match solver.solve_with_assumptions(&[lit]) {
            SolveResult::Unsat => continue,
            SolveResult::Sat => {
                return CecResult {
                    equivalent: false,
                    failing_output: Some(name.clone()),
                    counterexample: Some(enc.input_model(&merged, &solver)),
                    swept_merges: sweep.merged,
                    stats: stats(&solver, start.elapsed()),
                };
            }
            SolveResult::Unknown => unreachable!("no budget configured"),
        }
    }
    CecResult {
        equivalent: true,
        failing_output: None,
        counterexample: None,
        swept_merges: sweep.merged,
        stats: stats(&solver, start.elapsed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_netlist(width: usize, twisted: bool) -> Netlist {
        let mut n = Netlist::new();
        let a = n.word_input("a", width);
        let b = n.word_input("b", width);
        let s = if twisted {
            let nb = n.neg(&b);
            n.sub(&a, &nb)
        } else {
            n.add(&a, &b)
        };
        for (i, &bit) in s.bits().iter().enumerate() {
            n.output(format!("s[{i}]"), bit);
        }
        n
    }

    #[test]
    fn equivalent_adders() {
        let left = adder_netlist(8, false);
        let right = adder_netlist(8, true);
        let r = check_equivalence(&left, &right);
        assert!(r.equivalent);
        assert!(r.swept_merges > 0);
    }

    #[test]
    fn inequivalent_detected_with_cex() {
        let left = adder_netlist(6, false);
        let right = {
            let mut n = Netlist::new();
            let a = n.word_input("a", 6);
            let b = n.word_input("b", 6);
            let s = n.sub(&a, &b); // wrong operation
            for (i, &bit) in s.bits().iter().enumerate() {
                n.output(format!("s[{i}]"), bit);
            }
            n
        };
        let r = check_equivalence(&left, &right);
        assert!(!r.equivalent);
        let cex = r.counterexample.expect("counterexample");
        let name = r.failing_output.expect("failing output");
        // Replay on both sides: the named output must differ.
        let decode = |n: &Netlist| -> bool {
            let mut sim = fmaverify_netlist::BitSim::new(n);
            for (k, v) in &cex {
                if let Some(sig) = n.find_input(k) {
                    sim.set(sig, *v);
                }
            }
            sim.eval();
            sim.get(n.find_output(&name).expect("output"))
        };
        assert_ne!(decode(&left), decode(&right));
    }
}
