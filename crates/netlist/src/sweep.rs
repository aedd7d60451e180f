//! Redundancy removal via simulation-guided SAT sweeping.
//!
//! The paper "employed automated redundancy removal algorithms [15] to reduce
//! the size of the netlist prior to application of BDD- and SAT-based
//! analysis", using an "interleaved BDD-sweeping and structural satisfiability
//! checking technique". This module implements the modern descendant of that
//! technique (fraiging): random simulation partitions nodes into candidate
//! equivalence classes, budgeted SAT queries confirm or refute candidates
//! (counterexamples refine the classes), and confirmed equivalences are
//! merged by rebuilding the netlist.

use std::collections::HashMap;

use fmaverify_sat::{SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::aig::{Netlist, Node, NodeId, Signal};
use crate::sim::ParallelSim;
use crate::tseitin::SatEncoder;

/// Options controlling a sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Number of 64-pattern random simulation rounds used to seed the
    /// candidate classes.
    pub sim_rounds: usize,
    /// Conflict budget per SAT query; candidates whose queries exceed it stay
    /// unmerged (sound, just less reduction).
    pub conflict_budget: u64,
    /// RNG seed (sweeps are deterministic for a given seed).
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            sim_rounds: 8,
            conflict_budget: 2_000,
            seed: 0x5eed_cafe,
        }
    }
}

/// Result of a sweep: the reduced netlist and bookkeeping statistics.
#[derive(Debug)]
pub struct SweepResult {
    /// The reduced netlist. Inputs and latches are preserved by name/order;
    /// outputs and probes are re-declared.
    pub netlist: Netlist,
    /// The remapped root signals, in the order given to [`sat_sweep`].
    pub roots: Vec<Signal>,
    /// Number of node merges performed.
    pub merged: usize,
    /// Number of SAT queries issued.
    pub sat_calls: usize,
    /// Number of queries that exhausted the conflict budget.
    pub timeouts: usize,
    /// Total simulation rounds run: the seeding rounds from
    /// [`SweepOptions::sim_rounds`] plus one round per counterexample
    /// refinement.
    pub sim_rounds: usize,
    /// AND-gate count before/after.
    pub ands_before: usize,
    /// AND-gate count after rebuilding.
    pub ands_after: usize,
}

/// Sweeps the combinational logic feeding `roots`, merging functionally
/// equivalent nodes (up to complement). Latches are treated as free cut
/// points, so the reduction is sound for sequential designs as well.
pub fn sat_sweep(netlist: &Netlist, roots: &[Signal], opts: SweepOptions) -> SweepResult {
    netlist_sweep_impl(netlist, roots, opts)
}

fn netlist_sweep_impl(netlist: &Netlist, roots: &[Signal], opts: SweepOptions) -> SweepResult {
    let n_nodes = netlist.num_nodes();
    let cone = netlist.comb_cone(roots);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Signatures: one u64 lane set per simulation round, per node.
    let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); n_nodes];
    let mut sim = ParallelSim::new(netlist);
    for _ in 0..opts.sim_rounds {
        simulate(netlist, &mut sim, &mut signatures, |_| rng.gen());
    }

    // Candidate classes keyed by normalized signature (complement-canonical:
    // flip all lanes if lane 0 bit 0 is set, remembering the phase).
    let mut solver = Solver::new();
    solver.set_conflict_budget(Some(opts.conflict_budget));
    let mut encoder = SatEncoder::new();
    // subst maps an original node to its replacement signal *in the original
    // netlist's node numbering space* (for equivalence tracking).
    let mut repr: Vec<Option<Signal>> = vec![None; n_nodes];
    let mut merged = 0usize;
    let mut sat_calls = 0usize;
    let mut timeouts = 0usize;

    /// Outcome of a SAT equivalence query, cached to survive classification
    /// restarts.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Outcome {
        Equal,
        Unequal,
        Unknown,
    }
    // Cache keyed by (node, candidate-node, same-phase?).
    let mut query_cache: HashMap<(u32, u32, bool), Outcome> = HashMap::new();
    const MAX_REFINEMENTS: usize = 64;
    let mut refinements = 0usize;

    'restart: loop {
        let mut classes: HashMap<Vec<u64>, Signal> = HashMap::new();
        // Seed the constant class so semantically-constant gates merge with
        // FALSE/TRUE.
        classes.insert(vec![0u64; signatures[0].len()], Signal::FALSE);
        for id in netlist.node_ids() {
            let i = id.index();
            if !cone[i] || !matches!(netlist.node(id), Node::And(..)) || repr[i].is_some() {
                continue;
            }
            let (key, phase) = normalize_signature(&signatures[i]);
            let candidate = match classes.get(&key) {
                None => {
                    classes.insert(key, netlist.signal(id).invert_if(phase));
                    continue;
                }
                Some(&rep) => rep.invert_if(phase),
            };
            if candidate.node() == id {
                continue;
            }
            let cache_key = (
                i as u32,
                candidate.node().index() as u32,
                !candidate.is_inverted(),
            );
            match query_cache.get(&cache_key) {
                Some(Outcome::Equal) => {
                    repr[i] = Some(candidate);
                    continue;
                }
                Some(Outcome::Unequal) | Some(Outcome::Unknown) => continue,
                None => {}
            }
            // SAT query: is node XOR candidate satisfiable?
            let this = netlist.signal(id);
            let la = encoder.lit(netlist, &mut solver, this);
            let lb = encoder.lit(netlist, &mut solver, candidate);
            sat_calls += 1;
            let outcome = match solver.solve_with_assumptions(&[la, !lb]) {
                SolveResult::Unknown => Outcome::Unknown,
                SolveResult::Sat => Outcome::Unequal,
                SolveResult::Unsat => match solver.solve_with_assumptions(&[!la, lb]) {
                    SolveResult::Unknown => Outcome::Unknown,
                    SolveResult::Sat => Outcome::Unequal,
                    SolveResult::Unsat => Outcome::Equal,
                },
            };
            query_cache.insert(cache_key, outcome);
            match outcome {
                Outcome::Equal => {
                    repr[i] = Some(candidate);
                    merged += 1;
                }
                Outcome::Unknown => {
                    timeouts += 1;
                }
                Outcome::Unequal => {
                    // Fold the counterexample into the signatures and restart
                    // classification so the pair separates: the model
                    // supplies lane 0 of each input and latch, random
                    // values the other 63 lanes.
                    if refinements < MAX_REFINEMENTS {
                        refinements += 1;
                        simulate(netlist, &mut sim, &mut signatures, |id| {
                            let lanes: u64 = rng.gen();
                            match encoder.model_value(&solver, netlist.signal(id)) {
                                Some(v) => (lanes & !1) | u64::from(v),
                                None => lanes,
                            }
                        });
                        query_cache.retain(|_, o| *o != Outcome::Unequal);
                        continue 'restart;
                    }
                }
            }
        }
        break;
    }

    // Rebuild the netlist applying the substitutions.
    let (out, map) = netlist.rebuild(|out, id, map, a, b| match repr[id.index()] {
        Some(rep) => rep.through(map),
        None => out.and(a, b),
    });
    let new_roots: Vec<Signal> = roots.iter().map(|r| r.through(&map)).collect();
    let ands_after = out.cone_size(&new_roots);
    SweepResult {
        ands_before: netlist.cone_size(roots),
        netlist: out,
        roots: new_roots,
        merged,
        sat_calls,
        timeouts,
        sim_rounds: opts.sim_rounds + refinements,
        ands_after,
    }
}

/// Runs one 64-pattern simulation round and appends every node's lanes to
/// its signature. `fill` supplies the pattern of each input and latch,
/// drawn in node order.
fn simulate(
    netlist: &Netlist,
    sim: &mut ParallelSim,
    signatures: &mut [Vec<u64>],
    mut fill: impl FnMut(NodeId) -> u64,
) {
    let (mut inputs, mut latches) = (Vec::new(), Vec::new());
    for id in netlist.node_ids() {
        match netlist.node(id) {
            Node::Input { .. } => inputs.push(fill(id)),
            Node::Latch { .. } => latches.push(fill(id)),
            Node::Const | Node::And(..) => {}
        }
    }
    sim.eval(&inputs, &latches);
    for (id, sig) in netlist.node_ids().zip(signatures) {
        sig.push(sim.get(netlist.signal(id)));
    }
}

/// Canonicalizes a signature under complement; returns (key, phase) where
/// `phase` is true if the signature was complemented.
fn normalize_signature(sig: &[u64]) -> (Vec<u64>, bool) {
    let flip = sig.first().is_some_and(|&w| w & 1 == 1);
    if flip {
        (sig.iter().map(|&w| !w).collect(), true)
    } else {
        (sig.to_vec(), false)
    }
}

/// Proves or refutes combinational equivalence of two signals in the same
/// netlist using an unbudgeted SAT check. Returns `true` iff equivalent.
pub fn prove_equal(netlist: &Netlist, a: Signal, b: Signal) -> bool {
    let mut solver = Solver::new();
    let mut enc = SatEncoder::new();
    let la = enc.lit(netlist, &mut solver, a);
    let lb = enc.lit(netlist, &mut solver, b);
    solver.solve_with_assumptions(&[la, !lb]) == SolveResult::Unsat
        && solver.solve_with_assumptions(&[!la, lb]) == SolveResult::Unsat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::BitSim;
    use crate::word::Word;

    /// Two adders built from different structures over the same operands:
    /// a ripple-carry adder versus a - (0 - b), and the OR of their
    /// difference.
    fn duplicated_adders() -> (Netlist, Signal) {
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let b = n.word_input("b", 8);
        let s1 = n.add(&a, &b);
        let nb = n.neg(&b);
        let s2 = n.sub(&a, &nb);
        assert_ne!(s1, s2, "the two adders must be structurally distinct");
        let diff = n.xor_word(&s1, &s2);
        let any = n.or_reduce(&diff);
        n.output("any", any);
        (n, any)
    }

    /// The low 6 bits of `(a + b) ^ (a * b)` over 6-bit operands.
    fn add_xor_mul() -> (Netlist, Word, Word, Vec<Signal>) {
        let mut n = Netlist::new();
        let a = n.word_input("a", 6);
        let b = n.word_input("b", 6);
        let s = n.add(&a, &b);
        let p = n.mul(&a, &b);
        let sp = n.xor_word(&s, &p.truncate(6));
        for (i, &bit) in sp.bits().iter().enumerate() {
            n.output(format!("o[{i}]"), bit);
        }
        let roots = sp.bits().to_vec();
        (n, a, b, roots)
    }

    #[test]
    fn merges_duplicated_adders() {
        // Structural hashing cannot see through the two adders; the sweep
        // must prove the difference constant.
        let (n, any) = duplicated_adders();
        let result = sat_sweep(&n, &[any], SweepOptions::default());
        assert_eq!(result.roots[0], Signal::FALSE, "difference must sweep to 0");
        assert!(result.ands_after < result.ands_before);
    }

    #[test]
    fn sweep_statistics_are_pinned() {
        // The sweep is a deterministic function of the netlist and the
        // seed: the same merges, SAT queries and simulation rounds.
        let stats = |r: SweepResult| {
            (
                r.merged,
                r.sat_calls,
                r.timeouts,
                r.sim_rounds,
                r.ands_before,
                r.ands_after,
            )
        };
        let (n, any) = duplicated_adders();
        let result = sat_sweep(&n, &[any], SweepOptions::default());
        assert_eq!(stats(result), (40, 40, 0, 8, 185, 0));
        let (n, _, _, roots) = add_xor_mul();
        let result = sat_sweep(&n, &roots, SweepOptions::default());
        assert_eq!(stats(result), (2, 2, 0, 8, 179, 177));
    }

    #[test]
    fn sweep_preserves_function() {
        let (n, a, b, roots) = add_xor_mul();
        let result = sat_sweep(&n, &roots, SweepOptions::default());
        // Compare the original and swept netlists on random values.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let va: u128 = rng.gen_range(0..64);
            let vb: u128 = rng.gen_range(0..64);
            let mut sim_old = BitSim::new(&n);
            sim_old.set_word(&a, va);
            sim_old.set_word(&b, vb);
            sim_old.eval();
            let new_a = result.netlist.find_input("a[0]").expect("input exists");
            let _ = new_a;
            let mut sim_new = BitSim::new(&result.netlist);
            for i in 0..6 {
                let ia = result
                    .netlist
                    .find_input(&format!("a[{i}]"))
                    .expect("a bit");
                let ib = result
                    .netlist
                    .find_input(&format!("b[{i}]"))
                    .expect("b bit");
                sim_new.set(ia, va >> i & 1 == 1);
                sim_new.set(ib, vb >> i & 1 == 1);
            }
            sim_new.eval();
            for (i, &old_bit) in roots.iter().enumerate() {
                assert_eq!(
                    sim_old.get(old_bit),
                    sim_new.get(result.roots[i]),
                    "bit {i} for a={va} b={vb}"
                );
            }
        }
        assert!(result.merged > 0, "adder/multiplier share low-order logic");
    }

    #[test]
    fn prove_equal_works() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x1 = n.xor(a, b);
        let x2 = {
            let o = n.or(a, b);
            let na = n.and(a, b);
            n.and(o, !na)
        };
        assert!(prove_equal(&n, x1, x2));
        assert!(!prove_equal(&n, x1, a));
        assert!(!prove_equal(&n, !x1, x2));
    }

    #[test]
    fn sweep_keeps_latches() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q = n.latch(false);
        n.set_latch_next(q, d);
        let g = n.and(q, d);
        n.output("g", g);
        let result = sat_sweep(&n, &[g], SweepOptions::default());
        assert_eq!(result.netlist.num_latches(), 1);
        result.netlist.assert_closed();
    }
}
