//! Netlist fault injection for verifying the verifier.
//!
//! The paper's methodology exposed "dozens of high-quality bugs"; to show
//! our reproduction has the same bug-finding power, these mutators inject
//! single-gate faults into a netlist (polarity flips, gate-type swaps, stuck
//! nodes), after which the verification flow must produce a counterexample.

use fmaverify_netlist::{Netlist, Node, NodeId, Signal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The kind of single-gate fault to inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Invert the output of the gate.
    InvertOutput,
    /// Invert the first operand edge.
    InvertInputA,
    /// Turn the AND into an OR of the same operands.
    AndToOr,
    /// Turn the AND into an XOR of the same operands.
    AndToXor,
    /// Replace the gate by its first operand (a missing-logic bug).
    PassThroughA,
}

impl MutationKind {
    /// All mutation kinds.
    pub const ALL: [MutationKind; 5] = [
        MutationKind::InvertOutput,
        MutationKind::InvertInputA,
        MutationKind::AndToOr,
        MutationKind::AndToXor,
        MutationKind::PassThroughA,
    ];

    /// A short stable label, e.g. for kill-matrix rows and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::InvertOutput => "invert_output",
            MutationKind::InvertInputA => "invert_input_a",
            MutationKind::AndToOr => "and_to_or",
            MutationKind::AndToXor => "and_to_xor",
            MutationKind::PassThroughA => "pass_through_a",
        }
    }
}

/// A performed mutation, for reporting.
#[derive(Clone, Copy, Debug)]
pub struct Mutation {
    /// The mutated AND node (in the original netlist's numbering).
    pub node: NodeId,
    /// The fault kind.
    pub kind: MutationKind,
}

/// Rebuilds `netlist` with a single fault injected at `target` (which must
/// be an AND node). Outputs, probes, inputs, and latches are preserved by
/// name and order, so signals can be looked up as before.
///
/// # Panics
/// Panics if `target` is not an AND node.
pub fn inject_fault(netlist: &Netlist, target: NodeId, kind: MutationKind) -> Netlist {
    assert!(
        matches!(netlist.node(target), Node::And(..)),
        "mutation target must be an AND gate"
    );
    let (out, _) = netlist.rebuild(|out, id, _, a, b| {
        if id != target {
            return out.and(a, b);
        }
        match kind {
            MutationKind::InvertOutput => !out.and(a, b),
            MutationKind::InvertInputA => out.and(!a, b),
            MutationKind::AndToOr => out.or(a, b),
            MutationKind::AndToXor => out.xor(a, b),
            MutationKind::PassThroughA => a,
        }
    });
    out
}

/// The AND gates eligible for fault injection: every AND node in the
/// sequential cone of `within`. The traversal continues through latch
/// next-state functions, so on a pipelined implementation the gates behind
/// a register are candidates too; on a combinational netlist this is the
/// combinational cone.
pub fn fault_candidates(netlist: &Netlist, within: &[Signal]) -> Vec<NodeId> {
    let cone = netlist.seq_cone(within);
    netlist
        .node_ids()
        .filter(|id| cone[id.index()] && matches!(netlist.node(*id), Node::And(..)))
        .collect()
}

/// Picks a random AND node among the [`fault_candidates`] of `within` and
/// injects a random fault. Returns the mutated netlist and a description of
/// the fault.
///
/// # Panics
/// Panics if the cone contains no AND gates.
pub fn random_fault(netlist: &Netlist, within: &[Signal], seed: u64) -> (Netlist, Mutation) {
    let candidates = fault_candidates(netlist, within);
    assert!(!candidates.is_empty(), "cone contains no AND gates");
    let mut rng = StdRng::seed_from_u64(seed);
    let node = candidates[rng.gen_range(0..candidates.len())];
    let kind = MutationKind::ALL[rng.gen_range(0..MutationKind::ALL.len())];
    (inject_fault(netlist, node, kind), Mutation { node, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_netlist::BitSim;

    #[test]
    fn mutation_changes_function() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let b = n.word_input("b", 4);
        let s = n.add(&a, &b);
        for (i, &bit) in s.bits().iter().enumerate() {
            n.output(format!("s[{i}]"), bit);
        }
        let (mutated, mutation) = random_fault(&n, s.bits(), 99);
        assert!(matches!(
            n.node(mutation.node),
            fmaverify_netlist::Node::And(..)
        ));
        // Some input pattern must now disagree with the original.
        let mut diff = false;
        'outer: for va in 0..16u128 {
            for vb in 0..16u128 {
                let mut s0 = BitSim::new(&n);
                let mut s1 = BitSim::new(&mutated);
                for i in 0..4 {
                    let na = format!("a[{i}]");
                    let nb = format!("b[{i}]");
                    s0.set(n.find_input(&na).expect("input"), va >> i & 1 == 1);
                    s0.set(n.find_input(&nb).expect("input"), vb >> i & 1 == 1);
                    s1.set(mutated.find_input(&na).expect("input"), va >> i & 1 == 1);
                    s1.set(mutated.find_input(&nb).expect("input"), vb >> i & 1 == 1);
                }
                s0.eval();
                s1.eval();
                for i in 0..4 {
                    let name = format!("s[{i}]");
                    let o0 = n.find_output(&name).expect("output");
                    let o1 = mutated.find_output(&name).expect("output");
                    if s0.get(o0) != s1.get(o1) {
                        diff = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(diff, "the fault must be observable on some input");
    }

    /// A two-cycle toy pipeline: `stage = a AND b` is registered, and the
    /// output reads the register through logic and an inverted edge.
    fn pipelined_toy() -> (Netlist, Signal, Signal) {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let l = n.latch(false);
        let stage = n.and(a, b);
        n.set_latch_next(l, stage);
        let q = n.and(l, a);
        let out = !q;
        n.output("q", out);
        n.probe("stage", stage);
        (n, stage, out)
    }

    #[test]
    fn seq_scope_reaches_gates_behind_latches() {
        let (n, stage, out) = pipelined_toy();
        let comb = n.comb_cone(&[out]);
        let candidates = fault_candidates(&n, &[out]);
        assert!(
            !comb[stage.node().index()],
            "the combinational cone stops at the latch"
        );
        assert!(
            candidates.contains(&stage.node()),
            "candidates must traverse the latch next-state"
        );

        // `random_fault` can land behind the latch: on a netlist whose
        // only AND feeds a register, the combinational cone has nothing to
        // pick from.
        let mut m = Netlist::new();
        let x = m.input("x");
        let y = m.input("y");
        let r = m.latch(false);
        let g = m.and(x, y);
        m.set_latch_next(r, g);
        m.output("r", r);
        assert!(!m.comb_cone(&[r])[g.node().index()]);
        let (_, fault) = random_fault(&m, &[r], 3);
        assert_eq!(fault.node, g.node());
    }

    #[test]
    fn sequential_fault_remaps_latch_next_state() {
        let (n, stage, _) = pipelined_toy();
        let m = inject_fault(&n, stage.node(), MutationKind::InvertOutput);
        assert_eq!(m.num_latches(), n.num_latches(), "latches preserved");
        assert!(
            m.find_probe("stage").is_some(),
            "probes survive the rebuild"
        );
        // Cycle-accurate check with a=b=1 held: clean registers 1 after the
        // first step (q = !(l & a) flips 1 -> 0); the mutant's inverted
        // stage registers 0, so q stays 1.
        let run = |net: &Netlist| -> Vec<bool> {
            let out = net.find_output("q").expect("output");
            let mut sim = BitSim::new(net);
            sim.set(net.find_input("a").expect("a"), true);
            sim.set(net.find_input("b").expect("b"), true);
            let mut vals = Vec::new();
            for _ in 0..2 {
                sim.eval();
                vals.push(sim.get(out));
                sim.step();
            }
            vals
        };
        assert_eq!(run(&n), vec![true, false]);
        assert_eq!(run(&m), vec![true, true], "the fault must cross the latch");
    }

    #[test]
    fn sequential_fault_preserves_inverted_latch_next_edges() {
        // The latch next is connected through an INVERTED edge; the rebuild
        // must re-apply the inversion to the remapped signal.
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let l = n.latch(false);
        let g = n.and(a, b);
        n.set_latch_next(l, !g);
        n.output("r", l);
        n.probe("next", !g);
        let m = inject_fault(&n, g.node(), MutationKind::AndToOr);
        // With a=1, b=0: clean next = !(1&0) = 1; mutant next = !(1|0) = 0.
        let run = |net: &Netlist| -> bool {
            let out = net.find_output("r").expect("output");
            let mut sim = BitSim::new(net);
            sim.set(net.find_input("a").expect("a"), true);
            sim.set(net.find_input("b").expect("b"), false);
            sim.eval();
            sim.step();
            sim.eval();
            sim.get(out)
        };
        assert!(run(&n), "clean latch loads the inverted AND");
        assert!(!run(&m), "mutant latch loads the inverted OR");
        assert!(m.find_probe("next").is_some());
    }

    #[test]
    fn all_kinds_apply() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let g = n.and(a, b);
        n.output("g", g);
        for kind in MutationKind::ALL {
            let m = inject_fault(&n, g.node(), kind);
            let out = m.find_output("g").expect("output");
            let mut sim = BitSim::new(&m);
            sim.set(m.find_input("a").expect("a"), true);
            sim.set(m.find_input("b").expect("b"), true);
            sim.eval();
            let v = sim.get(out);
            let expect = match kind {
                MutationKind::InvertOutput => false,
                MutationKind::InvertInputA => false,
                MutationKind::AndToOr => true,
                MutationKind::AndToXor => false,
                MutationKind::PassThroughA => true,
            };
            assert_eq!(v, expect, "{kind:?}");
        }
    }
}
