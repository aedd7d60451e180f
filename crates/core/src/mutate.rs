//! Netlist fault injection for verifying the verifier.
//!
//! The paper's methodology exposed "dozens of high-quality bugs"; to show
//! our reproduction has the same bug-finding power, these mutators inject
//! single-gate faults into a netlist (polarity flips, gate-type swaps, stuck
//! nodes), after which the verification flow must produce a counterexample.
//!
//! Every mutant is verified by one loop, [`crate::run_campaign`]: it picks
//! a site among the harness's [`fault_targets`], calls [`inject_fault`],
//! turns the mutant into the harness the engines check with
//! [`crate::sequential::engine_view`], and verifies it with
//! [`crate::Session::run_prepared`], which decodes and replays any
//! counterexample.

use fmaverify_fpu::FpuOutputs;
use fmaverify_netlist::{Netlist, Node, NodeId, Signal};

use crate::harness::Harness;

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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

/// The fault sites of a harness: every AND gate in the sequential cone of
/// the implementation FPU's result and flags that feeds neither the
/// reference FPU's result and flags nor the `constraints` (the case
/// constraint parts) — mutating those would corrupt the specification, not
/// the design under test. The traversal continues through latch next-state
/// functions, so on a pipelined implementation the gates behind a register
/// are sites too; on a combinational netlist this is the combinational
/// cone. Sites come in node order.
///
/// This is the one rule for where a fault may go: [`crate::run_campaign`]
/// and every bug hunt draw their mutants from it.
pub fn fault_targets(base: &Harness, constraints: &[Signal]) -> Vec<NodeId> {
    let roots = |fpu: &FpuOutputs| -> Vec<Signal> {
        fpu.result
            .bits()
            .iter()
            .chain(fpu.flags.bits())
            .copied()
            .collect()
    };
    let netlist = &base.netlist;
    let in_impl = netlist.seq_cone(&roots(&base.impl_fpu.outputs));
    let in_ref = netlist.seq_cone(&roots(&base.ref_fpu.outputs));
    let in_parts = netlist.seq_cone(constraints);
    netlist
        .node_ids()
        .filter(|id| {
            let i = id.index();
            in_impl[i] && !in_ref[i] && !in_parts[i] && matches!(netlist.node(*id), Node::And(..))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{build_harness, HarnessOptions};
    use fmaverify_fpu::{DenormalMode, FpuConfig, PipelineMode};
    use fmaverify_netlist::BitSim;
    use fmaverify_softfloat::FpFormat;

    #[test]
    fn mutation_changes_function() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let b = n.word_input("b", 4);
        let s = n.add(&a, &b);
        for (i, &bit) in s.bits().iter().enumerate() {
            n.output(format!("s[{i}]"), bit);
        }
        // Turn the gate that drives the top sum bit into an OR.
        let mutated = inject_fault(&n, s.bits()[3].node(), MutationKind::AndToOr);
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
    fn pipelined_toy() -> (Netlist, Signal) {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let l = n.latch(false);
        let stage = n.and(a, b);
        n.set_latch_next(l, stage);
        let q = n.and(l, a);
        n.output("q", !q);
        n.probe("stage", stage);
        (n, stage)
    }

    #[test]
    fn seq_scope_reaches_gates_behind_latches() {
        // The pipelined FPU registers its result and flags, so their
        // combinational cone stops at the last stage boundary; the fault
        // sites reach through the registers into the datapath.
        let cfg = FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        };
        let h = build_harness(
            &cfg,
            HarnessOptions {
                isolate_multiplier: false,
                pipeline: PipelineMode::ThreeStage,
                ..HarnessOptions::default()
            },
        );
        let targets = fault_targets(&h, &[]);
        let outputs = &h.impl_fpu.outputs;
        let roots: Vec<Signal> = outputs
            .result
            .bits()
            .iter()
            .chain(outputs.flags.bits())
            .copied()
            .collect();
        let comb = h.netlist.comb_cone(&roots);
        let behind = targets.iter().filter(|id| !comb[id.index()]).count();
        assert!(
            2 * behind > targets.len(),
            "{behind} of {} fault sites lie behind a register",
            targets.len()
        );
    }

    #[test]
    fn sequential_fault_remaps_latch_next_state() {
        let (n, stage) = pipelined_toy();
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
