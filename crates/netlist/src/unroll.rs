//! Bounded unrolling of sequential netlists.
//!
//! The paper casts FPU verification "as a bounded check" because a floating
//! point computation completes in a bounded number of steps. This module
//! produces the combinational unfolding the SAT engine operates on, and also
//! serves as a simple stand-in for the phase-abstraction step [16]: a
//! pipelined implementation FPU unrolled to its latency becomes a purely
//! combinational function of the cycle-0 operands.

use crate::aig::{Netlist, Node, Signal};

/// How primary inputs behave across unrolled cycles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InputMode {
    /// Each cycle gets fresh inputs named `name@cycle`.
    FreshPerCycle,
    /// All cycles share the cycle-0 inputs (the paper's driver applies one
    /// instruction and holds the operands).
    HoldFirst,
}

/// The result of unrolling: a combinational netlist plus signal maps.
#[derive(Debug)]
pub struct Unrolled {
    /// The combinational unrolled netlist (no latches).
    pub netlist: Netlist,
    /// `map[cycle][node]` is the unrolled signal of an original node at
    /// that cycle.
    map: Vec<Vec<Signal>>,
}

impl Unrolled {
    /// The unrolled counterpart of `sig` at `cycle`.
    ///
    /// # Panics
    /// Panics if `cycle` is not below [`Unrolled::cycles`] or `sig` is not a
    /// signal of the netlist that was unrolled.
    pub fn at(&self, cycle: usize, sig: Signal) -> Signal {
        sig.through(&self.map[cycle])
    }

    /// Number of unrolled cycles.
    pub fn cycles(&self) -> usize {
        self.map.len()
    }
}

/// Unrolls `netlist` for `cycles` cycles (cycle indices `0..cycles`).
///
/// Latches take their reset value at cycle 0 and their next-state function
/// evaluated at cycle `c-1` for cycle `c`. Outputs and probes of the original
/// netlist are re-declared per cycle as `name@cycle`.
///
/// # Panics
/// Panics if `cycles == 0` or a latch is unconnected.
pub fn unroll(netlist: &Netlist, cycles: usize, mode: InputMode) -> Unrolled {
    assert!(cycles > 0, "need at least one cycle");
    netlist.assert_closed();
    let mut out = Netlist::new();
    let mut map: Vec<Vec<Signal>> = Vec::with_capacity(cycles);

    for cycle in 0..cycles {
        let mut cur: Vec<Signal> = Vec::with_capacity(netlist.num_nodes());
        for id in netlist.node_ids() {
            let new_sig = match netlist.node(id) {
                Node::Const => Signal::FALSE,
                Node::Input { name } => {
                    if cycle == 0 || mode == InputMode::FreshPerCycle {
                        out.input(format!("{name}@{cycle}"))
                    } else {
                        map[0][id.index()]
                    }
                }
                Node::Latch { init, next, .. } => match map.last() {
                    None => Signal::FALSE.invert_if(*init),
                    Some(prev) => next.through(prev),
                },
                Node::And(a, b) => {
                    let (a, b) = (a.through(&cur), b.through(&cur));
                    out.and(a, b)
                }
            };
            cur.push(new_sig);
        }
        for (name, sig) in netlist.outputs() {
            out.output(format!("{name}@{cycle}"), sig.through(&cur));
        }
        for name in netlist.probe_names() {
            let sig = netlist.find_probe(name).expect("probe exists");
            out.probe(format!("{name}@{cycle}"), sig.through(&cur));
        }
        map.push(cur);
    }
    Unrolled { netlist: out, map }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::BitSim;

    /// A 3-stage shift register over one input bit.
    fn shift_register() -> (Netlist, Signal, Signal) {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q1 = n.latch(false);
        let q2 = n.latch(false);
        let q3 = n.latch(false);
        n.set_latch_next(q1, d);
        n.set_latch_next(q2, q1);
        n.set_latch_next(q3, q2);
        n.output("q", q3);
        (n, d, q3)
    }

    #[test]
    fn unroll_matches_sequential_sim() {
        let (n, d, q3) = shift_register();
        let u = unroll(&n, 5, InputMode::FreshPerCycle);
        assert_eq!(u.cycles(), 5);
        assert_eq!(u.netlist.num_latches(), 0);

        // Drive the sequential simulator with a pattern and compare each
        // cycle's output against the unrolled combinational evaluation.
        let pattern = [true, false, true, true, false];
        let mut sim = BitSim::new(&n);
        let mut seq_outputs = Vec::new();
        for &bit in &pattern {
            sim.set(d, bit);
            sim.eval();
            seq_outputs.push(sim.get(q3));
            sim.step();
        }

        let mut inputs: Vec<(String, bool)> = Vec::new();
        for (c, &bit) in pattern.iter().enumerate() {
            inputs.push((format!("d@{c}"), bit));
        }
        let refs: Vec<(&str, bool)> = inputs.iter().map(|(s, b)| (s.as_str(), *b)).collect();
        let outs = u.netlist.eval_comb(&refs);
        for (c, &expect) in seq_outputs.iter().enumerate() {
            assert_eq!(outs[&format!("q@{c}")], expect, "cycle {c}");
        }
        // At cycle 3 the output equals the cycle-0 input.
        assert_eq!(outs["q@3"], pattern[0]);
    }

    #[test]
    fn hold_first_shares_inputs() {
        let (n, _, _) = shift_register();
        let u = unroll(&n, 4, InputMode::HoldFirst);
        // Only the cycle-0 input exists.
        assert_eq!(u.netlist.inputs().len(), 1);
        let outs = u.netlist.eval_comb(&[("d@0", true)]);
        assert!(!outs["q@0"]);
        assert!(!outs["q@1"]);
        assert!(!outs["q@2"]);
        assert!(outs["q@3"]);
    }

    #[test]
    fn latch_init_values() {
        let mut n = Netlist::new();
        let q = n.latch(true);
        n.set_latch_next(q, Signal::FALSE);
        n.output("q", q);
        let u = unroll(&n, 2, InputMode::FreshPerCycle);
        let outs = u.netlist.eval_comb(&[]);
        assert!(outs["q@0"]);
        assert!(!outs["q@1"]);
    }
}
