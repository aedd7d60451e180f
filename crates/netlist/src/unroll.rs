//! Bounded unrolling of sequential netlists.
//!
//! The paper casts FPU verification "as a bounded check" because a floating
//! point computation completes in a bounded number of steps, and its driver
//! issues one instruction into an empty FPU and holds the operands. This
//! module produces that combinational unfolding, and also serves as a
//! simple stand-in for the phase-abstraction step [16]: a pipelined
//! implementation FPU unrolled to its latency becomes a purely
//! combinational function of the held operands. The unfolding keeps the
//! register netlist's names, so it reads like a combinational netlist.

use crate::aig::{Netlist, Node, Signal};

/// Unrolls `netlist` for `cycles` cycles (cycle indices `0..cycles`) with
/// its inputs held.
///
/// Inputs are created once, under their own names and in node order, and
/// drive every cycle. Latches take their reset value at cycle 0 and their
/// next-state function evaluated at cycle `c-1` for cycle `c`. Each output
/// and probe is declared once, under its own name, bound to its signal at
/// the last cycle.
///
/// # Panics
/// Panics if `cycles == 0` or a latch is unconnected.
pub fn unroll(netlist: &Netlist, cycles: usize) -> Netlist {
    assert!(cycles > 0, "need at least one cycle");
    netlist.assert_closed();
    let mut out = Netlist::new();
    let mut prev: Vec<Signal> = Vec::new();
    for cycle in 0..cycles {
        let mut cur: Vec<Signal> = Vec::with_capacity(netlist.num_nodes());
        for id in netlist.node_ids() {
            let new_sig = match netlist.node(id) {
                Node::Const => Signal::FALSE,
                Node::Input { name } if cycle == 0 => out.input(name.clone()),
                Node::Input { .. } => prev[id.index()],
                Node::Latch { init, .. } if cycle == 0 => Signal::FALSE.invert_if(*init),
                Node::Latch { next, .. } => next.through(&prev),
                Node::And(a, b) => {
                    let (a, b) = (a.through(&cur), b.through(&cur));
                    out.and(a, b)
                }
            };
            cur.push(new_sig);
        }
        prev = cur;
    }
    for (name, sig) in netlist.outputs() {
        out.output(name.clone(), sig.through(&prev));
    }
    for name in netlist.probe_names() {
        let sig = netlist.find_probe(name).expect("probe exists");
        out.probe(name, sig.through(&prev));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-stage shift register over one input bit.
    fn shift_register() -> Netlist {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q1 = n.latch(false);
        let q2 = n.latch(false);
        let q3 = n.latch(false);
        n.set_latch_next(q1, d);
        n.set_latch_next(q2, q1);
        n.set_latch_next(q3, q2);
        n.output("q", q3);
        n.probe("q1", q1);
        n
    }

    #[test]
    fn unroll_matches_sequential_sim() {
        let n = shift_register();
        for cycles in 1..=5 {
            let u = unroll(&n, cycles);
            assert_eq!(u.num_latches(), 0, "the unrolled model is combinational");
            assert_eq!(u.outputs().len(), 1, "one output, under its own name");
            for d in [false, true] {
                let outs = u.eval_comb(&[("d", d)]);
                // The held input reaches q after three clocks, i.e. at
                // cycle 3, the fourth cycle.
                assert_eq!(outs["q"], d && cycles >= 4, "{cycles} cycles, d = {d}");
            }
        }
    }

    #[test]
    fn hold_first_shares_inputs() {
        let n = shift_register();
        let u = unroll(&n, 4);
        // Only the one input exists, under its original name.
        assert_eq!(u.inputs().len(), 1);
        let d = u.find_input("d").expect("held input");
        // The probe is declared once and bound to its last-cycle signal:
        // q1 holds the input from cycle 1 on.
        assert_eq!(u.probe_names(), ["q1"]);
        assert_eq!(u.find_probe("q1"), Some(d));
    }

    #[test]
    fn latch_init_values() {
        let mut n = Netlist::new();
        let q = n.latch(true);
        n.set_latch_next(q, Signal::FALSE);
        n.output("q", q);
        assert!(unroll(&n, 1).eval_comb(&[])["q"]);
        assert!(!unroll(&n, 2).eval_comb(&[])["q"]);
    }
}
