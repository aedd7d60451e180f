//! Netlist simulation: single-pattern sequential simulation ([`BitSim`]) for
//! driving designs cycle by cycle and replaying counterexamples, and 64-way
//! bit-parallel combinational simulation ([`ParallelSim`]) for the SAT
//! sweep's candidate classes.

use crate::aig::{Netlist, Node, Signal};
use crate::word::Word;

/// Single-pattern simulator with sequential (latch) state.
///
/// # Examples
///
/// ```
/// use fmaverify_netlist::{BitSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let q = n.latch(false);
/// n.set_latch_next(q, a);
/// let mut sim = BitSim::new(&n);
/// sim.set(a, true);
/// sim.step();
/// assert!(sim.get(q)); // the latch captured `a`
/// ```
#[derive(Debug)]
pub struct BitSim<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
}

impl<'a> BitSim<'a> {
    /// Creates a simulator with latches at their reset values and all inputs
    /// at 0.
    pub fn new(netlist: &'a Netlist) -> BitSim<'a> {
        let mut values = vec![false; netlist.num_nodes()];
        for id in netlist.node_ids() {
            if let Node::Latch { init, .. } = netlist.node(id) {
                values[id.index()] = *init;
            }
        }
        let mut sim = BitSim { netlist, values };
        sim.eval();
        sim
    }

    /// Sets a primary input.
    ///
    /// # Panics
    /// Panics if `sig` is not a non-inverted primary-input signal.
    pub fn set(&mut self, sig: Signal, v: bool) {
        assert!(!sig.is_inverted(), "input handle must be non-inverted");
        assert!(
            matches!(self.netlist.node(sig.node()), Node::Input { .. }),
            "signal is not a primary input"
        );
        self.values[sig.node().index()] = v;
    }

    /// Sets a word of inputs from an integer (LSB first).
    pub fn set_word(&mut self, w: &Word, value: u128) {
        for (i, &b) in w.bits().iter().enumerate() {
            self.set(b, value >> i & 1 == 1);
        }
    }

    /// Re-evaluates all combinational logic for the current inputs and latch
    /// state.
    pub fn eval(&mut self) {
        for id in self.netlist.node_ids() {
            if let Node::And(a, b) = self.netlist.node(id) {
                let va = self.values[a.node().index()] ^ a.is_inverted();
                let vb = self.values[b.node().index()] ^ b.is_inverted();
                self.values[id.index()] = va && vb;
            }
        }
    }

    /// Evaluates combinational logic, then clocks every latch.
    pub fn step(&mut self) {
        self.eval();
        let mut next_vals = Vec::with_capacity(self.netlist.num_latches());
        for &l in self.netlist.latches() {
            if let Node::Latch { next, .. } = self.netlist.node(l) {
                next_vals.push(self.values[next.node().index()] ^ next.is_inverted());
            }
        }
        for (&l, v) in self.netlist.latches().iter().zip(next_vals) {
            self.values[l.index()] = v;
        }
        self.eval();
    }

    /// Current value of a signal (valid after [`BitSim::eval`] or
    /// [`BitSim::step`]).
    pub fn get(&self, sig: Signal) -> bool {
        self.values[sig.node().index()] ^ sig.is_inverted()
    }

    /// Current value of a word as an integer.
    ///
    /// # Panics
    /// Panics if the word is wider than 128 bits.
    pub fn get_word(&self, w: &Word) -> u128 {
        assert!(w.width() <= 128, "word too wide for u128");
        w.bits()
            .iter()
            .enumerate()
            .map(|(i, &b)| u128::from(self.get(b)) << i)
            .sum()
    }

    /// Resets latches to their initial values and clears inputs.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = false;
        }
        for id in self.netlist.node_ids() {
            if let Node::Latch { init, .. } = self.netlist.node(id) {
                self.values[id.index()] = *init;
            }
        }
        self.eval();
    }
}

/// 64-way bit-parallel combinational simulator. Latches are treated as free
/// cut points (extra pattern inputs), which is how the sweep views a
/// sequential netlist: [`crate::sat_sweep`] runs its random seed rounds and
/// its counterexample refinements on this simulator.
#[derive(Debug)]
pub struct ParallelSim<'a> {
    netlist: &'a Netlist,
    values: Vec<u64>,
}

impl<'a> ParallelSim<'a> {
    /// Creates a parallel simulator.
    pub fn new(netlist: &'a Netlist) -> ParallelSim<'a> {
        ParallelSim {
            netlist,
            values: vec![0; netlist.num_nodes()],
        }
    }

    /// Evaluates all nodes for 64 patterns at once. `input_patterns` supplies
    /// one word per primary input (creation order), `latch_patterns` one per
    /// latch (creation order).
    ///
    /// # Panics
    /// Panics if pattern counts do not match the netlist.
    pub fn eval(&mut self, input_patterns: &[u64], latch_patterns: &[u64]) {
        assert_eq!(input_patterns.len(), self.netlist.inputs().len());
        assert_eq!(latch_patterns.len(), self.netlist.latches().len());
        for (&id, &p) in self.netlist.inputs().iter().zip(input_patterns) {
            self.values[id.index()] = p;
        }
        for (&id, &p) in self.netlist.latches().iter().zip(latch_patterns) {
            self.values[id.index()] = p;
        }
        for id in self.netlist.node_ids() {
            if let Node::And(a, b) = self.netlist.node(id) {
                let va = self.values[a.node().index()] ^ mask(a.is_inverted());
                let vb = self.values[b.node().index()] ^ mask(b.is_inverted());
                self.values[id.index()] = va & vb;
            }
        }
    }

    /// The 64-pattern value vector of a signal after [`ParallelSim::eval`].
    pub fn get(&self, sig: Signal) -> u64 {
        self.values[sig.node().index()] ^ mask(sig.is_inverted())
    }
}

#[inline]
fn mask(b: bool) -> u64 {
    if b {
        u64::MAX
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_steps() {
        // 2-bit counter built from latches.
        let mut n = Netlist::new();
        let q0 = n.latch(false);
        let q1 = n.latch(false);
        let n0 = !q0;
        let t = n.xor(q1, q0);
        n.set_latch_next(q0, n0);
        n.set_latch_next(q1, t);
        let mut sim = BitSim::new(&n);
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.push((sim.get(q1), sim.get(q0)));
            sim.step();
        }
        assert_eq!(
            seen,
            vec![
                (false, false),
                (false, true),
                (true, false),
                (true, true),
                (false, false)
            ]
        );
        sim.reset();
        assert_eq!((sim.get(q1), sim.get(q0)), (false, false));
    }

    #[test]
    fn word_roundtrip() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 12);
        let b = n.word_input("b", 12);
        let s = n.add(&a, &b);
        let mut sim = BitSim::new(&n);
        sim.set_word(&a, 0x5a3);
        sim.set_word(&b, 0x0ff);
        sim.eval();
        assert_eq!(sim.get_word(&s), (0x5a3 + 0xff) & 0xfff);
    }

    #[test]
    fn parallel_matches_scalar() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let g = {
            let x = n.xor(a, b);
            n.or(x, c)
        };
        let mut psim = ParallelSim::new(&n);
        // Exhaustive 8 patterns in one 64-bit word.
        let pa = 0b10101010u64;
        let pb = 0b11001100u64;
        let pc = 0b11110000u64;
        psim.eval(&[pa, pb, pc], &[]);
        let got = psim.get(g) & 0xff;
        let mut expect = 0u64;
        for i in 0..8 {
            let va = pa >> i & 1 == 1;
            let vb = pb >> i & 1 == 1;
            let vc = pc >> i & 1 == 1;
            if (va != vb) || vc {
                expect |= 1 << i;
            }
        }
        assert_eq!(got, expect);
        // Inverted edges read correctly.
        assert_eq!(psim.get(!g) & 0xff, !expect & 0xff);
    }
}
