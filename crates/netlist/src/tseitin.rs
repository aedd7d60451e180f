//! Tseitin encoding of netlist cones into CNF.
//!
//! The SAT engine "operates upon an unfolded combinational netlist"; this
//! module performs that translation, encoding only the cone of influence of
//! the requested signals (which is how the solver "automatically removes
//! unused shifters from the cone-of-influence" in the far-out cases).
//!
//! The encoding is gate-aware: an XOR or MUX structure of the AIG gets one
//! variable and 4 clauses instead of 3 variables and 9 (see [`SatEncoder`]
//! for which nodes get variables). One encoder serves both the CDCL
//! [`Solver`] and DIMACS export ([`encode_to_cnf`]), so an exported CNF is
//! the one the engine solves.

use std::collections::HashMap;

use fmaverify_sat::{Cnf, LBool, Lit, Solver, Var};

use crate::aig::{Netlist, Node, NodeId, Signal};
use crate::gate::Gate;

/// Where the encoder puts its variables and clauses.
pub(crate) trait ClauseSink {
    /// Creates a fresh variable.
    fn new_var(&mut self) -> Var;
    /// Adds a clause over existing variables.
    fn add_clause(&mut self, lits: &[Lit]);
}

impl ClauseSink for Solver {
    fn new_var(&mut self) -> Var {
        Solver::new_var(self)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Solver::add_clause(self, lits);
    }
}

impl ClauseSink for Cnf {
    fn new_var(&mut self) -> Var {
        self.num_vars += 1;
        Var::from_index(self.num_vars - 1)
    }

    fn add_clause(&mut self, lits: &[Lit]) {
        Cnf::add_clause(self, lits);
    }
}

/// Incrementally encodes signals of one netlist into one [`Solver`].
///
/// Each primary input, latch and AND node that is encoded gets one
/// variable, which equals the node's function under every model. A plain
/// AND gets 3 clauses. An AND node `n = AND(!p, !q)` that heads an XOR or
/// MUX structure ([`Gate::recognize`]) gets 4 clauses over the
/// grandchildren instead: `n ≡ u1 ⊕ u2`, or `n ≡ ¬ITE(s, t, e)`.
///
/// A structure is used only when `p` and `q` each have fanout 1 (exactly
/// one AND gate or latch reads them) and neither is encoded yet. Fanout is
/// counted once over the whole netlist on first use, and again whenever the
/// netlist has grown, so the encoding is a deterministic function of the
/// netlist and the order of requests. `p` and `q` are then absorbed: they
/// get no variable, and [`SatEncoder::existing_lit`] returns `None` for
/// them, until a later [`SatEncoder::lit`] call reaches them and encodes
/// them as plain ANDs.
///
/// Latches are treated as free variables (cut points); unroll the netlist
/// first (see [`crate::unroll`]) for sequential checks.
#[derive(Debug, Default)]
pub struct SatEncoder {
    /// The literal of each encoded node, indexed by node id.
    map: Vec<Option<Lit>>,
    const_false: Option<Lit>,
    /// How many AND gates and latches read each node, saturating at 2.
    fanout: Vec<u8>,
}

impl SatEncoder {
    /// Creates an empty encoder.
    pub fn new() -> SatEncoder {
        SatEncoder::default()
    }

    /// Returns the SAT literal for `sig`, encoding its cone into `solver` on
    /// first use.
    pub fn lit(&mut self, netlist: &Netlist, solver: &mut Solver, sig: Signal) -> Lit {
        self.encode(netlist, solver, sig)
    }

    /// [`SatEncoder::lit`] into any clause sink.
    pub(crate) fn encode<S: ClauseSink>(
        &mut self,
        netlist: &Netlist,
        sink: &mut S,
        sig: Signal,
    ) -> Lit {
        if self.fanout.len() != netlist.num_nodes() {
            self.count_fanout(netlist);
        }
        if self.map[sig.node().index()].is_none() {
            self.encode_cone(netlist, sink, sig.node().index());
        }
        self.edge_lit(sig)
    }

    /// Encodes `node` and whatever of its cone it needs.
    fn encode_cone<S: ClauseSink>(&mut self, netlist: &Netlist, sink: &mut S, node: usize) {
        // Iterative DFS to avoid stack overflow on deep cones.
        let mut stack = vec![node];
        while let Some(&id) = stack.last() {
            if self.map[id].is_some() {
                stack.pop();
                continue;
            }
            let lit = match netlist.node(NodeId::from_raw(id as u32)) {
                Node::Const => *self.const_false.get_or_insert_with(|| {
                    let v = sink.new_var().positive();
                    sink.add_clause(&[!v]);
                    v
                }),
                Node::Input { .. } | Node::Latch { .. } => sink.new_var().positive(),
                Node::And(a, b) => {
                    // A fanin is absorbable when it has fanout 1 and is
                    // not yet encoded.
                    let gate = Gate::recognize(netlist, *a, *b, |f| {
                        self.fanout[f.index()] == 1 && self.map[f.index()].is_none()
                    });
                    let pending = stack.len();
                    for f in gate.fanins() {
                        if self.map[f.node().index()].is_none() {
                            stack.push(f.node().index());
                        }
                    }
                    if stack.len() > pending {
                        continue;
                    }
                    self.emit(sink, gate)
                }
            };
            self.map[id] = Some(lit);
            stack.pop();
        }
    }

    /// Recounts fanout over the whole netlist and sizes the node map.
    fn count_fanout(&mut self, netlist: &Netlist) {
        self.map.resize(netlist.num_nodes(), None);
        self.fanout = vec![0; netlist.num_nodes()];
        let mut read = |s: Signal| {
            let f = &mut self.fanout[s.node().index()];
            *f = (*f + 1).min(2);
        };
        for id in netlist.node_ids() {
            match netlist.node(id) {
                Node::And(a, b) => {
                    read(*a);
                    read(*b);
                }
                Node::Latch {
                    next,
                    connected: true,
                    ..
                } => read(*next),
                _ => {}
            }
        }
    }

    /// Adds the clauses of `gate` over a fresh variable and returns it.
    fn emit<S: ClauseSink>(&self, sink: &mut S, gate: Gate) -> Lit {
        let z = sink.new_var().positive();
        match gate {
            Gate::And(f) => {
                let [a, b] = f.map(|x| self.edge_lit(x));
                sink.add_clause(&[!z, a]);
                sink.add_clause(&[!z, b]);
                sink.add_clause(&[z, !a, !b]);
            }
            Gate::Xor(f) => {
                let [a, b] = f.map(|x| self.edge_lit(x));
                sink.add_clause(&[!z, a, b]);
                sink.add_clause(&[!z, !a, !b]);
                sink.add_clause(&[z, !a, b]);
                sink.add_clause(&[z, a, !b]);
            }
            Gate::Mux(f) => {
                // z = ¬(s ? t : e).
                let [s, t, e] = f.map(|x| self.edge_lit(x));
                sink.add_clause(&[!s, !t, !z]);
                sink.add_clause(&[!s, t, z]);
                sink.add_clause(&[s, !e, !z]);
                sink.add_clause(&[s, e, z]);
            }
        }
        z
    }

    #[inline]
    fn edge_lit(&self, sig: Signal) -> Lit {
        let l = self.map[sig.node().index()].expect("encoded");
        if sig.is_inverted() {
            !l
        } else {
            l
        }
    }

    /// Returns the SAT literal previously assigned to `sig`, if its node has
    /// been encoded. Absorbed nodes have none until a later request reaches
    /// them.
    pub fn existing_lit(&self, sig: Signal) -> Option<Lit> {
        self.map
            .get(sig.node().index())
            .copied()
            .flatten()
            .map(|l| if sig.is_inverted() { !l } else { l })
    }

    /// The value of `sig` in `solver`'s last model, if its node is encoded
    /// and assigned.
    pub(crate) fn model_value(&self, solver: &Solver, sig: Signal) -> Option<bool> {
        match solver.model_lit_value(self.existing_lit(sig)?) {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// The primary-input assignment of `solver`'s last model, by input
    /// name. An input without a value in the model (not encoded, absorbed
    /// into a gate, or unassigned) reads as 0.
    pub fn input_model(&self, netlist: &Netlist, solver: &Solver) -> HashMap<String, bool> {
        netlist
            .inputs()
            .iter()
            .map(|&id| {
                let Node::Input { name } = netlist.node(id) else {
                    unreachable!("inputs() holds input nodes")
                };
                let value = self.model_value(solver, netlist.signal(id));
                (name.clone(), value.unwrap_or(false))
            })
            .collect()
    }
}

/// Encodes the combinational cones of `roots` into a standalone [`Cnf`]
/// (for export to external solvers), returning one literal per root.
///
/// This is the [`SatEncoder`] encoding: the clauses are those a solver gets
/// from [`SatEncoder::lit`] on the same roots in the same order. Latches are
/// treated as free variables, and primary inputs occupy the first variable
/// indices in netlist order so models can be decoded.
pub fn encode_to_cnf(netlist: &Netlist, roots: &[Signal]) -> (Cnf, Vec<Lit>) {
    let mut cnf = Cnf::new();
    let mut enc = SatEncoder::new();
    for &id in netlist.inputs() {
        enc.encode(netlist, &mut cnf, netlist.signal(id));
    }
    let lits = roots
        .iter()
        .map(|&r| enc.encode(netlist, &mut cnf, r))
        .collect();
    (cnf, lits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_sat::SolveResult;

    #[test]
    fn encode_and_solve() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let lx = enc.lit(&n, &mut solver, x);
        let la = enc.lit(&n, &mut solver, a);
        let lb = enc.lit(&n, &mut solver, b);
        // x AND a AND b is unsatisfiable (xor of equal bits).
        assert_eq!(
            solver.solve_with_assumptions(&[lx, la, lb]),
            SolveResult::Unsat
        );
        // x AND a AND !b is satisfiable.
        assert_eq!(
            solver.solve_with_assumptions(&[lx, la, !lb]),
            SolveResult::Sat
        );
    }

    #[test]
    fn const_signal() {
        let n = {
            let mut n = Netlist::new();
            n.input("a");
            n
        };
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let lf = enc.lit(&n, &mut solver, Signal::FALSE);
        let lt = enc.lit(&n, &mut solver, Signal::TRUE);
        assert_eq!(solver.solve_with_assumptions(&[lf]), SolveResult::Unsat);
        assert_eq!(solver.solve_with_assumptions(&[lt]), SolveResult::Sat);
    }

    #[test]
    fn adder_equivalence_via_sat() {
        // a + b == b + a proven by SAT on the miter.
        let mut n = Netlist::new();
        let a = n.word_input("a", 8);
        let b = n.word_input("b", 8);
        let s1 = n.add(&a, &b);
        let s2 = n.add(&b, &a);
        let eq = n.eq_word(&s1, &s2);
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let l = enc.lit(&n, &mut solver, !eq);
        assert_eq!(solver.solve_with_assumptions(&[l]), SolveResult::Unsat);
    }

    /// A `width`-bit adder miter: a ripple-carry `a + b` against `a - (0 - b)`.
    fn adder_miter(width: usize) -> (Netlist, Signal) {
        let mut n = Netlist::new();
        let a = n.word_input("a", width);
        let b = n.word_input("b", width);
        let s1 = n.add(&a, &b);
        let nb = n.neg(&b);
        let s2 = n.sub(&a, &nb);
        let d = n.xor_word(&s1, &s2);
        let miter = n.or_reduce(&d);
        (n, miter)
    }

    #[test]
    fn cnf_export_matches_solver() {
        use fmaverify_sat::{parse_dimacs, write_dimacs};
        let (n, miter) = adder_miter(5);
        // The engine's sequence: one encoder into one solver.
        let mut engine = Solver::new();
        let mut enc = SatEncoder::new();
        let l = enc.lit(&n, &mut engine, miter);
        assert_eq!(engine.solve_with_assumptions(&[l]), SolveResult::Unsat);

        let (cnf, roots) = encode_to_cnf(&n, &[miter]);
        assert_eq!(cnf.clauses.len() as u64, engine.stats().original_clauses);
        assert_eq!(cnf.num_vars, engine.num_vars());
        let mut solver = cnf.to_solver();
        // miter asserted: UNSAT (the adders are equivalent).
        assert_eq!(
            solver.solve_with_assumptions(&[roots[0]]),
            SolveResult::Unsat
        );
        // negated: SAT.
        assert_eq!(
            solver.solve_with_assumptions(&[!roots[0]]),
            SolveResult::Sat
        );

        // A DIMACS round trip keeps the formula and the verdict.
        let mut asserted = cnf.clone();
        asserted.add_clause(&[roots[0]]);
        let mut text = Vec::new();
        write_dimacs(&mut text, &asserted).expect("write");
        let back = parse_dimacs(&mut text.as_slice()).expect("parse");
        assert_eq!(back, asserted);
        assert_eq!(back.to_solver().solve(), SolveResult::Unsat);
    }

    #[test]
    fn cnf_export_numbers_inputs_first() {
        let (n, _) = adder_miter(5);
        let a0 = n.find_input("a[0]").expect("a[0]");
        let b4 = n.find_input("b[4]").expect("b[4]");
        let (cnf, roots) = encode_to_cnf(&n, &[b4, !a0]);
        assert_eq!(
            roots,
            vec![
                Var::from_index(9).positive(),
                !Var::from_index(0).positive()
            ]
        );
        assert_eq!(cnf.num_vars, 10);
        assert!(cnf.clauses.is_empty());
    }

    /// Encodes `outs` in order into a fresh solver and checks each literal
    /// against simulation on every assignment of `inputs`. Returns the
    /// solver's variable and clause counts after encoding `outs`.
    fn check_exhaustive(n: &Netlist, outs: &[Signal], inputs: &[Signal]) -> (usize, u64) {
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let out_lits: Vec<Lit> = outs.iter().map(|&o| enc.lit(n, &mut solver, o)).collect();
        let size = (solver.num_vars(), solver.stats().original_clauses);
        let in_lits: Vec<Lit> = inputs.iter().map(|&i| enc.lit(n, &mut solver, i)).collect();
        let mut sim = crate::BitSim::new(n);
        for bits in 0..1u32 << inputs.len() {
            let mut assume: Vec<Lit> = Vec::new();
            for (k, (&i, &l)) in inputs.iter().zip(&in_lits).enumerate() {
                let v = bits >> k & 1 == 1;
                sim.set(i, v);
                assume.push(if v { l } else { !l });
            }
            sim.eval();
            for (&o, &lo) in outs.iter().zip(&out_lits) {
                let expect = sim.get(o);
                assume.push(if expect { !lo } else { lo });
                assert_eq!(
                    solver.solve_with_assumptions(&assume),
                    SolveResult::Unsat,
                    "{o:?} must be {expect} on input bits {bits:b}"
                );
                assume.pop();
            }
        }
        size
    }

    /// The two fanin edges of the AND node behind `sig`.
    fn and_fanins(n: &Netlist, sig: Signal) -> [Signal; 2] {
        match n.node(sig.node()) {
            Node::And(a, b) => [*a, *b],
            other => panic!("{sig:?} is not an AND: {other:?}"),
        }
    }

    #[test]
    fn xor_and_xnor_take_one_variable_and_four_clauses() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let xn = n.xnor(a, b);
        // XNOR written as an OR of the two agreeing minterms.
        let both = n.and(a, b);
        let neither = n.and(!a, !b);
        let eq = n.or(both, neither);
        for out in [x, xn, eq] {
            assert_eq!(check_exhaustive(&n, &[out], &[a, b]), (3, 4), "{out:?}");
        }
    }

    #[test]
    fn mux_takes_one_variable_and_four_clauses_for_every_selector_placement() {
        let mut placements = std::collections::HashSet::new();
        let names = ["s", "t", "e"];
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut n = Netlist::new();
            let mut sigs = [Signal::FALSE; 3];
            for k in order {
                sigs[k] = n.input(names[k]);
            }
            let [s, t, e] = sigs;
            let m = n.mux(s, t, e);
            // `p` reads the selector, `q` its complement; record where.
            let ands = and_fanins(&n, m);
            let (p, q) = if and_fanins(&n, ands[0]).contains(&s) {
                (ands[0], ands[1])
            } else {
                (ands[1], ands[0])
            };
            let sel_first = |g: Signal| and_fanins(&n, g)[0].node() == s.node();
            placements.insert((sel_first(p), sel_first(q)));
            assert_eq!(
                check_exhaustive(&n, &[m], &[s, t, e]),
                (4, 4),
                "order {order:?}"
            );
        }
        assert_eq!(placements.len(), 4, "selector first/second in either AND");
    }

    #[test]
    fn xor_with_a_shared_fanin_falls_back_to_ands() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        let [p, _] = and_fanins(&n, x);
        let _second_reader = n.and(!p, c);
        // Three ANDs of 3 clauses each, one variable per node.
        assert_eq!(check_exhaustive(&n, &[x], &[a, b]), (5, 9));
    }

    #[test]
    fn xor_with_an_encoded_fanin_falls_back_to_ands() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let [p, _] = and_fanins(&n, x);
        assert_eq!(check_exhaustive(&n, &[!p, x], &[a, b]), (5, 9));
    }

    #[test]
    fn absorbed_nodes_have_no_literal_until_requested() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let [p, q] = and_fanins(&n, x);
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let lx = enc.lit(&n, &mut solver, x);
        assert_eq!(enc.existing_lit(p), None);
        assert_eq!(enc.existing_lit(q), None);
        assert_eq!(enc.existing_lit(x), Some(lx));
        let lp = enc.lit(&n, &mut solver, p);
        assert_eq!(enc.existing_lit(p), Some(lp));
        // Asking for an absorbed node later encodes it as a plain AND, and
        // its literal agrees with simulation.
        assert_eq!(check_exhaustive(&n, &[x, p], &[a, b]), (4, 7));
    }

    #[test]
    fn adder_miter_encodes_below_three_clauses_per_and() {
        let (n, miter) = adder_miter(8);
        let ands = n.cone_size(&[miter]);
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        enc.lit(&n, &mut solver, miter);
        let (vars, clauses) = (solver.num_vars(), solver.stats().original_clauses);
        // One variable per AND and per input, 3 clauses per AND, without
        // the gate recognition.
        assert!(vars < ands + 16, "{vars} vars for {ands} ANDs");
        assert!(
            clauses < 3 * ands as u64,
            "{clauses} clauses for {ands} ANDs"
        );
        assert_eq!((ands, vars, clauses), (185, 115, 340));
    }

    #[test]
    fn deep_chain_no_overflow() {
        // A long AND chain exercises the iterative DFS.
        let mut n = Netlist::new();
        let mut cur = n.input("x0");
        for i in 1..20_000 {
            let next = n.input(format!("x{i}"));
            cur = n.and(cur, next);
        }
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let l = enc.lit(&n, &mut solver, cur);
        assert_eq!(solver.solve_with_assumptions(&[l]), SolveResult::Sat);
    }
}
