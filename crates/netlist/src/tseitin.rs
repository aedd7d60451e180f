//! Tseitin encoding of netlist cones into a CDCL solver.
//!
//! The SAT engine "operates upon an unfolded combinational netlist"; this
//! module performs that translation, encoding only the cone of influence of
//! the requested signals (which is how the solver "automatically removes
//! unused shifters from the cone-of-influence" in the far-out cases).

use std::collections::HashMap;

use fmaverify_sat::{Cnf, Lit, Solver, Var};

use crate::aig::{Netlist, Node, Signal};

/// Incrementally encodes signals of one netlist into one [`Solver`].
///
/// Latches are treated as free variables (cut points); unroll the netlist
/// first (see [`crate::unroll`]) for sequential checks.
#[derive(Debug)]
pub struct SatEncoder {
    /// The literal of each encoded node, indexed by node id.
    map: Vec<Option<Lit>>,
    const_false: Option<Lit>,
}

impl Default for SatEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl SatEncoder {
    /// Creates an empty encoder.
    pub fn new() -> SatEncoder {
        SatEncoder {
            map: Vec::new(),
            const_false: None,
        }
    }

    /// Returns the SAT literal for `sig`, encoding its cone into `solver` on
    /// first use.
    pub fn lit(&mut self, netlist: &Netlist, solver: &mut Solver, sig: Signal) -> Lit {
        let body = self.node_lit(netlist, solver, sig.node().index() as u32);
        if sig.is_inverted() {
            !body
        } else {
            body
        }
    }

    fn node_lit(&mut self, netlist: &Netlist, solver: &mut Solver, node: u32) -> Lit {
        if self.map.len() < netlist.num_nodes() {
            self.map.resize(netlist.num_nodes(), None);
        }
        if let Some(l) = self.map[node as usize] {
            return l;
        }
        // Iterative DFS to avoid stack overflow on deep cones.
        let mut stack = vec![node];
        while let Some(&id) = stack.last() {
            if self.map[id as usize].is_some() {
                stack.pop();
                continue;
            }
            match netlist.node(crate::aig::NodeId::from_raw(id)) {
                Node::Const => {
                    let l = *self.const_false.get_or_insert_with(|| {
                        let v = solver.new_var().positive();
                        solver.add_clause(&[!v]);
                        v
                    });
                    self.map[id as usize] = Some(l);
                    stack.pop();
                }
                Node::Input { .. } | Node::Latch { .. } => {
                    let l = solver.new_var().positive();
                    self.map[id as usize] = Some(l);
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (a, b) = (*a, *b);
                    let need_a = self.map[a.node().index()].is_none();
                    let need_b = self.map[b.node().index()].is_none();
                    if need_a {
                        stack.push(a.node().index() as u32);
                    }
                    if need_b {
                        stack.push(b.node().index() as u32);
                    }
                    if !need_a && !need_b {
                        let la = self.edge_lit(a);
                        let lb = self.edge_lit(b);
                        let z = solver.new_var().positive();
                        solver.add_clause(&[!z, la]);
                        solver.add_clause(&[!z, lb]);
                        solver.add_clause(&[z, !la, !lb]);
                        self.map[id as usize] = Some(z);
                        stack.pop();
                    }
                }
            }
        }
        self.map[node as usize].expect("encoded")
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
    /// been encoded.
    pub fn existing_lit(&self, sig: Signal) -> Option<Lit> {
        self.map
            .get(sig.node().index())
            .copied()
            .flatten()
            .map(|l| if sig.is_inverted() { !l } else { l })
    }
}

/// Encodes the combinational cones of `roots` into a standalone [`Cnf`]
/// (for export to external solvers), returning one literal per root.
/// Latches are treated as free variables, and primary inputs occupy the
/// first variable indices in netlist order so models can be decoded.
pub fn encode_to_cnf(netlist: &Netlist, roots: &[Signal]) -> (Cnf, Vec<Lit>) {
    let mut cnf = Cnf::new();
    let mut map: HashMap<usize, Lit> = HashMap::new();
    let mut fresh = 0usize;
    // Inputs first, in order.
    for &id in netlist.inputs() {
        map.insert(id.index(), Var::from_index(fresh).positive());
        fresh += 1;
    }
    let cone = netlist.comb_cone(roots);
    let var_of = |map: &mut HashMap<usize, Lit>, fresh: &mut usize, node: usize| -> Lit {
        *map.entry(node).or_insert_with(|| {
            let v = Var::from_index(*fresh).positive();
            *fresh += 1;
            v
        })
    };
    for id in netlist.node_ids() {
        if !cone[id.index()] {
            continue;
        }
        match netlist.node(id) {
            Node::Const => {
                let z = var_of(&mut map, &mut fresh, id.index());
                cnf.add_clause(&[!z]);
            }
            Node::Input { .. } | Node::Latch { .. } => {
                let _ = var_of(&mut map, &mut fresh, id.index());
            }
            Node::And(a, b) => {
                let la = {
                    let l = var_of(&mut map, &mut fresh, a.node().index());
                    if a.is_inverted() {
                        !l
                    } else {
                        l
                    }
                };
                let lb = {
                    let l = var_of(&mut map, &mut fresh, b.node().index());
                    if b.is_inverted() {
                        !l
                    } else {
                        l
                    }
                };
                let z = var_of(&mut map, &mut fresh, id.index());
                cnf.add_clause(&[!z, la]);
                cnf.add_clause(&[!z, lb]);
                cnf.add_clause(&[z, !la, !lb]);
            }
        }
    }
    let root_lits = roots
        .iter()
        .map(|&r| {
            let l = var_of(&mut map, &mut fresh, r.node().index());
            if r.is_inverted() {
                !l
            } else {
                l
            }
        })
        .collect();
    cnf.num_vars = cnf.num_vars.max(fresh);
    (cnf, root_lits)
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

    #[test]
    fn cnf_export_matches_solver() {
        use fmaverify_sat::SolveResult;
        let mut n = Netlist::new();
        let a = n.word_input("a", 5);
        let b = n.word_input("b", 5);
        let s1 = n.add(&a, &b);
        let nb = n.neg(&b);
        let s2 = n.sub(&a, &nb);
        let d = n.xor_word(&s1, &s2);
        let miter = n.or_reduce(&d);
        let (cnf, roots) = encode_to_cnf(&n, &[miter]);
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
