//! Recognition of the XOR and MUX structures of an AIG.
//!
//! An AIG writes an XOR or a MUX as three AND nodes: `n = AND(!p, !q)` over
//! `p = AND(u1, u2)` and `q = AND(v1, v2)`. The engines that walk a cone
//! gate by gate (Tseitin encoding, BDD symbolic simulation) can treat such
//! an `n` as one gate over the grandchildren and skip `p` and `q`, provided
//! nothing else reads them. [`Gate::recognize`] is the one place that
//! matching lives; each engine supplies its own notion of "nothing else
//! reads them".

use crate::aig::{Netlist, Node, NodeId, Signal};

/// How an AND node is evaluated, with the fanins it ranges over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// `n = a ∧ b`, over the node's own fanins.
    And([Signal; 2]),
    /// `n = u1 ⊕ u2`.
    Xor([Signal; 2]),
    /// `n = ¬ITE(s, t, e)`, as `[s, t, e]`.
    Mux([Signal; 3]),
}

impl Gate {
    /// The signals the gate reads: the AND node's fanins, or the
    /// grandchildren for a structure.
    pub fn fanins(&self) -> &[Signal] {
        match self {
            Gate::And(f) | Gate::Xor(f) => f,
            Gate::Mux(f) => f,
        }
    }

    /// Decides how to evaluate the AND node with fanins `a` and `b`.
    ///
    /// The node is `AND(!p, !q)` for AND nodes `p = AND(u1, u2)` and
    /// `q = AND(v1, v2)`, both accepted by `absorbable`, in one of two
    /// shapes:
    ///
    /// * **XOR:** `{u1, u2} == {!v1, !v2}`. Then `n ≡ u1 ⊕ u2`.
    /// * **MUX:** otherwise, some `u` is the complement of some `v` (the
    ///   selector `s`, with `p = s ∧ t` and `q = !s ∧ e`). Then
    ///   `n ≡ ¬ITE(s, t, e)`.
    ///
    /// Anything else is a plain [`Gate::And`]. A structure absorbs `p` and
    /// `q`: the caller need not evaluate them for `n`, so `absorbable`
    /// should accept a node only when `n` is its sole reader.
    pub fn recognize(
        netlist: &Netlist,
        a: Signal,
        b: Signal,
        absorbable: impl Fn(NodeId) -> bool,
    ) -> Gate {
        let and = Gate::And([a, b]);
        if !a.is_inverted() || !b.is_inverted() {
            return and;
        }
        let fanins = |s: Signal| match netlist.node(s.node()) {
            Node::And(x, y) if absorbable(s.node()) => Some([*x, *y]),
            _ => None,
        };
        let (Some([u1, u2]), Some([v1, v2])) = (fanins(a), fanins(b)) else {
            return and;
        };
        if (u1 == !v1 && u2 == !v2) || (u1 == !v2 && u2 == !v1) {
            return Gate::Xor([u1, u2]);
        }
        for (s, t) in [(u1, u2), (u2, u1)] {
            for (not_s, e) in [(v1, v2), (v2, v1)] {
                if s == !not_s {
                    return Gate::Mux([s, t, e]);
                }
            }
        }
        and
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fanins of the AND node behind `sig`.
    fn fanins(n: &Netlist, sig: Signal) -> (Signal, Signal) {
        match n.node(sig.node()) {
            Node::And(a, b) => (*a, *b),
            other => panic!("{sig:?} is not an AND: {other:?}"),
        }
    }

    #[test]
    fn recognizes_xor_and_mux_and_respects_the_predicate() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let s = n.input("s");
        let x = n.xor(a, b);
        let m = n.mux(s, a, b);
        let plain = n.and(a, b);
        let (xa, xb) = fanins(&n, x);
        let (ma, mb) = fanins(&n, m);
        let (pa, pb) = fanins(&n, plain);
        let any = |_: NodeId| true;
        // `xor(a, b)` is the complement of `!(!a ∧ b) ∧ !(a ∧ !b)`, the XNOR:
        // the gate reads `a` and `b` with one complement between them.
        match Gate::recognize(&n, xa, xb, any) {
            Gate::Xor([u1, u2]) => {
                assert_eq!((u1.node(), u2.node()), (a.node(), b.node()));
                assert_ne!(u1.is_inverted(), u2.is_inverted());
            }
            other => panic!("expected an XOR, got {other:?}"),
        }
        // `mux(s, a, b)` is the complement of the node `¬ITE(s, a, b)`.
        assert_eq!(Gate::recognize(&n, ma, mb, any), Gate::Mux([s, a, b]));
        assert_eq!(Gate::recognize(&n, pa, pb, any), Gate::And([pa, pb]));
        assert_eq!(
            Gate::recognize(&n, xa, xb, |id| id != xa.node()),
            Gate::And([xa, xb])
        );
    }
}
