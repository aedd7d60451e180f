//! The netlist representation: an and-inverter graph (AIG) with registers.
//!
//! The paper maps all designs "into a netlist representation containing only
//! 2-input AND gates, inverters, and registers, using straight-forward logic
//! synthesis techniques". This module is that representation. Inverters are
//! free (a complement bit on every edge), structural hashing and constant
//! folding run at construction time, and named probe points let the
//! verification layer reference signals such as the reference FPU's `sha`.

use std::collections::HashMap;
use std::fmt;

use crate::sim::BitSim;

/// A signal: an edge to a netlist node, possibly inverted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signal(u32);

impl Signal {
    /// The constant-false signal.
    pub const FALSE: Signal = Signal(0);
    /// The constant-true signal.
    pub const TRUE: Signal = Signal(1);

    #[inline]
    fn new(node: u32, inverted: bool) -> Signal {
        Signal(node << 1 | u32::from(inverted))
    }

    /// The node this signal points to.
    #[inline]
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the edge is inverted.
    #[inline]
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns `true` if this is one of the two constant signals.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 >> 1 == 0
    }

    /// This signal, complemented when `invert` is set.
    #[inline]
    pub fn invert_if(self, invert: bool) -> Signal {
        Signal(self.0 ^ u32::from(invert))
    }

    /// The image of this edge under a node map: `map[node]` with this
    /// edge's complement applied.
    #[inline]
    pub fn through(self, map: &[Signal]) -> Signal {
        map[self.node().index()].invert_if(self.is_inverted())
    }
}

impl std::ops::Not for Signal {
    type Output = Signal;
    #[inline]
    fn not(self) -> Signal {
        Signal(self.0 ^ 1)
    }
}

impl fmt::Debug for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Signal::FALSE {
            write!(f, "0")
        } else if *self == Signal::TRUE {
            write!(f, "1")
        } else if self.is_inverted() {
            write!(f, "!s{}", self.0 >> 1)
        } else {
            write!(f, "s{}", self.0 >> 1)
        }
    }
}

/// Identifier of a netlist node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u32);

impl NodeId {
    /// Dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_raw(raw: u32) -> NodeId {
        NodeId(raw)
    }
}

/// A netlist node.
#[derive(Clone, Debug)]
pub enum Node {
    /// The constant-false node (always node 0).
    Const,
    /// A primary input.
    Input {
        /// Input name, unique within the netlist.
        name: String,
    },
    /// A 2-input AND gate.
    And(Signal, Signal),
    /// A register (edge-triggered latch). Its next-state function is set
    /// separately with [`Netlist::set_latch_next`] so that feedback loops can
    /// be closed after the downstream logic exists.
    Latch {
        /// Reset value.
        init: bool,
        /// Next-state function (`Signal::FALSE` until connected).
        next: Signal,
        /// Whether `next` has been connected.
        connected: bool,
    },
}

/// An and-inverter-graph netlist with registers, named outputs, and named
/// internal probe points.
///
/// Nodes are created in topological order (an AND's operands always exist
/// before it), so iterating node indices in order is a valid evaluation
/// order, with latches treated as state.
///
/// # Examples
///
/// ```
/// use fmaverify_netlist::{Netlist, Signal};
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let ab = n.and(a, b);
/// n.output("y", ab);
/// assert_eq!(n.eval_comb(&[("a", true), ("b", false)])["y"], false);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    nodes: Vec<Node>,
    /// Structural-hash table for AND gates.
    strash: HashMap<(Signal, Signal), u32>,
    inputs: Vec<NodeId>,
    latches: Vec<NodeId>,
    outputs: Vec<(String, Signal)>,
    probes: HashMap<String, Signal>,
    input_index: HashMap<String, usize>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Netlist {
        Netlist {
            nodes: vec![Node::Const],
            ..Netlist::default()
        }
    }

    /// Number of nodes (including the constant node).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::And(..)))
            .count()
    }

    /// Number of registers.
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// The node table entry for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The primary inputs, in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The registers, in creation order.
    pub fn latches(&self) -> &[NodeId] {
        &self.latches
    }

    /// The named outputs, in declaration order.
    pub fn outputs(&self) -> &[(String, Signal)] {
        &self.outputs
    }

    /// The positive signal of node `id`.
    pub fn signal(&self, id: NodeId) -> Signal {
        Signal::new(id.0, false)
    }

    /// Creates a primary input.
    ///
    /// # Panics
    /// Panics if an input with this name already exists.
    pub fn input(&mut self, name: impl Into<String>) -> Signal {
        let name = name.into();
        assert!(
            !self.input_index.contains_key(&name),
            "duplicate input name '{name}'"
        );
        let id = self.nodes.len() as u32;
        self.input_index.insert(name.clone(), self.inputs.len());
        self.nodes.push(Node::Input { name });
        self.inputs.push(NodeId(id));
        Signal::new(id, false)
    }

    /// Looks up a primary input by name.
    pub fn find_input(&self, name: &str) -> Option<Signal> {
        self.input_index
            .get(name)
            .map(|&i| self.signal(self.inputs[i]))
    }

    /// Creates a register with the given reset value. Connect its next-state
    /// function later with [`Netlist::set_latch_next`].
    pub fn latch(&mut self, init: bool) -> Signal {
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::Latch {
            init,
            next: Signal::FALSE,
            connected: false,
        });
        self.latches.push(NodeId(id));
        Signal::new(id, false)
    }

    /// Connects the next-state function of a latch.
    ///
    /// # Panics
    /// Panics if `latch` is not a latch signal, is inverted, or was already
    /// connected.
    pub fn set_latch_next(&mut self, latch: Signal, next: Signal) {
        assert!(!latch.is_inverted(), "latch handle must be non-inverted");
        match &mut self.nodes[latch.node().index()] {
            Node::Latch {
                next: n, connected, ..
            } => {
                assert!(!*connected, "latch already connected");
                *n = next;
                *connected = true;
            }
            _ => panic!("signal is not a latch"),
        }
    }

    /// Creates (or finds) the AND of two signals, with constant folding and
    /// structural hashing.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        // Constant folding / trivial cases.
        if a == Signal::FALSE || b == Signal::FALSE || a == !b {
            return Signal::FALSE;
        }
        if a == Signal::TRUE {
            return b;
        }
        if b == Signal::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(a, b)) {
            return Signal::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), id);
        Signal::new(id, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and(!a, !b)
    }

    /// Exclusive OR (two AND gates plus inverters).
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        let na_b = self.and(!a, b);
        let a_nb = self.and(a, !b);
        self.or(na_b, a_nb)
    }

    /// Equivalence.
    pub fn xnor(&mut self, a: Signal, b: Signal) -> Signal {
        !self.xor(a, b)
    }

    /// Multiplexer: `if sel then t else e`.
    pub fn mux(&mut self, sel: Signal, t: Signal, e: Signal) -> Signal {
        if t == e {
            return t;
        }
        let st = self.and(sel, t);
        let se = self.and(!sel, e);
        self.or(st, se)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: Signal, b: Signal) -> Signal {
        !self.and(a, !b)
    }

    /// Declares a named output.
    pub fn output(&mut self, name: impl Into<String>, sig: Signal) {
        self.outputs.push((name.into(), sig));
    }

    /// Attaches a name to an internal signal so that verification layers can
    /// reference it (e.g. the reference FPU's `sha` normalization shift
    /// amount used by the `C_sha` constraints).
    pub fn probe(&mut self, name: impl Into<String>, sig: Signal) {
        self.probes.insert(name.into(), sig);
    }

    /// Looks up a named probe point.
    pub fn find_probe(&self, name: &str) -> Option<Signal> {
        self.probes.get(name).copied()
    }

    /// All probe names (sorted, for deterministic iteration).
    pub fn probe_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.probes.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Looks up an output by name.
    pub fn find_output(&self, name: &str) -> Option<Signal> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Computes the combinational cone of influence of `roots`: every node
    /// reachable through AND gates, stopping at inputs, latches, and the
    /// constant. Returns a dense membership mask indexed by node.
    pub fn comb_cone(&self, roots: &[Signal]) -> Vec<bool> {
        let mut mask = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|s| s.node().0).collect();
        while let Some(id) = stack.pop() {
            if mask[id as usize] {
                continue;
            }
            mask[id as usize] = true;
            if let Node::And(a, b) = &self.nodes[id as usize] {
                stack.push(a.node().0);
                stack.push(b.node().0);
            }
        }
        mask
    }

    /// Computes the sequential cone of influence of `roots`, traversing latch
    /// next-state functions as well.
    pub fn seq_cone(&self, roots: &[Signal]) -> Vec<bool> {
        let mut mask = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = roots.iter().map(|s| s.node().0).collect();
        while let Some(id) = stack.pop() {
            if mask[id as usize] {
                continue;
            }
            mask[id as usize] = true;
            match &self.nodes[id as usize] {
                Node::And(a, b) => {
                    stack.push(a.node().0);
                    stack.push(b.node().0);
                }
                Node::Latch { next, .. } => {
                    stack.push(next.node().0);
                }
                _ => {}
            }
        }
        mask
    }

    /// Counts the AND gates in the combinational cone of `roots`.
    pub fn cone_size(&self, roots: &[Signal]) -> usize {
        self.comb_cone(roots)
            .iter()
            .enumerate()
            .filter(|&(i, &m)| m && matches!(self.nodes[i], Node::And(..)))
            .count()
    }

    /// Evaluates the combinational netlist for named input values, returning
    /// the outputs by name. Latches evaluate to their reset values. Intended
    /// for small hand-written tests; use [`crate::BitSim`] for bulk simulation.
    ///
    /// # Panics
    /// Panics if an input name is unknown or an input is missing.
    pub fn eval_comb(&self, inputs: &[(&str, bool)]) -> HashMap<String, bool> {
        let mut sim = BitSim::new(self);
        let mut provided = vec![false; self.inputs.len()];
        for (name, v) in inputs {
            let idx = *self
                .input_index
                .get(*name)
                .unwrap_or_else(|| panic!("unknown input '{name}'"));
            sim.set(self.signal(self.inputs[idx]), *v);
            provided[idx] = true;
        }
        assert!(
            provided.iter().all(|&p| p),
            "all inputs must be provided to eval_comb"
        );
        sim.eval();
        self.outputs
            .iter()
            .map(|(name, s)| (name.clone(), sim.get(*s)))
            .collect()
    }

    /// The maximum AND-gate depth from any input/latch/constant to the given
    /// roots — the combinational logic depth that pipelining would have to
    /// cover.
    pub fn logic_depth(&self, roots: &[Signal]) -> usize {
        let cone = self.comb_cone(roots);
        let mut depth = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for id in self.node_ids() {
            if !cone[id.index()] {
                continue;
            }
            if let Node::And(a, b) = &self.nodes[id.index()] {
                let d = 1 + depth[a.node().index()].max(depth[b.node().index()]);
                depth[id.index()] = d;
                max = max.max(d);
            }
        }
        max
    }

    /// Iterates node ids in topological order (which is creation order).
    pub fn node_ids(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Checks that every latch has been connected.
    pub fn assert_closed(&self) {
        for &l in &self.latches {
            if let Node::Latch { connected, .. } = &self.nodes[l.index()] {
                assert!(*connected, "latch {l:?} was never connected");
            }
        }
    }

    /// Copies `src` into this netlist node by node and returns the node
    /// map: `map[i]` is the signal of `src` node `i` here.
    ///
    /// Inputs are matched by name, and any that are missing are created.
    /// Latches are created with their reset values, and the connected ones
    /// are reconnected once every node is mapped. Each AND gate is built by
    /// `and(self, id, map, a, b)`, where `a` and `b` are its already-mapped
    /// fanins and `map` covers the nodes before `id`; return `self.and(a,
    /// b)` for a faithful copy. Outputs and probes are not copied (see
    /// [`Netlist::rebuild`]).
    pub fn import(
        &mut self,
        src: &Netlist,
        mut and: impl FnMut(&mut Netlist, NodeId, &[Signal], Signal, Signal) -> Signal,
    ) -> Vec<Signal> {
        let mut map: Vec<Signal> = Vec::with_capacity(src.num_nodes());
        for id in src.node_ids() {
            let sig = match src.node(id) {
                Node::Const => Signal::FALSE,
                Node::Input { name } => match self.find_input(name) {
                    Some(sig) => sig,
                    None => self.input(name.clone()),
                },
                Node::Latch { init, .. } => self.latch(*init),
                Node::And(a, b) => {
                    let (a, b) = (a.through(&map), b.through(&map));
                    and(self, id, &map, a, b)
                }
            };
            map.push(sig);
        }
        for &l in src.latches() {
            if let Node::Latch {
                next,
                connected: true,
                ..
            } = src.node(l)
            {
                self.set_latch_next(map[l.index()], next.through(&map));
            }
        }
        map
    }

    /// [`Netlist::import`] into a fresh netlist, with the outputs and probes
    /// re-declared under their names. Returns the new netlist and the node
    /// map. A faithful copy (`and` returning `n.and(a, b)`) keeps every
    /// node's number.
    pub fn rebuild(
        &self,
        and: impl FnMut(&mut Netlist, NodeId, &[Signal], Signal, Signal) -> Signal,
    ) -> (Netlist, Vec<Signal>) {
        let mut out = Netlist::new();
        let map = out.import(self, and);
        for (name, sig) in &self.outputs {
            out.output(name.clone(), sig.through(&map));
        }
        for (name, sig) in &self.probes {
            out.probe(name.clone(), sig.through(&map));
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_folding() {
        let mut n = Netlist::new();
        let a = n.input("a");
        assert_eq!(n.and(a, Signal::FALSE), Signal::FALSE);
        assert_eq!(n.and(a, Signal::TRUE), a);
        assert_eq!(n.and(a, a), a);
        assert_eq!(n.and(a, !a), Signal::FALSE);
        assert_eq!(n.or(a, Signal::TRUE), Signal::TRUE);
        assert_eq!(n.or(a, Signal::FALSE), a);
    }

    #[test]
    fn structural_hashing() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let g1 = n.and(a, b);
        let g2 = n.and(b, a);
        assert_eq!(g1, g2);
        assert_eq!(n.num_ands(), 1);
        let x1 = n.xor(a, b);
        let x2 = n.xor(a, b);
        assert_eq!(x1, x2);
    }

    #[test]
    fn eval_gates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor(a, b);
        let m = n.mux(a, b, !b);
        n.output("xor", x);
        n.output("mux", m);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = n.eval_comb(&[("a", va), ("b", vb)]);
            assert_eq!(out["xor"], va != vb);
            assert_eq!(out["mux"], if va { vb } else { !vb });
        }
    }

    #[test]
    fn cone_of_influence() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let ab = n.and(a, b);
        let _unused = n.and(b, c);
        let cone = n.comb_cone(&[ab]);
        assert!(cone[a.node().index()]);
        assert!(cone[b.node().index()]);
        assert!(!cone[c.node().index()]);
        assert_eq!(n.cone_size(&[ab]), 1);
    }

    #[test]
    fn latch_wiring() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q = n.latch(false);
        n.set_latch_next(q, d);
        n.assert_closed();
        assert_eq!(n.num_latches(), 1);
        // Sequential cone of q reaches d.
        let cone = n.seq_cone(&[q]);
        assert!(cone[d.node().index()]);
        // Combinational cone stops at the latch.
        let ccone = n.comb_cone(&[q]);
        assert!(!ccone[d.node().index()]);
    }

    #[test]
    #[should_panic]
    fn duplicate_input_panics() {
        let mut n = Netlist::new();
        n.input("a");
        n.input("a");
    }

    #[test]
    #[should_panic]
    fn unconnected_latch_panics() {
        let mut n = Netlist::new();
        n.latch(false);
        n.assert_closed();
    }

    #[test]
    fn probes() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let g = n.and(a, b);
        n.probe("internal", g);
        assert_eq!(n.find_probe("internal"), Some(g));
        assert_eq!(n.find_probe("nope"), None);
        assert_eq!(n.probe_names(), vec!["internal"]);
    }

    #[test]
    fn faithful_rebuild_is_the_identity() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let q = n.latch(true);
        let b = n.input("b");
        let r = n.latch(false);
        let spare = n.latch(false);
        let x = n.xor(a, q);
        let m = n.mux(b, x, !r);
        n.set_latch_next(q, !m);
        n.set_latch_next(r, x);
        n.set_latch_next(spare, Signal::TRUE);
        n.output("m", m);
        n.output("nx", !x);
        n.probe("x", x);
        n.probe("nm", !m);
        let (copy, map) = n.rebuild(|out, _, _, a, b| out.and(a, b));
        assert_eq!(map, n.node_ids().map(|id| n.signal(id)).collect::<Vec<_>>());
        assert_eq!(copy.num_nodes(), n.num_nodes());
        assert_eq!(copy.latches(), n.latches());
        copy.assert_closed();
        for &l in n.latches() {
            assert_eq!(format!("{:?}", copy.node(l)), format!("{:?}", n.node(l)));
        }
        assert_eq!(copy.outputs(), n.outputs());
        assert_eq!(copy.probe_names(), n.probe_names());
        for name in n.probe_names() {
            assert_eq!(copy.find_probe(name), n.find_probe(name));
        }
        for (_, sig) in n.outputs() {
            assert_eq!(copy.coi_hash(&[*sig]), n.coi_hash(&[*sig]));
        }
    }
}
