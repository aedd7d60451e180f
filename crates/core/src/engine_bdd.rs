//! BDD symbolic simulation of a miter under a care-set constraint.
//!
//! The engine assigns a BDD variable to every primary input following a
//! static order (the paper's orders put operand exponents first and
//! interleave the fractions with the `S'`,`T'` pseudo-inputs), evaluates
//! the constraint cone to obtain the care set, then evaluates the miter's
//! cone in topological order with care-set minimization applied.
//!
//! The netlist it checks is combinational. Paper §5 simulates the
//! sequential netlist cycle by cycle; here a pipelined design reaches the
//! engine as its bounded unrolling with the operands held
//! ([`crate::sequential::engine_view`]), the one model both engines check.
//! A register left in the cone reads its reset value.
//!
//! The simulation is gate-aware. Before each pass it plans the cone from
//! the roots down: an AND node that heads an XOR or MUX structure of the
//! AIG ([`Gate::recognize`]), whose two inner ANDs are read by nothing else
//! in the cone, is evaluated as one `xor` or `ite` over the grandchildren,
//! and the inner ANDs get no BDD at all. The AND-by-AND simulation spent
//! three ITE recursions and two throw-away intermediate BDDs on each.
//! Roots are never absorbed, and every evaluated node still gets the BDD of
//! its own function.
//!
//! * [`Minimize::Constrain`] — the Coudert–Madre generalized cofactor.
//!   Because `constrain` distributes over gates, applying it at the inputs
//!   minimizes every intermediate node implicitly; this is how "the `C_sha`
//!   constraint alone suffices to bound BDD size both for the reference and
//!   real FPU computations". Each evaluated node gets the same canonical
//!   BDD however its cone is grouped into gates.
//! * [`Minimize::Restrict`] — sibling substitution at every evaluated gate
//!   (an XOR or MUX structure is one gate; agreement on the care set
//!   composes gate-wise even though restrict does not distribute).
//! * [`Minimize::None`] — no minimization; the constraint is conjoined only
//!   at the end (the expensive strawman of the paper's ablation).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fmaverify_bdd::{Bdd, BddManager, BddVar};
use fmaverify_netlist::{Gate, Netlist, Node, NodeId, Signal};

/// Care-set minimization strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Minimize {
    /// Generalized cofactor at the inputs (distributes through the circuit).
    Constrain,
    /// Sibling-substitution restrict at every gate.
    Restrict,
    /// No minimization until the final conjunction.
    None,
}

/// Options for a BDD check.
#[derive(Clone, Debug)]
pub struct BddEngineOptions {
    /// Minimization strategy (the paper's winner is `Constrain`).
    pub minimize: Minimize,
    /// Variable order: input signals from top to bottom of the order.
    /// Inputs not listed are appended in creation order.
    pub order: Vec<Signal>,
    /// Garbage-collect when the node arena exceeds this size. This is the
    /// floor of a dead-fraction trigger: after each collection the next one
    /// fires only once allocations at least double the surviving live set,
    /// so a large live working set does not cause a collection per gate.
    pub gc_threshold: usize,
    /// Abort when the node arena exceeds this size even right after a
    /// collection (memory explosion guard). `None` = unbounded.
    pub node_limit: Option<usize>,
    /// Computed-cache size cap for the manager, in entries (rounded to a
    /// power of two). The cache is lossy: a smaller cap trades recompute
    /// for memory and never changes results.
    pub cache_size: usize,
}

impl Default for BddEngineOptions {
    fn default() -> Self {
        BddEngineOptions {
            minimize: Minimize::Constrain,
            order: Vec::new(),
            gc_threshold: 2_000_000,
            node_limit: None,
            cache_size: fmaverify_bdd::DEFAULT_CACHE_SIZE,
        }
    }
}

/// Result of a BDD miter check.
#[derive(Clone, Debug)]
pub struct BddOutcome {
    /// True iff `miter AND care` is unsatisfiable (the property holds on the
    /// care set).
    pub holds: bool,
    /// A satisfying input assignment (by input name) when the check fails.
    pub counterexample: Option<HashMap<String, bool>>,
    /// Peak allocated BDD nodes during the run.
    pub peak_nodes: usize,
    /// Nodes in the care-set BDD.
    pub care_nodes: usize,
    /// Wall-clock duration.
    pub duration: Duration,
    /// True if the node limit aborted the run (result fields are then
    /// meaningless except `peak_nodes`).
    pub aborted: bool,
    /// Manager operation counters (apply calls, computed-table hits/misses,
    /// allocations, GC runs) snapshotted at the end of the run, for the
    /// telemetry layer.
    pub manager_stats: fmaverify_bdd::BddStats,
}

/// Checks that `miter` is false everywhere on the care set, given as a
/// conjunction of `care_parts` (constraint signals of the same netlist).
///
/// The parts are conjoined progressively, cheapest cone first, with the
/// accumulated care set minimizing the evaluation of the next part — this
/// is how the cheap `C_δ` constraint bounds the BDDs built for the
/// expensive `C_sha` cone (the reference FPU's aligner, adder and
/// leading-zero counter).
///
/// # Panics
/// Panics if an order entry is not a non-inverted primary input.
pub fn check_miter_bdd_parts(
    netlist: &Netlist,
    miter: Signal,
    care_parts: &[Signal],
    opts: &BddEngineOptions,
) -> BddOutcome {
    let mut sim = Simulation::new(netlist, opts);

    // Care set: evaluate the parts cheapest cone first, each one minimized
    // against the conjunction of the previous parts. Because
    // `constrain(c2, c1) AND c1 == c2 AND c1`, the accumulated care set is
    // exact while the intermediate BDDs stay bounded.
    let mut parts: Vec<Signal> = care_parts.to_vec();
    parts.sort_by_key(|&p| netlist.cone_size(&[p]));
    for part in parts {
        let Some(values) = sim.eval(&[part], false) else {
            return sim.aborted(0);
        };
        let part_bdd = edge(&values, part);
        drop(values);
        sim.care = sim.mgr.and(sim.care, part_bdd);
        if sim.care.is_false() {
            // Empty care set: the case is trivially discharged (the
            // paper's C_sha/rest case).
            return sim.outcome(true, 1);
        }
        sim.care = sim.mgr.gc(&[sim.care])[0];
    }
    let care_nodes = sim.mgr.reachable_count(&[sim.care]);

    let Some(values) = sim.eval(&[miter], true) else {
        return sim.aborted(care_nodes);
    };
    let bad = sim.mgr.and(edge(&values, miter), sim.care);
    BddOutcome {
        counterexample: (!bad.is_false()).then(|| sim.counterexample(bad)),
        ..sim.outcome(bad.is_false(), care_nodes)
    }
}

/// The state of one symbolic simulation: the manager, the input variables,
/// the accumulated care set and the garbage-collection trigger.
struct Simulation<'a> {
    netlist: &'a Netlist,
    opts: &'a BddEngineOptions,
    mgr: BddManager,
    /// The variable of each primary input, by node index.
    var_of_node: Vec<Option<BddVar>>,
    /// Input names in variable order, for counterexamples.
    input_names: Vec<(BddVar, String)>,
    care: Bdd,
    next_gc: usize,
    start: Instant,
}

impl<'a> Simulation<'a> {
    /// A manager with one variable per input: the order entries first, the
    /// remaining inputs appended in creation order.
    fn new(netlist: &'a Netlist, opts: &'a BddEngineOptions) -> Self {
        let start = Instant::now();
        let mut mgr = BddManager::with_cache_size(opts.cache_size);
        let mut var_of_node = vec![None; netlist.num_nodes()];
        let mut input_names = Vec::new();
        let ordered = opts.order.iter().map(|sig| {
            assert!(
                !sig.is_inverted(),
                "order entries must be non-inverted input signals"
            );
            sig.node()
        });
        for id in ordered.chain(netlist.inputs().iter().copied()) {
            if var_of_node[id.index()].is_some() {
                continue;
            }
            let Node::Input { name } = netlist.node(id) else {
                panic!("order entry {id:?} is not a primary input");
            };
            let v = mgr.new_var();
            var_of_node[id.index()] = Some(v);
            input_names.push((v, name.clone()));
        }
        Simulation {
            netlist,
            opts,
            mgr,
            var_of_node,
            input_names,
            care: Bdd::TRUE,
            next_gc: opts.gc_threshold,
            start,
        }
    }

    /// Evaluates the combinational cones of `roots`, minimized against the
    /// care set. Returns the node values, the roots' among them, or `None`
    /// when the node limit aborts the run.
    ///
    /// AND nodes are evaluated as [`plan`] says: an XOR or MUX structure
    /// costs one ITE, and the two ANDs it absorbs get no value.
    ///
    /// With `collect` (the miter pass) an operand is released
    /// after its last use and the arena is collected under the dead-fraction
    /// trigger, the node limit checked after each collection. Without it
    /// (a care part, whose values all stay live until it is conjoined) the
    /// node limit is checked before every gate.
    fn eval(&mut self, roots: &[Signal], collect: bool) -> Option<Vec<Option<Bdd>>> {
        let netlist = self.netlist;
        let cone = netlist.comb_cone(roots);
        let plan = plan(netlist, &cone, roots);
        let mut values: Vec<Option<Bdd>> = vec![None; netlist.num_nodes()];
        // Remaining-use counts for value liveness (so GC can free dead
        // nodes), over the planned gates' fanins; the roots keep one use
        // each to the end.
        let mut uses: Vec<u32> = Vec::new();
        if collect {
            uses = vec![0; netlist.num_nodes()];
            for gate in plan.iter().flatten() {
                for f in gate.fanins() {
                    uses[f.node().index()] += 1;
                }
            }
            for r in roots {
                uses[r.node().index()] += 1;
            }
        }
        for id in netlist.node_ids() {
            if !cone[id.index()] {
                continue;
            }
            if !collect && self.over_limit() {
                return None;
            }
            let gate = plan[id.index()];
            let v = match netlist.node(id) {
                // A register reads its reset value.
                Node::Const | Node::Latch { init: false, .. } => Bdd::FALSE,
                Node::Latch { init: true, .. } => Bdd::TRUE,
                Node::Input { .. } => self.input_value(id),
                Node::And(..) => {
                    // An AND without a plan is absorbed: its reader's
                    // structure reads past it.
                    let Some(gate) = gate else {
                        continue;
                    };
                    let g = match gate {
                        Gate::And([a, b]) => self.mgr.and(edge(&values, a), edge(&values, b)),
                        Gate::Xor([a, b]) => self.mgr.xor(edge(&values, a), edge(&values, b)),
                        // `¬ITE(s, t, e) = ITE(s, ¬t, ¬e)`.
                        Gate::Mux([s, t, e]) => {
                            self.mgr
                                .ite(edge(&values, s), edge(&values, !t), edge(&values, !e))
                        }
                    };
                    // Constrain distributes: the fanins are already
                    // minimized, so the plain gate *is* the constrained
                    // function.
                    if self.opts.minimize == Minimize::Restrict {
                        self.mgr.restrict(g, self.care)
                    } else {
                        g
                    }
                }
            };
            values[id.index()] = Some(v);
            if !collect {
                continue;
            }
            for f in gate.iter().flat_map(Gate::fanins) {
                let child = f.node().index();
                uses[child] -= 1;
                if uses[child] == 0 {
                    values[child] = None;
                }
            }
            if self.mgr.stats().allocated > self.next_gc {
                self.collect(&mut values);
                if self.over_limit() {
                    return None;
                }
            }
        }
        Some(values)
    }

    /// The variable of input `id`, minimized against the care set.
    fn input_value(&mut self, id: NodeId) -> Bdd {
        let var = self.var_of_node[id.index()].expect("every input has a variable");
        let raw = self.mgr.var_bdd(var);
        match self.opts.minimize {
            Minimize::Constrain => self.mgr.constrain(raw, self.care),
            Minimize::Restrict => self.mgr.restrict(raw, self.care),
            Minimize::None => raw,
        }
    }

    /// Collects everything but `values` and the care set, and re-arms the
    /// dead-fraction trigger: the next collection fires once the arena is
    /// at least half garbage relative to the survivors of this one
    /// (allocations doubled the live set), never below the configured
    /// floor. A mostly-live arena is not worth re-collecting.
    fn collect(&mut self, values: &mut [Option<Bdd>]) {
        let mut roots: Vec<Bdd> = values.iter().flatten().copied().collect();
        roots.push(self.care);
        let new_roots = self.mgr.gc(&roots);
        for (slot, root) in values.iter_mut().flatten().zip(&new_roots) {
            *slot = *root;
        }
        self.care = *new_roots.last().expect("care root");
        self.next_gc = (self.mgr.stats().allocated * 2).max(self.opts.gc_threshold);
    }

    fn over_limit(&self) -> bool {
        self.opts
            .node_limit
            .is_some_and(|limit| self.mgr.stats().allocated > limit)
    }

    /// An input assignment (by name) satisfying `bad`; inputs the path
    /// leaves free read as 0.
    fn counterexample(&self, bad: Bdd) -> HashMap<String, bool> {
        let path = self.mgr.pick_sat(bad).expect("bad is satisfiable");
        let by_var: HashMap<usize, bool> = path.into_iter().map(|(v, b)| (v.index(), b)).collect();
        self.input_names
            .iter()
            .map(|(v, name)| {
                (
                    name.clone(),
                    by_var.get(&v.index()).copied().unwrap_or(false),
                )
            })
            .collect()
    }

    fn outcome(&self, holds: bool, care_nodes: usize) -> BddOutcome {
        BddOutcome {
            holds,
            counterexample: None,
            peak_nodes: self.mgr.stats().peak_allocated,
            care_nodes,
            duration: self.start.elapsed(),
            aborted: false,
            manager_stats: self.mgr.stats(),
        }
    }

    fn aborted(&self, care_nodes: usize) -> BddOutcome {
        BddOutcome {
            aborted: true,
            ..self.outcome(false, care_nodes)
        }
    }
}

/// Plans the evaluation of the cone of `roots` (`cone`, by node index): the
/// gate each evaluated AND node computes, and `None` for the AND nodes
/// absorbed into their reader's XOR or MUX structure (never evaluated) and
/// for every node that is not an AND.
///
/// Fanout counts the AND readers inside the cone plus one per root. Visiting
/// the nodes from the outputs down, an AND node that is not absorbed takes
/// a structure ([`Gate::recognize`]) whose two inner ANDs have fanout 1;
/// they are then absorbed. Roots are never absorbed, so every root gets a
/// value, and each evaluated node gets the function of the node itself.
fn plan(netlist: &Netlist, cone: &[bool], roots: &[Signal]) -> Vec<Option<Gate>> {
    let mut fanout = vec![0u32; netlist.num_nodes()];
    for r in roots {
        fanout[r.node().index()] += 1;
    }
    let cone_ands = || {
        netlist.node_ids().filter_map(|id| match netlist.node(id) {
            Node::And(a, b) if cone[id.index()] => Some((id, *a, *b)),
            _ => None,
        })
    };
    for (_, a, b) in cone_ands() {
        fanout[a.node().index()] += 1;
        fanout[b.node().index()] += 1;
    }
    let mut plan = vec![None; netlist.num_nodes()];
    let mut absorbed = vec![false; netlist.num_nodes()];
    for (id, a, b) in cone_ands().rev() {
        if absorbed[id.index()] {
            continue;
        }
        let gate = Gate::recognize(netlist, a, b, |p| fanout[p.index()] == 1);
        if !matches!(gate, Gate::And(_)) {
            absorbed[a.node().index()] = true;
            absorbed[b.node().index()] = true;
        }
        plan[id.index()] = Some(gate);
    }
    plan
}

#[inline]
fn edge(values: &[Option<Bdd>], sig: Signal) -> Bdd {
    let v = values[sig.node().index()].expect("value computed");
    if sig.is_inverted() {
        !v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::CaseId;
    use crate::harness::{build_harness, HarnessOptions};
    use crate::order::paper_order;
    use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
    use fmaverify_softfloat::FpFormat;

    /// A tiny miter: two adders built differently must agree; with a bug
    /// injected, the engine must produce a counterexample.
    fn adder_pair(buggy: bool) -> (Netlist, Signal, Signal) {
        let mut n = Netlist::new();
        let a = n.word_input("a", 6);
        let b = n.word_input("b", 6);
        let s1 = n.add(&a, &b);
        let nb = n.neg(&b);
        let mut s2 = n.sub(&a, &nb);
        if buggy {
            // Flip one output bit.
            let mut bits = s2.bits().to_vec();
            bits[3] = !bits[3];
            s2 = fmaverify_netlist::Word::from_bits(bits);
        }
        let d = n.xor_word(&s1, &s2);
        let miter = n.or_reduce(&d);
        // Care set: a < 32 (top bit clear).
        let care = !a.bit(5);
        (n, miter, care)
    }

    #[test]
    fn equal_adders_hold() {
        let (n, miter, care) = adder_pair(false);
        for minimize in [Minimize::Constrain, Minimize::Restrict, Minimize::None] {
            let out = check_miter_bdd_parts(
                &n,
                miter,
                &[care],
                &BddEngineOptions {
                    minimize,
                    ..BddEngineOptions::default()
                },
            );
            assert!(out.holds, "minimize {minimize:?}");
            assert!(out.counterexample.is_none());
            assert!(out.peak_nodes > 0);
        }
    }

    #[test]
    fn buggy_adder_yields_counterexample() {
        let (n, miter, care) = adder_pair(true);
        let out = check_miter_bdd_parts(&n, miter, &[care], &BddEngineOptions::default());
        assert!(!out.holds);
        let cex = out.counterexample.expect("counterexample");
        // Replay the counterexample concretely.
        let mut sim = fmaverify_netlist::BitSim::new(&n);
        for (name, val) in &cex {
            let sig = n.find_input(name).expect("input exists");
            sim.set(sig, *val);
        }
        sim.eval();
        assert!(sim.get(miter), "cex must trigger the miter");
        assert!(sim.get(care), "cex must lie in the care set");
    }

    /// A simulation of `n` under `opts` whose care set is `care`.
    fn simulation<'a>(n: &'a Netlist, opts: &'a BddEngineOptions, care: Signal) -> Simulation<'a> {
        let mut sim = Simulation::new(n, opts);
        let values = sim.eval(&[care], false).expect("no node limit");
        sim.care = edge(&values, care);
        sim
    }

    /// The roots' values from the engine's planned evaluation, checking
    /// that the pass released every other value after its last use.
    fn eval_planned(sim: &mut Simulation, roots: &[Signal]) -> Vec<Bdd> {
        let values = sim.eval(roots, true).expect("no node limit");
        for (i, v) in values.iter().enumerate() {
            let is_root = roots.iter().any(|r| r.node().index() == i);
            assert!(v.is_none() || is_root, "node {i} is still live");
        }
        roots.iter().map(|&r| edge(&values, r)).collect()
    }

    /// The roots' values from evaluating their cone one AND at a time, the
    /// reference for the planned evaluation under `Constrain` and `None`
    /// (combinational netlists only).
    fn eval_and_by_and(sim: &mut Simulation, roots: &[Signal]) -> Vec<Bdd> {
        let n = sim.netlist;
        let cone = n.comb_cone(roots);
        let mut values = vec![None; n.num_nodes()];
        for id in n.node_ids().filter(|id| cone[id.index()]) {
            values[id.index()] = Some(match n.node(id) {
                Node::Const => Bdd::FALSE,
                Node::Input { .. } => sim.input_value(id),
                Node::And(a, b) => sim.mgr.and(edge(&values, *a), edge(&values, *b)),
                Node::Latch { .. } => unreachable!("combinational netlists only"),
            });
        }
        roots.iter().map(|&r| edge(&values, r)).collect()
    }

    /// The planned gate of the AND node behind `sig` when `roots` are
    /// evaluated.
    fn planned_gate(n: &Netlist, roots: &[Signal], sig: Signal) -> Option<Gate> {
        plan(n, &n.comb_cone(roots), roots)[sig.node().index()]
    }

    /// Under both canonical modes and the care set `care`, the planned
    /// evaluation of `roots` gives the AND-by-AND edges.
    fn assert_matches_and_by_and(n: &Netlist, roots: &[Signal], care: Signal) {
        for minimize in [Minimize::Constrain, Minimize::None] {
            let opts = BddEngineOptions {
                minimize,
                ..BddEngineOptions::default()
            };
            let mut sim = simulation(n, &opts, care);
            let expected = eval_and_by_and(&mut sim, roots);
            assert_eq!(eval_planned(&mut sim, roots), expected, "{minimize:?}");
        }
    }

    /// The fanins of the AND node behind `sig`.
    fn and_fanins(n: &Netlist, sig: Signal) -> [Signal; 2] {
        match n.node(sig.node()) {
            Node::And(a, b) => [*a, *b],
            other => panic!("{sig:?} is not an AND: {other:?}"),
        }
    }

    /// `x ∨ (y ∧ z)`: a care set that depends on all three inputs.
    fn care_over(n: &mut Netlist, [x, y, z]: [Signal; 3]) -> Signal {
        let yz = n.and(y, z);
        n.or(x, yz)
    }

    #[test]
    fn xor_and_xnor_evaluate_as_one_gate() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        let xn = n.xnor(a, b);
        // XNOR written as an OR of the two agreeing minterms.
        let both = n.and(a, b);
        let neither = n.and(!a, !b);
        let eq = n.or(both, neither);
        let care = care_over(&mut n, [a, b, c]);
        for root in [x, xn, eq] {
            assert!(
                matches!(planned_gate(&n, &[root], root), Some(Gate::Xor(_))),
                "{root:?}"
            );
            assert_matches_and_by_and(&n, &[root], care);
        }
    }

    #[test]
    fn mux_evaluates_as_one_gate_for_every_selector_placement() {
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
            let care = care_over(&mut n, sigs);
            assert_eq!(
                planned_gate(&n, &[m], m),
                Some(Gate::Mux([s, t, e])),
                "order {order:?}"
            );
            assert_matches_and_by_and(&n, &[m], care);
        }
        assert_eq!(placements.len(), 4, "selector first/second in either AND");
    }

    #[test]
    fn shared_intermediates_fall_back_to_ands() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        let [p, _] = and_fanins(&n, x);
        let second_reader = n.and(!p, c);
        let care = care_over(&mut n, [a, b, c]);
        // A second reader outside the cone does not block the structure.
        assert!(matches!(planned_gate(&n, &[x], x), Some(Gate::Xor(_))));
        // Inside the cone it does, and so does `p` being a root itself.
        for roots in [[x, second_reader], [x, p]] {
            assert!(matches!(planned_gate(&n, &roots, x), Some(Gate::And(_))));
            assert_matches_and_by_and(&n, &roots, care);
        }
    }

    #[test]
    fn structures_save_ite_calls_on_the_adder_miter() {
        let (n, miter, care) = adder_pair(false);
        let opts = BddEngineOptions::default();
        let mut ites = Vec::new();
        for planned in [true, false] {
            let mut sim = simulation(&n, &opts, care);
            let before = sim.mgr.stats().ite_calls;
            if planned {
                eval_planned(&mut sim, &[miter]);
            } else {
                eval_and_by_and(&mut sim, &[miter]);
            }
            ites.push(sim.mgr.stats().ite_calls - before);
        }
        assert!(
            ites[0] < ites[1],
            "planned {} vs AND-by-AND {}",
            ites[0],
            ites[1]
        );
    }

    /// A random netlist over `INPUTS` inputs: each recipe `(kind, a, b, c)`
    /// adds an AND, OR, XOR or MUX over earlier signals (indices wrap,
    /// odd indices are complemented).
    fn random_netlist(recipes: &[(u8, usize, usize, usize)]) -> (Netlist, Vec<Signal>) {
        let mut n = Netlist::new();
        let mut pool: Vec<Signal> = (0..INPUTS).map(|i| n.input(format!("x{i}"))).collect();
        for &(kind, a, b, c) in recipes {
            let [a, b, c] = [a, b, c].map(|k| {
                let s = pool[k / 2 % pool.len()];
                if k % 2 == 1 {
                    !s
                } else {
                    s
                }
            });
            let g = match kind {
                0 => n.and(a, b),
                1 => n.or(a, b),
                2 => n.xor(a, b),
                _ => n.mux(a, b, c),
            };
            pool.push(g);
        }
        (n, pool)
    }

    const INPUTS: usize = 6;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random netlists the planned evaluation gives every root the
        /// AND-by-AND edge, every minimization mode reaches the same
        /// verdict, and each counterexample replays in simulation.
        #[test]
        fn planned_evaluation_agrees_on_random_netlists(
            recipes in proptest::prop::collection::vec((0u8..4, 0usize..128, 0usize..128, 0usize..128), 40),
        ) {
            let (n, pool) = random_netlist(&recipes);
            let roots: Vec<Signal> = pool.iter().rev().take(4).copied().collect();
            let (miter, care) = (roots[0], roots[1]);
            // The reference verdict: does `miter ∧ care` have a model?
            let opts = BddEngineOptions::default();
            let mut sim = Simulation::new(&n, &opts);
            let [m, c] = eval_and_by_and(&mut sim, &[miter, care])[..] else {
                unreachable!("two roots")
            };
            let holds = sim.mgr.and(m, c).is_false();
            // `constrain` needs a non-empty care set.
            assert_matches_and_by_and(&n, &roots, if c.is_false() { Signal::TRUE } else { care });
            let mut verdicts = Vec::new();
            for minimize in [Minimize::Constrain, Minimize::Restrict, Minimize::None] {
                let opts = BddEngineOptions {
                    minimize,
                    ..BddEngineOptions::default()
                };
                let out = check_miter_bdd_parts(&n, miter, &[care], &opts);
                verdicts.push(out.holds);
                if let Some(cex) = out.counterexample {
                    let mut sim = fmaverify_netlist::BitSim::new(&n);
                    for (name, val) in &cex {
                        sim.set(n.find_input(name).expect("input"), *val);
                    }
                    sim.eval();
                    proptest::prop_assert!(sim.get(miter) && sim.get(care), "{minimize:?}");
                }
            }
            proptest::prop_assert_eq!(verdicts, vec![holds; 3]);
        }
    }

    #[test]
    fn constraint_respected() {
        // A miter that only fails outside the care set must hold.
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let big = {
            let k = n.word_const(4, 12);
            n.ule(&k, &a)
        };
        // "Fails" whenever a >= 12.
        let miter = big;
        let care = {
            let k = n.word_const(4, 12);
            n.ult(&a, &k)
        };
        let out = check_miter_bdd_parts(&n, miter, &[care], &BddEngineOptions::default());
        assert!(out.holds);
        // Without the constraint it fails.
        let out2 = check_miter_bdd_parts(&n, miter, &[Signal::TRUE], &BddEngineOptions::default());
        assert!(!out2.holds);
    }

    #[test]
    fn empty_care_set_discharges_trivially() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let miter = a;
        let out = check_miter_bdd_parts(&n, miter, &[Signal::FALSE], &BddEngineOptions::default());
        assert!(out.holds);
    }

    #[test]
    fn custom_order_is_used() {
        let mut n = Netlist::new();
        let a = n.word_input("a", 4);
        let b = n.word_input("b", 4);
        let eq = n.eq_word(&a, &b);
        let order: Vec<Signal> = (0..4).flat_map(|i| [a.bit(i), b.bit(i)]).collect();
        let interleaved = check_miter_bdd_parts(
            &n,
            !eq,
            &[eq],
            &BddEngineOptions {
                order,
                ..BddEngineOptions::default()
            },
        );
        assert!(interleaved.holds);
    }

    fn tiny_cfg() -> FpuConfig {
        FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        }
    }

    /// The combinational (3,2) harness with the constraint parts and paper
    /// order of one FMA overlap case.
    fn combinational_case() -> (crate::harness::Harness, Vec<Signal>, BddEngineOptions) {
        let mut harness = build_harness(&tiny_cfg(), HarnessOptions::default());
        let case = CaseId::OverlapNoCancel { delta: 3 };
        let parts = harness.case_constraint_parts(FpuOp::Fma, case);
        let opts = BddEngineOptions {
            order: paper_order(&harness, Some(3)),
            ..BddEngineOptions::default()
        };
        (harness, parts, opts)
    }

    #[test]
    fn node_limit_aborts_the_care_pass() {
        let (harness, parts, opts) = combinational_case();
        let out = check_miter_bdd_parts(
            &harness.netlist,
            harness.miter,
            &parts,
            &BddEngineOptions {
                node_limit: Some(1),
                ..opts
            },
        );
        assert!(out.aborted);
        assert!(!out.holds);
        assert_eq!(out.care_nodes, 0, "aborted before the care set was built");
    }

    #[test]
    fn collection_fires_inside_a_pass() {
        let (harness, parts, opts) = combinational_case();
        let out = check_miter_bdd_parts(
            &harness.netlist,
            harness.miter,
            &parts,
            &BddEngineOptions {
                gc_threshold: 1_000,
                ..opts
            },
        );
        assert!(out.holds && !out.aborted);
        // One collection per care part, and more than one in the miter
        // pass on top.
        let gc_runs = out.manager_stats.gc_runs as usize;
        assert!(gc_runs > parts.len() + 1, "{gc_runs} collections");
    }
}
