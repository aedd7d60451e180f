//! BDD symbolic simulation of a miter under a care-set constraint.
//!
//! Paper §5: "The BDD-based symbolic simulator operates directly upon the
//! sequential netlist" — no unfolding. The engine assigns a BDD variable to
//! every primary input following a static order (the paper's orders put
//! operand exponents first and interleave the fractions with the `S'`,`T'`
//! pseudo-inputs) and evaluates the constraint cone to obtain the care set.
//! It then steps the netlist cycle by cycle: each register holds a BDD over
//! the input variables, starting from its reset value, and every cycle
//! evaluates the next-state functions in topological order with care-set
//! minimization applied. The operands are held constant (the driver issues
//! one instruction into an empty FPU), so the same variables serve every
//! cycle, and the miter is examined at the result-valid cycle. A
//! combinational check is the same simulation at cycle 0.
//!
//! * [`Minimize::Constrain`] — the Coudert–Madre generalized cofactor.
//!   Because `constrain` distributes over gates, applying it at the inputs
//!   minimizes every intermediate node implicitly; this is how "the `C_sha`
//!   constraint alone suffices to bound BDD size both for the reference and
//!   real FPU computations".
//! * [`Minimize::Restrict`] — sibling substitution at every gate (agreement
//!   on the care set composes gate-wise even though restrict does not
//!   distribute).
//! * [`Minimize::None`] — no minimization; the constraint is conjoined only
//!   at the end (the expensive strawman of the paper's ablation).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fmaverify_bdd::{Bdd, BddManager, BddVar};
use fmaverify_netlist::{Netlist, Node, Signal};

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
    /// Live (reachable) nodes at the end.
    pub final_nodes: usize,
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
/// conjunction of `care_parts` (constraint signals of the same netlist),
/// with every register at its reset value: the combinational check, cycle
/// 0 of [`check_miter_bdd_sequential`].
///
/// The parts are conjoined progressively, cheapest cone first, with the
/// accumulated care set minimizing the evaluation of the next part — this
/// is how the cheap `C_δ` constraint bounds the BDDs built for the
/// expensive `C_sha` cone (the reference FPU's aligner, adder and
/// leading-zero counter).
pub fn check_miter_bdd_parts(
    netlist: &Netlist,
    miter: Signal,
    care_parts: &[Signal],
    opts: &BddEngineOptions,
) -> BddOutcome {
    check_miter_bdd_sequential(netlist, miter, care_parts, 0, opts)
}

/// Checks `miter AND care == false` at cycle `check_cycle` of the sequential
/// netlist by stepping BDDs through the registers (inputs held).
///
/// After cycle 0 the care parts must be combinational functions of the
/// primary inputs (as the paper's constraints are: operand exponents and
/// the reference FPU's `sha`, whose cone contains no registers).
///
/// # Panics
/// Panics if `check_cycle > 0` and a care part's cone contains a register,
/// or if an order entry is not a non-inverted primary input.
pub fn check_miter_bdd_sequential(
    netlist: &Netlist,
    miter: Signal,
    care_parts: &[Signal],
    check_cycle: usize,
    opts: &BddEngineOptions,
) -> BddOutcome {
    if check_cycle > 0 {
        netlist.assert_closed();
        for part in care_parts {
            let cone = netlist.comb_cone(&[*part]);
            assert!(
                netlist.latches().iter().all(|l| !cone[l.index()]),
                "care part {part:?} depends on register state"
            );
        }
    }
    let mut sim = Simulation::new(netlist, opts);
    let latches = netlist.latches();
    let mut state: Vec<Bdd> = latches
        .iter()
        .map(|&l| match netlist.node(l) {
            Node::Latch { init: true, .. } => Bdd::TRUE,
            _ => Bdd::FALSE,
        })
        .collect();

    // Care set: evaluate the parts cheapest cone first, each one minimized
    // against the conjunction of the previous parts. Because
    // `constrain(c2, c1) AND c1 == c2 AND c1`, the accumulated care set is
    // exact while the intermediate BDDs stay bounded.
    let mut parts: Vec<Signal> = care_parts.to_vec();
    parts.sort_by_key(|&p| netlist.cone_size(&[p]));
    for part in parts {
        let Some(values) = sim.eval(&[part], &state, false) else {
            return sim.aborted(0);
        };
        let part_bdd = edge(&values, part);
        drop(values);
        sim.care = sim.mgr.and(sim.care, part_bdd);
        if sim.care.is_false() {
            // Empty care set: the case is trivially discharged (the
            // paper's C_sha/rest case).
            let final_nodes = sim.mgr.reachable_count(&[sim.care]);
            return sim.outcome(true, final_nodes, 1);
        }
        sim.care = sim.mgr.gc(&[sim.care])[0];
    }
    let care_nodes = sim.mgr.reachable_count(&[sim.care]);

    // Step the registers to the check cycle, then evaluate the miter.
    let next: Vec<Signal> = latches
        .iter()
        .map(|&l| match netlist.node(l) {
            Node::Latch { next, .. } => *next,
            _ => unreachable!("latches() returned a non-latch node"),
        })
        .collect();
    for _ in 0..check_cycle {
        let Some(values) = sim.eval(&next, &state, true) else {
            return sim.aborted(care_nodes);
        };
        state = next.iter().map(|&s| edge(&values, s)).collect();
    }
    let Some(values) = sim.eval(&[miter], &state, true) else {
        return sim.aborted(care_nodes);
    };
    let bad = sim.mgr.and(edge(&values, miter), sim.care);
    let final_nodes = sim.mgr.reachable_count(&[bad, sim.care]);
    BddOutcome {
        counterexample: (!bad.is_false()).then(|| sim.counterexample(bad)),
        ..sim.outcome(bad.is_false(), final_nodes, care_nodes)
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

    /// Evaluates the combinational cones of `roots` with the registers
    /// holding `state` (one BDD per latch, in [`Netlist::latches`] order),
    /// minimized against the care set. Returns the node values, the roots'
    /// among them, or `None` when the node limit aborts the run.
    ///
    /// With `collect` (the register and miter passes) an operand is released
    /// after its last use and the arena is collected under the dead-fraction
    /// trigger, the node limit checked after each collection. Without it
    /// (a care part, whose values all stay live until it is conjoined) the
    /// node limit is checked before every gate.
    fn eval(&mut self, roots: &[Signal], state: &[Bdd], collect: bool) -> Option<Vec<Option<Bdd>>> {
        let netlist = self.netlist;
        let cone = netlist.comb_cone(roots);
        let mut values: Vec<Option<Bdd>> = vec![None; netlist.num_nodes()];
        for (&l, &s) in netlist.latches().iter().zip(state) {
            if cone[l.index()] {
                values[l.index()] = Some(s);
            }
        }
        // Remaining-use counts for value liveness (so GC can free dead
        // nodes); the roots keep one use each to the end.
        let mut uses: Vec<u32> = Vec::new();
        if collect {
            uses = vec![0; netlist.num_nodes()];
            for id in netlist.node_ids() {
                if cone[id.index()] {
                    if let Node::And(a, b) = netlist.node(id) {
                        uses[a.node().index()] += 1;
                        uses[b.node().index()] += 1;
                    }
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
            let v = match netlist.node(id) {
                Node::Const => Bdd::FALSE,
                Node::Input { .. } => {
                    let var = self.var_of_node[id.index()].expect("every input has a variable");
                    let raw = self.mgr.var_bdd(var);
                    match self.opts.minimize {
                        Minimize::Constrain => self.mgr.constrain(raw, self.care),
                        Minimize::Restrict => self.mgr.restrict(raw, self.care),
                        Minimize::None => raw,
                    }
                }
                Node::Latch { .. } => values[id.index()].expect("register state seeded"),
                Node::And(a, b) => {
                    let g = self.mgr.and(edge(&values, *a), edge(&values, *b));
                    // Constrain distributes: the children are already
                    // minimized, so the plain AND *is* the constrained
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
            if let Node::And(a, b) = netlist.node(id) {
                for child in [a.node(), b.node()] {
                    uses[child.index()] -= 1;
                    if uses[child.index()] == 0 {
                        values[child.index()] = None;
                    }
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

    fn outcome(&self, holds: bool, final_nodes: usize, care_nodes: usize) -> BddOutcome {
        BddOutcome {
            holds,
            counterexample: None,
            peak_nodes: self.mgr.stats().peak_allocated,
            final_nodes,
            care_nodes,
            duration: self.start.elapsed(),
            aborted: false,
            manager_stats: self.mgr.stats(),
        }
    }

    fn aborted(&self, care_nodes: usize) -> BddOutcome {
        BddOutcome {
            aborted: true,
            ..self.outcome(false, self.mgr.stats().allocated, care_nodes)
        }
    }
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
    use crate::cases::{enumerate_cases, CaseId};
    use crate::harness::{build_harness, HarnessOptions};
    use crate::order::paper_order;
    use crate::sequential::{engine_view, probe_constraints};
    use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp, PipelineMode};
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
    fn node_limit_aborts_at_cycle_zero() {
        let (harness, parts, opts) = combinational_case();
        let out = check_miter_bdd_sequential(
            &harness.netlist,
            harness.miter,
            &parts,
            0,
            &BddEngineOptions {
                node_limit: Some(1),
                ..opts
            },
        );
        assert!(out.aborted);
        assert!(!out.holds);
    }

    #[test]
    fn cycle_zero_is_the_combinational_check() {
        let (harness, parts, opts) = combinational_case();
        let seq = check_miter_bdd_sequential(&harness.netlist, harness.miter, &parts, 0, &opts);
        let comb = check_miter_bdd_parts(&harness.netlist, harness.miter, &parts, &opts);
        assert!(seq.holds && comb.holds);
        assert_eq!(seq.peak_nodes, comb.peak_nodes);
        assert_eq!(seq.care_nodes, comb.care_nodes);
        assert_eq!(seq.manager_stats, comb.manager_stats);
    }

    /// The (3,2) harness with a three-stage pipelined implementation.
    fn pipelined_harness() -> crate::harness::Harness {
        build_harness(
            &tiny_cfg(),
            HarnessOptions {
                pipeline: PipelineMode::ThreeStage,
                ..HarnessOptions::default()
            },
        )
    }

    /// `netlist` with its first AND gate that feeds a register's
    /// next-state function inverted (a sequential-only bug).
    fn register_fault(netlist: &Netlist) -> Netlist {
        let target = netlist
            .latches()
            .iter()
            .find_map(|&l| match netlist.node(l) {
                Node::Latch { next, .. } if matches!(netlist.node(next.node()), Node::And(..)) => {
                    Some(next.node())
                }
                _ => None,
            })
            .expect("a register fed by logic");
        crate::mutate::inject_fault(netlist, target, crate::mutate::MutationKind::InvertOutput)
    }

    #[test]
    fn pipelined_case_collects_inside_a_cycle() {
        let mut harness = pipelined_harness();
        let latency = PipelineMode::ThreeStage.latency();
        let parts = harness.case_constraint_parts(FpuOp::Fma, CaseId::OverlapNoCancel { delta: 3 });
        let out = check_miter_bdd_sequential(
            &harness.netlist,
            harness.miter,
            &parts,
            latency,
            &BddEngineOptions {
                gc_threshold: 1_000,
                ..BddEngineOptions::default()
            },
        );
        assert!(out.holds && !out.aborted);
        // One collection per care part, and more than one per cycle on top.
        let gc_runs = out.manager_stats.gc_runs as usize;
        assert!(gc_runs > parts.len() + latency, "{gc_runs} collections");
    }

    /// The paper's engine on the sequential netlist and the unrolled view
    /// every runner checks ([`engine_view`]) must agree, on the clean
    /// design (every sampled case holds) and on a register fault (some
    /// sampled case fails in both).
    #[test]
    fn sequential_engine_verifies_pipelined_cases() {
        let mut harness = pipelined_harness();
        let latency = PipelineMode::ThreeStage.latency();
        // A representative subset (the full sweep is covered by the
        // unrolling test).
        let cases: Vec<CaseId> = enumerate_cases(&tiny_cfg(), FpuOp::Fma)
            .into_iter()
            .step_by(7)
            .collect();
        let probes = probe_constraints(&mut harness, FpuOp::Fma, &cases);
        let faulty = register_fault(&harness.netlist);
        for (netlist, clean) in [(harness.netlist.clone(), true), (faulty, false)] {
            let (view, constraints) = engine_view(&harness, netlist.clone(), &probes);
            let miter = netlist.find_output("miter").expect("miter");
            let mut failures = 0;
            for ((case, names), (_, unrolled_parts)) in probes.iter().zip(&constraints) {
                let parts: Vec<Signal> = names
                    .iter()
                    .map(|n| netlist.find_probe(n).expect("probe"))
                    .collect();
                let opts = BddEngineOptions::default();
                let seq = check_miter_bdd_sequential(&netlist, miter, &parts, latency, &opts);
                let unrolled =
                    check_miter_bdd_parts(&view.netlist, view.miter, unrolled_parts, &opts);
                assert!(!seq.aborted && !unrolled.aborted, "case {case:?}");
                assert_eq!(seq.holds, unrolled.holds, "engines disagree on {case:?}");
                failures += usize::from(!seq.holds);
            }
            if clean {
                assert_eq!(failures, 0, "the clean design must hold");
            } else {
                assert!(failures > 0, "the register fault must be visible");
            }
        }
    }

    #[test]
    fn sequential_engine_finds_pipelined_bugs() {
        let mut harness = pipelined_harness();
        let parts_all =
            harness.case_constraint_parts(FpuOp::Fma, CaseId::OverlapNoCancel { delta: 3 });
        for (i, p) in parts_all.iter().enumerate() {
            harness.netlist.probe(format!("seqbug#{i}"), *p);
        }
        let mutated = register_fault(&harness.netlist);
        let miter = mutated.find_output("miter").expect("miter");
        let parts: Vec<Signal> = (0..parts_all.len())
            .map(|i| mutated.find_probe(&format!("seqbug#{i}")).expect("probe"))
            .collect();
        let out = check_miter_bdd_sequential(
            &mutated,
            miter,
            &parts,
            PipelineMode::ThreeStage.latency(),
            &BddEngineOptions::default(),
        );
        // The fault sits in this case's cone or not; if the case holds, try
        // the unconstrained space, which must expose an inverted gate that
        // feeds state.
        if out.holds {
            let out2 = check_miter_bdd_sequential(
                &mutated,
                miter,
                &[Signal::TRUE],
                PipelineMode::ThreeStage.latency(),
                &BddEngineOptions::default(),
            );
            assert!(
                !out2.holds,
                "an inverted state-feeding gate must be visible"
            );
            let cex = out2.counterexample.expect("cex");
            assert!(!cex.is_empty());
        } else {
            assert!(out.counterexample.is_some());
        }
    }
}
