//! Hardening property tests on random netlists: SAT sweeping, Tseitin
//! encoding, unrolling, and AIGER round-trips must all preserve the
//! function of arbitrarily-shaped AIGs (checked exhaustively against
//! simulation for small input counts), and every node the Tseitin encoder
//! gives a variable must take its simulated value in every model.

use fmaverify_netlist::{
    parse_aiger, sat_sweep, unroll, write_aiger, BitSim, InputMode, Netlist, SatEncoder, Signal,
    SweepOptions,
};
use fmaverify_sat::{SolveResult, Solver};
use proptest::prelude::*;

/// A recipe for one random gate.
#[derive(Clone, Debug)]
struct GateRecipe {
    kind: u8,
    a: usize,
    b: usize,
    inv_a: bool,
    inv_b: bool,
}

fn arb_netlist(num_inputs: usize, num_gates: usize) -> impl Strategy<Value = Vec<GateRecipe>> {
    prop::collection::vec(
        (
            0u8..4,
            0usize..64,
            0usize..64,
            prop::bool::ANY,
            prop::bool::ANY,
        )
            .prop_map(|(kind, a, b, inv_a, inv_b)| GateRecipe {
                kind,
                a,
                b,
                inv_a,
                inv_b,
            }),
        num_gates,
    )
    .prop_map(move |v| {
        let _ = num_inputs;
        v
    })
}

/// Builds the recipe into a netlist, returning the output signals.
fn build(recipes: &[GateRecipe], num_inputs: usize) -> (Netlist, Vec<Signal>) {
    let mut n = Netlist::new();
    let mut pool: Vec<Signal> = (0..num_inputs).map(|i| n.input(format!("x{i}"))).collect();
    for r in recipes {
        let a = {
            let s = pool[r.a % pool.len()];
            if r.inv_a {
                !s
            } else {
                s
            }
        };
        let b = {
            let s = pool[r.b % pool.len()];
            if r.inv_b {
                !s
            } else {
                s
            }
        };
        let g = match r.kind {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            _ => n.mux(a, b, pool[(r.a + r.b) % pool.len()]),
        };
        pool.push(g);
    }
    let outs: Vec<Signal> = pool.iter().rev().take(4).copied().collect();
    for (i, &o) in outs.iter().enumerate() {
        n.output(format!("y{i}"), o);
    }
    (n, outs)
}

fn truth_tables(n: &Netlist, outs: &[Signal], num_inputs: usize) -> Vec<Vec<bool>> {
    let mut sim = BitSim::new(n);
    let inputs: Vec<Signal> = (0..num_inputs)
        .map(|i| n.find_input(&format!("x{i}")).expect("input"))
        .collect();
    let mut tables = vec![Vec::new(); outs.len()];
    for bits in 0..1u32 << num_inputs {
        for (i, &sig) in inputs.iter().enumerate() {
            sim.set(sig, bits >> i & 1 == 1);
        }
        sim.eval();
        for (t, &o) in tables.iter_mut().zip(outs) {
            t.push(sim.get(o));
        }
    }
    tables
}

const NUM_INPUTS: usize = 7;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_preserves_random_netlists(recipes in arb_netlist(NUM_INPUTS, 60)) {
        let (n, outs) = build(&recipes, NUM_INPUTS);
        let before = truth_tables(&n, &outs, NUM_INPUTS);
        let result = sat_sweep(&n, &outs, SweepOptions { sim_rounds: 3, ..SweepOptions::default() });
        let after = truth_tables(&result.netlist, &result.roots, NUM_INPUTS);
        prop_assert_eq!(before, after);
        prop_assert!(result.ands_after <= result.ands_before);
    }

    #[test]
    fn tseitin_agrees_with_simulation(recipes in arb_netlist(NUM_INPUTS, 40), bits in 0u32..128) {
        let (n, outs) = build(&recipes, NUM_INPUTS);
        let tables = truth_tables(&n, &outs, NUM_INPUTS);
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let out_lits: Vec<_> = outs.iter().map(|&o| enc.lit(&n, &mut solver, o)).collect();
        let in_lits: Vec<_> = (0..NUM_INPUTS)
            .map(|i| enc.lit(&n, &mut solver, n.find_input(&format!("x{i}")).expect("in")))
            .collect();
        // Fix the inputs via assumptions; each output must be forced to its
        // simulated value.
        let assumptions: Vec<_> = in_lits
            .iter()
            .enumerate()
            .map(|(i, &l)| if bits >> i & 1 == 1 { l } else { !l })
            .collect();
        for (k, &ol) in out_lits.iter().enumerate() {
            let expect = tables[k][(bits & ((1 << NUM_INPUTS) - 1)) as usize];
            let mut assume = assumptions.clone();
            assume.push(if expect { !ol } else { ol });
            prop_assert_eq!(
                solver.solve_with_assumptions(&assume),
                SolveResult::Unsat,
                "output y{} must equal its simulated value", k
            );
        }
    }

    #[test]
    fn encoded_nodes_agree_with_simulation_of_the_model(
        recipes in arb_netlist(NUM_INPUTS, 40),
        picks in prop::collection::vec((0usize..1 << 16, prop::bool::ANY), 1..5),
    ) {
        let (n, _) = build(&recipes, NUM_INPUTS);
        let nodes: Vec<Signal> = n.node_ids().map(|id| n.signal(id)).collect();
        // Assume random values of random nodes, so that some nodes absorbed
        // into an XOR or MUX are requested after their reader.
        let mut solver = Solver::new();
        let mut enc = SatEncoder::new();
        let assumptions: Vec<_> = picks
            .iter()
            .map(|&(k, v)| {
                let l = enc.lit(&n, &mut solver, nodes[k % nodes.len()]);
                if v { l } else { !l }
            })
            .collect();
        prop_assume!(solver.solve_with_assumptions(&assumptions) == SolveResult::Sat);
        let mut sim = BitSim::new(&n);
        for &id in n.inputs() {
            let s = n.signal(id);
            let v = enc.existing_lit(s).is_some_and(|l| solver.model_lit_value(l).is_true());
            sim.set(s, v);
        }
        sim.eval();
        for &s in &nodes {
            if let Some(l) = enc.existing_lit(s) {
                prop_assert_eq!(
                    solver.model_lit_value(l).is_true(),
                    sim.get(s),
                    "node {:?}", s
                );
            }
        }
    }

    #[test]
    fn aiger_roundtrip_random(recipes in arb_netlist(NUM_INPUTS, 40)) {
        let (n, outs) = build(&recipes, NUM_INPUTS);
        let before = truth_tables(&n, &outs, NUM_INPUTS);
        let mut buf = Vec::new();
        write_aiger(&mut buf, &n).expect("write");
        let back = parse_aiger(&mut buf.as_slice()).expect("parse");
        let outs_back: Vec<Signal> = (0..outs.len())
            .map(|i| back.find_output(&format!("y{i}")).expect("output"))
            .collect();
        let after = truth_tables(&back, &outs_back, NUM_INPUTS);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn unroll_of_registered_netlist_matches_stepping(
        recipes in arb_netlist(NUM_INPUTS, 24),
        pattern in prop::collection::vec(0u32..(1 << NUM_INPUTS), 4),
    ) {
        // Wrap the random logic's outputs into a register loop: state' =
        // f(state, inputs), observing one output per cycle.
        let mut n = Netlist::new();
        let inputs: Vec<Signal> = (0..NUM_INPUTS).map(|i| n.input(format!("x{i}"))).collect();
        let regs: Vec<Signal> = (0..3).map(|_| n.latch(false)).collect();
        let mut pool: Vec<Signal> = inputs.clone();
        pool.extend_from_slice(&regs);
        for r in &recipes {
            let a = { let s = pool[r.a % pool.len()]; if r.inv_a { !s } else { s } };
            let b = { let s = pool[r.b % pool.len()]; if r.inv_b { !s } else { s } };
            let g = match r.kind {
                0 => n.and(a, b),
                1 => n.or(a, b),
                2 => n.xor(a, b),
                _ => n.mux(a, b, pool[(r.a + r.b) % pool.len()]),
            };
            pool.push(g);
        }
        for (k, &q) in regs.iter().enumerate() {
            n.set_latch_next(q, pool[pool.len() - 1 - k]);
        }
        let obs = pool[pool.len() - 4 % pool.len().max(1)];
        n.output("obs", obs);

        // Sequential stepping.
        let mut sim = BitSim::new(&n);
        let mut seq = Vec::new();
        for &bits in &pattern {
            for (i, &sig) in inputs.iter().enumerate() {
                sim.set(sig, bits >> i & 1 == 1);
            }
            sim.eval();
            seq.push(sim.get(obs));
            sim.step();
        }

        // Unrolled evaluation.
        let u = unroll(&n, pattern.len(), InputMode::FreshPerCycle);
        let mut named: Vec<(String, bool)> = Vec::new();
        for (c, &bits) in pattern.iter().enumerate() {
            for i in 0..NUM_INPUTS {
                named.push((format!("x{i}@{c}"), bits >> i & 1 == 1));
            }
        }
        let refs: Vec<(&str, bool)> = named.iter().map(|(s, b)| (s.as_str(), *b)).collect();
        let outs_map = u.netlist.eval_comb(&refs);
        for (c, &expect) in seq.iter().enumerate() {
            prop_assert_eq!(outs_map[&format!("obs@{c}")], expect, "cycle {}", c);
        }
    }
}
