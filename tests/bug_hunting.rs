//! The verifier must actually find bugs: single-gate faults injected into
//! the implementation FPU's exclusive logic must be caught by the formal
//! flow with a replayable counterexample, and the reference FPU (arbitrated
//! by the softfloat oracle) must be the side that stays correct.
//!
//! This reproduces the paper's claim that the methodology exposed "dozens
//! of high-quality bugs".

use std::collections::HashMap;

use fmaverify::{
    build_harness, check_miter_bdd_parts, check_miter_sat_parts, enumerate_cases, inject_fault,
    BddEngineOptions, CaseId, HarnessOptions, MutationKind, SatEngineOptions,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::{BitSim, Netlist, NodeId, Signal, Word};
use fmaverify_softfloat::{FpFormat, RoundingMode};

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

fn word_by_name(n: &Netlist, prefix: &str, width: usize, from_outputs: bool) -> Word {
    Word::from_bits(
        (0..width)
            .map(|i| {
                let name = format!("{prefix}[{i}]");
                if from_outputs {
                    n.find_output(&name).expect("output exists")
                } else {
                    n.find_input(&name).expect("input exists")
                }
            })
            .collect(),
    )
}

#[test]
fn injected_faults_are_caught_with_oracle_confirmed_counterexamples() {
    let cfg = tiny();
    let w = cfg.format.width() as usize;

    // Build the base (non-isolated) harness and materialize the constraints
    // of every case of every instruction as named probes, so they survive
    // fault injection (which preserves names, not node ids).
    let mut base = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );
    let mut case_probe_names: Vec<(FpuOp, CaseId, String)> = Vec::new();
    for op in FpuOp::ALL {
        for case in enumerate_cases(&cfg, op) {
            let sig = base.case_constraint(op, case);
            let name = format!("case.{op:?}.{}", case.label());
            base.netlist.probe(&name, sig);
            case_probe_names.push((op, case, name));
        }
    }

    // Faults go into logic exclusive to the implementation side.
    let impl_roots: Vec<Signal> = base
        .impl_fpu
        .outputs
        .result
        .bits()
        .iter()
        .chain(base.impl_fpu.outputs.flags.bits())
        .copied()
        .collect();
    let ref_roots: Vec<Signal> = base
        .ref_fpu
        .outputs
        .result
        .bits()
        .iter()
        .chain(base.ref_fpu.outputs.flags.bits())
        .copied()
        .collect();
    let in_impl = base.netlist.comb_cone(&impl_roots);
    let in_ref = base.netlist.comb_cone(&ref_roots);
    let targets: Vec<NodeId> = base
        .netlist
        .node_ids()
        .filter(|id| {
            in_impl[id.index()]
                && !in_ref[id.index()]
                && matches!(base.netlist.node(*id), fmaverify_netlist::Node::And(..))
        })
        .collect();
    assert!(targets.len() > 200, "expected a rich implementation cone");

    let num_faults = 10;
    let mut caught = 0;
    let mut skipped_unobservable = 0;
    for i in 0..num_faults {
        let kind = MutationKind::ALL[i % MutationKind::ALL.len()];
        let target = targets[i * targets.len() / num_faults];
        let mutated = inject_fault(&base.netlist, target, kind);
        let miter = mutated.find_output("miter").expect("miter output");
        let a = word_by_name(&mutated, "a", w, false);
        let b = word_by_name(&mutated, "b", w, false);
        let c = word_by_name(&mutated, "c", w, false);
        let opw = word_by_name(&mutated, "op", 3, false);
        let rmw = word_by_name(&mutated, "rm", 2, false);

        // Find an opcode under which the fault is observable (random sim).
        let observable_op = {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
            let mut sim = BitSim::new(&mutated);
            let mut found = None;
            for _ in 0..40_000 {
                let opc = rng.gen_range(0..FpuOp::ALL.len() as u32);
                sim.set_word(&a, rng.gen::<u128>() & cfg.format.mask());
                sim.set_word(&b, rng.gen::<u128>() & cfg.format.mask());
                sim.set_word(&c, rng.gen::<u128>() & cfg.format.mask());
                sim.set_word(&opw, opc as u128);
                sim.set_word(&rmw, rng.gen_range(0..4));
                sim.eval();
                if sim.get(miter) {
                    found = Some(FpuOp::decode(opc));
                    break;
                }
            }
            found
        };
        let Some(op) = observable_op else {
            skipped_unobservable += 1;
            continue;
        };

        // Formal hunt: run the cases of that instruction until one fails.
        let mut cex: Option<HashMap<String, bool>> = None;
        for (case_op, case, probe) in &case_probe_names {
            if *case_op != op {
                continue;
            }
            let constraint = mutated.find_probe(probe).expect("constraint probe");
            let failed = match case {
                CaseId::FarOut | CaseId::Monolithic => {
                    let out = check_miter_sat_parts(
                        &mutated,
                        miter,
                        &[constraint],
                        &SatEngineOptions::default(),
                    );
                    (!out.holds).then_some(out.counterexample).flatten()
                }
                _ => {
                    let out = check_miter_bdd_parts(
                        &mutated,
                        miter,
                        &[constraint],
                        &BddEngineOptions::default(),
                    );
                    (!out.holds).then_some(out.counterexample).flatten()
                }
            };
            if let Some(assignment) = failed {
                cex = Some(assignment);
                break;
            }
        }
        let assignment = cex.unwrap_or_else(|| {
            panic!("observable fault {kind:?} at {target:?} (op {op:?}) escaped the formal flow")
        });

        // Replay and arbitrate with the softfloat oracle.
        let mut sim = BitSim::new(&mutated);
        for (name, value) in &assignment {
            if let Some(sig) = mutated.find_input(name) {
                sim.set(sig, *value);
            }
        }
        sim.eval();
        assert!(sim.get(miter), "counterexample must replay");
        let va = sim.get_word(&a);
        let vb = sim.get_word(&b);
        let vc = sim.get_word(&c);
        let vrm = RoundingMode::decode(sim.get_word(&rmw) as u32);
        let vop = FpuOp::decode(sim.get_word(&opw) as u32);
        let want = vop.apply(&cfg, va, vb, vc, vrm);
        let ref_result = word_by_name(&mutated, "ref.result", w, true);
        let ref_flags = word_by_name(&mutated, "ref.flags", 4, true);
        let impl_result = word_by_name(&mutated, "impl.result", w, true);
        let impl_flags = word_by_name(&mutated, "impl.flags", 4, true);
        assert_eq!(
            sim.get_word(&ref_result),
            want.bits,
            "the reference stays correct on the counterexample"
        );
        assert_eq!(sim.get_word(&ref_flags) as u32, want.flags.encode());
        assert!(
            sim.get_word(&impl_result) != want.bits
                || sim.get_word(&impl_flags) as u32 != want.flags.encode(),
            "the faulty implementation must actually be wrong"
        );
        caught += 1;
    }
    assert!(
        caught >= num_faults - skipped_unobservable,
        "caught {caught}, skipped {skipped_unobservable}"
    );
    assert!(
        caught >= 6,
        "too few faults were observable/caught: {caught}"
    );
}
