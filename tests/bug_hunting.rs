//! The verifier must actually find bugs: single-gate faults injected into
//! the implementation FPU's exclusive logic must be caught by the formal
//! flow with a replayable counterexample, and the reference FPU (arbitrated
//! by the softfloat oracle) must be the side that stays correct.
//!
//! This reproduces the paper's claim that the methodology exposed "dozens
//! of high-quality bugs".

use fmaverify::{
    build_harness, engine_view, enumerate_cases, fault_targets, find_constraints, inject_fault,
    probe_constraints, HarnessOptions, MutationKind, RunConfig, Session, Verdict,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::{BitSim, Netlist, Word};
use fmaverify_softfloat::{FpFormat, RoundingMode};
use rand::{Rng, SeedableRng};

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

    // Build the base (non-isolated) harness and name the constraints of
    // every case of every instruction as probes, so they survive fault
    // injection (which preserves names, not node ids).
    let mut base = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );
    let probes: Vec<_> = FpuOp::ALL
        .iter()
        .map(|&op| {
            (
                op,
                probe_constraints(&mut base, op, &enumerate_cases(&cfg, op)),
            )
        })
        .collect();
    let parts: Vec<_> = probes
        .iter()
        .flat_map(|(_, p)| find_constraints(&base.netlist, p))
        .collect();

    // Faults go into logic exclusive to the implementation side.
    let targets = fault_targets(&base, &parts);
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
        let mut sim = BitSim::new(&mutated);
        let observable_op = (0..40_000).find_map(|_| {
            let opc = rng.gen_range(0..FpuOp::ALL.len() as u32);
            sim.set_word(&a, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&b, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&c, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&opw, opc as u128);
            sim.set_word(&rmw, rng.gen_range(0..4));
            sim.eval();
            sim.get(miter).then(|| FpuOp::decode(opc))
        });
        let Some(op) = observable_op else {
            skipped_unobservable += 1;
            continue;
        };

        // Formal hunt: the engine ladder over that instruction's cases,
        // stopping at the first replay-confirmed counterexample.
        let (_, op_probes) = probes.iter().find(|(o, _)| *o == op).expect("op");
        let (view, constraints) = engine_view(&base, mutated, op_probes);
        let results = Session::new(&cfg)
            .configure(RunConfig {
                stop_on_failure: true,
                ..RunConfig::default()
            })
            .run_prepared(&view, op, &constraints);
        let cex = results
            .iter()
            .find(|r| r.verdict == Verdict::Fails)
            .and_then(|r| r.counterexample.as_ref())
            .unwrap_or_else(|| {
                panic!(
                    "observable fault {kind:?} at {target:?} (op {op:?}) escaped the formal flow"
                )
            });
        assert!(cex.replay_confirmed, "counterexample must replay");

        // Arbitrate with the softfloat oracle. The combinational harness's
        // view is the mutant itself, so its words are still valid.
        let mutated = &view.netlist;
        let mut sim = BitSim::new(mutated);
        for (word, value) in [(&a, cex.a), (&b, cex.b), (&c, cex.c)] {
            sim.set_word(word, value);
        }
        sim.set_word(&opw, u128::from(cex.op));
        sim.set_word(&rmw, u128::from(cex.rm));
        sim.eval();
        assert!(sim.get(miter), "the decoded operands must fail");
        let vop = FpuOp::decode(cex.op);
        let want = vop.apply(&cfg, cex.a, cex.b, cex.c, RoundingMode::decode(cex.rm));
        let read =
            |prefix: &str, width: usize| sim.get_word(&word_by_name(mutated, prefix, width, true));
        assert_eq!(
            read("ref.result", w),
            want.bits,
            "the reference stays correct on the counterexample"
        );
        assert_eq!(read("ref.flags", 4) as u32, want.flags.encode());
        assert!(
            read("impl.result", w) != want.bits
                || read("impl.flags", 4) as u32 != want.flags.encode(),
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
