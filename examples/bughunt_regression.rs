//! Fault-injection regression: plant a gate-level bug in the implementation
//! FPU, let the formal flow hunt it down, and print the counterexample with
//! softfloat-oracle arbitration.
//!
//! Run with: `cargo run --release -p fmaverify --example bughunt_regression`

use fmaverify::{
    build_harness, engine_view, enumerate_cases, fault_targets, find_constraints, inject_fault,
    probe_constraints, HarnessOptions, MutationKind, RunConfig, Session, Verdict,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::{BitSim, Word};
use fmaverify_softfloat::{FpFormat, RoundingMode};

fn main() {
    let cfg = FpuConfig {
        format: FpFormat::MICRO,
        denormals: DenormalMode::FlushToZero,
    };
    let op = FpuOp::Fma;
    let kind = MutationKind::InvertOutput;
    println!("== bug hunt at {:?} ==\n", cfg.format);

    // Build the harness and name every case constraint as a probe, so the
    // constraints survive fault injection.
    let mut base = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );
    let probes = probe_constraints(&mut base, op, &enumerate_cases(&cfg, op));
    let parts = find_constraints(&base.netlist, &probes);

    // Walk the implementation's fault sites until a planted fault fails a
    // case; the session decodes and replays the counterexample.
    let hunt = fault_targets(&base, &parts)
        .into_iter()
        .step_by(37)
        .find_map(|target| {
            let mutated = inject_fault(&base.netlist, target, kind);
            let (view, constraints) = engine_view(&base, mutated, &probes);
            let results = Session::new(&cfg)
                .configure(RunConfig {
                    stop_on_failure: true,
                    ..RunConfig::default()
                })
                .run_prepared(&view, op, &constraints);
            let fail = results.into_iter().find(|r| r.verdict == Verdict::Fails)?;
            Some((target, view, fail))
        });
    let Some((target, view, fail)) = hunt else {
        println!("no planted fault was observable under {op:?}");
        std::process::exit(1);
    };
    let cex = fail
        .counterexample
        .expect("a failing case carries its counterexample");
    assert!(cex.replay_confirmed, "the counterexample must replay");
    let rm = RoundingMode::decode(cex.rm);
    println!("injecting {kind:?} at node {target:?}");
    println!("\ncase [{}] FAILS", fail.case.label());
    println!(
        "  counterexample: a={} b={} c={} rm={rm:?}",
        cfg.format.to_f64(cex.a),
        cfg.format.to_f64(cex.b),
        cfg.format.to_f64(cex.c),
    );

    // Arbitrate: simulate both FPUs on the counterexample and ask the oracle.
    let netlist = &view.netlist;
    let word = |prefix: &str, width: usize, output: bool| {
        Word::from_bits(
            (0..width)
                .map(|i| {
                    let name = format!("{prefix}[{i}]");
                    let sig = if output {
                        netlist.find_output(&name)
                    } else {
                        netlist.find_input(&name)
                    };
                    sig.expect("harness port")
                })
                .collect(),
        )
    };
    let w = cfg.format.width() as usize;
    let mut sim = BitSim::new(netlist);
    for (prefix, width, value) in [
        ("a", w, cex.a),
        ("b", w, cex.b),
        ("c", w, cex.c),
        ("op", 3, u128::from(cex.op)),
        ("rm", 2, u128::from(cex.rm)),
    ] {
        sim.set_word(&word(prefix, width, false), value);
    }
    sim.eval();
    let ref_r = sim.get_word(&word("ref.result", w, true));
    let impl_r = sim.get_word(&word("impl.result", w, true));
    let impl_f = sim.get_word(&word("impl.flags", 4, true)) as u32;
    let oracle = op.apply(&cfg, cex.a, cex.b, cex.c, rm);
    println!(
        "  reference: {}   implementation: {}   oracle: {}",
        cfg.format.to_f64(ref_r),
        cfg.format.to_f64(impl_r),
        cfg.format.to_f64(oracle.bits),
    );
    println!(
        "  verdict: the {} FPU is wrong",
        if impl_r != oracle.bits || impl_f != oracle.flags.encode() {
            "implementation"
        } else {
            "reference"
        }
    );
}
