//! **Experiment S6b — portability across implementations**.
//!
//! Paper: "Adaptations of our methodology to subsequent FPU designs required
//! less than one day of effort each. Only the rules for S' and T' had to be
//! adjusted, as these are the only implementation-specific aspect of our
//! methodology."
//!
//! We port between two multiplier implementations (Booth radix-4 and plain
//! AND-array) and two pipeline depths: the isolated verification artifacts
//! are shared verbatim; only the S'/T' rules are re-derived and re-proved.

use fmaverify::{derive_st_constants, prove_multiplier_soundness, Session};
use fmaverify_bench::{banner, bench_config, compare, dur, run_config_from_env};
use fmaverify_fpu::{FpuInputs, FpuOp, MultiplierMode, PipelineMode};
use fmaverify_netlist::{BitSim, Netlist};
use std::time::Instant;

fn main() {
    banner(
        "portability",
        "§6: porting to a new FPU = re-deriving the S'/T' rules only",
    );
    let cfg = bench_config();

    // Shared artifact: the isolated verification (identical for every
    // implementation variant, because neither FPU contains a multiplier).
    let t = Instant::now();
    let report = Session::new(&cfg)
        .configure(run_config_from_env("portability"))
        .run(FpuOp::Fma);
    let shared_time = t.elapsed();
    assert!(report.all_hold());
    println!(
        "shared isolated verification: {} cases in {} (reused verbatim per port)\n",
        report.results.len(),
        dur(shared_time)
    );

    let mut port_times = Vec::new();
    for (name, mode, pipeline) in [
        (
            "booth/combinational",
            MultiplierMode::Real,
            PipelineMode::Combinational,
        ),
        (
            "array/combinational",
            MultiplierMode::RealArray,
            PipelineMode::Combinational,
        ),
        (
            "booth/3-stage pipeline",
            MultiplierMode::Real,
            PipelineMode::ThreeStage,
        ),
    ] {
        let t = Instant::now();
        let constants = derive_st_constants(&cfg, 600, mode.clone());
        let soundness = prove_multiplier_soundness(&cfg, &constants, mode.clone());
        let port_time = t.elapsed();
        assert!(soundness.holds);
        println!(
            "port to {name:<24} {} S'/T' rules derived+proved in {} \
             (cone {} gates)",
            constants.len(),
            dur(port_time),
            soundness.cone_ands
        );
        port_times.push((name, port_time, constants, pipeline));
    }

    // The pipelined variant additionally revalidates by simulation against
    // the reference (latency-aware), showing the harness handles sequential
    // implementations.
    {
        let mut n = Netlist::new();
        let inputs = FpuInputs::new(&mut n, cfg.format);
        let ref_fpu = fmaverify_fpu::build_ref_fpu(
            &mut n,
            &cfg,
            &inputs,
            fmaverify_fpu::ProductSource::Exact,
        );
        let impl_fpu = fmaverify_fpu::build_impl_fpu(
            &mut n,
            &cfg,
            &inputs,
            MultiplierMode::RealArray,
            PipelineMode::ThreeStage,
        );
        let mut sim = BitSim::new(&n);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..500 {
            sim.reset();
            sim.set_word(&inputs.a, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.b, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.c, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.op, rng.gen_range(0..4));
            sim.set_word(&inputs.rm, rng.gen_range(0..4));
            for _ in 0..PipelineMode::ThreeStage.latency() {
                sim.step();
            }
            assert_eq!(
                sim.get_word(&ref_fpu.outputs.result),
                sim.get_word(&impl_fpu.outputs.result)
            );
        }
        println!("\npipelined array-multiplier variant agrees with the reference (500 vectors)");
    }

    println!();
    let booth_rules = &port_times[0].2;
    let array_rules = &port_times[1].2;
    compare(
        "the S'/T' rules are implementation-specific",
        "only rules for S' and T' had to be adjusted",
        &format!(
            "booth: {} rules, array: {} rules (different sets: {})",
            booth_rules.len(),
            array_rules.len(),
            booth_rules != array_rules
        ),
        booth_rules != array_rules,
    );
    let max_port = port_times
        .iter()
        .map(|(_, t, _, _)| *t)
        .max()
        .expect("ports");
    compare(
        "porting effort is a fraction of the original verification",
        "less than one day vs the initial effort",
        &format!("{} per port vs {} shared", dur(max_port), dur(shared_time)),
        max_port < shared_time,
    );
}
