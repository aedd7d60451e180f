//! **Experiment S5b — the multiply instruction by SAT**.
//!
//! Paper: "Multiplication took only 5 minutes. ... We used satisfiability
//! checking for the verification of the multiply instruction. After the
//! multiplier is removed from the cone-of-influence, the only difficult
//! aspect of the proof is the possible denormalization. Verification of
//! this is possible without case-splitting because the SAT solver and
//! redundancy removal techniques are able to identify structural
//! similarities between the denormalization shifters in the real and the
//! reference FPU."

use fmaverify::{summarize, EngineKind, JsonValue, RunConfig, SchedulePolicy, Session, ToJson};
use fmaverify_bench::{banner, bench_config, compare, dur, maybe_write_json, run_config_from_env};
use fmaverify_fpu::FpuOp;

fn main() {
    banner(
        "mult_sat",
        "§5: multiply verified by one SAT run, no case split",
    );
    let cfg = bench_config();
    let config = run_config_from_env("mult_sat");
    let session = Session::new(&cfg).configure(config.clone());

    // Without sweeping.
    let plain = session.run(FpuOp::Mul);
    println!("plain:   {}", summarize(&plain));
    assert!(plain.all_hold());

    // With redundancy removal first (the paper's configuration), sharing
    // the session's proof cache.
    let swept_policy = SchedulePolicy::from_config(&RunConfig {
        sweep_before_sat: true,
        ..config
    });
    let swept = session.clone().policy(swept_policy).run(FpuOp::Mul);
    println!("swept:   {}", summarize(&swept));
    assert!(swept.all_hold());

    println!();
    compare(
        "multiply needs exactly one case",
        "no case-splitting",
        &format!("{} case(s)", plain.results.len()),
        plain.results.len() == 1,
    );
    let engine = plain.results[0].engine();
    compare(
        "discharged by SAT",
        "satisfiability checking",
        &format!("engine {}", engine.map_or("none", EngineKind::label)),
        engine == Some(EngineKind::Sat),
    );
    compare(
        "denormalization handled in-solver",
        "5 minutes total",
        &format!(
            "{} / {} (plain/swept)",
            dur(plain.accumulated),
            dur(swept.accumulated)
        ),
        true,
    );
    maybe_write_json("mult_sat", || {
        JsonValue::object(vec![("plain", plain.to_json()), ("swept", swept.to_json())])
    });
}
