//! Fault-injection regression: a one-mutant campaign plants a gate-level
//! bug in the implementation FPU, the formal flow hunts it down, and the
//! counterexample is arbitrated by the softfloat oracle. Exits non-zero
//! unless the mutant is killed by a replay-confirmed counterexample that
//! the arbitration accepts.
//!
//! Run with: `cargo run --release -p fmaverify --example bughunt_regression`

use fmaverify::{arbitrate_kill, campaign_harness, run_campaign, MutantStatus, RunConfig};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_softfloat::{FpFormat, RoundingMode};

fn fail(msg: &str) -> ! {
    println!("FAILED: {msg}");
    std::process::exit(1);
}

fn main() {
    let cfg = FpuConfig {
        format: FpFormat::MICRO,
        denormals: DenormalMode::FlushToZero,
    };
    let op = FpuOp::Fma;
    println!("== bug hunt at {:?} ==\n", cfg.format);

    // One sampled mutant with a simulation witness, verified on the case
    // the witness lies in.
    let run = RunConfig {
        mutants: Some(1),
        ..RunConfig::default()
    };
    let report = run_campaign(&cfg, op, &run);
    let Some(outcome) = report.outcomes.first() else {
        fail("the campaign verified no mutant");
    };
    println!(
        "injected {:?} at node {:?} ({} candidate gates)",
        outcome.mutation.kind, outcome.mutation.node, report.candidate_gates
    );
    let MutantStatus::Killed {
        case,
        replay_confirmed,
    } = outcome.status
    else {
        fail(&format!("the mutant was not killed: {:?}", outcome.status));
    };
    let Some(cex) = outcome.counterexample.as_ref().filter(|_| replay_confirmed) else {
        fail("the killing counterexample does not replay");
    };
    let rm = RoundingMode::decode(cex.rm);
    println!("\ncase [{}] FAILS", case.label());
    println!(
        "  counterexample: a={} b={} c={} rm={rm:?}",
        cfg.format.to_f64(cex.a),
        cfg.format.to_f64(cex.b),
        cfg.format.to_f64(cex.c),
    );

    // Arbitrate on the clean design the fault went into: faults never touch
    // the reference's cone, so if both clean FPUs agree with the oracle, the
    // replayed miter shows the fault made the implementation wrong.
    match arbitrate_kill(&campaign_harness(&cfg, &run), op, cex) {
        Ok(oracle) => println!(
            "  oracle: {}, matched by the clean reference and implementation",
            cfg.format.to_f64(oracle.bits)
        ),
        Err(e) => fail(&format!("arbitration failed: {e}")),
    }
    println!("  verdict: the fault made the implementation FPU wrong");
}
