//! **Experiment M1 — mutation-coverage campaign: verify the verifier**.
//!
//! The paper's evidence that the flow works is the dozens of injected and
//! real bugs it caught. This experiment measures that bug-finding power
//! systematically (DESIGN.md §10): it seeds single-gate faults into the
//! pipelined implementation FPU's sequential cone and requires the
//! case-split verification to kill every one of them on the case its
//! simulation witness lies in:
//!
//! * zero survivors, zero uncovered and zero budget-exceeded mutants,
//! * every kill carries a replay-confirmed counterexample,
//! * every mutation kind is killed at least once, and
//! * a warm rerun of the same seed replays cases from the proof cache.
//!
//! Knobs: `FMAVERIFY_MUTANTS` (default here: 60; 0 = exhaustive) and
//! `FMAVERIFY_MUTATION_SEED` select the sample; the usual format/budget
//! variables apply.

use fmaverify::{
    CacheMode, CaseClass, JsonValue, MutantStatus, MutationKind, PipelineMode, ToJson,
};
use fmaverify_bench::{banner, bench_config, compare, dur, maybe_write_json, run_config_from_env};
use fmaverify_fpu::FpuOp;

fn main() {
    banner(
        "mutation_campaign",
        "mutation coverage of the case-split checker (bug-finding power)",
    );
    let cfg = bench_config();
    let op = FpuOp::Fma;

    // The campaign targets the *pipelined* implementation: faults behind
    // the stage registers are exactly what the fixed sequential cone
    // enumeration exists for.
    let mut config = run_config_from_env("mutation_campaign");
    config.harness.pipeline = PipelineMode::ThreeStage;
    if config.mutants.is_none() && std::env::var_os("FMAVERIFY_MUTANTS").is_none() {
        config.mutants = Some(60);
    }
    // The cache is the point of the warm rerun: give the campaign a fresh
    // read-write cache when the environment didn't pick one.
    let temp_cache = if config.cache_mode == CacheMode::Off {
        let dir = std::env::temp_dir().join(format!("fmaverify-campaign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        config.cache_mode = CacheMode::ReadWrite;
        config.cache_dir = dir.clone();
        Some(dir)
    } else {
        None
    };

    println!(
        "campaign:   op={op:?} mutants={} seed={:#x}\n",
        config
            .mutants
            .map_or("exhaustive".to_string(), |n| n.to_string()),
        config.mutation_seed,
    );

    let cold = fmaverify::run_campaign(&cfg, op, &config);
    println!(
        "cold: {} candidate gates, {} mutant space, {} screened out",
        cold.candidate_gates, cold.mutant_space, cold.screened_out
    );
    println!(
        "cold: {} verified: {} killed / {} survived / {} uncovered / {} budget-exceeded in {}",
        cold.outcomes.len(),
        cold.killed(),
        cold.survived(),
        cold.uncovered(),
        cold.budget_exceeded(),
        dur(cold.wall)
    );

    // Kill matrix (MutationKind rows x the witness's CaseClass columns).
    let matrix = cold.kill_matrix();
    println!("\nkill matrix (kind x case class):");
    print!("  {:<16}", "");
    for class in CaseClass::ALL {
        print!("{:>18}", class.label());
    }
    println!();
    for (row, kind) in MutationKind::ALL.iter().enumerate() {
        print!("  {:<16}", kind.label());
        for kills in &matrix[row] {
            print!("{kills:>18}");
        }
        println!();
    }
    println!();

    // Warm rerun: same seed, same mutants, now against a populated cache.
    let warm = fmaverify::run_campaign(&cfg, op, &config);
    println!(
        "warm: {} killed / {} survived, {} cases replayed from cache in {}",
        warm.killed(),
        warm.survived(),
        warm.cases_replayed(),
        dur(warm.wall)
    );
    println!();

    compare(
        "all mutants killed",
        "dozens of bugs caught",
        &format!("{}/{} killed", cold.killed(), cold.outcomes.len()),
        cold.survived() == 0 && cold.uncovered() == 0 && cold.budget_exceeded() == 0,
    );
    let confirmed = cold
        .outcomes
        .iter()
        .filter(|o| {
            matches!(
                o.status,
                MutantStatus::Killed {
                    replay_confirmed: true,
                    ..
                }
            )
        })
        .count();
    compare(
        "every kill replay-confirmed",
        "counterexamples replay",
        &format!("{confirmed}/{} kills", cold.killed()),
        confirmed == cold.killed(),
    );
    compare(
        "every mutation kind killed",
        "all fault models covered",
        &format!(
            "{}/{} kinds",
            cold.kinds_with_kills(),
            MutationKind::ALL.len()
        ),
        cold.kinds_with_kills() == MutationKind::ALL.len(),
    );
    compare(
        "warm rerun replays from cache",
        "incremental verification",
        &format!("{} cases replayed", warm.cases_replayed()),
        warm.cases_replayed() > 0,
    );

    assert_eq!(
        cold.survived(),
        0,
        "surviving mutant: the engine missed its witness"
    );
    assert_eq!(
        cold.uncovered(),
        0,
        "uncovered mutant: its witness lies in no case"
    );
    assert_eq!(cold.budget_exceeded(), 0, "budget-exceeded mutant");
    assert_eq!(
        confirmed,
        cold.killed(),
        "a kill did not replay on the mutant netlist"
    );
    assert_eq!(
        cold.kinds_with_kills(),
        MutationKind::ALL.len(),
        "some mutation kind was never killed"
    );
    assert_eq!(warm.killed(), cold.killed(), "warm rerun verdict drift");
    assert_eq!(warm.survived(), 0);
    assert!(
        warm.cases_replayed() > 0,
        "warm rerun never hit the proof cache"
    );

    maybe_write_json("mutation_campaign", || {
        JsonValue::object(vec![
            ("killed", JsonValue::int(cold.killed())),
            ("survived", JsonValue::int(cold.survived())),
            ("kinds_with_kills", JsonValue::int(cold.kinds_with_kills())),
            ("warm_cases_replayed", JsonValue::int(warm.cases_replayed())),
            ("cold", cold.to_json()),
            ("warm", warm.to_json()),
        ])
    });
    if let Some(dir) = temp_cache {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
