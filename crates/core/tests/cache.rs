//! End-to-end semantics of the content-addressed proof cache: warm reruns
//! replay the cold run's verdicts, fingerprints react to design mutations,
//! corrupted shards degrade to re-proving, and read-only caches never
//! touch the disk.

use std::path::PathBuf;

use fmaverify::{
    build_harness, engine_view, fault_targets, find_constraints, inject_fault, probe_constraints,
    run_campaign, CacheMode, CaseId, Fingerprint, HarnessOptions, MutantOutcome, MutantStatus,
    MutationKind, RunConfig, SchedulePolicy, Session, ToJson,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_softfloat::FpFormat;

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

/// A unique temp cache directory per test (removed on drop).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("fmaverify-cache-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn session(dir: &TempDir, mode: CacheMode) -> Session {
    Session::new(&tiny()).configure(RunConfig {
        cache_mode: mode,
        cache_dir: dir.0.clone(),
        threads: 2,
        ..RunConfig::default()
    })
}

#[test]
fn warm_run_replays_cold_verdicts_and_stats() {
    let dir = TempDir::new("warm");
    let cold = session(&dir, CacheMode::ReadWrite).run(FpuOp::Add);
    assert!(cold.all_hold());
    assert!(cold.results.iter().all(|r| !r.cached));

    let warm = session(&dir, CacheMode::ReadWrite).run(FpuOp::Add);
    assert_eq!(warm.results.len(), cold.results.len());
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert!(w.cached, "warm miss on {:?}", w.case);
        assert_eq!(c.case, w.case);
        assert_eq!(c.verdict, w.verdict);
        assert_eq!(c.engine(), w.engine());
        // Replayed stats are the original proving run's measurements, and
        // the replayed engine and stats are those of the last attempt.
        assert_eq!(c.bdd_peak_nodes(), w.bdd_peak_nodes());
        assert_eq!(c.sat_conflicts(), w.sat_conflicts());
        assert_eq!(c.attempts.len(), w.attempts.len());
        let last = w.attempts.last().expect("replayed attempts");
        assert_eq!(w.engine(), Some(last.engine));
        assert_eq!(
            w.stats().map(|s| s.to_json().render()),
            Some(last.stats.to_json().render())
        );
        assert_eq!(
            w.stats().map(|s| s.to_json().render()),
            c.stats().map(|s| s.to_json().render())
        );
        // The JSON rendering differs exactly in the flags that describe
        // this run (cached, timings), not in the verdict.
        assert_eq!(c.verdict.to_json().render(), w.verdict.to_json().render());
    }
}

#[test]
fn netlist_mutation_changes_the_fingerprint() {
    let op = FpuOp::Mul;
    let case = CaseId::Monolithic;
    let policy = SchedulePolicy::from_config(&RunConfig::default());
    let ladder = policy.ladder(op, case);

    // The default harness is combinational, so a fault at its first fault
    // site lands in the same-cycle cone of influence that the fingerprint
    // hashes.
    let mut h = build_harness(&tiny(), HarnessOptions::default());
    let probes = probe_constraints(&mut h, op, &[case]);
    let target = fault_targets(&h, &find_constraints(&h.netlist, &probes))[0];
    let mutated = inject_fault(&h.netlist, target, MutationKind::InvertOutput);
    let (view, constraints) = engine_view(&h, mutated, &probes);

    let clean_parts = h.case_constraint_parts(op, case);
    let clean_fp = Fingerprint::compute(&h, op, case, &clean_parts, ladder);
    let same_fp = Fingerprint::compute(&h, op, case, &clean_parts, ladder);
    assert_eq!(clean_fp, same_fp, "fingerprints must be deterministic");

    let faulty_fp = Fingerprint::compute(&view, op, case, &constraints[0].1, ladder);
    assert_ne!(
        clean_fp, faulty_fp,
        "a mutated netlist must invalidate the cache"
    );
}

#[test]
fn cached_failure_replays_counterexample_on_mutant() {
    let dir = TempDir::new("mutant");
    let run = RunConfig {
        cache_mode: CacheMode::ReadWrite,
        cache_dir: dir.0.clone(),
        threads: 2,
        mutants: Some(1),
        ..RunConfig::default()
    };
    let op = FpuOp::Mul;
    // A one-mutant campaign proves the clean design first, populating the
    // cache, then verifies the mutant with the same cache: its case must
    // MISS (different fingerprint) and re-prove rather than replay the
    // clean design's proof, which the fault breaks.
    let cold = run_campaign(&tiny(), op, &run);
    assert_eq!(cold.clean_cached, 0);
    let cold_kill = &cold.outcomes[0];
    assert!(
        matches!(
            cold_kill.status,
            MutantStatus::Killed {
                replay_confirmed: true,
                ..
            }
        ),
        "the fault must fail the case: {:?}",
        cold_kill.status
    );
    assert_eq!(
        cold_kill.cached_cases, 0,
        "mutant design must not reuse clean-design proofs"
    );

    // A rerun of the *same* campaign replays the mutant's failure verdict,
    // and the counterexample with it, from the cache.
    let warm = run_campaign(&tiny(), op, &run);
    let warm_kill = &warm.outcomes[0];
    assert_eq!(warm_kill.mutation, cold_kill.mutation);
    assert_eq!(
        warm_kill.cached_cases, warm_kill.cases_run,
        "mutant rerun must replay from cache"
    );
    assert_eq!(warm_kill.status, cold_kill.status);
    let render = |o: &MutantOutcome| o.counterexample.as_ref().map(|c| c.to_json().render());
    assert!(render(cold_kill).is_some());
    assert_eq!(render(cold_kill), render(warm_kill));
}

#[test]
fn read_only_mode_never_writes() {
    let dir = TempDir::new("ro");
    let report = session(&dir, CacheMode::ReadOnly).run(FpuOp::Mul);
    assert!(report.all_hold());
    assert!(report.results.iter().all(|r| !r.cached));
    assert!(
        !dir.0.exists(),
        "ReadOnly mode must not create the cache directory"
    );

    // Populate read-write, then re-check that ReadOnly replays but adds
    // nothing new.
    session(&dir, CacheMode::ReadWrite).run(FpuOp::Mul);
    let shard_bytes = |dir: &PathBuf| -> Vec<(PathBuf, u64)> {
        let mut files: Vec<(PathBuf, u64)> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| (e.path(), e.metadata().unwrap().len()))
            .collect();
        files.sort();
        files
    };
    let before = shard_bytes(&dir.0);
    let warm = session(&dir, CacheMode::ReadOnly).run(FpuOp::Mul);
    assert!(warm.results.iter().all(|r| r.cached));
    assert_eq!(shard_bytes(&dir.0), before, "ReadOnly modified the cache");
}

#[test]
fn truncated_shard_degrades_to_reproving() {
    let dir = TempDir::new("corrupt");
    session(&dir, CacheMode::ReadWrite).run(FpuOp::Mul);

    // Truncate every shard mid-line and splatter garbage into one.
    let shards: Vec<PathBuf> = std::fs::read_dir(&dir.0)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    assert!(!shards.is_empty(), "cold run should have persisted shards");
    for shard in &shards {
        let text = std::fs::read_to_string(shard).unwrap();
        std::fs::write(shard, &text[..text.len() / 3]).unwrap();
    }
    std::fs::write(dir.0.join("zz.jsonl"), b"{not json\n\x00\xff garbage").unwrap();

    // Loading must not panic; the damaged cases simply re-prove.
    let report = session(&dir, CacheMode::ReadWrite).run(FpuOp::Mul);
    assert!(report.all_hold());
}
