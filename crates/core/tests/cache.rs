//! End-to-end semantics of the content-addressed proof cache: warm reruns
//! replay the cold run's verdicts, fingerprints react to design mutations,
//! corrupted shards degrade to re-proving, and read-only caches never
//! touch the disk.

use std::path::PathBuf;
use std::sync::Arc;

use fmaverify::{
    build_harness, random_fault, CacheMode, CaseId, Fingerprint, HarnessOptions, ProofCache,
    RunConfig, SchedulePolicy, Session, ToJson, Verdict,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::Signal;
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
    let cfg = tiny();
    let op = FpuOp::Mul;
    let case = CaseId::Monolithic;
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let clean_parts = h.case_constraint_parts(op, case);
    let policy = SchedulePolicy::from_config(&RunConfig::default());
    let ladder = policy.ladder(op, case);

    let clean_fp = Fingerprint::compute(&h, op, case, &clean_parts, ladder);
    let same_fp = Fingerprint::compute(&h, op, case, &clean_parts, ladder);
    assert_eq!(clean_fp, same_fp, "fingerprints must be deterministic");

    // Flip one gate in the miter's cone. `inject_fault` rebuilds the
    // netlist, so the miter and constraint parts are recovered by name.
    // The default harness is combinational, so the fault lands in the
    // same-cycle COI that the fingerprint hashes.
    for (i, p) in clean_parts.iter().enumerate() {
        h.netlist.probe(format!("fp#{i}"), *p);
    }
    let (mutated, _fault) = random_fault(&h.netlist, &[h.miter], 7);
    h.miter = mutated.find_output("miter").expect("miter output");
    let faulty_parts: Vec<Signal> = (0..clean_parts.len())
        .map(|i| mutated.find_probe(&format!("fp#{i}")).expect("probe"))
        .collect();
    h.netlist = mutated;

    let faulty_fp = Fingerprint::compute(&h, op, case, &faulty_parts, ladder);
    assert_ne!(
        clean_fp, faulty_fp,
        "a mutated netlist must invalidate the cache"
    );
}

#[test]
fn cached_failure_replays_counterexample_on_mutant() {
    let dir = TempDir::new("mutant");
    // Prove the clean design once to populate the cache...
    let clean = session(&dir, CacheMode::ReadWrite).run(FpuOp::Mul);
    assert!(clean.all_hold());

    // ...then verify a mutated design with the same cache: the case must
    // MISS (different fingerprint) and re-prove rather than replay the
    // clean design's proof.
    let cfg = tiny();
    let op = FpuOp::Mul;
    let case = CaseId::Monolithic;
    let mut harness = build_harness(&cfg, HarnessOptions::default());
    let parts = harness.case_constraint_parts(op, case);
    for (i, p) in parts.iter().enumerate() {
        harness.netlist.probe(format!("mutant#{i}"), *p);
    }
    let (mutated, _fault) = random_fault(&harness.netlist, &[harness.miter], 11);
    harness.miter = mutated.find_output("miter").expect("miter output");
    let parts: Vec<Signal> = (0..parts.len())
        .map(|i| mutated.find_probe(&format!("mutant#{i}")).expect("probe"))
        .collect();
    harness.netlist = mutated;
    let constraints = vec![(case, parts)];

    let cold = session(&dir, CacheMode::ReadWrite).run_prepared(&harness, op, &constraints);
    assert!(
        cold.iter().all(|r| !r.cached),
        "mutant design must not reuse clean-design proofs"
    );

    // A rerun of the *same* mutant replays its verdict — including any
    // failure verdict's counterexample — from the cache.
    let warm = session(&dir, CacheMode::ReadWrite).run_prepared(&harness, op, &constraints);
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.cached, "mutant rerun must replay from cache");
        assert_eq!(c.verdict, w.verdict);
        if c.verdict == Verdict::Fails {
            let c_cex = c.counterexample.as_ref().expect("cold counterexample");
            let w_cex = w.counterexample.as_ref().expect("warm counterexample");
            assert_eq!(c_cex.to_json().render(), w_cex.to_json().render());
        }
    }
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

#[test]
fn shared_cache_handle_serves_multiple_sessions() {
    let dir = TempDir::new("shared");
    let cache = Arc::new(ProofCache::open(&dir.0, CacheMode::ReadWrite));
    let cfg = tiny();
    let cold = Session::new(&cfg).cache(cache.clone()).run(FpuOp::Mul);
    assert!(cold.all_hold());
    let warm = Session::new(&cfg).cache(cache.clone()).run(FpuOp::Mul);
    assert!(warm.results.iter().all(|r| r.cached));
    let stats = cache.stats();
    assert!(stats.hits >= warm.results.len() as u64);
    assert!(stats.stores >= cold.results.len() as u64);
    assert!(cold.results.iter().all(|r| r.verdict == Verdict::Holds));
}
