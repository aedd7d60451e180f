//! **Experiment C1 — incremental verification: warm vs cold proof cache**.
//!
//! The paper's regression re-proves all 585 cases on every run. With the
//! content-addressed proof cache (DESIGN.md §9) a rerun against an
//! unchanged design replays every verdict from disk: this experiment runs
//! the Table-1 sweep (add, mult, FMA) twice against a fresh cache
//! directory and checks the incremental-verification contract:
//!
//! * the warm rerun is 100% cache hits,
//! * warm verdicts are byte-identical to cold verdicts, and
//! * warm wall time is at least 5× lower than cold (skipped below a small
//!   cold-time floor, where process noise dominates).

use std::time::Duration;

use fmaverify::{summarize, CacheMode, JsonValue, RunConfig, Session, ToJson};
use fmaverify_bench::{banner, bench_config, compare, dur, maybe_write_json, run_config_from_env};
use fmaverify_fpu::FpuOp;

fn main() {
    banner(
        "cache_warm",
        "incremental verification: warm cache rerun of the Table-1 sweep",
    );
    let cfg = bench_config();
    let ops = [FpuOp::Add, FpuOp::Mul, FpuOp::Fma];

    // A fresh cache directory per invocation so the "cold" run is honest.
    let cache_dir =
        std::env::temp_dir().join(format!("fmaverify-cache-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let config = RunConfig {
        cache_mode: CacheMode::ReadWrite,
        cache_dir: cache_dir.clone(),
        ..run_config_from_env("cache_warm")
    };

    // Cold: empty cache, every case runs its engines (and is stored).
    let cold_session = Session::new(&cfg).configure(config.clone());
    let cold: Vec<_> = ops.iter().map(|&op| cold_session.run(op)).collect();
    println!("cold run:");
    for report in &cold {
        println!("  {}", summarize(report));
        assert!(report.all_hold(), "{:?}", report.first_failure());
        assert!(
            report.results.iter().all(|r| !r.cached),
            "cold run must not hit the fresh cache"
        );
    }

    // Warm: a new session re-opens the now-populated cache.
    let warm_session = Session::new(&cfg).configure(config);
    let warm: Vec<_> = ops.iter().map(|&op| warm_session.run(op)).collect();
    println!("warm run:");
    for report in &warm {
        println!("  {}", summarize(report));
    }

    // Contract: 100% hits, byte-identical verdicts.
    let mut cases = 0usize;
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.results.len(), w.results.len());
        for (cr, wr) in c.results.iter().zip(&w.results) {
            cases += 1;
            assert!(wr.cached, "warm run missed {:?} of {:?}", wr.case, wr.op);
            assert_eq!(
                cr.verdict.to_json().render(),
                wr.verdict.to_json().render(),
                "verdict drift on {:?} of {:?}",
                cr.case,
                cr.op
            );
            assert_eq!(cr.engine(), wr.engine());
        }
    }

    let cold_wall: Duration = cold.iter().map(|r| r.wall).sum();
    let warm_wall: Duration = warm.iter().map(|r| r.wall).sum();
    let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    println!();
    compare(
        "warm rerun is 100% cache hits",
        "all sub-proofs reused",
        &format!("{cases}/{cases} cases replayed"),
        true,
    );
    compare(
        "warm rerun >= 5x faster",
        "near-instant replay",
        &format!(
            "cold {} vs warm {} ({speedup:.1}x)",
            dur(cold_wall),
            dur(warm_wall)
        ),
        speedup >= 5.0,
    );
    // Below ~50ms of cold work the ratio measures process noise, not the
    // cache; the contract is asserted on any meaningful run.
    if cold_wall >= Duration::from_millis(50) {
        assert!(
            speedup >= 5.0,
            "warm rerun only {speedup:.1}x faster (cold {cold_wall:?}, warm {warm_wall:?})"
        );
    }

    maybe_write_json("cache_warm", || {
        JsonValue::object(vec![
            ("cases", JsonValue::int(cases as u64)),
            (
                "cold_wall_seconds",
                JsonValue::Number(cold_wall.as_secs_f64()),
            ),
            (
                "warm_wall_seconds",
                JsonValue::Number(warm_wall.as_secs_f64()),
            ),
            ("speedup", JsonValue::Number(speedup)),
            (
                "warm_reports",
                JsonValue::Array(warm.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    });
    let _ = std::fs::remove_dir_all(&cache_dir);
}
