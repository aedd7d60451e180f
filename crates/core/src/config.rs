//! The typed run configuration: every tuning knob in one struct.
//!
//! [`RunConfig`] holds the engine budgets, scheduler settings, telemetry
//! pipeline and proof-cache mode in one plain-data struct with a single
//! environment reader, [`RunConfig::from_env`];
//! [`crate::Session::configure`] applies it.
//!
//! ```no_run
//! use fmaverify::prelude::*;
//!
//! let cfg = FpuConfig::double_ftz();
//! let report = Session::new(&cfg)
//!     .configure(RunConfig::from_env())
//!     .run(FpuOp::Fma);
//! # let _ = report;
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use crate::cache::{CacheMode, ProofCache};
use crate::engine_bdd::{BddEngineOptions, Minimize};
use crate::harness::HarnessOptions;
use crate::trace::Tracer;

/// The conventional on-disk location of the proof cache.
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// One typed bundle of every run-tuning knob.
///
/// Plain data plus a [`Tracer`]: build one with [`RunConfig::default`] or
/// [`RunConfig::from_env`], adjust fields directly, and hand it to
/// [`crate::Session::configure`] (which also opens the proof cache when
/// [`RunConfig::cache_mode`] asks for one).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker threads for the case scheduler (0 = all available cores).
    pub threads: usize,
    /// Per-case BDD node budget (`None` = unbounded first rung).
    pub node_budget: Option<usize>,
    /// Per-case SAT conflict budget (`None` = unbounded first rung).
    pub conflict_budget: Option<u64>,
    /// Run redundancy removal before first-rung SAT cases.
    pub sweep_before_sat: bool,
    /// Garbage-collection threshold for the BDD engine.
    pub gc_threshold: usize,
    /// Computed-cache size cap (entries) for each BDD case's manager. The
    /// cache is lossy and direct-mapped: a smaller cap trades recompute
    /// work for memory without ever changing results.
    pub bdd_cache_size: usize,
    /// Retry a budget-exceeded case on the other engine class.
    pub escalate: bool,
    /// Cancel the remaining cases as soon as one counterexample is found.
    pub stop_on_failure: bool,
    /// BDD care-set minimization strategy.
    pub minimize: Minimize,
    /// Harness construction options.
    pub harness: HarnessOptions,
    /// Telemetry pipeline (default: disabled).
    pub tracer: Tracer,
    /// Proof-cache mode (default: [`CacheMode::Off`]).
    pub cache_mode: CacheMode,
    /// Proof-cache directory (default: [`DEFAULT_CACHE_DIR`]).
    pub cache_dir: PathBuf,
    /// Mutation campaigns: cap on the number of verified mutants (`None` =
    /// exhaustive over the candidate fault space).
    pub mutants: Option<usize>,
    /// Mutation campaigns: RNG seed for mutant sampling and the
    /// observability screen.
    pub mutation_seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        let bdd = BddEngineOptions::default();
        RunConfig {
            threads: 0,
            node_budget: None,
            conflict_budget: None,
            sweep_before_sat: false,
            gc_threshold: bdd.gc_threshold,
            bdd_cache_size: bdd.cache_size,
            escalate: true,
            stop_on_failure: false,
            minimize: bdd.minimize,
            harness: HarnessOptions::default(),
            tracer: Tracer::disabled(),
            cache_mode: CacheMode::Off,
            cache_dir: PathBuf::from(DEFAULT_CACHE_DIR),
            mutants: None,
            mutation_seed: 0xBADC0DE,
        }
    }
}

impl RunConfig {
    /// Reads the configuration from the `FMAVERIFY_*` environment, falling
    /// back to [`RunConfig::default`] field by field:
    ///
    /// | variable | field | accepted values |
    /// |---|---|---|
    /// | `FMAVERIFY_THREADS` | [`RunConfig::threads`] | integer (0 = all cores) |
    /// | `FMAVERIFY_NODE_LIMIT` | [`RunConfig::node_budget`] | integer (0 = unbounded) |
    /// | `FMAVERIFY_CONFLICT_LIMIT` | [`RunConfig::conflict_budget`] | integer (0 = unbounded) |
    /// | `FMAVERIFY_SWEEP` | [`RunConfig::sweep_before_sat`] | `1`/`0` |
    /// | `FMAVERIFY_GC_THRESHOLD` | [`RunConfig::gc_threshold`] | integer |
    /// | `FMAVERIFY_BDD_CACHE_SIZE` | [`RunConfig::bdd_cache_size`] | integer (entries) |
    /// | `FMAVERIFY_ESCALATE` | [`RunConfig::escalate`] | `1`/`0` |
    /// | `FMAVERIFY_STOP_ON_FAILURE` | [`RunConfig::stop_on_failure`] | `1`/`0` |
    /// | `FMAVERIFY_CACHE` | [`RunConfig::cache_mode`] | `off`, `ro`, `rw` |
    /// | `FMAVERIFY_CACHE_DIR` | [`RunConfig::cache_dir`] | path |
    /// | `FMAVERIFY_MUTANTS` | [`RunConfig::mutants`] | integer (0 = exhaustive) |
    /// | `FMAVERIFY_MUTATION_SEED` | [`RunConfig::mutation_seed`] | integer |
    ///
    /// Unparseable values fall back to the default rather than erroring:
    /// these are tuning knobs, not program input.
    pub fn from_env() -> RunConfig {
        let d = RunConfig::default();
        RunConfig {
            threads: env_usize("FMAVERIFY_THREADS").unwrap_or(d.threads),
            node_budget: env_limit("FMAVERIFY_NODE_LIMIT").unwrap_or(d.node_budget),
            conflict_budget: env_limit("FMAVERIFY_CONFLICT_LIMIT")
                .map(|limit| limit.map(|n| n as u64))
                .unwrap_or(d.conflict_budget),
            sweep_before_sat: env_flag("FMAVERIFY_SWEEP").unwrap_or(d.sweep_before_sat),
            gc_threshold: env_usize("FMAVERIFY_GC_THRESHOLD").unwrap_or(d.gc_threshold),
            bdd_cache_size: env_usize("FMAVERIFY_BDD_CACHE_SIZE").unwrap_or(d.bdd_cache_size),
            escalate: env_flag("FMAVERIFY_ESCALATE").unwrap_or(d.escalate),
            stop_on_failure: env_flag("FMAVERIFY_STOP_ON_FAILURE").unwrap_or(d.stop_on_failure),
            cache_mode: std::env::var("FMAVERIFY_CACHE")
                .ok()
                .and_then(|v| CacheMode::parse(&v))
                .unwrap_or(d.cache_mode),
            cache_dir: std::env::var_os("FMAVERIFY_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or(d.cache_dir),
            mutants: env_limit("FMAVERIFY_MUTANTS").unwrap_or(d.mutants),
            mutation_seed: std::env::var("FMAVERIFY_MUTATION_SEED")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(d.mutation_seed),
            ..d
        }
    }

    /// Replaces the telemetry pipeline (builder-style).
    pub fn tracer(mut self, tracer: Tracer) -> RunConfig {
        self.tracer = tracer;
        self
    }

    /// Sets the proof-cache mode (builder-style), keeping the directory.
    pub fn cache(mut self, mode: CacheMode) -> RunConfig {
        self.cache_mode = mode;
        self
    }

    /// Opens the proof cache this configuration asks for (`None` when the
    /// mode is [`CacheMode::Off`]).
    pub fn open_cache(&self) -> Option<Arc<ProofCache>> {
        self.cache_mode
            .is_enabled()
            .then(|| Arc::new(ProofCache::open(&self.cache_dir, self.cache_mode)))
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Budget-style variable: absent ↦ `None` (fall back to the default),
/// `0` ↦ `Some(None)` (explicitly unbounded), `n` ↦ `Some(Some(n))`.
fn env_limit(name: &str) -> Option<Option<usize>> {
    let n: usize = std::env::var(name).ok()?.trim().parse().ok()?;
    Some((n > 0).then_some(n))
}

fn env_flag(name: &str) -> Option<bool> {
    match std::env::var(name).ok()?.trim() {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_mode_builder_opens_cache() {
        assert!(RunConfig::default().open_cache().is_none());
        let dir =
            std::env::temp_dir().join(format!("fmaverify-config-test-{}", std::process::id()));
        let rc = RunConfig {
            cache_dir: dir.clone(),
            ..RunConfig::default()
        }
        .cache(CacheMode::ReadWrite);
        let cache = rc.open_cache().expect("cache opened");
        assert_eq!(cache.mode(), CacheMode::ReadWrite);
        assert_eq!(cache.dir(), dir.as_path());
        // Opening is lazy about the directory: nothing is created until a
        // store is flushed.
        assert!(!dir.exists());
    }
}
