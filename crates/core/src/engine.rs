//! The unified case-engine abstraction.
//!
//! The paper discharges each case of the split with whichever automatic
//! engine fits it — BDD symbolic simulation for the overlap cases, SAT for
//! the far-out cases and the multiplier — and reports per-case resources.
//! This module gives every engine one face: [`CaseEngine::check`] takes a
//! harness, a case, its constraint and a [`EngineBudget`], and returns an
//! [`EngineOutcome`] whose [`EngineVerdict`] distinguishes *holds*,
//! *counterexample*, *budget exceeded* and *engine error*, with uniform
//! [`EngineStats`] (peak BDD nodes, SAT conflicts, cone size, wall time).
//!
//! The scheduler in [`crate::runner`] never names a concrete engine: it
//! walks an escalation ladder of `(engine, budget)` stages (see
//! [`crate::runner::SchedulePolicy`]) until one stage produces a definite
//! verdict.

use std::collections::HashMap;
use std::time::Duration;

use fmaverify_fpu::FpuOp;
use fmaverify_netlist::Signal;

use crate::cases::CaseId;
use crate::engine_bdd::{check_miter_bdd_parts, BddEngineOptions, BddOutcome, Minimize};
use crate::engine_sat::{check_miter_sat_parts, SatEngineOptions};
use crate::error::Error;
use crate::harness::Harness;
use crate::order::paper_order;
use crate::trace::{Counter, MetricSet};

/// Which kind of engine produced a result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// Combinational BDD symbolic simulation.
    Bdd,
    /// Cycle-accurate BDD symbolic simulation of a sequential harness. No
    /// engine reports this kind any more (pipelined harnesses are unrolled
    /// and checked by [`EngineKind::Bdd`]); it stays because the benchmark
    /// package names it, and may change only together with the benchmark.
    BddSequential,
    /// Structural SAT on the (optionally swept) cone.
    Sat,
}

impl EngineKind {
    /// The stable name used in results JSON and proof-cache shards.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Bdd => "bdd",
            EngineKind::BddSequential => "bdd-seq",
            EngineKind::Sat => "sat",
        }
    }

    /// The kind named by [`EngineKind::label`].
    pub fn from_label(label: &str) -> Option<EngineKind> {
        [EngineKind::Bdd, EngineKind::BddSequential, EngineKind::Sat]
            .into_iter()
            .find(|k| k.label() == label)
    }
}

/// Resource limits for one engine attempt. `Default` is unlimited.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineBudget {
    /// Abort a BDD run whose arena exceeds this many live nodes.
    pub node_limit: Option<usize>,
    /// Abort a SAT run after this many conflicts.
    pub conflict_limit: Option<u64>,
}

impl EngineBudget {
    /// No limits: the engine runs to completion.
    pub const UNLIMITED: EngineBudget = EngineBudget {
        node_limit: None,
        conflict_limit: None,
    };
}

/// Uniform per-attempt resource statistics, regardless of engine kind.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Peak allocated BDD nodes (BDD engines only).
    pub peak_bdd_nodes: Option<usize>,
    /// Nodes in the care-set BDD (BDD engines only).
    pub care_nodes: Option<usize>,
    /// Solver conflicts (SAT engine only).
    pub sat_conflicts: Option<u64>,
    /// AND gates in the analyzed cone of influence (SAT engine only;
    /// post-sweep when sweeping is enabled).
    pub coi_ands: Option<usize>,
    /// Wall-clock time of the attempt.
    pub wall: Duration,
    /// Fine-grained operation counters (cache hits, propagations, sweep
    /// merges, …) for the telemetry layer; always collected — the engines
    /// count into their own stats structs and this is a cheap translation.
    pub metrics: MetricSet,
}

/// What one engine attempt concluded.
#[derive(Clone, Debug)]
pub enum EngineVerdict {
    /// The miter is unsatisfiable on the care set: the case holds.
    Holds,
    /// A care-set assignment (by input name) on which the miter fires.
    Counterexample(HashMap<String, bool>),
    /// The budget was exhausted before a conclusion; escalate or give up.
    BudgetExceeded,
    /// The engine failed (e.g. panicked); the typed cause says how.
    Error(Error),
}

/// The unified result of one engine attempt.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// The conclusion.
    pub verdict: EngineVerdict,
    /// Resources spent reaching it.
    pub stats: EngineStats,
}

impl EngineOutcome {
    /// An error outcome with empty stats except wall time.
    pub fn error(cause: Error, wall: Duration) -> Self {
        EngineOutcome {
            verdict: EngineVerdict::Error(cause),
            stats: EngineStats {
                wall,
                ..EngineStats::default()
            },
        }
    }
}

/// The [`CaseEngine::name`] of every engine configuration, the names a
/// proof-cache entry may carry.
pub(crate) const ENGINE_NAMES: [&str; 5] = [
    "bdd/constrain",
    "bdd/restrict",
    "bdd/plain",
    "sat",
    "sat/sweep",
];

/// A decision procedure for one case of the split.
///
/// Implementations are stateless (all mutable state lives inside one
/// `check` call), so a single instance can be shared by every scheduler
/// worker thread.
pub trait CaseEngine: Send + Sync {
    /// The engine kind, for reporting.
    fn kind(&self) -> EngineKind;
    /// A short human-readable name (e.g. `"bdd/constrain"`).
    fn name(&self) -> &'static str;
    /// Decides `case` of `op` on `harness` under `constraint_parts`,
    /// spending at most `budget`.
    fn check(
        &self,
        harness: &Harness,
        op: FpuOp,
        case: CaseId,
        constraint_parts: &[Signal],
        budget: &EngineBudget,
    ) -> EngineOutcome;
}

/// BDD symbolic simulation with care-set minimization of a combinational
/// harness (wraps [`check_miter_bdd_parts`]).
#[derive(Clone, Debug)]
pub struct BddCaseEngine {
    /// Minimization strategy.
    pub minimize: Minimize,
    /// Garbage-collection threshold for the node arena.
    pub gc_threshold: usize,
    /// Computed-cache size cap (entries) for each case's manager.
    pub cache_size: usize,
}

impl Default for BddCaseEngine {
    fn default() -> Self {
        let d = BddEngineOptions::default();
        BddCaseEngine {
            minimize: d.minimize,
            gc_threshold: d.gc_threshold,
            cache_size: d.cache_size,
        }
    }
}

impl CaseEngine for BddCaseEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Bdd
    }

    fn name(&self) -> &'static str {
        match self.minimize {
            Minimize::Constrain => "bdd/constrain",
            Minimize::Restrict => "bdd/restrict",
            Minimize::None => "bdd/plain",
        }
    }

    fn check(
        &self,
        harness: &Harness,
        _op: FpuOp,
        case: CaseId,
        constraint_parts: &[Signal],
        budget: &EngineBudget,
    ) -> EngineOutcome {
        let out = check_miter_bdd_parts(
            &harness.netlist,
            harness.miter,
            constraint_parts,
            &BddEngineOptions {
                minimize: self.minimize,
                order: paper_order(harness, case.delta()),
                gc_threshold: self.gc_threshold,
                node_limit: budget.node_limit,
                cache_size: self.cache_size,
            },
        );
        bdd_outcome_to_engine(out)
    }
}

/// Structural SAT with optional redundancy removal
/// (wraps [`check_miter_sat_parts`]).
#[derive(Clone, Debug, Default)]
pub struct SatCaseEngine {
    /// Run SAT sweeping on the cone before solving.
    pub sweep_first: bool,
}

impl CaseEngine for SatCaseEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Sat
    }

    fn name(&self) -> &'static str {
        if self.sweep_first {
            "sat/sweep"
        } else {
            "sat"
        }
    }

    fn check(
        &self,
        harness: &Harness,
        _op: FpuOp,
        _case: CaseId,
        constraint_parts: &[Signal],
        budget: &EngineBudget,
    ) -> EngineOutcome {
        let out = check_miter_sat_parts(
            &harness.netlist,
            harness.miter,
            constraint_parts,
            &SatEngineOptions {
                sweep_first: self.sweep_first,
                conflict_budget: budget.conflict_limit,
            },
        );
        let mut metrics = MetricSet::new();
        metrics.add(Counter::SatDecisions, out.stats.decisions);
        metrics.add(Counter::SatPropagations, out.stats.propagations);
        metrics.add(Counter::SatConflicts, out.stats.conflicts);
        metrics.add(Counter::SatRestarts, out.stats.restarts);
        metrics.add(Counter::SweepMerges, out.sweep_merged as u64);
        metrics.add(Counter::SweepSatCalls, out.sweep_sat_calls as u64);
        metrics.add(Counter::SweepSimRounds, out.sweep_sim_rounds as u64);
        let stats = EngineStats {
            peak_bdd_nodes: None,
            care_nodes: None,
            sat_conflicts: Some(out.stats.conflicts),
            coi_ands: Some(out.cone_ands),
            wall: out.duration,
            metrics,
        };
        let verdict = if out.unknown {
            EngineVerdict::BudgetExceeded
        } else if out.holds {
            EngineVerdict::Holds
        } else {
            match out.counterexample {
                Some(cex) => EngineVerdict::Counterexample(cex),
                None => EngineVerdict::Error(Error::MissingModel {
                    engine: EngineKind::Sat,
                }),
            }
        };
        EngineOutcome { verdict, stats }
    }
}

fn bdd_outcome_to_engine(out: BddOutcome) -> EngineOutcome {
    let m = out.manager_stats;
    let mut metrics = MetricSet::new();
    metrics.add(Counter::BddIteCalls, m.ite_calls);
    metrics.add(Counter::BddCacheHits, m.cache_hits);
    metrics.add(Counter::BddCacheMisses, m.cache_misses);
    metrics.add(Counter::BddNodesAllocated, m.nodes_created);
    metrics.add(Counter::BddPeakLiveNodes, out.peak_nodes as u64);
    metrics.add(Counter::BddGcRuns, m.gc_runs);
    metrics.add(Counter::BddCacheEvictions, m.cache_evictions);
    metrics.add(Counter::BddUniqueProbes, m.unique_probes);
    metrics.add(Counter::BddGcFreed, m.gc_freed);
    metrics.add(Counter::BddCacheOccupancy, m.cache_occupancy as u64);
    let stats = EngineStats {
        peak_bdd_nodes: Some(out.peak_nodes),
        care_nodes: Some(out.care_nodes),
        sat_conflicts: None,
        coi_ands: None,
        wall: out.duration,
        metrics,
    };
    let verdict = if out.aborted {
        EngineVerdict::BudgetExceeded
    } else if out.holds {
        EngineVerdict::Holds
    } else {
        match out.counterexample {
            Some(cex) => EngineVerdict::Counterexample(cex),
            None => EngineVerdict::Error(Error::MissingModel {
                engine: EngineKind::Bdd,
            }),
        }
    };
    EngineOutcome { verdict, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engine_configuration_is_named_in_the_list() {
        let bdd = [Minimize::Constrain, Minimize::Restrict, Minimize::None].map(|minimize| {
            BddCaseEngine {
                minimize,
                ..BddCaseEngine::default()
            }
            .name()
        });
        let sat = [false, true].map(|sweep_first| SatCaseEngine { sweep_first }.name());
        for name in bdd.into_iter().chain(sat) {
            assert!(ENGINE_NAMES.contains(&name), "{name} is not listed");
        }
    }
}
