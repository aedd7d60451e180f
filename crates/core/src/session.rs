//! The [`Session`] facade: one builder-style entry point for every
//! verification flow in the crate.
//!
//! A `Session` holds the FPU configuration, one [`RunConfig`], the
//! cancellation token, the opened proof cache and an optional
//! [`SchedulePolicy`] override. It is configured once and used for many
//! runs:
//!
//! ```
//! use fmaverify::prelude::*;
//!
//! let cfg = FpuConfig {
//!     format: FpFormat::new(3, 2),
//!     denormals: DenormalMode::FlushToZero,
//! };
//! let report = Session::new(&cfg)
//!     .configure(RunConfig {
//!         threads: 2,
//!         ..RunConfig::default()
//!     })
//!     .run(FpuOp::Mul);
//! assert!(report.all_hold());
//! ```
//!
//! Attach a [`Tracer`](crate::Tracer) to stream JSONL telemetry for any
//! run:
//!
//! ```no_run
//! use fmaverify::prelude::*;
//!
//! let cfg = FpuConfig::double_ftz();
//! let tracer = Tracer::to_jsonl_file("results/fma.trace.jsonl").unwrap();
//! let report = Session::new(&cfg)
//!     .configure(RunConfig::default().tracer(tracer))
//!     .run(FpuOp::Fma);
//! # let _ = report;
//! ```

use std::sync::Arc;
use std::time::Instant;

use fmaverify_fpu::{FpuConfig, FpuOp};
use fmaverify_netlist::Signal;

use crate::cache::{CacheStats, ProofCache};
use crate::cases::{enumerate_cases, CaseId};
use crate::config::RunConfig;
use crate::harness::{build_harness, Harness};
use crate::json::JsonValue;
use crate::runner::{
    schedule_cases, CancellationToken, CaseResult, InstructionReport, SchedulePolicy,
};
use crate::sequential::{engine_view, probe_constraints};
use crate::trace::{Counter, Span, SpanKind};

/// A configured verification session: FPU configuration, run
/// configuration, cancellation token, proof cache, and an optional
/// [`SchedulePolicy`] override.
///
/// Construct with [`Session::new`], chain builder methods, then call one of
/// the runners ([`Session::run`], [`Session::run_prepared`]). The session
/// is reusable: every runner borrows `&self`, so one session can drive many
/// instructions with identical settings.
#[derive(Clone, Debug)]
pub struct Session {
    cfg: FpuConfig,
    pub(crate) config: RunConfig,
    pub(crate) cancel: CancellationToken,
    pub(crate) cache: Option<Arc<ProofCache>>,
    policy: Option<SchedulePolicy>,
}

impl Session {
    /// A session for `cfg` with the default [`RunConfig`] and the default
    /// (paper) engine policy.
    pub fn new(cfg: &FpuConfig) -> Session {
        Session {
            cfg: *cfg,
            config: RunConfig::default(),
            cancel: CancellationToken::new(),
            cache: None,
            policy: None,
        }
    }

    /// Applies a typed [`RunConfig`] — budgets, threads, tracer, proof
    /// cache — in one call, opening the proof cache it asks for. This is
    /// the way to configure a session from the environment:
    ///
    /// ```no_run
    /// use fmaverify::prelude::*;
    ///
    /// let cfg = FpuConfig::double_ftz();
    /// let session = Session::new(&cfg).configure(RunConfig::from_env());
    /// # let _ = session;
    /// ```
    pub fn configure(mut self, config: RunConfig) -> Session {
        self.cache = config.open_cache();
        self.config = config;
        self
    }

    /// Attaches an already-open proof cache, shared with other sessions
    /// (replayed verdicts are marked [`CaseResult::cached`]).
    pub fn cache(mut self, cache: Arc<ProofCache>) -> Session {
        self.cache = Some(cache);
        self
    }

    /// Installs an external cancellation token, checked before every case.
    pub fn cancel(mut self, token: CancellationToken) -> Session {
        self.cancel = token;
        self
    }

    /// Overrides the engine policy (which ladder runs for which case
    /// class). Without this the policy is derived from the run
    /// configuration, which reproduces the paper's BDD/SAT assignment.
    pub fn policy(mut self, policy: SchedulePolicy) -> Session {
        self.policy = Some(policy);
        self
    }

    /// The session's FPU configuration.
    pub fn config(&self) -> &FpuConfig {
        &self.cfg
    }

    /// The effective policy: the explicit override if one was set, else the
    /// policy derived from the run configuration.
    pub fn effective_policy(&self) -> SchedulePolicy {
        self.policy
            .clone()
            .unwrap_or_else(|| SchedulePolicy::from_config(&self.config))
    }

    /// Verifies one instruction across all of its cases: builds the
    /// harness, enumerates and constrains the cases, and runs them on the
    /// work-stealing pool.
    ///
    /// Constraints for all cases are materialized in the shared netlist
    /// first and named as probes ([`crate::probe_constraints`]); the
    /// engines then check the harness's [`crate::engine_view`], in parallel
    /// over its read-only netlist. For a pipelined harness
    /// ([`crate::HarnessOptions::pipeline`]) that view is unrolled to the
    /// latency, so the engines check the miter at the result-valid cycle; a
    /// combinational one passes through. When a tracer is configured, the
    /// whole run is bracketed by a `run` span with `op` children for
    /// harness construction, constraint generation and the engine view,
    /// and a totals event is emitted at the end.
    pub fn run(&self, op: FpuOp) -> InstructionReport {
        let start = Instant::now();
        let tracer = &self.config.tracer;
        let mut run_span = tracer.span(SpanKind::Run, || format!("verify:{op:?}"));
        let mut harness = {
            let _span = run_span.child(SpanKind::Op, || "build_harness".into());
            build_harness(&self.cfg, self.config.harness.clone())
        };
        let probes = {
            let _span = run_span.child(SpanKind::Op, || "constraints".into());
            probe_constraints(&mut harness, op, &enumerate_cases(&self.cfg, op))
        };
        let (harness, constraints) = {
            let _span = run_span.child(SpanKind::Op, || "engine_view".into());
            // The view takes the netlist over: no copy, and the shadowed
            // harness keeps an empty one.
            let netlist = std::mem::take(&mut harness.netlist);
            engine_view(&harness, netlist, &probes)
        };
        let cache_before = self.cache.as_ref().map(|c| c.stats());
        let results = schedule_cases(
            &harness,
            op,
            &constraints,
            self,
            &self.effective_policy(),
            run_span.parent_id(),
        );
        let accumulated = results.iter().map(|r| r.duration).sum();
        run_span.field("op", JsonValue::string(format!("{op:?}")));
        run_span.field("cases", JsonValue::int(results.len() as u64));
        run_span.field(
            "all_hold",
            JsonValue::Bool(results.iter().all(|r| r.holds())),
        );
        run_span.field(
            "cached",
            JsonValue::int(results.iter().filter(|r| r.cached).count() as u64),
        );
        self.finish_run(run_span, &results, cache_before);
        InstructionReport {
            op,
            results,
            wall: start.elapsed(),
            accumulated,
        }
    }

    /// Runs pre-built `(case, constraint)` pairs on the work-stealing pool
    /// — for callers that build or modify the harness themselves (fault
    /// injection, custom case splits). The run gets its own `run` span and
    /// end-of-run totals event.
    ///
    /// The harness must be combinational: turn a pipelined one (or a
    /// mutant of one) into its unrolled view first
    /// ([`crate::probe_constraints`], then [`crate::engine_view`]). Every
    /// case of a netlist that still has registers gets
    /// [`crate::Verdict::Error`] with [`crate::Error::SequentialNetlist`].
    pub fn run_prepared(
        &self,
        harness: &Harness,
        op: FpuOp,
        constraints: &[(CaseId, Vec<Signal>)],
    ) -> Vec<CaseResult> {
        let tracer = &self.config.tracer;
        let mut run_span = tracer.span(SpanKind::Run, || format!("cases:{op:?}"));
        let cache_before = self.cache.as_ref().map(|c| c.stats());
        let results = schedule_cases(
            harness,
            op,
            constraints,
            self,
            &self.effective_policy(),
            run_span.parent_id(),
        );
        run_span.field("cases", JsonValue::int(results.len() as u64));
        self.finish_run(run_span, &results, cache_before);
        results
    }

    /// The end of every scheduled run: records the run's completed cases
    /// and its proof-cache activity (the delta since `cache_before`) on the
    /// run span, closes it, persists pending cache stores, and emits the
    /// totals.
    fn finish_run(
        &self,
        mut run_span: Span,
        results: &[CaseResult],
        cache_before: Option<CacheStats>,
    ) {
        run_span.record(Counter::SchedCasesCompleted, results.len() as u64);
        if let (Some(cache), Some(before)) = (&self.cache, cache_before) {
            let after = cache.stats();
            run_span.record(Counter::CacheHits, after.hits.saturating_sub(before.hits));
            run_span.record(
                Counter::CacheMisses,
                after.misses.saturating_sub(before.misses),
            );
            run_span.record(
                Counter::CacheStores,
                after.stores.saturating_sub(before.stores),
            );
        }
        drop(run_span);
        if let Some(cache) = &self.cache {
            cache.flush();
        }
        self.config.tracer.emit_totals();
        self.config.tracer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_fpu::DenormalMode;
    use fmaverify_softfloat::FpFormat;

    fn tiny_cfg() -> FpuConfig {
        FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        }
    }

    #[test]
    fn session_verifies_tiny_mul() {
        let report = Session::new(&tiny_cfg())
            .configure(RunConfig {
                threads: 2,
                ..RunConfig::default()
            })
            .run(FpuOp::Mul);
        assert!(report.all_hold());
    }

    #[test]
    fn explicit_policy_overrides_derived() {
        let session = Session::new(&tiny_cfg()).configure(RunConfig {
            node_budget: Some(7),
            ..RunConfig::default()
        });
        let derived = session.effective_policy();
        assert_eq!(derived.overlap[0].budget.node_limit, Some(7));
        let custom = SchedulePolicy::from_config(&RunConfig::default());
        let session = session.policy(custom);
        assert_eq!(
            session.effective_policy().overlap[0].budget.node_limit,
            None
        );
    }
}
