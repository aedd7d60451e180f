//! `fmaverify` — automatic formal verification of fused-multiply-add FPUs.
//!
//! A from-scratch reproduction of Jacobi, Weber, Paruthi & Baumgartner,
//! *Automatic Formal Verification of Fused-Multiply-Add FPUs* (DATE 2005).
//! The crate verifies a gate-level implementation FPU against a simple
//! reference FPU derived from the architectural specification, using only
//! automatic engines:
//!
//! * [`harness`] — the driver: both FPUs in one netlist, a miter over their
//!   results and flags, multiplier isolation via constrained `S'`,`T'`
//!   pseudo-inputs (Figure 1);
//! * [`cases`] — the 586-case split at double precision (δ cases, `C_sha`
//!   sub-cases, far-out), and the quadratic §6 extension for denormal
//!   operands;
//! * [`engine`] — the unified [`CaseEngine`] trait: every decision
//!   procedure returns one [`engine::EngineOutcome`] (holds /
//!   counterexample / budget-exceeded / error) with uniform
//!   [`engine::EngineStats`];
//! * [`engine_bdd`] / [`engine_sat`] — BDD symbolic simulation with
//!   care-set minimization and structural SAT on a combinational netlist
//!   (a pipelined harness is unrolled first), both behind the trait;
//! * [`order`] — the paper's static variable orders;
//! * [`isolation`] — the multiplier-isolation soundness obligation and the
//!   automatic derivation of the implementation-specific `S'`,`T'` rules;
//! * [`completeness`] — the tautology proof that the case split covers the
//!   whole input space;
//! * [`session`] — the [`Session`] facade: one builder-style entry point
//!   for every verification flow;
//! * [`config`] — the typed [`RunConfig`]: every tuning knob (budgets,
//!   threads, tracer, cache mode) in one struct with a single
//!   environment reader;
//! * [`cache`] — the content-addressed proof cache: case verdicts keyed by
//!   a structural hash of the analyzed cone, replayed on later runs for
//!   incremental verification;
//! * [`runner`] / [`report`] — the work-stealing scheduler with per-case
//!   budgets, [`runner::SchedulePolicy`] escalation ladders and
//!   cancellation, plus the one Table-1 fold ([`report::table1_rows`]);
//! * [`trace`] — the telemetry layer: hierarchical spans that each carry
//!   the counters of their own work, JSONL event traces, and run totals
//!   folded from the spans;
//! * [`error`] — the crate-wide [`Error`] type carried by failed cases;
//! * [`json`] — machine-readable (JSON) result serialization, emitter and
//!   parser;
//! * [`cec`] — combinational equivalence checking via SAT sweeping;
//! * [`sequential`] — the one way a pipelined harness or a mutant reaches
//!   the engines: constraints named as probes, re-located in the
//!   (unrolled) netlist the engines check;
//! * [`mutate`] — fault injection for verifying the verifier: the one
//!   fault-site rule ([`fault_targets`]) and the single-gate mutators.
//!
//! # Examples
//!
//! Verify the multiply instruction of a tiny-format FPU end to end:
//!
//! ```
//! use fmaverify::prelude::*;
//!
//! let cfg = FpuConfig {
//!     format: FpFormat::new(3, 2),
//!     denormals: DenormalMode::FlushToZero,
//! };
//! let report = Session::new(&cfg).run(FpuOp::Mul);
//! assert!(report.all_hold());
//! ```
//!
//! The same run with telemetry captured in memory: one `case` span per
//! case, with the engine counters on its `stage` children:
//!
//! ```
//! use fmaverify::prelude::*;
//! use fmaverify::TraceEvent;
//!
//! let cfg = FpuConfig {
//!     format: FpFormat::new(3, 2),
//!     denormals: DenormalMode::FlushToZero,
//! };
//! let (tracer, sink) = Tracer::in_memory();
//! let report = Session::new(&cfg)
//!     .configure(RunConfig::default().tracer(tracer))
//!     .run(FpuOp::Mul);
//! let case_spans = sink
//!     .events()
//!     .iter()
//!     .filter(|e| matches!(e, TraceEvent::SpanEnd { kind: SpanKind::Case, .. }))
//!     .count();
//! assert_eq!(case_spans, report.results.len());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod campaign;
pub mod cases;
pub mod cec;
pub mod completeness;
pub mod config;
pub mod engine;
pub mod engine_bdd;
pub mod engine_sat;
pub mod error;
pub mod harness;
pub mod isolation;
pub mod json;
pub mod mutate;
pub mod order;
pub mod report;
pub mod runner;
pub mod semi_formal;
pub mod sequential;
pub mod session;
pub mod trace;

// Re-export the companion crates' primary types so downstream users can
// depend on `fmaverify` alone.
pub use fmaverify_fpu::{DenormalMode, FpuConfig, FpuInputs, FpuOp, MultiplierMode, PipelineMode};
pub use fmaverify_softfloat::{FpFormat, RoundingMode};

pub use cache::{
    CacheMode, CacheStats, CachedCase, Fingerprint, ProofCache, CACHE_SCHEMA_VERSION,
    ENGINE_REVISION,
};
pub use campaign::{
    arbitrate_kill, campaign_harness, run_campaign, CampaignReport, MutantOutcome, MutantStatus,
};
pub use cases::{cancellation_deltas, enumerate_cases, CaseClass, CaseId, ShaCase};
pub use cec::{check_equivalence, CecResult};
pub use completeness::{prove_completeness, CompletenessResult};
pub use config::{RunConfig, DEFAULT_CACHE_DIR};
pub use engine::{
    BddCaseEngine, CaseEngine, EngineBudget, EngineKind, EngineOutcome, EngineStats, EngineVerdict,
    SatCaseEngine,
};
pub use engine_bdd::{check_miter_bdd_parts, BddEngineOptions, BddOutcome, Minimize};
pub use engine_sat::{check_miter_sat_parts, prove_tautology, SatEngineOptions, SatOutcome};
pub use error::Error;
pub use harness::{
    architected_delta, build_harness, multiplier_property, Harness, HarnessOptions, StConstant,
};
pub use isolation::{
    derive_st_constants, derive_st_constants_for, prove_multiplier_soundness,
    prove_multiplier_soundness_for, SoundnessResult,
};
pub use json::{JsonValue, ToJson, SCHEMA_VERSION};
pub use mutate::{fault_targets, inject_fault, Mutation, MutationKind};
pub use order::{naive_order, paper_order};
pub use report::{render_table1, summarize, table1_rows, TableRow};
pub use runner::{
    CancellationToken, CaseAttempt, CaseResult, CounterExample, EngineStage, InstructionReport,
    SchedulePolicy, Verdict,
};
pub use semi_formal::{semi_formal_check, SemiFormalOutcome};
pub use sequential::{
    admitting_cases, engine_view, find_constraints, probe_constraints, unroll_harness,
    UnrolledHarness,
};
pub use session::Session;
pub use trace::{Counter, MetricSet, Span, SpanKind, TraceEvent, Tracer};

/// Everything a typical verification driver needs, in one import.
///
/// ```
/// use fmaverify::prelude::*;
/// ```
pub mod prelude {
    pub use crate::cache::{CacheMode, ProofCache};
    pub use crate::campaign::{run_campaign, CampaignReport, MutantStatus};
    pub use crate::cases::{CaseClass, CaseId};
    pub use crate::config::RunConfig;
    pub use crate::engine::{EngineBudget, EngineKind};
    pub use crate::engine_bdd::Minimize;
    pub use crate::error::Error;
    pub use crate::harness::HarnessOptions;
    pub use crate::json::ToJson;
    pub use crate::runner::{
        CancellationToken, CaseResult, InstructionReport, SchedulePolicy, Verdict,
    };
    pub use crate::session::Session;
    pub use crate::trace::{Counter, SpanKind, Tracer};
    pub use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
    pub use fmaverify_softfloat::{FpFormat, RoundingMode};
}
