//! Case orchestration: builds the constraints for every case of an
//! instruction, schedules each onto the engine ladder its class prescribes,
//! runs the cases on a work-stealing thread pool, and collects per-case
//! statistics — the paper's regression that "takes less than a day when
//! running 10 jobs in parallel".
//!
//! Engines are driven exclusively through the [`CaseEngine`] trait; which
//! engine runs, with what budget, and what happens when a budget is
//! exhausted is decided by a [`SchedulePolicy`]: an escalation ladder of
//! `(engine, budget)` stages per case class. The default policy reproduces
//! the paper's assignment (BDD for overlap cases, SAT for far-out and the
//! multiplier) and, when budgets are configured, escalates a blown BDD run
//! to swept SAT and a blown SAT run to unbounded BDD.
//!
//! Results come back in case-enumeration order regardless of which worker
//! finished first, so runs are reproducible; a [`CancellationToken`] lets
//! bug-hunting callers stop the whole sweep as soon as one counterexample
//! is found.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fmaverify_fpu::FpuOp;
use fmaverify_netlist::{BitSim, Netlist, Signal};

use crate::cache::{CachedCase, Fingerprint, ProofCache};
use crate::cases::{CaseClass, CaseId};
use crate::config::RunConfig;
use crate::engine::{
    BddCaseEngine, CaseEngine, EngineBudget, EngineKind, EngineOutcome, EngineStats, EngineVerdict,
    SatCaseEngine,
};
use crate::error::Error;
use crate::harness::Harness;
use crate::json::{JsonValue, ToJson};
use crate::session::Session;
use crate::trace::{Counter, Span, SpanKind, Tracer};

/// A counterexample decoded back to operand values.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// Raw input assignment by input name.
    pub assignment: HashMap<String, bool>,
    /// Operand A bits.
    pub a: u128,
    /// Operand B bits.
    pub b: u128,
    /// Operand C bits.
    pub c: u128,
    /// Opcode.
    pub op: u32,
    /// Rounding-mode code.
    pub rm: u32,
    /// True iff replaying the assignment on the netlist made the miter
    /// fire. A `false` here means the *engine* is buggy: it produced an
    /// assignment the design does not actually fail on.
    pub replay_confirmed: bool,
}

/// Final status of one case after the whole ladder ran.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The case was proved.
    Holds,
    /// A counterexample was found.
    Fails,
    /// Every ladder stage exhausted its budget.
    BudgetExceeded,
    /// Every remaining ladder stage errored (e.g. panicked).
    Error,
    /// The run was canceled before this case was decided.
    Canceled,
}

impl Verdict {
    /// The stable name used in results JSON, traces and proof-cache shards.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Fails => "fails",
            Verdict::BudgetExceeded => "budget-exceeded",
            Verdict::Error => "error",
            Verdict::Canceled => "canceled",
        }
    }

    /// The verdict named by [`Verdict::label`].
    pub fn from_label(label: &str) -> Option<Verdict> {
        [
            Verdict::Holds,
            Verdict::Fails,
            Verdict::BudgetExceeded,
            Verdict::Error,
            Verdict::Canceled,
        ]
        .into_iter()
        .find(|v| v.label() == label)
    }
}

/// One engine attempt on a case (a rung of the escalation ladder).
#[derive(Clone, Debug)]
pub struct CaseAttempt {
    /// The engine kind.
    pub engine: EngineKind,
    /// The engine's short name (e.g. `"bdd/constrain"`, `"sat/sweep"`).
    pub engine_name: &'static str,
    /// The budget the attempt ran under.
    pub budget: EngineBudget,
    /// What the attempt concluded.
    pub verdict: Verdict,
    /// Resources the attempt spent.
    pub stats: EngineStats,
}

/// Per-case verification result.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// The case.
    pub case: CaseId,
    /// The instruction.
    pub op: FpuOp,
    /// The final verdict: the last attempt's, or [`Verdict::Canceled`]
    /// when no attempt ran.
    pub verdict: Verdict,
    /// Counterexample when the verdict is [`Verdict::Fails`].
    pub counterexample: Option<CounterExample>,
    /// Typed engine error when the verdict is [`Verdict::Error`].
    pub error: Option<Error>,
    /// Every attempt in ladder order (length > 1 iff the case escalated).
    /// The last one decided the case, or ran out the ladder; a canceled
    /// case has none.
    pub attempts: Vec<CaseAttempt>,
    /// Time the case spent queued before a worker picked it up (zero for
    /// single-case runs).
    pub queue_latency: Duration,
    /// True if a worker stole this case from a neighbour's queue.
    pub stolen: bool,
    /// True when the verdict was replayed from the proof cache instead of
    /// running any engine this run (`attempts` then describe the original
    /// proving run, while `duration` is the replay time).
    pub cached: bool,
    /// Total wall-clock time across all attempts.
    pub duration: Duration,
}

impl CaseResult {
    /// True iff the case was proved.
    pub fn holds(&self) -> bool {
        self.verdict == Verdict::Holds
    }

    /// Number of escalations (attempts beyond the first).
    pub fn escalations(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// The engine of the deciding (last) attempt; `None` when canceled.
    pub fn engine(&self) -> Option<EngineKind> {
        self.attempts.last().map(|a| a.engine)
    }

    /// Stats of the deciding (last) attempt; `None` when canceled.
    pub fn stats(&self) -> Option<&EngineStats> {
        self.attempts.last().map(|a| &a.stats)
    }

    /// Peak BDD nodes of the deciding attempt, when it was a BDD engine.
    pub fn bdd_peak_nodes(&self) -> Option<usize> {
        self.stats()?.peak_bdd_nodes
    }

    /// SAT conflicts of the deciding attempt, when it was the SAT engine.
    pub fn sat_conflicts(&self) -> Option<u64> {
        self.stats()?.sat_conflicts
    }
}

/// Cooperative stop signal shared by every scheduler worker.
///
/// Cancelling does not interrupt an engine mid-flight; cases not yet
/// started when the token trips are reported as [`Verdict::Canceled`].
#[derive(Clone, Debug, Default)]
pub struct CancellationToken(Arc<AtomicBool>);

impl CancellationToken {
    /// A fresh, un-tripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token; every worker stops picking up new cases.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancellationToken::cancel`] has been called.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One rung of an escalation ladder: an engine plus the budget it may spend.
#[derive(Clone)]
pub struct EngineStage {
    /// The engine.
    pub engine: Arc<dyn CaseEngine>,
    /// Its resource limits.
    pub budget: EngineBudget,
}

impl std::fmt::Debug for EngineStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineStage")
            .field("engine", &self.engine.name())
            .field("budget", &self.budget)
            .finish()
    }
}

/// Which engines run for which case class, in what order, with what
/// budgets.
///
/// The scheduler walks the ladder for a case top to bottom; the first stage
/// returning a definite verdict wins. A stage that exhausts its budget
/// *escalates* to the next; a stage that errors is skipped the same way.
#[derive(Clone, Debug)]
pub struct SchedulePolicy {
    /// Ladder for the overlap cases (with and without cancellation).
    pub overlap: Vec<EngineStage>,
    /// Ladder for the far-out cases, the monolithic multiply check, and
    /// every case of the multiply instruction.
    pub farout: Vec<EngineStage>,
}

impl SchedulePolicy {
    /// The policy a [`RunConfig`] describes: the paper's engine
    /// assignment with budgets from the configuration. A budget implies its
    /// escalation rung: a blown BDD run retries as swept SAT, a blown SAT
    /// run retries as unbounded BDD. (A policy without that rung is built
    /// directly and installed with [`crate::Session::policy`].)
    pub fn from_config(config: &RunConfig) -> Self {
        let bdd = Arc::new(BddCaseEngine {
            minimize: config.minimize,
            gc_threshold: config.gc_threshold,
            cache_size: config.bdd_cache_size,
        });
        let mut overlap = vec![EngineStage {
            engine: bdd.clone(),
            budget: EngineBudget {
                node_limit: config.node_budget,
                conflict_limit: None,
            },
        }];
        if config.node_budget.is_some() {
            overlap.push(EngineStage {
                engine: Arc::new(SatCaseEngine { sweep_first: true }),
                budget: EngineBudget::UNLIMITED,
            });
        }
        let mut farout = vec![EngineStage {
            engine: Arc::new(SatCaseEngine {
                sweep_first: config.sweep_before_sat,
            }),
            budget: EngineBudget {
                node_limit: None,
                conflict_limit: config.conflict_budget,
            },
        }];
        if config.conflict_budget.is_some() {
            farout.push(EngineStage {
                engine: bdd,
                budget: EngineBudget::UNLIMITED,
            });
        }
        SchedulePolicy { overlap, farout }
    }

    /// The ladder driving `case` of `op`.
    pub fn ladder(&self, op: FpuOp, case: CaseId) -> &[EngineStage] {
        match (op, case) {
            // "Satisfiability checking was used to verify the far-out
            // cases"; the multiply instruction is SAT end to end.
            (FpuOp::Mul, _) | (_, CaseId::FarOut) | (_, CaseId::Monolithic) => &self.farout,
            _ => &self.overlap,
        }
    }
}

/// Aggregate report for one instruction.
#[derive(Clone, Debug)]
pub struct InstructionReport {
    /// The instruction.
    pub op: FpuOp,
    /// All per-case results, in case-enumeration order.
    pub results: Vec<CaseResult>,
    /// Total wall-clock time (parallel).
    pub wall: Duration,
    /// Sum of per-case times (the paper's "accumulated run-time").
    pub accumulated: Duration,
}

impl InstructionReport {
    /// True iff every case was proved.
    pub fn all_hold(&self) -> bool {
        self.results.iter().all(|r| r.holds())
    }

    /// The first case with a counterexample, if any.
    pub fn first_failure(&self) -> Option<&CaseResult> {
        self.results.iter().find(|r| r.verdict == Verdict::Fails)
    }

    /// Results belonging to one Table-1 class.
    pub fn class_results(&self, class: CaseClass) -> Vec<&CaseResult> {
        self.results
            .iter()
            .filter(|r| r.case.class() == class)
            .collect()
    }

    /// Number of cases that needed at least one escalation.
    pub fn escalated_cases(&self) -> usize {
        self.results.iter().filter(|r| r.escalations() > 0).count()
    }
}

/// The work-stealing pool.
///
/// Each worker owns a deque seeded round-robin with case indices; an idle
/// worker steals from the back of its neighbours' deques. Since cases are
/// only ever removed, the pool terminates when every deque is empty.
/// Results are returned in `constraints` order regardless of completion
/// order.
///
/// Each case runs under a `case` span parented to `parent`, which carries
/// the case's scheduler telemetry (steals, escalations, queue latency).
pub(crate) fn schedule_cases(
    harness: &Harness,
    op: FpuOp,
    constraints: &[(CaseId, Vec<Signal>)],
    session: &Session,
    policy: &SchedulePolicy,
    parent: Option<u64>,
) -> Vec<CaseResult> {
    let threads = if session.config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        session.config.threads
    };
    let workers = threads.min(constraints.len()).max(1);

    // The engines do not step registers (BDD reads them at reset, SAT as
    // free inputs), so any verdict on a netlist with registers is false.
    let latches = harness.netlist.num_latches();
    if latches > 0 {
        let error = Error::SequentialNetlist { latches };
        return constraints
            .iter()
            .map(|(case, _)| unrun_result(op, *case, Verdict::Error, Some(error.clone())))
            .collect();
    }

    // Seed the per-worker deques round-robin so every worker starts with a
    // spread of case classes (heavy and light cases interleave).
    let queues: Vec<Mutex<std::collections::VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..constraints.len())
                    .filter(|i| i % workers == w)
                    .collect(),
            )
        })
        .collect();
    let results: Vec<Mutex<Option<CaseResult>>> =
        (0..constraints.len()).map(|_| Mutex::new(None)).collect();
    let cancel = &session.cancel;
    let tracer = &session.config.tracer;
    let pool_start = Instant::now();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            scope.spawn(move || {
                while let Some((idx, stolen)) = next_job(w, queues) {
                    let queue_latency = pool_start.elapsed();
                    let (case, constraint) = &constraints[idx];
                    let result = if cancel.is_canceled() {
                        unrun_result(op, *case, Verdict::Canceled, None)
                    } else {
                        let r = run_case(
                            harness,
                            op,
                            *case,
                            constraint,
                            policy.ladder(op, *case),
                            CaseCtx {
                                tracer,
                                cache: session.cache.as_deref(),
                                parent,
                                queue_latency,
                                stolen,
                            },
                        );
                        if session.config.stop_on_failure && r.verdict == Verdict::Fails {
                            cancel.cancel();
                        }
                        r
                    };
                    *results[idx].lock().expect("result slot") = Some(result);
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("all jobs completed")
        })
        .collect()
}

/// Pops a job: first from the worker's own deque (front), then by stealing
/// from the back of the other workers' deques. The flag reports whether the
/// job was stolen.
fn next_job(
    worker: usize,
    queues: &[Mutex<std::collections::VecDeque<usize>>],
) -> Option<(usize, bool)> {
    if let Some(idx) = queues[worker].lock().expect("queue lock").pop_front() {
        return Some((idx, false));
    }
    for off in 1..queues.len() {
        let victim = (worker + off) % queues.len();
        if let Some(idx) = queues[victim].lock().expect("queue lock").pop_back() {
            return Some((idx, true));
        }
    }
    None
}

/// The result of a case no engine ran on: canceled, or rejected with
/// `error`.
pub(crate) fn unrun_result(
    op: FpuOp,
    case: CaseId,
    verdict: Verdict,
    error: Option<Error>,
) -> CaseResult {
    CaseResult {
        case,
        op,
        verdict,
        counterexample: None,
        error,
        attempts: Vec::new(),
        queue_latency: Duration::ZERO,
        stolen: false,
        cached: false,
        duration: Duration::ZERO,
    }
}

/// Ambient context of one case dispatch: where telemetry goes, which proof
/// cache (if any) to consult, and the scheduler provenance of the dispatch.
struct CaseCtx<'a> {
    /// Telemetry pipeline.
    pub tracer: &'a Tracer,
    /// Proof cache to consult before running engines.
    pub cache: Option<&'a ProofCache>,
    /// Span to parent the case span to.
    pub parent: Option<u64>,
    /// Time the case spent queued before dispatch.
    pub queue_latency: Duration,
    /// Whether the dispatching worker stole the case.
    pub stolen: bool,
}

/// The traced per-case driver: opens a `case` span (parented to the run
/// span via `ctx.parent`), consults the proof cache, and on a miss walks
/// the ladder with one `stage` span per attempt, storing fresh definite
/// verdicts back. The case span is annotated with verdict, deciding
/// engine, cache status and scheduler telemetry.
fn run_case(
    harness: &Harness,
    op: FpuOp,
    case: CaseId,
    constraint_parts: &[Signal],
    ladder: &[EngineStage],
    ctx: CaseCtx<'_>,
) -> CaseResult {
    assert!(!ladder.is_empty(), "empty engine ladder for {case:?}");
    let tracer = ctx.tracer;
    let mut case_span = tracer.span_child(ctx.parent, SpanKind::Case, || format!("{case:?}"));
    let start = Instant::now();

    let fingerprint = ctx
        .cache
        .map(|_| Fingerprint::compute(harness, op, case, constraint_parts, ladder));
    if let Some(hit) = ctx
        .cache
        .zip(fingerprint.as_ref())
        .and_then(|(cache, fp)| cache.lookup(fp))
    {
        let result = CaseResult {
            case,
            op,
            verdict: hit.verdict(),
            counterexample: hit.counterexample,
            error: None,
            attempts: hit.attempts,
            queue_latency: ctx.queue_latency,
            stolen: ctx.stolen,
            cached: true,
            duration: start.elapsed(),
        };
        annotate_case_span(&mut case_span, &result);
        return result;
    }

    let mut attempts: Vec<CaseAttempt> = Vec::with_capacity(1);
    let mut counterexample: Option<CounterExample> = None;
    let mut last_error: Option<Error> = None;

    for stage in ladder {
        let mut stage_span = case_span.child(SpanKind::Stage, || stage.engine.name().to_string());
        let attempt_start = Instant::now();
        // A panicking engine must not take down the scheduler: fold the
        // panic into an Error verdict and let the ladder escalate past it.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            stage
                .engine
                .check(harness, op, case, constraint_parts, &stage.budget)
        }))
        .unwrap_or_else(|payload| {
            EngineOutcome::error(
                Error::EnginePanic {
                    engine: stage.engine.name(),
                    message: panic_message(payload.as_ref()),
                },
                attempt_start.elapsed(),
            )
        });

        let attempt_verdict = match &outcome.verdict {
            EngineVerdict::Holds => Verdict::Holds,
            EngineVerdict::Counterexample(_) => Verdict::Fails,
            EngineVerdict::BudgetExceeded => Verdict::BudgetExceeded,
            EngineVerdict::Error(_) => Verdict::Error,
        };
        stage_span.record_set(&outcome.stats.metrics);
        stage_span.field("verdict", attempt_verdict.to_json());
        drop(stage_span);
        attempts.push(CaseAttempt {
            engine: stage.engine.kind(),
            engine_name: stage.engine.name(),
            budget: stage.budget,
            verdict: attempt_verdict,
            stats: outcome.stats,
        });

        match outcome.verdict {
            EngineVerdict::Holds => break,
            EngineVerdict::Counterexample(assignment) => {
                let _span = case_span.child(SpanKind::Op, || "replay".into());
                counterexample = Some(decode_cex(harness, assignment));
                break;
            }
            EngineVerdict::BudgetExceeded => continue,
            EngineVerdict::Error(cause) => {
                last_error = Some(cause);
                continue;
            }
        }
    }

    // The last attempt either decided the case or ran out the ladder; only
    // an undecided case reports the last engine error.
    let verdict = attempts.last().expect("at least one attempt").verdict;
    let decided = matches!(verdict, Verdict::Holds | Verdict::Fails);
    let result = CaseResult {
        case,
        op,
        verdict,
        counterexample,
        error: if decided { None } else { last_error },
        attempts,
        queue_latency: ctx.queue_latency,
        stolen: ctx.stolen,
        cached: false,
        duration: start.elapsed(),
    };

    // Memoize fresh definite verdicts (no-op unless the cache is
    // read-write). Indefinite outcomes say nothing reusable about the case.
    if let (Some(cache), Some(fp)) = (ctx.cache, &fingerprint) {
        if decided {
            cache.store(
                fp,
                CachedCase {
                    counterexample: result.counterexample.clone(),
                    attempts: result.attempts.clone(),
                    duration: result.duration,
                },
            );
        }
    }

    annotate_case_span(&mut case_span, &result);
    result
}

/// Records a case's scheduler facts and outcome on its `case` span. Engine
/// counters live on the `stage` spans only; a replayed result ran no stage
/// this run, so its original escalations are not claimed either.
fn annotate_case_span(span: &mut Span, result: &CaseResult) {
    if !span.is_recording() {
        return;
    }
    if !result.cached {
        span.record(Counter::SchedEscalations, result.escalations() as u64);
    }
    span.record(
        Counter::SchedQueueLatencyMicros,
        result.queue_latency.as_micros() as u64,
    );
    if result.stolen {
        span.record(Counter::SchedSteals, 1);
    }
    span.field("verdict", result.verdict.to_json());
    if let Some(last) = result.attempts.last() {
        span.field("engine", JsonValue::string(last.engine_name));
    }
    if result.cached {
        span.field("cached", JsonValue::Bool(true));
    } else {
        span.field("attempts", JsonValue::int(result.attempts.len() as u64));
    }
    if let Some(error) = &result.error {
        span.field("error", JsonValue::string(error.to_string()));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// Decodes a raw name→bit counterexample into operand words, and replays it
/// against the netlist to confirm the miter really fires. The replay result
/// is surfaced as [`CounterExample::replay_confirmed`] — an unconfirmed
/// counterexample indicates an engine bug, not a design bug.
fn decode_cex(harness: &Harness, assignment: HashMap<String, bool>) -> CounterExample {
    let get_word = |prefix: &str, width: usize| -> u128 {
        (0..width)
            .map(|i| {
                let bit = assignment
                    .get(&format!("{prefix}[{i}]"))
                    .copied()
                    .unwrap_or(false);
                u128::from(bit) << i
            })
            .sum()
    };
    let w = harness.cfg.format.width() as usize;
    let replay_confirmed = replay(&harness.netlist, harness.miter, &assignment);
    CounterExample {
        a: get_word("a", w),
        b: get_word("b", w),
        c: get_word("c", w),
        op: get_word("op", 3) as u32,
        rm: get_word("rm", 2) as u32,
        assignment,
        replay_confirmed,
    }
}

/// Replays a counterexample on a netlist, returning the miter value.
pub fn replay(netlist: &Netlist, miter: Signal, assignment: &HashMap<String, bool>) -> bool {
    let mut sim = BitSim::new(netlist);
    for (name, value) in assignment {
        if let Some(sig) = netlist.find_input(name) {
            sim.set(sig, *value);
        }
    }
    sim.eval();
    sim.get(miter)
}
