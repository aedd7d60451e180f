//! Mutation-coverage campaigns: verify the verifier.
//!
//! The paper's headline evidence that the flow works is that it "found
//! dozens of high-quality bugs" in the industrial FMA FPU. This module
//! turns that claim into a measurable regression metric: it enumerates
//! single-gate mutants over the harness's [`crate::fault_targets`] — the
//! implementation FPU's *sequential* cone of influence, so faults behind
//! pipeline registers are reachable — screens each one by random
//! simulation for a *witness*, an input on which the mutant's miter fires,
//! and verifies it on the cases that admit its witness
//! ([`crate::admitting_cases`]) on the work-stealing scheduler. With
//! isolation off the δ and sha constraints split the inputs, so in practice
//! that is one case proof per mutant rather than the whole split. Each
//! mutant is classified by the routed cases' verdicts:
//!
//! * **killed** — a routed case produced a counterexample; the killing
//!   case is recorded, giving the per-`MutationKind` × case-class kill
//!   matrix, and so is its decoded counterexample
//!   ([`MutantOutcome::counterexample`]);
//! * **survived** — every routed case held: the engine missed the known
//!   concrete counterexample the witness is, an alarm;
//! * **uncovered** — no case admits the witness: a concrete completeness
//!   failure of the case split, an alarm;
//! * **budget-exceeded** — a routed case was left undecided by the engine
//!   budgets or an engine error (never reported as killed or survived).
//!
//! Routing makes the campaign harder to fool than running every case: a
//! wrong "holds" on the witness's case cannot be hidden by another case's
//! kill.
//!
//! Candidate faults with no witness after the random-simulation screen are
//! skipped and counted ([`CampaignReport::screened_out`]): simulation
//! cannot tell a functionally equivalent mutant from one it merely failed
//! to excite, and either way its survival would carry no signal.
//!
//! The campaign shares one proof cache across the clean baseline and all
//! mutants ([`crate::RunConfig::cache_mode`]). Every fault lies in the
//! miter's cone, so it changes the fingerprint of every case a mutant runs:
//! a cold campaign replays nothing, and the cache pays on a warm rerun of
//! the same seed, which replays the baseline and every routed case.
//!
//! The harness is built *without* multiplier isolation: the `S'`,`T'`
//! pseudo-inputs are only sound under the multiplier constraint, which
//! random vectors essentially never satisfy, and the mutant space should
//! cover the real multiplier anyway.

use std::time::{Duration, Instant};

use fmaverify_fpu::{FpuConfig, FpuOp, PipelineMode};
use fmaverify_netlist::{BitSim, Node, Signal};
use fmaverify_softfloat::{FpResult, RoundingMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cases::{enumerate_cases, CaseClass, CaseId};
use crate::config::RunConfig;
use crate::harness::{build_harness, Harness, HarnessOptions};
use crate::json::{JsonValue, ToJson};
use crate::mutate::{fault_targets, inject_fault, Mutation, MutationKind};
use crate::runner::{CancellationToken, CaseResult, CounterExample, Verdict};
use crate::sequential::{admitting_cases, engine_view, find_constraints, probe_constraints};
use crate::session::Session;
use crate::trace::{Counter, SpanKind};

/// Random vectors tried per candidate fault by the observability screen.
const SCREEN_VECTORS: usize = 256;

/// The fate of one verified mutant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutantStatus {
    /// A case produced a counterexample; `replay_confirmed` echoes the
    /// bit-level replay of that counterexample on the mutant netlist.
    Killed {
        /// The case whose counterexample killed the mutant.
        case: CaseId,
        /// Whether the counterexample replayed to `miter = 1`.
        replay_confirmed: bool,
    },
    /// Every case that admits the witness held: the engine missed a known
    /// concrete counterexample, an alarm.
    Survived,
    /// No case admits the witness: the case split misses an input, a
    /// concrete completeness failure.
    Uncovered,
    /// A case that admits the witness was left undecided (engine budgets or
    /// an engine error).
    BudgetExceeded,
}

/// One mutant's verification record.
#[derive(Clone, Debug)]
pub struct MutantOutcome {
    /// The injected fault.
    pub mutation: Mutation,
    /// Killed, survived, uncovered or budget-exceeded.
    pub status: MutantStatus,
    /// The killing case's decoded counterexample (`None` unless killed).
    pub counterexample: Option<CounterExample>,
    /// Cases that admit the witness and were decided: one in practice, 0
    /// when uncovered.
    pub cases_run: usize,
    /// Cases replayed from the proof cache instead of re-proved.
    pub cached_cases: usize,
    /// Wall time spent verifying this mutant.
    pub wall: Duration,
}

/// The full campaign record.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// The instruction under campaign.
    pub op: FpuOp,
    /// AND gates exclusive to the implementation's sequential cone.
    pub candidate_gates: usize,
    /// `candidate_gates ×` [`MutationKind::ALL`]`.len()`.
    pub mutant_space: usize,
    /// Sampled faults skipped for lack of a simulation witness.
    pub screened_out: usize,
    /// Cases proved on the clean baseline (which also seeds the cache).
    pub clean_cases: usize,
    /// Clean-baseline cases that were already cached.
    pub clean_cached: usize,
    /// Per-mutant outcomes, in verification order.
    pub outcomes: Vec<MutantOutcome>,
    /// Total campaign wall time.
    pub wall: Duration,
}

impl CampaignReport {
    /// Mutants killed by a counterexample.
    pub fn killed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, MutantStatus::Killed { .. }))
            .count()
    }

    /// Mutants that survived their witness's case (alarms).
    pub fn survived(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::Survived)
            .count()
    }

    /// Mutants whose witness lies in no case (alarms).
    pub fn uncovered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::Uncovered)
            .count()
    }

    /// Mutants left undecided by engine budgets.
    pub fn budget_exceeded(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::BudgetExceeded)
            .count()
    }

    /// Killed / verified (1.0 when no mutants ran).
    pub fn kill_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.killed() as f64 / self.outcomes.len() as f64
        }
    }

    /// How many of the five [`MutationKind`]s have at least one kill.
    pub fn kinds_with_kills(&self) -> usize {
        MutationKind::ALL
            .iter()
            .filter(|&&k| {
                self.outcomes.iter().any(|o| {
                    o.mutation.kind == k && matches!(o.status, MutantStatus::Killed { .. })
                })
            })
            .count()
    }

    /// Cases replayed from the proof cache across the baseline and all
    /// mutants.
    pub fn cases_replayed(&self) -> usize {
        self.clean_cached + self.outcomes.iter().map(|o| o.cached_cases).sum::<usize>()
    }

    /// The kill matrix: `matrix[kind][class]` counts mutants of
    /// [`MutationKind::ALL`]`[kind]` killed by a case of
    /// [`CaseClass::ALL`]`[class]`, the class their witness lies in.
    pub fn kill_matrix(&self) -> [[usize; CaseClass::ALL.len()]; MutationKind::ALL.len()] {
        let mut matrix = [[0usize; CaseClass::ALL.len()]; MutationKind::ALL.len()];
        for o in &self.outcomes {
            if let MutantStatus::Killed { case, .. } = &o.status {
                let row = MutationKind::ALL
                    .iter()
                    .position(|&k| k == o.mutation.kind)
                    .expect("kind in ALL");
                let col = CaseClass::ALL
                    .iter()
                    .position(|&c| c == case.class())
                    .expect("class in ALL");
                matrix[row][col] += 1;
            }
        }
        matrix
    }
}

impl ToJson for MutantOutcome {
    fn to_json(&self) -> JsonValue {
        let (status, killing_case, killing_class, replay) = match &self.status {
            MutantStatus::Killed {
                case,
                replay_confirmed,
            } => (
                "killed",
                JsonValue::string(case.label()),
                JsonValue::string(case.class().label()),
                JsonValue::Bool(*replay_confirmed),
            ),
            MutantStatus::Survived => (
                "survived",
                JsonValue::Null,
                JsonValue::Null,
                JsonValue::Null,
            ),
            MutantStatus::Uncovered => (
                "uncovered",
                JsonValue::Null,
                JsonValue::Null,
                JsonValue::Null,
            ),
            MutantStatus::BudgetExceeded => (
                "budget_exceeded",
                JsonValue::Null,
                JsonValue::Null,
                JsonValue::Null,
            ),
        };
        JsonValue::object(vec![
            ("node", JsonValue::int(self.mutation.node.index())),
            ("kind", JsonValue::string(self.mutation.kind.label())),
            ("status", JsonValue::string(status)),
            ("killing_case", killing_case),
            ("killing_class", killing_class),
            ("replay_confirmed", replay),
            (
                "counterexample",
                JsonValue::opt(self.counterexample.as_ref(), ToJson::to_json),
            ),
            ("cases_run", JsonValue::int(self.cases_run)),
            ("cached_cases", JsonValue::int(self.cached_cases)),
            ("wall_seconds", JsonValue::Number(self.wall.as_secs_f64())),
        ])
    }
}

impl ToJson for CampaignReport {
    fn to_json(&self) -> JsonValue {
        let matrix = self.kill_matrix();
        let kill_matrix = JsonValue::Object(
            MutationKind::ALL
                .iter()
                .enumerate()
                .map(|(row, kind)| {
                    (
                        kind.label().to_string(),
                        JsonValue::Object(
                            CaseClass::ALL
                                .iter()
                                .enumerate()
                                .map(|(col, class)| {
                                    (class.label().to_string(), JsonValue::int(matrix[row][col]))
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        );
        JsonValue::object(vec![
            ("op", JsonValue::string(format!("{:?}", self.op))),
            ("candidate_gates", JsonValue::int(self.candidate_gates)),
            ("mutant_space", JsonValue::int(self.mutant_space)),
            ("screened_out", JsonValue::int(self.screened_out)),
            (
                "totals",
                JsonValue::object(vec![
                    ("mutants", JsonValue::int(self.outcomes.len())),
                    ("killed", JsonValue::int(self.killed())),
                    ("survived", JsonValue::int(self.survived())),
                    ("uncovered", JsonValue::int(self.uncovered())),
                    ("budget_exceeded", JsonValue::int(self.budget_exceeded())),
                    ("kill_rate", JsonValue::Number(self.kill_rate())),
                    ("kinds_with_kills", JsonValue::int(self.kinds_with_kills())),
                ]),
            ),
            ("kill_matrix", kill_matrix),
            (
                "clean",
                JsonValue::object(vec![
                    ("cases", JsonValue::int(self.clean_cases)),
                    ("cached", JsonValue::int(self.clean_cached)),
                ]),
            ),
            ("cases_replayed", JsonValue::int(self.cases_replayed())),
            ("mutants", self.outcomes.to_json()),
            ("wall_seconds", JsonValue::Number(self.wall.as_secs_f64())),
        ])
    }
}

/// The observability screen: random simulation looks for an input (with
/// the opcode pinned to `op`) on which the view's miter fires — a witness
/// that the mutant changes the architected function of this instruction.
/// Returns the cases of `constraints` that admit the first witness, read
/// off the same evaluation, or `None` when no vector fires the miter.
fn screen(
    view: &Harness,
    constraints: &[(CaseId, Vec<Signal>)],
    op: FpuOp,
    rng: &mut StdRng,
) -> Option<Vec<(CaseId, Vec<Signal>)>> {
    let netlist = &view.netlist;
    // Pin the opcode; every other input is driven randomly.
    let op_bits: Vec<(String, bool)> = (0..3)
        .map(|i| (format!("op[{i}]"), op.encode() >> i & 1 == 1))
        .collect();
    let mut sim = BitSim::new(netlist);
    for _ in 0..SCREEN_VECTORS {
        for &id in netlist.inputs() {
            let Node::Input { name } = netlist.node(id) else {
                unreachable!("inputs() returned a non-input node");
            };
            let value = match op_bits.iter().find(|(n, _)| n == name) {
                Some(&(_, v)) => v,
                None => rng.gen::<bool>(),
            };
            sim.set(netlist.signal(id), value);
        }
        sim.eval();
        if sim.get(view.miter) {
            return Some(admitting_cases(&sim, constraints));
        }
    }
    None
}

/// A mutant's status from the results of the cases that admit its
/// witness, with the killing case's counterexample.
fn classify(results: &[CaseResult]) -> (MutantStatus, Option<CounterExample>) {
    if let Some(fail) = results.iter().find(|r| r.verdict == Verdict::Fails) {
        let status = MutantStatus::Killed {
            case: fail.case,
            replay_confirmed: fail
                .counterexample
                .as_ref()
                .is_some_and(|c| c.replay_confirmed),
        };
        (status, fail.counterexample.clone())
    } else if results.is_empty() {
        (MutantStatus::Uncovered, None)
    } else if results.iter().all(|r| r.verdict == Verdict::Holds) {
        (MutantStatus::Survived, None)
    } else {
        (MutantStatus::BudgetExceeded, None)
    }
}

/// The clean harness a campaign injects its faults into:
/// [`RunConfig::harness`] with multiplier isolation forced off (see the
/// module docs).
pub fn campaign_harness(cfg: &FpuConfig, run: &RunConfig) -> Harness {
    build_harness(
        cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..run.harness.clone()
        },
    )
}

/// Arbitrates a kill's counterexample with the softfloat oracle on the
/// clean, combinational harness the campaign injected its fault into
/// ([`campaign_harness`]).
///
/// The decoded operands must re-encode to the engine's input assignment,
/// which names only harness inputs and pins `op`'s opcode; on those
/// operands the clean reference and the clean implementation must both
/// equal [`FpuOp::apply`], result and flags. Faults never go into the
/// reference's cone ([`crate::fault_targets`]) and a replay-confirmed
/// counterexample fires the mutant's miter, so a passing arbitration shows
/// the fault made the implementation wrong.
///
/// Returns the oracle's result, or the first check that failed.
pub fn arbitrate_kill(
    clean: &Harness,
    op: FpuOp,
    cex: &CounterExample,
) -> Result<FpResult, String> {
    if clean.options().pipeline != PipelineMode::Combinational {
        return Err("arbitration simulates a combinational harness".into());
    }
    let inputs = &clean.inputs;
    let words = [
        ("a", &inputs.a, cex.a),
        ("b", &inputs.b, cex.b),
        ("c", &inputs.c, cex.c),
        ("op", &inputs.op, u128::from(cex.op)),
        ("rm", &inputs.rm, u128::from(cex.rm)),
    ];
    for (prefix, word, value) in words {
        for i in 0..word.width() {
            let name = format!("{prefix}[{i}]");
            let bit = cex.assignment.get(&name).copied().unwrap_or(false);
            if bit != (value >> i & 1 == 1) {
                return Err(format!("{name} does not re-encode"));
            }
        }
    }
    if let Some(name) = cex
        .assignment
        .keys()
        .find(|k| clean.netlist.find_input(k).is_none())
    {
        return Err(format!("the assignment names {name}, not a harness input"));
    }
    if cex.op != op.encode() {
        return Err(format!(
            "the counterexample's opcode {} is not {op:?}'s",
            cex.op
        ));
    }

    let mut sim = BitSim::new(&clean.netlist);
    for (_, word, value) in words {
        sim.set_word(word, value);
    }
    sim.eval();
    let want = op.apply(
        &clean.cfg,
        cex.a,
        cex.b,
        cex.c,
        RoundingMode::decode(cex.rm),
    );
    for (side, outputs) in [
        ("reference", &clean.ref_fpu.outputs),
        ("implementation", &clean.impl_fpu.outputs),
    ] {
        let got = (
            sim.get_word(&outputs.result),
            sim.get_word(&outputs.flags) as u32,
        );
        if got != (want.bits, want.flags.encode()) {
            return Err(format!(
                "clean {side} gives result {:#x} flags {:#x}, the oracle {:#x} flags {:#x}, \
                 on {op:?} a={:#x} b={:#x} c={:#x}",
                got.0,
                got.1,
                want.bits,
                want.flags.encode(),
                cex.a,
                cex.b,
                cex.c
            ));
        }
    }
    Ok(want)
}

/// Runs a mutation-coverage campaign for `op`.
///
/// This is the crate's one mutant loop: nothing else verifies a mutant
/// through [`Session::run_prepared`].
///
/// The harness is [`campaign_harness`]; [`RunConfig::mutants`] caps
/// the number of verified mutants (`None` = exhaustive) and
/// [`RunConfig::mutation_seed`] drives both the sample and the
/// observability screen. Each mutant runs only the cases that admit its
/// witness; should several do, a kill stops the rest regardless of
/// [`RunConfig::stop_on_failure`].
///
/// # Panics
/// Panics if the clean baseline does not verify (a campaign against a
/// broken design measures nothing), or if the implementation cone contains
/// no candidate gates.
pub fn run_campaign(cfg: &FpuConfig, op: FpuOp, run: &RunConfig) -> CampaignReport {
    let start = Instant::now();
    let mut base = campaign_harness(cfg, run);

    // Name every case constraint as probes: fault injection and unrolling
    // preserve names, not node ids.
    let probes = probe_constraints(&mut base, op, &enumerate_cases(cfg, op));

    // Faults go into the implementation's exclusive logic, never into the
    // reference FPU or the constraint logic.
    let constraint_parts: Vec<Signal> = find_constraints(&base.netlist, &probes)
        .into_iter()
        .flat_map(|(_, parts)| parts)
        .collect();
    let targets = fault_targets(&base, &constraint_parts);
    assert!(
        !targets.is_empty(),
        "implementation cone contains no candidate gates"
    );
    let kinds = MutationKind::ALL;
    let mutant_space = targets.len() * kinds.len();

    // One session (and thus one proof cache, opened here) for the whole
    // campaign; each run clones it with a fresh cancellation token because
    // a kill trips the token permanently.
    let session = Session::new(cfg).configure(RunConfig {
        stop_on_failure: true,
        ..run.clone()
    });
    let fresh_session = || session.clone().cancel(CancellationToken::new());

    let mut span = run
        .tracer
        .span(SpanKind::Run, || format!("campaign.{op:?}"));

    // Clean baseline: the design must verify, and a warm rerun replays it
    // from the shared cache.
    let (clean_view, clean_constraints) = engine_view(&base, base.netlist.clone(), &probes);
    let clean = fresh_session().run_prepared(&clean_view, op, &clean_constraints);
    assert!(
        clean.iter().all(|r| r.verdict == Verdict::Holds),
        "clean design failed verification; a campaign against a broken design measures nothing"
    );
    let clean_cases = clean.len();
    let clean_cached = clean.iter().filter(|r| r.cached).count();

    // Sample without replacement from the (gate × kind) product space.
    let mut rng = StdRng::seed_from_u64(run.mutation_seed);
    let mut pool: Vec<usize> = (0..mutant_space).collect();
    let want = run.mutants.unwrap_or(mutant_space).min(mutant_space);
    let exhaustive = want == mutant_space;

    let mut outcomes = Vec::new();
    let mut screened_out = 0usize;
    while outcomes.len() < want && !pool.is_empty() {
        let pick = if exhaustive {
            // Exhaustive campaigns walk the space in a stable order.
            pool.remove(0)
        } else {
            let i = rng.gen_range(0..pool.len());
            pool.swap_remove(i)
        };
        let mutation = Mutation {
            node: targets[pick / kinds.len()],
            kind: kinds[pick % kinds.len()],
        };
        let mutated = inject_fault(&base.netlist, mutation.node, mutation.kind);
        let (view, constraints) = engine_view(&base, mutated, &probes);
        let Some(routed) = screen(&view, &constraints, op, &mut rng) else {
            screened_out += 1;
            continue;
        };

        let mutant_start = Instant::now();
        let results = fresh_session().run_prepared(&view, op, &routed);
        let (status, counterexample) = classify(&results);
        outcomes.push(MutantOutcome {
            mutation,
            status,
            counterexample,
            cases_run: results
                .iter()
                .filter(|r| r.verdict != Verdict::Canceled)
                .count(),
            cached_cases: results.iter().filter(|r| r.cached).count(),
            wall: mutant_start.elapsed(),
        });
    }

    let report = CampaignReport {
        op,
        candidate_gates: targets.len(),
        mutant_space,
        screened_out,
        clean_cases,
        clean_cached,
        outcomes,
        wall: start.elapsed(),
    };

    span.record(Counter::CampaignMutants, report.outcomes.len() as u64);
    span.record(Counter::CampaignKilled, report.killed() as u64);
    span.record(Counter::CampaignSurvived, report.survived() as u64);
    span.record(Counter::CampaignUncovered, report.uncovered() as u64);
    span.record(
        Counter::CampaignBudgetExceeded,
        report.budget_exceeded() as u64,
    );
    span.record(Counter::CampaignSkippedUnobserved, screened_out as u64);
    span.field("op", JsonValue::string(format!("{op:?}")));
    drop(span);
    // The per-mutant totals predate the campaign span's counters.
    run.tracer.emit_totals();
    run.tracer.flush();

    report
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::runner::unrun_result;

    fn result(case: CaseId, verdict: Verdict) -> CaseResult {
        let mut r = unrun_result(FpuOp::Fma, case, verdict, None);
        if verdict == Verdict::Fails {
            r.counterexample = Some(CounterExample {
                assignment: HashMap::new(),
                a: 1,
                b: 2,
                c: 3,
                op: FpuOp::Fma.encode(),
                rm: 0,
                replay_confirmed: true,
            });
        }
        r
    }

    const CASE: CaseId = CaseId::OverlapNoCancel { delta: 1 };

    #[test]
    fn a_failing_routed_case_kills() {
        for others in [Verdict::Holds, Verdict::Canceled, Verdict::BudgetExceeded] {
            let (status, cex) =
                classify(&[result(CaseId::FarOut, others), result(CASE, Verdict::Fails)]);
            assert_eq!(
                status,
                MutantStatus::Killed {
                    case: CASE,
                    replay_confirmed: true
                }
            );
            assert_eq!(cex.map(|c| (c.a, c.b, c.c)), Some((1, 2, 3)));
        }
    }

    #[test]
    fn routed_cases_that_all_hold_survive() {
        let (status, cex) = classify(&[result(CASE, Verdict::Holds)]);
        assert_eq!(status, MutantStatus::Survived);
        assert!(cex.is_none());
    }

    #[test]
    fn a_witness_in_no_case_is_uncovered() {
        let (status, cex) = classify(&[]);
        assert_eq!(status, MutantStatus::Uncovered);
        assert!(cex.is_none());
    }

    #[test]
    fn an_undecided_routed_case_exceeds_the_budget() {
        for verdict in [Verdict::BudgetExceeded, Verdict::Error] {
            let (status, _) = classify(&[
                result(CaseId::FarOut, Verdict::Holds),
                result(CASE, verdict),
            ]);
            assert_eq!(status, MutantStatus::BudgetExceeded, "{verdict:?}");
        }
    }
}
