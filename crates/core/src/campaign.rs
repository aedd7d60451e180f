//! Mutation-coverage campaigns: verify the verifier.
//!
//! The paper's headline evidence that the flow works is that it "found
//! dozens of high-quality bugs" in the industrial FMA FPU. This module
//! turns that claim into a measurable regression metric: it enumerates
//! single-gate mutants over the implementation FPU's *sequential* cone of
//! influence (so faults behind pipeline registers are reachable), runs
//! every mutant through the existing case-split verification on the
//! work-stealing scheduler, and classifies each one:
//!
//! * **killed** — some case produced a replay-confirmed counterexample;
//!   the killing case is recorded, giving the per-`MutationKind` ×
//!   case-class kill matrix;
//! * **survived** — every case held. Because each selected mutant carries a
//!   simulation witness proving it changes the architected function, a
//!   survivor is a genuine alarm: a coverage hole in the case split or a
//!   checker bug;
//! * **budget-exceeded** — some case was left undecided by the engine
//!   budgets (never reported as killed or survived).
//!
//! Candidate faults with no witness after the random-simulation screen are
//! skipped and counted ([`CampaignReport::screened_out`]): simulation
//! cannot tell a functionally equivalent mutant from one it merely failed
//! to excite, and either way its survival would carry no signal.
//!
//! The campaign shares one proof cache across the clean baseline and all
//! mutants ([`crate::RunConfig::cache_mode`]): a case whose cone-of-influence
//! fingerprint the fault did not change replays the clean design's verdict,
//! so each mutant only pays for the cases the fault can actually affect —
//! and a warm rerun of the same seed replays everything.
//!
//! The harness is built *without* multiplier isolation: the `S'`,`T'`
//! pseudo-inputs are only sound under the multiplier constraint, which
//! random vectors essentially never satisfy, and the mutant space should
//! cover the real multiplier anyway.

use std::time::{Duration, Instant};

use fmaverify_fpu::{FpuConfig, FpuOp};
use fmaverify_netlist::{BitSim, Node, NodeId, Signal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cases::{enumerate_cases, CaseClass, CaseId};
use crate::config::RunConfig;
use crate::harness::{build_harness, Harness, HarnessOptions};
use crate::json::{JsonValue, ToJson};
use crate::mutate::{fault_candidates, inject_fault, Mutation, MutationKind};
use crate::runner::{CancellationToken, Verdict};
use crate::sequential::{engine_view, probe_constraints};
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
    /// Every case held even though the mutant provably changes the
    /// function: a coverage hole or a checker bug.
    Survived,
    /// At least one case exhausted its engine budgets undecided.
    BudgetExceeded,
}

/// One mutant's verification record.
#[derive(Clone, Debug)]
pub struct MutantOutcome {
    /// The injected fault.
    pub mutation: Mutation,
    /// Killed, survived, or budget-exceeded.
    pub status: MutantStatus,
    /// Cases decided before the run stopped (kills cancel the remainder).
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

    /// Mutants that survived every case (alarms).
    pub fn survived(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == MutantStatus::Survived)
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
    /// [`CaseClass::ALL`]`[class]`.
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

/// True if random simulation finds an input (with the opcode pinned to
/// `op`) on which the view's miter fires — a witness that the mutant
/// changes the architected function of this instruction.
fn has_witness(view: &Harness, op: FpuOp, rng: &mut StdRng) -> bool {
    let netlist = &view.netlist;
    // Pin the opcode; every other input is driven randomly. Unrolled
    // netlists hold their inputs at cycle 0 under `name@0`.
    let op_bits: Vec<(String, bool)> = (0..3)
        .flat_map(|i| {
            let v = op.encode() >> i & 1 == 1;
            [(format!("op[{i}]"), v), (format!("op[{i}]@0"), v)]
        })
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
            return true;
        }
    }
    false
}

/// Runs a mutation-coverage campaign for `op`.
///
/// The harness is built from [`RunConfig::harness`] with multiplier
/// isolation forced off (see the module docs); [`RunConfig::mutants`] caps
/// the number of verified mutants (`None` = exhaustive) and
/// [`RunConfig::mutation_seed`] drives both the sample and the
/// observability screen. Kills stop a mutant's remaining cases early
/// regardless of [`RunConfig::stop_on_failure`].
///
/// # Panics
/// Panics if the clean baseline does not verify (a campaign against a
/// broken design measures nothing), or if the implementation cone contains
/// no candidate gates.
pub fn run_campaign(cfg: &FpuConfig, op: FpuOp, run: &RunConfig) -> CampaignReport {
    let start = Instant::now();
    let mut base = build_harness(
        cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..run.harness.clone()
        },
    );

    // Name every case constraint as probes: fault injection and unrolling
    // preserve names, not node ids.
    let probes = probe_constraints(&mut base, op, &enumerate_cases(cfg, op));

    // Candidate faults: the implementation outputs' fault candidates
    // (through pipeline registers) that feed neither the reference FPU nor
    // the constraint logic — mutating those would corrupt the
    // specification, not the design under test.
    let gather = |w: &fmaverify_netlist::Word, f: &fmaverify_netlist::Word| -> Vec<Signal> {
        w.bits().iter().chain(f.bits()).copied().collect()
    };
    let impl_roots = gather(&base.impl_fpu.outputs.result, &base.impl_fpu.outputs.flags);
    let ref_roots = gather(&base.ref_fpu.outputs.result, &base.ref_fpu.outputs.flags);
    let part_roots: Vec<Signal> = probes
        .iter()
        .flat_map(|(_, names)| names.iter())
        .map(|n| base.netlist.find_probe(n).expect("probe"))
        .collect();
    let in_ref = base.netlist.seq_cone(&ref_roots);
    let in_parts = base.netlist.seq_cone(&part_roots);
    let targets: Vec<NodeId> = fault_candidates(&base.netlist, &impl_roots)
        .into_iter()
        .filter(|id| !in_ref[id.index()] && !in_parts[id.index()])
        .collect();
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

    // Clean baseline: the design must verify, and the shared cache is
    // seeded so mutants only re-prove cases their fault can reach.
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
        if !has_witness(&view, op, &mut rng) {
            screened_out += 1;
            continue;
        }

        let mutant_start = Instant::now();
        let results = fresh_session().run_prepared(&view, op, &constraints);
        let status = if let Some(fail) = results.iter().find(|r| r.verdict == Verdict::Fails) {
            MutantStatus::Killed {
                case: fail.case,
                replay_confirmed: fail
                    .counterexample
                    .as_ref()
                    .is_some_and(|c| c.replay_confirmed),
            }
        } else if results
            .iter()
            .any(|r| matches!(r.verdict, Verdict::BudgetExceeded | Verdict::Error))
        {
            MutantStatus::BudgetExceeded
        } else {
            MutantStatus::Survived
        };
        outcomes.push(MutantOutcome {
            mutation,
            status,
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
