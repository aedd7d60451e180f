//! The `campaign_3x2` workload: a seeded mutation campaign on the pipelined
//! FMA at (3,2), run cold against a fresh read-write proof cache and then
//! rerun warm against the cache the cold pass filled.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fmaverify::prelude::*;
use fmaverify::{build_harness, enumerate_cases, PipelineMode, ProofCache};

use crate::cases::{ftz, Effort};

/// The campaign's size, as in the repository's mutation-coverage runs.
pub const MUTANTS: usize = 60;

#[derive(Clone, Debug)]
pub struct CampaignWorkload {
    pub cfg: FpuConfig,
    pub op: FpuOp,
    pub mutation_seed: u64,
}

/// `run_campaign` draws its mutants itself from `RunConfig::mutation_seed`.
/// The benchmark keeps the library's default draw for every seed: a
/// mutant is killed either by a cheap BDD case or by a SAT case, so
/// per-mutant times are bimodal, and with seeded draws of 120 mutants
/// `case_p50_ms` still spread by 28% across ten seeds. The drawn list is
/// printed with every run.
pub fn campaign_3x2() -> CampaignWorkload {
    CampaignWorkload {
        cfg: ftz(FpFormat::new(3, 2)),
        op: FpuOp::Fma,
        mutation_seed: RunConfig::default().mutation_seed,
    }
}

pub fn harness_options() -> HarnessOptions {
    HarnessOptions {
        pipeline: PipelineMode::ThreeStage,
        // `run_campaign` forces isolation off: faults in the real
        // multiplier must be reachable.
        isolate_multiplier: false,
        ..HarnessOptions::default()
    }
}

pub fn run_config(w: &CampaignWorkload, cache_dir: &Path, tracer: Tracer) -> RunConfig {
    let mut rc = RunConfig {
        threads: 1,
        mutants: Some(MUTANTS),
        mutation_seed: w.mutation_seed,
        cache_mode: CacheMode::ReadWrite,
        cache_dir: cache_dir.to_path_buf(),
        tracer,
        ..RunConfig::default()
    };
    rc.harness = harness_options();
    rc
}

/// The campaign's set-up calls timed on their own: harness build, case
/// constraints and opening the cache. `run_campaign` repeats the first two
/// internally, where they are part of `wall_s`.
pub fn setup(w: &CampaignWorkload, cache_dir: &Path) -> Duration {
    let t = Instant::now();
    let mut h = build_harness(&w.cfg, harness_options());
    for case in enumerate_cases(&w.cfg, w.op) {
        h.case_constraint_parts(w.op, case);
    }
    let cache = ProofCache::open(cache_dir, CacheMode::ReadWrite);
    let elapsed = t.elapsed();
    drop((h, cache));
    elapsed
}

pub struct CampaignPass {
    pub cold: CampaignReport,
    pub warm: CampaignReport,
    pub cold_wall: Duration,
    pub warm_wall: Duration,
}

/// Cold campaign against a fresh cache directory, then the warm rerun.
pub fn run_pass(w: &CampaignWorkload, cache_dir: &Path, tracer: &Tracer) -> CampaignPass {
    let _ = std::fs::remove_dir_all(cache_dir);
    let rc = run_config(w, cache_dir, tracer.clone());
    let (cold, cold_wall) = {
        let _span = tracer.span(SpanKind::Run, || "bench.campaign.cold".into());
        let t = Instant::now();
        (run_campaign(&w.cfg, w.op, &rc), t.elapsed())
    };
    let (warm, warm_wall) = {
        let _span = tracer.span(SpanKind::Run, || "bench.campaign.warm".into());
        let t = Instant::now();
        (run_campaign(&w.cfg, w.op, &rc), t.elapsed())
    };
    let _ = std::fs::remove_dir_all(cache_dir);
    CampaignPass {
        cold,
        warm,
        cold_wall,
        warm_wall,
    }
}

/// Mutants attempted and failed in one pass, plus a line per problem. A
/// mutant fails unless the cold pass killed it with a replay-confirmed
/// counterexample and the warm pass reached the same outcome.
pub fn check(p: &CampaignPass) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    if p.cold.outcomes.len() != MUTANTS {
        problems.push(format!(
            "cold pass verified {} mutants, wanted {MUTANTS}",
            p.cold.outcomes.len()
        ));
    }
    let mut failed = 0;
    for (i, o) in p.cold.outcomes.iter().enumerate() {
        let killed = matches!(
            o.status,
            MutantStatus::Killed {
                replay_confirmed: true,
                ..
            }
        );
        let warm_same = p
            .warm
            .outcomes
            .get(i)
            .is_some_and(|w| label(w) == label(o) && w.status == o.status);
        if !killed {
            problems.push(format!("mutant {} not killed: {:?}", label(o), o.status));
        }
        if !warm_same {
            problems.push(format!(
                "mutant {}: warm outcome differs from cold",
                label(o)
            ));
        }
        failed += u64::from(!killed || !warm_same);
    }
    if p.warm.outcomes.len() != p.cold.outcomes.len() {
        problems.push("warm pass verified a different number of mutants".into());
    }
    if p.warm.cases_replayed() == 0 {
        problems.push("warm pass replayed nothing from the proof cache".into());
    }
    (p.cold.outcomes.len().max(1) as u64, failed, problems)
}

pub fn label(o: &fmaverify::MutantOutcome) -> String {
    format!("n{}:{}", o.mutation.node.index(), o.mutation.kind.label())
}

pub fn effort(p: &CampaignPass) -> Effort {
    let mut e = Effort::new();
    e.insert("campaign.mutants", p.cold.outcomes.len() as u64);
    e.insert("campaign.killed", p.cold.killed() as u64);
    e.insert("campaign.screened_out", p.cold.screened_out as u64);
    let cases_run: usize = p.cold.outcomes.iter().map(|o| o.cases_run).sum();
    e.insert("campaign.cases_run", cases_run as u64);
    e.insert("cache.replayed_cases.cold", p.cold.cases_replayed() as u64);
    e.insert("cache.replayed_cases.warm", p.warm.cases_replayed() as u64);
    e
}

const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// A fresh per-process scratch directory under the working directory.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(SCRATCH_ROOT).join(format!("{}", std::process::id()))
}

/// Removes `dir` (from [`scratch_dir`]) and, once empty, its parent.
pub fn remove_scratch(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(SCRATCH_ROOT);
}
