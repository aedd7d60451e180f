//! **Experiment S5e — BDD minimization ablation**.
//!
//! Paper: "We also experimented with different BDD minimization algorithms
//! (using the care-sets defined by the constraints). The BDD operation
//! constrain was overall the best choice: it is fast when the number of
//! nodes is manageable. More aggressive minimization algorithms yielded
//! greater reductions in the peak number of BDD nodes, but their overall
//! run-time was significantly higher."
//!
//! We run a batch of overlap cases under constrain, restrict (the more
//! aggressive sibling-substitution), and no minimization at all, summing
//! peaks and runtimes.

use fmaverify::{
    build_harness, check_miter_bdd_parts, paper_order, BddEngineOptions, CaseId, HarnessOptions,
    Minimize, RunConfig, ShaCase,
};
use fmaverify_bench::{banner, bench_config, compare, dur};
use fmaverify_fpu::FpuOp;
use std::time::Duration;

fn main() {
    banner(
        "minimize_ablation",
        "§5: constrain vs restrict vs no minimization (peak nodes & time)",
    );
    let cfg = bench_config();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let f = cfg.format.frac_bits() as usize;
    // A batch of representative cases: a few cancellation shifts and a few
    // plain overlap deltas.
    let mut batch: Vec<CaseId> = Vec::new();
    for sha in [f, f + 2, f + 4] {
        batch.push(CaseId::OverlapCancel {
            delta: 0,
            sha: ShaCase::Exact(sha),
        });
        batch.push(CaseId::OverlapCancel {
            delta: -1,
            sha: ShaCase::Exact(sha),
        });
    }
    for delta in [3i64, 5, -4] {
        batch.push(CaseId::OverlapNoCancel { delta });
    }
    let parts: Vec<(CaseId, Vec<fmaverify_netlist::Signal>)> = batch
        .iter()
        .map(|&c| (c, h.case_constraint_parts(FpuOp::Fma, c)))
        .collect();

    let node_limit = RunConfig::from_env().node_budget.unwrap_or(6_000_000);
    let mut rows = Vec::new();
    for minimize in [Minimize::Constrain, Minimize::Restrict, Minimize::None] {
        let mut total_time = Duration::ZERO;
        let mut peak_sum = 0usize;
        let mut peak_max = 0usize;
        let mut aborted = 0usize;
        for (case, p) in &parts {
            let out = check_miter_bdd_parts(
                &h.netlist,
                h.miter,
                p,
                &BddEngineOptions {
                    minimize,
                    order: paper_order(&h, case.delta()),
                    node_limit: Some(node_limit),
                    gc_threshold: node_limit / 8,
                    ..BddEngineOptions::default()
                },
            );
            assert!(out.holds || out.aborted, "{case:?} under {minimize:?}");
            if out.aborted {
                aborted += 1;
            }
            total_time += out.duration;
            peak_sum += out.peak_nodes;
            peak_max = peak_max.max(out.peak_nodes);
        }
        println!(
            "{:<10} total {:>9}, peak sum {:>10}, peak max {:>10}, aborted {}/{}",
            format!("{minimize:?}"),
            dur(total_time),
            peak_sum,
            peak_max,
            aborted,
            parts.len(),
        );
        rows.push((minimize, total_time, peak_sum, peak_max, aborted));
    }
    println!();
    let constrain = &rows[0];
    let restrict = &rows[1];
    let none = &rows[2];
    compare(
        "minimization reduces peaks vs none",
        "care-sets bound BDD size",
        &format!(
            "{} vs {} (sum of peaks; none aborted {} cases)",
            constrain.2, none.2, none.4
        ),
        constrain.2 <= none.2 || none.4 > 0,
    );
    compare(
        "constrain is the fastest overall",
        "constrain was overall the best choice",
        &format!(
            "constrain {} / restrict {} / none {}",
            dur(constrain.1),
            dur(restrict.1),
            dur(none.1)
        ),
        constrain.1 <= restrict.1,
    );
    compare(
        "restrict can reduce peaks further but costs time",
        "aggressive minimization: smaller peaks, higher run-time",
        &format!(
            "peaks {} vs {}, time {} vs {}",
            restrict.3,
            constrain.3,
            dur(restrict.1),
            dur(constrain.1)
        ),
        restrict.1 >= constrain.1,
    );
}
