//! **Experiment F1/S2 — multiplier isolation**.
//!
//! Paper Figure 1: overriding the multiplier outputs `S`,`T` with the
//! pseudo-inputs `S'`,`T'` makes the multiplier sinkless, removing it from
//! the cone of influence. Soundness is "a simple proof obligation for SAT,
//! since it requires only a fraction of the multiplier logic in the
//! cone-of-influence".
//!
//! We measure: miter cone with/without isolation, BDD cost of one overlap
//! case with/without isolation, the soundness proof's cone and time, and
//! the automatically derived hot-one rules.

use fmaverify::RunConfig;
use fmaverify::{
    build_harness, check_miter_bdd_parts, derive_st_constants, paper_order,
    prove_multiplier_soundness, BddEngineOptions, CaseId, HarnessOptions, ShaCase,
};
use fmaverify_bench::{banner, bench_config, compare, dur};
use fmaverify_fpu::{FpuOp, MultiplierMode};

fn main() {
    banner(
        "isolation",
        "Figure 1 / §2: multiplier isolation and its soundness obligation",
    );
    let cfg = bench_config();
    let f = cfg.format.frac_bits() as usize;
    let node_limit = RunConfig::from_env().node_budget.unwrap_or(40_000_000);

    let isolated = build_harness(&cfg, HarnessOptions::default());
    let full = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );
    let iso_cone = isolated.netlist.cone_size(&[isolated.miter]);
    let full_cone = full.netlist.cone_size(&[full.miter]);
    println!("miter cone, isolated: {iso_cone} AND gates");
    println!("miter cone, full:     {full_cone} AND gates\n");

    // Width sweep: the isolated case scales gently; keeping the real
    // multiplier in the BDD cone explodes with the significand width —
    // exactly why the paper isolates it.
    let _ = f;
    println!("BDD cost of one cancellation case (δ=0), isolated vs full multiplier:");
    println!(
        "  {:>6} {:>16} {:>12} {:>16} {:>12}",
        "frac", "isolated peak", "time", "full-mult peak", "time"
    );
    let mut ratios = Vec::new();
    for frac in [4u32, 6, 8] {
        let sweep_cfg = fmaverify_fpu::FpuConfig {
            format: fmaverify_softfloat::FpFormat::new(cfg.format.exp_bits().max(5), frac),
            denormals: cfg.denormals,
        };
        let case = CaseId::OverlapCancel {
            delta: 0,
            sha: ShaCase::Exact(frac as usize + 2),
        };
        let mut row = Vec::new();
        for isolate in [true, false] {
            let mut h = build_harness(
                &sweep_cfg,
                HarnessOptions {
                    isolate_multiplier: isolate,
                    ..HarnessOptions::default()
                },
            );
            let parts = h.case_constraint_parts(FpuOp::Fma, case);
            let order = paper_order(&h, Some(0));
            let out = check_miter_bdd_parts(
                &h.netlist,
                h.miter,
                &parts,
                &BddEngineOptions {
                    order,
                    node_limit: Some(node_limit),
                    gc_threshold: (node_limit / 8).max(500_000),
                    ..BddEngineOptions::default()
                },
            );
            assert!(out.holds || out.aborted);
            row.push(out);
        }
        println!(
            "  {:>6} {:>16} {:>12} {:>15}{} {:>12}",
            frac,
            row[0].peak_nodes,
            dur(row[0].duration),
            row[1].peak_nodes,
            if row[1].aborted { "+" } else { " " },
            dur(row[1].duration),
        );
        ratios.push(row[1].peak_nodes as f64 / row[0].peak_nodes as f64);
    }
    println!();

    let constants = derive_st_constants(&cfg, 600, MultiplierMode::Real);
    let soundness = prove_multiplier_soundness(&cfg, &constants, MultiplierMode::Real);
    println!(
        "\nsoundness obligation: {} in {} with {} of {} FPU gates in the cone \
         ({} derived hot-one rules)",
        if soundness.holds { "PROVED" } else { "REFUTED" },
        dur(soundness.duration),
        soundness.cone_ands,
        soundness.full_fpu_ands,
        constants.len(),
    );
    assert!(soundness.holds);

    println!();
    compare(
        "isolation removes the multiplier from the COI",
        "multiplier becomes sinkless",
        &format!("{iso_cone} vs {full_cone} gates"),
        iso_cone < full_cone,
    );
    compare(
        "isolation keeps the BDD cases tractable as width grows",
        "necessary for feasibility at double precision",
        &format!(
            "full/isolated peak ratio grows: {:.1} -> {:.1} -> {:.1}",
            ratios[0], ratios[1], ratios[2]
        ),
        ratios[2] > 4.0 && ratios[2] > ratios[0],
    );
    compare(
        "soundness needs only a fraction of the FPU",
        "simple proof obligation for SAT",
        &format!(
            "{} of {} gates",
            soundness.cone_ands, soundness.full_fpu_ands
        ),
        soundness.cone_ands * 2 < soundness.full_fpu_ands,
    );
}
