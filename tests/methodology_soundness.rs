//! Soundness cross-checks of the methodology itself: constraint semantics,
//! engine agreement, isolation consistency, and minimization equivalence.

use fmaverify::{
    build_harness, check_miter_bdd_parts, check_miter_sat_parts, enumerate_cases, BddEngineOptions,
    CaseId, HarnessOptions, Minimize, SatEngineOptions,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::BitSim;
use fmaverify_softfloat::FpFormat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny() -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals: DenormalMode::FlushToZero,
    }
}

#[test]
fn delta_case_constraints_are_mutually_exclusive() {
    // For any concrete input, at most one δ-level constraint (far-out or a
    // single overlap δ) of the FMA instruction is satisfied (exactly one
    // once the shared multiplier conjunct holds).
    let cfg = tiny();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let cases = enumerate_cases(&cfg, FpuOp::Fma);
    let mut delta_level: Vec<fmaverify_netlist::Signal> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for case in &cases {
        match case {
            CaseId::FarOut | CaseId::OverlapNoCancel { .. } => {
                delta_level.push(h.case_constraint(FpuOp::Fma, *case))
            }
            CaseId::OverlapCancel { delta, .. } => {
                if seen.insert(*delta) {
                    delta_level.push(
                        h.case_constraint(FpuOp::Fma, CaseId::OverlapNoCancel { delta: *delta }),
                    );
                }
            }
            CaseId::Monolithic => unreachable!(),
        }
    }
    let mut sim = BitSim::new(&h.netlist);
    let mut rng = StdRng::seed_from_u64(0xabc);
    let wwin = cfg.window_bits() as u32;
    let st_mask = (1u128 << wwin) - 1;
    for _ in 0..400 {
        sim.set_word(&h.inputs.a, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&h.inputs.b, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&h.inputs.c, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&h.inputs.op, FpuOp::Fma.encode() as u128);
        sim.set_word(&h.inputs.rm, rng.gen_range(0..4));
        let (sw, tw) = h.st.clone().expect("isolated");
        sim.set_word(&sw, rng.gen::<u128>() & st_mask);
        sim.set_word(&tw, rng.gen::<u128>() & st_mask);
        sim.eval();
        let active: usize = delta_level.iter().filter(|&&c| sim.get(c)).count();
        assert!(
            active <= 1,
            "δ constraints must be mutually exclusive (got {active})"
        );
    }
}

#[test]
fn bdd_and_sat_engines_agree_per_case() {
    let cfg = tiny();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let cases = enumerate_cases(&cfg, FpuOp::Fma);
    let sample: Vec<CaseId> = cases
        .iter()
        .copied()
        .filter(|c| {
            matches!(
                c,
                CaseId::FarOut
                    | CaseId::OverlapNoCancel { delta: 3 }
                    | CaseId::OverlapCancel {
                        delta: 0,
                        sha: fmaverify::ShaCase::Exact(2)
                    }
                    | CaseId::OverlapCancel {
                        delta: -1,
                        sha: fmaverify::ShaCase::Rest
                    }
            )
        })
        .collect();
    assert!(sample.len() >= 3);
    for case in sample {
        let constraint = h.case_constraint(FpuOp::Fma, case);
        let bdd = check_miter_bdd_parts(
            &h.netlist,
            h.miter,
            &[constraint],
            &BddEngineOptions::default(),
        );
        let sat = check_miter_sat_parts(
            &h.netlist,
            h.miter,
            &[constraint],
            &SatEngineOptions::default(),
        );
        assert!(!bdd.aborted && !sat.unknown);
        assert_eq!(bdd.holds, sat.holds, "engines disagree on {case:?}");
        assert!(bdd.holds, "the unmutated design verifies");
    }
}

#[test]
fn minimization_strategies_agree() {
    // Constrain, restrict, and no-minimization must give the same verdict;
    // only their node counts differ (the paper's ablation).
    let cfg = tiny();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let case = CaseId::OverlapCancel {
        delta: 1,
        sha: fmaverify::ShaCase::Exact(1),
    };
    let constraint = h.case_constraint(FpuOp::Fma, case);
    for minimize in [Minimize::Constrain, Minimize::Restrict, Minimize::None] {
        let out = check_miter_bdd_parts(
            &h.netlist,
            h.miter,
            &[constraint],
            &BddEngineOptions {
                minimize,
                ..BddEngineOptions::default()
            },
        );
        assert!(out.holds, "verdict differs under {minimize:?}");
    }
}

#[test]
fn isolated_harness_consistent_under_valid_pseudo_inputs() {
    // For concrete operands and any S'/T' split of the *true* product, the
    // isolated reference and implementation agree, and the constraint holds
    // — the behavioural core of the isolation argument.
    let cfg = tiny();
    let h = build_harness(&cfg, HarnessOptions::default());
    let (sw, tw) = h.st.clone().expect("isolated");
    let mut sim = BitSim::new(&h.netlist);
    let mut rng = StdRng::seed_from_u64(0x51);
    let f = cfg.format.frac_bits();
    let wwin = cfg.window_bits() as u32;
    let st_mask = (1u128 << wwin) - 1;
    for _ in 0..3000 {
        let a = rng.gen::<u128>() & cfg.format.mask();
        let b = rng.gen::<u128>() & cfg.format.mask();
        let c = rng.gen::<u128>() & cfg.format.mask();
        // Compute the significand product the way the FPUs decode operands.
        let sig = |x: u128| -> u128 {
            let e = (x >> f) & ((1 << cfg.format.exp_bits()) - 1);
            let frac = x & cfg.format.frac_mask();
            if e == 0 || e == (1 << cfg.format.exp_bits()) - 1 {
                0 // zero, flushed denormal, NaN/Inf all present 0 (FTZ)
            } else {
                frac | 1 << f
            }
        };
        let op = rng.gen_range(0..4u32);
        let ma = sig(a);
        let mb = if op == FpuOp::Add.encode() {
            1u128 << f
        } else {
            sig(b)
        };
        let product = ma * mb;
        let s = rng.gen::<u128>() & st_mask;
        let t = product.wrapping_sub(s) & st_mask;
        sim.set_word(&h.inputs.a, a);
        sim.set_word(&h.inputs.b, b);
        sim.set_word(&h.inputs.c, c);
        sim.set_word(&h.inputs.op, op as u128);
        sim.set_word(&h.inputs.rm, rng.gen_range(0..4));
        sim.set_word(&sw, s);
        sim.set_word(&tw, t);
        sim.eval();
        assert!(
            sim.get(h.mult_constraint),
            "a true-product split must satisfy the constraint (a={a:#x} b={b:#x} op={op})"
        );
        assert!(!sim.get(h.miter), "isolated FPUs disagreed");
    }
}

#[test]
fn far_out_discharged_by_sat_quickly() {
    let cfg = tiny();
    let mut h = build_harness(&cfg, HarnessOptions::default());
    let farout = h.case_constraint(FpuOp::Fma, CaseId::FarOut);
    let out = check_miter_sat_parts(
        &h.netlist,
        h.miter,
        &[farout],
        &SatEngineOptions {
            sweep_first: true,
            conflict_budget: None,
        },
    );
    assert!(out.holds);
}
