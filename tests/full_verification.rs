//! End-to-end reproduction of the paper's main result at a reduced format:
//! every instruction of the FPU is exhaustively verified against the
//! reference model by the case-split BDD/SAT flow, with multiplier isolation
//! and its soundness obligation, and the case split is proven complete.

use fmaverify::{
    enumerate_cases, prove_completeness, prove_multiplier_soundness, EngineKind, HarnessOptions,
    RunConfig, Session,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_softfloat::FpFormat;

fn tiny(denormals: DenormalMode) -> FpuConfig {
    FpuConfig {
        format: FpFormat::new(3, 2),
        denormals,
    }
}

#[test]
fn all_instructions_verify_flush_to_zero() {
    let cfg = tiny(DenormalMode::FlushToZero);
    for op in FpuOp::ALL {
        let report = Session::new(&cfg).run(op);
        assert!(
            report.all_hold(),
            "{op:?} failed: {:?}",
            report.first_failure().map(|f| (&f.case, &f.counterexample))
        );
        assert_eq!(report.results.len(), enumerate_cases(&cfg, op).len());
        // The engine split follows the paper: far-out/mult by SAT, overlap
        // by BDD.
        for r in &report.results {
            match r.case {
                fmaverify::CaseId::FarOut | fmaverify::CaseId::Monolithic => {
                    assert_eq!(r.engine(), Some(EngineKind::Sat))
                }
                _ => assert_eq!(r.engine(), Some(EngineKind::Bdd)),
            }
            // The default policy never needs to escalate on the clean design.
            assert_eq!(r.escalations(), 0);
        }
    }
}

#[test]
fn all_instructions_verify_full_ieee() {
    // Section 6: fully IEEE-compliant (denormal operands honored). The case
    // count grows quadratically but each case stays tractable.
    let cfg = tiny(DenormalMode::FullIeee);
    for op in [FpuOp::Fma, FpuOp::Add, FpuOp::Mul] {
        let report = Session::new(&cfg).run(op);
        assert!(
            report.all_hold(),
            "{op:?} failed: {:?}",
            report.first_failure().map(|f| (&f.case, &f.counterexample))
        );
    }
}

#[test]
fn fma_verifies_at_micro_format() {
    let cfg = FpuConfig {
        format: FpFormat::MICRO,
        denormals: DenormalMode::FlushToZero,
    };
    let report = Session::new(&cfg).run(FpuOp::Fma);
    assert!(report.all_hold(), "{:?}", report.first_failure());
    // BDD statistics were recorded for the overlap cases.
    assert!(report
        .results
        .iter()
        .any(|r| r.bdd_peak_nodes().unwrap_or(0) > 0));
}

#[test]
fn soundness_obligation_holds() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let r = prove_multiplier_soundness(&tiny(mode), &[]);
        assert!(r.holds);
        assert!(r.cone_ands < r.full_fpu_ands);
    }
}

#[test]
fn case_split_is_complete() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        for op in FpuOp::ALL {
            let r = prove_completeness(&tiny(mode), op);
            assert!(r.holds(), "op {op:?} mode {mode:?}");
        }
    }
}

#[test]
fn verification_without_isolation_also_passes_for_add() {
    // The paper verifies the add instruction with the multiplier in the
    // cone of influence: the constant 1.0 operand lets constant propagation
    // collapse the multiplier.
    let cfg = tiny(DenormalMode::FlushToZero);
    let report = Session::new(&cfg)
        .configure(RunConfig {
            harness: HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
            ..RunConfig::default()
        })
        .run(FpuOp::Add);
    assert!(report.all_hold(), "{:?}", report.first_failure());
}

#[test]
fn pipelined_implementation_agrees_with_reference_by_simulation() {
    // The sequential (three-stage, clock-gated) implementation is validated
    // against the combinational reference by stepping the netlist — the
    // "portable to simulation" leg of the methodology.
    use fmaverify_fpu::{
        build_impl_fpu, build_ref_fpu, FpuInputs, MultiplierMode, PipelineMode, ProductSource,
    };
    use fmaverify_netlist::{BitSim, Netlist};
    use rand::{Rng, SeedableRng};

    let cfg = tiny(DenormalMode::FlushToZero);
    let mut n = Netlist::new();
    let inputs = FpuInputs::new(&mut n, cfg.format);
    let ref_fpu = build_ref_fpu(&mut n, &cfg, &inputs, ProductSource::Exact);
    let impl_fpu = build_impl_fpu(
        &mut n,
        &cfg,
        &inputs,
        MultiplierMode::Real,
        PipelineMode::ThreeStage,
    );
    n.assert_closed();
    let mut sim = BitSim::new(&n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xfeed);
    for _ in 0..1500 {
        sim.reset();
        sim.set_word(&inputs.a, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.b, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.c, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.op, rng.gen_range(0..FpuOp::ALL.len() as u128));
        sim.set_word(&inputs.rm, rng.gen_range(0..4));
        for _ in 0..PipelineMode::ThreeStage.latency() {
            sim.step();
        }
        assert_eq!(
            sim.get_word(&ref_fpu.outputs.result),
            sim.get_word(&impl_fpu.outputs.result),
        );
        assert_eq!(
            sim.get_word(&ref_fpu.outputs.flags),
            sim.get_word(&impl_fpu.outputs.flags),
        );
    }
}

/// The paper's exact problem size: one double-precision case per class,
/// formally verified. Slow (~2 min); run with `cargo test -- --ignored`.
#[test]
#[ignore = "full double precision; ~2 minutes"]
fn double_precision_spot_checks() {
    use fmaverify::{
        build_harness, check_miter_bdd_parts, check_miter_sat_parts, paper_order, BddEngineOptions,
        CaseId, SatEngineOptions, ShaCase,
    };
    let cfg = FpuConfig {
        format: FpFormat::DOUBLE,
        denormals: DenormalMode::FlushToZero,
    };
    let mut h = build_harness(&cfg, fmaverify::HarnessOptions::default());
    for (case, delta) in [
        (CaseId::OverlapNoCancel { delta: 30 }, Some(30)),
        (
            CaseId::OverlapCancel {
                delta: 0,
                sha: ShaCase::Exact(60),
            },
            Some(0),
        ),
    ] {
        let parts = h.case_constraint_parts(FpuOp::Fma, case);
        let order = paper_order(&h, delta);
        let out = check_miter_bdd_parts(
            &h.netlist,
            h.miter,
            &parts,
            &BddEngineOptions {
                order,
                gc_threshold: 8_000_000,
                node_limit: Some(80_000_000),
                ..BddEngineOptions::default()
            },
        );
        assert!(out.holds && !out.aborted, "DP case {case:?}");
    }
    let parts = h.case_constraint_parts(FpuOp::Fma, CaseId::FarOut);
    let out = check_miter_sat_parts(&h.netlist, h.miter, &parts, &SatEngineOptions::default());
    assert!(out.holds, "DP far-out");
}
