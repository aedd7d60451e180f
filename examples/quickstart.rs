//! Quickstart: build the two FPUs, simulate an instruction, then formally
//! verify one case-split slice of the input space.
//!
//! Run with: `cargo run --release -p fmaverify --example quickstart`

use fmaverify::{
    build_harness, check_miter_bdd_parts, prove_multiplier_soundness, BddEngineOptions, CaseId,
    HarnessOptions, ShaCase,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp, MultiplierMode};
use fmaverify_netlist::BitSim;
use fmaverify_softfloat::{FpFormat, RoundingMode};

fn main() {
    // A half-precision FPU that flushes denormal operands to zero — the
    // paper's primary configuration, scaled to laptop size.
    let cfg = FpuConfig {
        format: FpFormat::HALF,
        denormals: DenormalMode::FlushToZero,
    };
    println!("== fmaverify quickstart (format {:?}) ==\n", cfg.format);

    // 1. Build the driver: reference FPU + implementation FPU + miter, with
    //    the multiplier isolated behind constrained S'/T' pseudo-inputs.
    let mut harness = build_harness(&cfg, HarnessOptions::default());
    println!(
        "harness: {} AND gates, miter cone {} gates",
        harness.netlist.num_ands(),
        harness.netlist.cone_size(&[harness.miter]),
    );

    // 2. Concretely simulate an FMA: 1.5 * 2.5 + (-0.125).
    let a = (1.5f64 * 2f64.powi(0)).to_half(cfg.format);
    let b = 2.5f64.to_half(cfg.format);
    let c = (-0.125f64).to_half(cfg.format);
    // Simulation uses the non-isolated harness so the real multiplier runs.
    let sim_harness = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );
    let mut sim = BitSim::new(&sim_harness.netlist);
    sim.set_word(&sim_harness.inputs.a, a);
    sim.set_word(&sim_harness.inputs.b, b);
    sim.set_word(&sim_harness.inputs.c, c);
    sim.set_word(&sim_harness.inputs.op, FpuOp::Fma.encode() as u128);
    sim.set_word(
        &sim_harness.inputs.rm,
        RoundingMode::NearestEven.encode() as u128,
    );
    sim.eval();
    let result = sim.get_word(&sim_harness.fpu_result());
    println!(
        "simulate: 1.5 * 2.5 - 0.125 = {} (impl FPU), miter quiet: {}",
        cfg.format.to_f64(result),
        !sim.get(sim_harness.miter),
    );

    // 3. Formally verify one cancellation case: δ = 0 with a normalization
    //    shift of f+5, covering all operands, both FPUs, and all four
    //    rounding modes at once.
    let case = CaseId::OverlapCancel {
        delta: 0,
        sha: ShaCase::Exact(cfg.format.frac_bits() as usize + 5),
    };
    let constraint_parts = harness.case_constraint_parts(FpuOp::Fma, case);
    let order = fmaverify::paper_order(&harness, Some(0));
    let outcome = check_miter_bdd_parts(
        &harness.netlist,
        harness.miter,
        &constraint_parts,
        &BddEngineOptions {
            order,
            ..BddEngineOptions::default()
        },
    );
    println!(
        "formal:   case [{}] {} (peak {} BDD nodes, {:?})",
        case.label(),
        if outcome.holds { "HOLDS" } else { "FAILS" },
        outcome.peak_nodes,
        outcome.duration,
    );

    // 4. Discharge the isolation soundness obligation for the real
    //    multiplier.
    let soundness = prove_multiplier_soundness(&cfg, &[], MultiplierMode::Real);
    println!(
        "soundness: multiplier property {} ({} of {} FPU gates in cone, {:?})",
        if soundness.holds { "PROVED" } else { "REFUTED" },
        soundness.cone_ands,
        soundness.full_fpu_ands,
        soundness.duration,
    );
}

/// Small helper: convert an f64 to the target format's bits (round to
/// nearest even) using the softfloat library itself.
trait ToHalf {
    fn to_half(self, fmt: FpFormat) -> u128;
}

impl ToHalf for f64 {
    fn to_half(self, fmt: FpFormat) -> u128 {
        // Convert through multiplication by 1.0 in the target format after
        // unpacking the f64 — adequate for exactly-representable examples.
        let bits = self.to_bits() as u128;
        let d = FpFormat::DOUBLE;
        if self == 0.0 {
            return fmt.zero(self.is_sign_negative());
        }
        let (s, m, e) = d.unpack_finite(bits);
        // Renormalize the 53-bit significand into the target's width.
        let shift = 52 - fmt.frac_bits();
        assert_eq!(
            m & ((1 << shift) - 1),
            0,
            "example value must be exactly representable"
        );
        let frac = (m >> shift) & fmt.frac_mask();
        let exp = e + 52 + fmt.bias();
        fmt.pack(s, exp as u32, frac)
    }
}

/// Convenience accessors used by the example.
trait HarnessExt {
    fn fpu_result(&self) -> fmaverify_netlist::Word;
}

impl HarnessExt for fmaverify::Harness {
    fn fpu_result(&self) -> fmaverify_netlist::Word {
        self.impl_fpu.outputs.result.clone()
    }
}
