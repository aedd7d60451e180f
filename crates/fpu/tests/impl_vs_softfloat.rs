//! Validation of the gate-level implementation FPU against the softfloat
//! oracle, plus pipeline-mode checks (the combinational and three-stage
//! variants must agree, with the latter taking its latency in cycles).

mod common;

use common::{check_one, Harness};
use fmaverify_fpu::{
    build_impl_fpu, DenormalMode, FpuConfig, FpuInputs, FpuOp, ImplFpu, MultiplierMode,
    PipelineMode,
};
use fmaverify_netlist::{BitSim, Netlist};
use fmaverify_softfloat::{FpFormat, RoundingMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(format: FpFormat, denormals: DenormalMode) -> Harness<ImplFpu> {
    common::build(format, denormals, |netlist, cfg, inputs| {
        build_impl_fpu(
            netlist,
            cfg,
            inputs,
            MultiplierMode::Real,
            PipelineMode::Combinational,
        )
    })
}

#[test]
fn exhaustive_add_mul_tiny_format() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::new(3, 2);
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        for a in 0..1u128 << 6 {
            for x in 0..1u128 << 6 {
                for rm in RoundingMode::ALL {
                    check_one(&h, &mut sim, FpuOp::Add, a, 0, x, rm);
                    check_one(&h, &mut sim, FpuOp::Mul, a, x, 0, rm);
                }
            }
        }
    }
}

#[test]
fn exhaustive_fma_tiny_format_rotating_modes() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::new(3, 2);
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        let mut k = 0usize;
        for a in 0..1u128 << 6 {
            for b in 0..1u128 << 6 {
                for c in 0..1u128 << 6 {
                    let rm = RoundingMode::ALL[k % 4];
                    let op = [FpuOp::Fma, FpuOp::Fms, FpuOp::Fnma, FpuOp::Fnms][(k / 4) % 4];
                    check_one(&h, &mut sim, op, a, b, c, rm);
                    k += 1;
                }
            }
        }
    }
}

#[test]
fn random_micro_and_half() {
    let mut rng = StdRng::seed_from_u64(0x1337);
    for fmt in [FpFormat::MICRO, FpFormat::HALF] {
        for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
            let h = build(fmt, mode);
            let mut sim = BitSim::new(&h.netlist);
            let mask = fmt.mask();
            for _ in 0..3000 {
                let a = rng.gen::<u128>() & mask;
                let b = rng.gen::<u128>() & mask;
                let c = rng.gen::<u128>() & mask;
                let rm = RoundingMode::ALL[rng.gen_range(0..4)];
                let op = FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())];
                check_one(&h, &mut sim, op, a, b, c, rm);
            }
            // Cancellation-heavy: exponents near each other.
            for _ in 0..2000 {
                let emax = (1u32 << fmt.exp_bits()) - 2;
                let ea = rng.gen_range(1..=emax);
                let eb = rng.gen_range(1..=emax);
                let spread: i64 = rng.gen_range(-4..4);
                let ec = (ea as i64 + eb as i64 - fmt.bias() as i64 + spread).clamp(1, emax as i64)
                    as u32;
                let a = fmt.pack(rng.gen(), ea, rng.gen::<u128>() & fmt.frac_mask());
                let b = fmt.pack(rng.gen(), eb, rng.gen::<u128>() & fmt.frac_mask());
                let c = fmt.pack(rng.gen(), ec, rng.gen::<u128>() & fmt.frac_mask());
                let rm = RoundingMode::ALL[rng.gen_range(0..4)];
                check_one(&h, &mut sim, FpuOp::Fma, a, b, c, rm);
                check_one(&h, &mut sim, FpuOp::Fms, a, b, c, rm);
            }
        }
    }
}

#[test]
fn random_double() {
    let fmt = FpFormat::DOUBLE;
    let mut rng = StdRng::seed_from_u64(0xaaaa);
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        for _ in 0..200 {
            let a = rng.gen::<u64>() as u128;
            let b = rng.gen::<u64>() as u128;
            let c = rng.gen::<u64>() as u128;
            let rm = RoundingMode::ALL[rng.gen_range(0..4)];
            let op = FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())];
            check_one(&h, &mut sim, op, a, b, c, rm);
        }
        for _ in 0..200 {
            let ea: u32 = rng.gen_range(1..2046);
            let eb: u32 = rng.gen_range(1..2046);
            let spread: i64 = rng.gen_range(-60..60);
            let ec = (ea as i64 + eb as i64 - fmt.bias() as i64 + spread).clamp(1, 2046) as u32;
            let a = fmt.pack(rng.gen(), ea, rng.gen::<u128>() & fmt.frac_mask());
            let b = fmt.pack(rng.gen(), eb, rng.gen::<u128>() & fmt.frac_mask());
            let c = fmt.pack(rng.gen(), ec, rng.gen::<u128>() & fmt.frac_mask());
            let rm = RoundingMode::ALL[rng.gen_range(0..4)];
            check_one(&h, &mut sim, FpuOp::Fma, a, b, c, rm);
        }
    }
}

#[test]
fn specials_cube() {
    let fmt = FpFormat::new(3, 2);
    let mut vals = Vec::new();
    for sign in [false, true] {
        vals.extend([
            fmt.zero(sign),
            fmt.min_denormal(sign),
            fmt.pack(sign, 0, fmt.frac_mask()),
            fmt.min_normal(sign),
            fmt.one(sign),
            fmt.max_finite(sign),
            fmt.inf(sign),
        ]);
    }
    vals.push(fmt.quiet_nan());
    vals.push(fmt.pack(false, fmt.exp_max_biased(), 1)); // sNaN
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        for &a in &vals {
            for &b in &vals {
                for &c in &vals {
                    for rm in RoundingMode::ALL {
                        check_one(&h, &mut sim, FpuOp::Fma, a, b, c, rm);
                        check_one(&h, &mut sim, FpuOp::Fms, a, b, c, rm);
                    }
                }
            }
        }
    }
}

#[test]
fn pipeline_matches_combinational() {
    let fmt = FpFormat::MICRO;
    let cfg = FpuConfig {
        format: fmt,
        denormals: DenormalMode::FlushToZero,
    };
    let mut netlist = Netlist::new();
    let inputs = FpuInputs::new(&mut netlist, fmt);
    let fpu = build_impl_fpu(
        &mut netlist,
        &cfg,
        &inputs,
        MultiplierMode::Real,
        PipelineMode::ThreeStage,
    );
    netlist.assert_closed();
    assert!(
        netlist.num_latches() > 0,
        "pipeline mode must create registers"
    );
    let mut sim = BitSim::new(&netlist);
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..800 {
        let a = rng.gen::<u128>() & fmt.mask();
        let b = rng.gen::<u128>() & fmt.mask();
        let c = rng.gen::<u128>() & fmt.mask();
        let rm = RoundingMode::ALL[rng.gen_range(0..4)];
        let op = FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())];
        sim.reset();
        sim.set_word(&inputs.a, a);
        sim.set_word(&inputs.b, b);
        sim.set_word(&inputs.c, c);
        sim.set_word(&inputs.op, op.encode() as u128);
        sim.set_word(&inputs.rm, rm.encode() as u128);
        for _ in 0..PipelineMode::ThreeStage.latency() {
            sim.step();
        }
        let got = sim.get_word(&fpu.outputs.result);
        let got_flags = sim.get_word(&fpu.outputs.flags) as u32;
        let want = op.apply(&cfg, a, b, c, rm);
        assert_eq!(got, want.bits, "{op:?} {a:#x} {b:#x} {c:#x} {rm:?}");
        assert_eq!(got_flags, want.flags.encode());
    }
}

#[test]
fn lopsided_formats() {
    // Formats whose normalization-shift range exceeds the exponent range
    // stress the width of the exponent-arithmetic words.
    let mut rng = StdRng::seed_from_u64(0x1095);
    for fmt in [
        FpFormat::new(3, 8),
        FpFormat::new(2, 10),
        FpFormat::new(7, 2),
    ] {
        for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
            let h = build(fmt, mode);
            let mut sim = BitSim::new(&h.netlist);
            for k in 0..3000usize {
                let a = rng.gen::<u128>() & fmt.mask();
                let b = rng.gen::<u128>() & fmt.mask();
                let c = rng.gen::<u128>() & fmt.mask();
                let op = FpuOp::ALL[k % FpuOp::ALL.len()];
                let rm = RoundingMode::ALL[k % 4];
                check_one(&h, &mut sim, op, a, b, c, rm);
            }
        }
    }
}
