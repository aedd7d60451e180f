//! Validation of the reference FPU netlist against the softfloat oracle:
//! exhaustive two-operand sweeps at a tiny format, special-value cubes,
//! random sampling, and δ-boundary-targeted vectors.

mod common;

use common::{check_one, Harness};
use fmaverify_fpu::{build_ref_fpu, DenormalMode, FpuOp, ProductSource, RefFpu};
use fmaverify_netlist::BitSim;
use fmaverify_softfloat::{FpFormat, RoundingMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build(format: FpFormat, denormals: DenormalMode) -> Harness<RefFpu> {
    common::build(format, denormals, |netlist, cfg, inputs| {
        build_ref_fpu(netlist, cfg, inputs, ProductSource::Exact)
    })
}

/// Interesting operand values for a format: specials, boundaries, and a few
/// mid-range patterns.
fn interesting(f: FpFormat) -> Vec<u128> {
    let mut v = Vec::new();
    for sign in [false, true] {
        v.push(f.zero(sign));
        v.push(f.min_denormal(sign));
        v.push(f.pack(sign, 0, f.frac_mask())); // max denormal
        v.push(f.min_normal(sign));
        v.push(f.one(sign));
        v.push(f.pack(sign, f.bias() as u32, 1)); // 1 + ulp
        v.push(f.max_finite(sign));
        v.push(f.inf(sign));
        v.push(f.pack(sign, (f.bias() + 2) as u32, f.frac_mask() >> 1));
    }
    v.push(f.quiet_nan());
    v.push(f.pack(false, f.exp_max_biased(), 1)); // signaling NaN
    v
}

#[test]
fn exhaustive_add_tiny_format() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::new(3, 2);
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        for a in 0..1u128 << 6 {
            for c in 0..1u128 << 6 {
                for rm in RoundingMode::ALL {
                    check_one(&h, &mut sim, FpuOp::Add, a, 0, c, rm);
                }
            }
        }
    }
}

#[test]
fn exhaustive_mul_tiny_format() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::new(3, 2);
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        for a in 0..1u128 << 6 {
            for b in 0..1u128 << 6 {
                for rm in RoundingMode::ALL {
                    check_one(&h, &mut sim, FpuOp::Mul, a, b, 0, rm);
                }
            }
        }
    }
}

#[test]
fn fma_special_cube_tiny_format() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::new(3, 2);
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        let vals = interesting(fmt);
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
fn exhaustive_fma_tiny_format_rotating_modes() {
    // Full operand cube at the 6-bit format; the rounding mode and FMA/FMS
    // choice rotate deterministically so every triple is exercised.
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
fn fma_random_micro() {
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let fmt = FpFormat::MICRO;
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        let mask = fmt.mask();
        let mut rng = StdRng::seed_from_u64(0xfa11);
        for _ in 0..6000 {
            let a = rng.gen::<u128>() & mask;
            let b = rng.gen::<u128>() & mask;
            let c = rng.gen::<u128>() & mask;
            let rm = RoundingMode::ALL[rng.gen_range(0..4)];
            let op = FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())];
            check_one(&h, &mut sim, op, a, b, c, rm);
        }
    }
}

/// Constructs an FMA triple with a chosen δ = e_p − e_c, exercising every
/// case boundary of Figure 2.
#[test]
fn fma_delta_boundaries_half() {
    let fmt = FpFormat::HALF;
    let f = fmt.frac_bits() as i64;
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        let mut rng = StdRng::seed_from_u64(0xde17a);
        let boundaries = [
            -(f + 4),
            -(f + 3),
            -(f + 2),
            -(f + 1),
            -3,
            -2,
            -1,
            0,
            1,
            2,
            f,
            2 * f,
            2 * f + 1,
            2 * f + 2,
            2 * f + 3,
        ];
        for &delta in &boundaries {
            for _ in 0..300 {
                // Pick exponents with e_a + e_b - e_c = delta (unbiased).
                let ea = rng.gen_range(1..((1 << fmt.exp_bits()) - 1)) as i64;
                let target_sum = delta; // (ea-b)+(eb-b)-(ec-b) = ea+eb-ec-b
                let ec = rng.gen_range(1..((1 << fmt.exp_bits()) - 1)) as i64;
                let eb_field = target_sum + ec + fmt.bias() as i64 - ea;
                if eb_field < 1 || eb_field >= (1 << fmt.exp_bits()) - 1 {
                    continue;
                }
                let a = fmt.pack(rng.gen(), ea as u32, rng.gen::<u128>() & fmt.frac_mask());
                let b = fmt.pack(
                    rng.gen(),
                    eb_field as u32,
                    rng.gen::<u128>() & fmt.frac_mask(),
                );
                let c = fmt.pack(rng.gen(), ec as u32, rng.gen::<u128>() & fmt.frac_mask());
                let rm = RoundingMode::ALL[rng.gen_range(0..4)];
                check_one(&h, &mut sim, FpuOp::Fma, a, b, c, rm);
            }
        }
    }
}

#[test]
fn fma_random_double() {
    let fmt = FpFormat::DOUBLE;
    let h = build(fmt, DenormalMode::FlushToZero);
    let mut sim = BitSim::new(&h.netlist);
    let mut rng = StdRng::seed_from_u64(0xd0b1e);
    for _ in 0..400 {
        let a = rng.gen::<u64>() as u128;
        let b = rng.gen::<u64>() as u128;
        let c = rng.gen::<u64>() as u128;
        let rm = RoundingMode::ALL[rng.gen_range(0..4)];
        let op = FpuOp::ALL[rng.gen_range(0..FpuOp::ALL.len())];
        check_one(&h, &mut sim, op, a, b, c, rm);
    }
    // Near-exponent operands exercise the overlap/cancellation paths more.
    for _ in 0..400 {
        let ea: u32 = rng.gen_range(1..2046);
        let eb: u32 = rng.gen_range(1..2046);
        let spread: i64 = rng.gen_range(-60..60);
        let ec = (ea as i64 + eb as i64 - fmt.bias() as i64 + spread).clamp(1, 2046) as u32;
        let a = fmt.pack(rng.gen(), ea, rng.gen::<u128>() & fmt.frac_mask());
        let b = fmt.pack(rng.gen(), eb, rng.gen::<u128>() & fmt.frac_mask());
        let c = fmt.pack(rng.gen(), ec, rng.gen::<u128>() & fmt.frac_mask());
        let rm = RoundingMode::ALL[rng.gen_range(0..4)];
        check_one(&h, &mut sim, FpuOp::Fma, a, b, c, rm);
        check_one(&h, &mut sim, FpuOp::Fms, a, b, c, rm);
    }
}

#[test]
fn denormal_product_of_normals_mult() {
    // The paper's hidden case: normal * normal = denormal, addend zero.
    let fmt = FpFormat::HALF;
    for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
        let h = build(fmt, mode);
        let mut sim = BitSim::new(&h.netlist);
        let mut rng = StdRng::seed_from_u64(77);
        for ea in 1..8u32 {
            for eb in 1..8u32 {
                for _ in 0..40 {
                    let a = fmt.pack(rng.gen(), ea, rng.gen::<u128>() & fmt.frac_mask());
                    let b = fmt.pack(rng.gen(), eb, rng.gen::<u128>() & fmt.frac_mask());
                    let rm = RoundingMode::ALL[rng.gen_range(0..4)];
                    check_one(&h, &mut sim, FpuOp::Mul, a, b, 0, rm);
                    // Also as FMA with an explicit zero addend of each sign.
                    check_one(&h, &mut sim, FpuOp::Fma, a, b, fmt.zero(false), rm);
                    check_one(&h, &mut sim, FpuOp::Fma, a, b, fmt.zero(true), rm);
                }
            }
        }
    }
}

#[test]
fn case_probes_consistent() {
    // Exactly one case indicator is active, and δ matches the operands.
    let fmt = FpFormat::MICRO;
    let h = build(fmt, DenormalMode::FlushToZero);
    let mut sim = BitSim::new(&h.netlist);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..2000 {
        let a = rng.gen::<u128>() & fmt.mask();
        let b = rng.gen::<u128>() & fmt.mask();
        let c = rng.gen::<u128>() & fmt.mask();
        sim.set_word(&h.inputs.a, a);
        sim.set_word(&h.inputs.b, b);
        sim.set_word(&h.inputs.c, c);
        sim.set_word(&h.inputs.op, FpuOp::Fma.encode() as u128);
        sim.set_word(&h.inputs.rm, 0);
        sim.eval();
        let fl = sim.get(h.fpu.case_far_left);
        let fr = sim.get(h.fpu.case_far_right);
        let ov = sim.get(h.fpu.case_overlap);
        assert_eq!(
            u32::from(fl) + u32::from(fr) + u32::from(ov),
            1,
            "exactly one case for a={a:#x} b={b:#x} c={c:#x}"
        );
    }
}
