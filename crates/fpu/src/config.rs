//! Shared configuration for the FPU netlists: instruction set, denormal
//! behaviour, and derived datapath widths.

use fmaverify_netlist::{Netlist, Word};
use fmaverify_softfloat::{add_with, fma_with, mul_with, negate, FpFormat, FpResult, RoundingMode};

/// The instructions the FPU executes: the FMA instruction and its
/// derivatives as defined in the PowerPC architecture (`fmadd`, `fmsub`,
/// `fadd`, `fmul`, `fnmadd`, `fnmsub`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FpuOp {
    /// Fused multiply-add: `a*b + c`.
    Fma,
    /// Fused multiply-subtract: `a*b - c`.
    Fms,
    /// Addition `a + c`, executed as `a*1 + c`.
    Add,
    /// Multiplication `a * b`, executed as `a*b + 0`.
    Mul,
    /// Negative fused multiply-add: `-(a*b + c)` (NaN results are not
    /// negated, per PowerPC).
    Fnma,
    /// Negative fused multiply-subtract: `-(a*b - c)`.
    Fnms,
}

impl FpuOp {
    /// All supported instructions.
    pub const ALL: [FpuOp; 6] = [
        FpuOp::Fma,
        FpuOp::Fms,
        FpuOp::Add,
        FpuOp::Mul,
        FpuOp::Fnma,
        FpuOp::Fnms,
    ];

    /// 3-bit opcode encoding used by the netlists.
    pub fn encode(self) -> u32 {
        match self {
            FpuOp::Fma => 0,
            FpuOp::Fms => 1,
            FpuOp::Add => 2,
            FpuOp::Mul => 3,
            FpuOp::Fnma => 4,
            FpuOp::Fnms => 5,
        }
    }

    /// Decodes the 3-bit opcode.
    ///
    /// # Panics
    /// Panics if `code > 5`.
    pub fn decode(code: u32) -> FpuOp {
        match code {
            0 => FpuOp::Fma,
            1 => FpuOp::Fms,
            2 => FpuOp::Add,
            3 => FpuOp::Mul,
            4 => FpuOp::Fnma,
            5 => FpuOp::Fnms,
            _ => panic!("invalid opcode {code}"),
        }
    }

    /// True for the instructions that negate the final (non-NaN) result.
    pub fn negates_result(self) -> bool {
        matches!(self, FpuOp::Fnma | FpuOp::Fnms)
    }

    /// The architected result of this instruction on the softfloat oracle —
    /// the golden reference all netlists are validated against.
    pub fn apply(self, cfg: &FpuConfig, a: u128, b: u128, c: u128, rm: RoundingMode) -> FpResult {
        let daz = cfg.denormals == DenormalMode::FlushToZero;
        let f = cfg.format;
        let base = match self {
            FpuOp::Fma | FpuOp::Fnma => fma_with(f, a, b, c, rm, daz),
            FpuOp::Fms | FpuOp::Fnms => fma_with(f, a, b, negate(f, c), rm, daz),
            FpuOp::Add => add_with(f, a, c, rm, daz),
            FpuOp::Mul => mul_with(f, a, b, rm, daz),
        };
        if self.negates_result() && !f.is_nan(base.bits) {
            FpResult {
                bits: negate(f, base.bits),
                flags: base.flags,
            }
        } else {
            base
        }
    }
}

/// How the FPU treats denormal operands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DenormalMode {
    /// Denormal operands are mapped to (like-signed) zero; denormal *results*
    /// are still produced. This is the paper's primary verification target
    /// (Sections 2-5).
    FlushToZero,
    /// Denormal operands are honored (fully IEEE-compliant FPUs, Section 6).
    FullIeee,
}

/// Static configuration of an FPU instance.
#[derive(Clone, Copy, Debug)]
pub struct FpuConfig {
    /// The floating-point format.
    pub format: FpFormat,
    /// Denormal-operand behaviour.
    pub denormals: DenormalMode,
}

impl FpuConfig {
    /// A double-precision flush-to-zero configuration (the paper's primary
    /// target FPU).
    pub fn double_ftz() -> FpuConfig {
        FpuConfig {
            format: FpFormat::DOUBLE,
            denormals: DenormalMode::FlushToZero,
        }
    }

    /// Significand width including the implicit bit (`f + 1`).
    pub fn sig_bits(&self) -> usize {
        self.format.frac_bits() as usize + 1
    }

    /// Width of the full significand product (`2f + 2`).
    pub fn prod_bits(&self) -> usize {
        2 * self.format.frac_bits() as usize + 2
    }

    /// Width of the intermediate result window (`3f + 5`: carry + addend +
    /// product + guard — 161 bits at double precision).
    pub fn window_bits(&self) -> usize {
        3 * self.format.frac_bits() as usize + 5
    }

    /// Width of exponent-arithmetic words (two's complement with enough
    /// headroom for both the exponent sums and the normalization-shift
    /// amounts, which can reach `window_bits` for lopsided formats).
    pub fn exp_arith_bits(&self) -> usize {
        let from_exp = self.format.exp_bits() as usize + 3;
        let from_window = (u32::BITS - (self.window_bits() as u32).leading_zeros()) as usize + 2;
        from_exp.max(from_window)
    }

    /// Smallest overlap δ (−55 at double precision): below this the addend
    /// dominates and the product collapses to a sticky bit.
    ///
    /// Note: the paper states the far-out boundary as δ ≤ −55 (= −(f+3)),
    /// i.e. an overlap range starting at −54. Exhaustive testing against the
    /// softfloat oracle shows that at δ = −(f+3), an addend significand of
    /// exactly 1.0 under effective subtraction cancels one leading bit, and
    /// a product significand in [2,4) then lands on the post-normalization
    /// guard position — so the product is *not* yet sticky-only there. We
    /// therefore treat δ = −(f+3) as an overlap case (one extra δ-case per
    /// instruction; 161 instead of 160 at double precision). See DESIGN.md
    /// §"Reproduction findings".
    pub fn delta_min_overlap(&self) -> i64 {
        -(self.format.frac_bits() as i64 + 3)
    }

    /// Largest overlap δ (105 at double precision): above this the product
    /// dominates and the addend collapses to a sticky bit.
    pub fn delta_max_overlap(&self) -> i64 {
        2 * self.format.frac_bits() as i64 + 1
    }

    /// Number of distinct overlap δ values (161 at double precision; the
    /// paper counts 160 — see [`FpuConfig::delta_min_overlap`]).
    pub fn overlap_delta_count(&self) -> usize {
        (self.delta_max_overlap() - self.delta_min_overlap() + 1) as usize
    }

    /// The cancellation δ values (δ ∈ {−2,−1,0,1}), where effective
    /// subtraction can cancel leading bits and the normalization shift
    /// becomes data-dependent.
    pub fn cancellation_deltas(&self) -> [i64; 4] {
        [-2, -1, 0, 1]
    }

    /// Number of normalization-shift sub-cases per cancellation δ
    /// (106 shift amounts + 1 "rest" case = 107 at double precision).
    pub fn sha_case_count(&self) -> usize {
        self.prod_bits() + 1
    }
}

/// The primary-input bundle shared by every FPU built into one netlist: the
/// three operands, the opcode, and the rounding mode. Creating the inputs
/// once and passing them to both the reference and the implementation FPU
/// realizes the paper's driver, which "dispatches them into both FPUs".
#[derive(Clone, Debug)]
pub struct FpuInputs {
    /// Operand A (raw format bits).
    pub a: Word,
    /// Operand B.
    pub b: Word,
    /// Operand C (the addend).
    pub c: Word,
    /// 3-bit opcode (see [`FpuOp::encode`]).
    pub op: Word,
    /// 2-bit rounding mode (see
    /// [`fmaverify_softfloat::RoundingMode::encode`]).
    pub rm: Word,
}

impl FpuInputs {
    /// Creates the shared operand/opcode/rounding-mode inputs in `netlist`.
    pub fn new(netlist: &mut Netlist, format: FpFormat) -> FpuInputs {
        let w = format.width() as usize;
        FpuInputs {
            a: netlist.word_input("a", w),
            b: netlist.word_input("b", w),
            c: netlist.word_input("c", w),
            op: netlist.word_input("op", 3),
            rm: netlist.word_input("rm", 2),
        }
    }
}

/// The output bundle of an FPU: the result datum and the IEEE flags.
#[derive(Clone, Debug)]
pub struct FpuOutputs {
    /// Result (raw format bits).
    pub result: Word,
    /// Flags: bit 0 invalid, bit 1 overflow, bit 2 underflow, bit 3 inexact
    /// (matching [`fmaverify_softfloat::Flags::encode`]).
    pub flags: Word,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_roundtrip() {
        for op in FpuOp::ALL {
            assert_eq!(FpuOp::decode(op.encode()), op);
        }
    }

    #[test]
    fn double_precision_paper_constants() {
        let cfg = FpuConfig::double_ftz();
        assert_eq!(cfg.sig_bits(), 53);
        assert_eq!(cfg.prod_bits(), 106);
        assert_eq!(cfg.window_bits(), 161, "the paper's 161-bit intermediate");
        assert_eq!(cfg.delta_min_overlap(), -55);
        assert_eq!(cfg.delta_max_overlap(), 105);
        assert_eq!(cfg.overlap_delta_count(), 161);
        assert_eq!(cfg.sha_case_count(), 107, "106 shifts + C_sha/rest");
    }

    #[test]
    fn inputs_created_once() {
        let mut n = Netlist::new();
        let ins = FpuInputs::new(&mut n, FpFormat::MICRO);
        assert_eq!(ins.a.width(), 8);
        assert_eq!(ins.op.width(), 3);
        assert_eq!(n.inputs().len(), 3 * 8 + 3 + 2);
    }
}
