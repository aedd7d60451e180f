//! Multiplier isolation (paper Section 2, Figure 1) and its soundness
//! obligation.
//!
//! The isolated harness verifies the FPUs for *every* `S'`,`T'` pair
//! satisfying the multiplier property; soundness requires that the real
//! multiplier's outputs always satisfy that property — "a simple proof
//! obligation for SAT, since it requires only a fraction of the multiplier
//! logic in the cone-of-influence". Hot-one constants (the
//! implementation-specific part of the `S'`,`T'` rules) are derived
//! automatically here: candidate constant bits are found by random
//! simulation and each is then proven constant by SAT.

use std::time::{Duration, Instant};

use fmaverify_fpu::{build_impl_fpu, FpuConfig, FpuInputs, MultiplierMode, PipelineMode};
use fmaverify_netlist::{BitSim, Netlist, SatEncoder, Signal};
use fmaverify_sat::{SolveResult, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine_sat::prove_tautology;
use crate::harness::{multiplier_property, StConstant};

/// Result of the soundness obligation.
#[derive(Clone, Debug)]
pub struct SoundnessResult {
    /// True iff the real multiplier provably satisfies the isolation
    /// property (including any supplied hot-one constants).
    pub holds: bool,
    /// AND gates in the proof's cone of influence — "only a fraction of the
    /// multiplier logic".
    pub cone_ands: usize,
    /// AND gates in the full FPU for comparison.
    pub full_fpu_ands: usize,
    /// Wall-clock duration of the SAT proof.
    pub duration: Duration,
}

/// Builds the implementation FPU with `multiplier` and proves by SAT that
/// its `S`,`T` satisfy [`multiplier_property`] with the given hot-one
/// constants — the same signal the isolated harness assumes over
/// `S'`,`T'`. Porting the methodology to a new FPU implementation only
/// requires re-running this with the new multiplier.
pub fn prove_multiplier_soundness(
    cfg: &FpuConfig,
    st_constants: &[StConstant],
    multiplier: MultiplierMode,
) -> SoundnessResult {
    let start = Instant::now();
    let mut n = Netlist::new();
    let inputs = FpuInputs::new(&mut n, cfg.format);
    let fpu = build_impl_fpu(
        &mut n,
        cfg,
        &inputs,
        multiplier,
        PipelineMode::Combinational,
    );
    let prop = multiplier_property(&mut n, cfg, &inputs, &fpu.s, &fpu.t, st_constants);
    let full_fpu_ands = n.cone_size(&[fpu.outputs.result.bit(0)]);
    let cone_ands = n.cone_size(&[prop]);
    let (holds, _) = prove_tautology(&n, prop);
    SoundnessResult {
        holds,
        cone_ands,
        full_fpu_ands,
        duration: start.elapsed(),
    }
}

/// Automatically derives the implementation-specific `S'`,`T'` rules: bits
/// of `S`/`T` of the implementation FPU with `multiplier` that are constant
/// across all inputs. Candidates come from random simulation; each is
/// confirmed by a SAT proof. Porting the methodology to a new FPU re-runs
/// this derivation — "only the rules for S' and T' had to be adjusted".
pub fn derive_st_constants(
    cfg: &FpuConfig,
    sim_samples: usize,
    multiplier: MultiplierMode,
) -> Vec<StConstant> {
    let mut n = Netlist::new();
    let inputs = FpuInputs::new(&mut n, cfg.format);
    let fpu = build_impl_fpu(
        &mut n,
        cfg,
        &inputs,
        multiplier,
        PipelineMode::Combinational,
    );
    let mut candidates: Vec<(bool, usize, bool, Signal)> = Vec::new();
    let mut sim = BitSim::new(&n);
    let mut rng = StdRng::seed_from_u64(0x5150);
    let wwin = cfg.window_bits();
    let mut s_always: Vec<Option<bool>> = vec![None; wwin];
    let mut t_always: Vec<Option<bool>> = vec![None; wwin];
    let mut s_dead = vec![false; wwin];
    let mut t_dead = vec![false; wwin];
    for _ in 0..sim_samples {
        sim.set_word(&inputs.a, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.b, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.c, rng.gen::<u128>() & cfg.format.mask());
        sim.set_word(&inputs.op, rng.gen_range(0..6));
        sim.set_word(&inputs.rm, rng.gen_range(0..4));
        sim.eval();
        for k in 0..wwin {
            for (word, always, dead) in [
                (&fpu.s, &mut s_always, &mut s_dead),
                (&fpu.t, &mut t_always, &mut t_dead),
            ] {
                if dead[k] {
                    continue;
                }
                let v = sim.get(word.bit(k));
                match always[k] {
                    None => always[k] = Some(v),
                    Some(prev) if prev != v => dead[k] = true,
                    Some(_) => {}
                }
            }
        }
    }
    for k in 0..wwin {
        if !s_dead[k] {
            if let Some(v) = s_always[k] {
                candidates.push((false, k, v, fpu.s.bit(k)));
            }
        }
        if !t_dead[k] {
            if let Some(v) = t_always[k] {
                candidates.push((true, k, v, fpu.t.bit(k)));
            }
        }
    }
    // Confirm each candidate by SAT.
    let mut solver = Solver::new();
    let mut enc = SatEncoder::new();
    let mut out = Vec::new();
    for (in_t, bit, value, sig) in candidates {
        let lit = enc.lit(&n, &mut solver, sig);
        let assume = if value { !lit } else { lit }; // can it take the other value?
        if solver.solve_with_assumptions(&[assume]) == SolveResult::Unsat {
            out.push(StConstant { in_t, bit, value });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_fpu::DenormalMode;
    use fmaverify_softfloat::FpFormat;

    fn micro(denormals: DenormalMode) -> FpuConfig {
        FpuConfig {
            format: FpFormat::MICRO,
            denormals,
        }
    }

    #[test]
    fn soundness_holds_micro() {
        for mode in [DenormalMode::FlushToZero, DenormalMode::FullIeee] {
            let r = prove_multiplier_soundness(&micro(mode), &[], MultiplierMode::Real);
            assert!(r.holds, "mode {mode:?}");
            assert!(
                r.cone_ands < r.full_fpu_ands,
                "the obligation needs only a fraction of the FPU ({} vs {})",
                r.cone_ands,
                r.full_fpu_ands
            );
        }
    }

    #[test]
    fn derived_constants_are_sound() {
        let cfg = micro(DenormalMode::FlushToZero);
        let constants = derive_st_constants(&cfg, 400, MultiplierMode::Real);
        // The Booth encoding leaves at least one constant artifact bit.
        assert!(
            !constants.is_empty(),
            "expected hot-one constants in the Booth multiplier outputs"
        );
        // The soundness proof must still pass with the constants included.
        let r = prove_multiplier_soundness(&cfg, &constants, MultiplierMode::Real);
        assert!(r.holds);
    }

    #[test]
    fn wrong_constant_is_rejected() {
        let cfg = micro(DenormalMode::FlushToZero);
        // Claim that S bit 0 is constant true — the product parity varies,
        // so the obligation must fail.
        let bogus = [StConstant {
            in_t: false,
            bit: 0,
            value: true,
        }];
        let r = prove_multiplier_soundness(&cfg, &bogus, MultiplierMode::Real);
        assert!(!r.holds, "a bogus S'/T' rule must be refuted");
    }
}
