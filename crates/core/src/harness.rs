//! The verification harness: the paper's driver.
//!
//! One netlist contains the shared operand/opcode/rounding-mode inputs, the
//! reference FPU, the implementation FPU, and a miter comparing their
//! results and flags. With multiplier isolation enabled, both FPUs consume
//! the pseudo-inputs `S'`,`T'` instead of a real multiplier (Figure 1), and
//! the harness provides both the assumable constraint over `S'`,`T'` and the
//! corresponding proof obligation for the real multiplier.

use fmaverify_fpu::{
    build_impl_fpu, build_ref_fpu, DenormalMode, FpuConfig, FpuInputs, FpuOp, ImplFpu,
    MultiplierMode, PipelineMode, ProductSource, RefFpu,
};
use fmaverify_netlist::{Netlist, Signal, Word};

use crate::cases::{CaseId, ShaCase};

/// A constant bit of `S'` or `T'` (a "hot-one" rule), derived per
/// implementation; see [`crate::isolation::derive_st_constants`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StConstant {
    /// `false` = a bit of `S`, `true` = a bit of `T`.
    pub in_t: bool,
    /// Bit index.
    pub bit: usize,
    /// The constant value.
    pub value: bool,
}

/// Options for building a harness.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Replace the multiplier by constrained pseudo-inputs (Figure 1).
    pub isolate_multiplier: bool,
    /// Pipelining of the implementation FPU. [`crate::Session::run`]
    /// unrolls a pipelined harness to its latency before the engines run;
    /// callers of [`crate::Session::run_prepared`] unroll it themselves
    /// with [`crate::sequential::engine_view`].
    pub pipeline: PipelineMode,
    /// Implementation-specific `S'`,`T'` rules (hot-one constants) to fold
    /// into the multiplier constraint.
    pub st_constants: Vec<StConstant>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            isolate_multiplier: true,
            pipeline: PipelineMode::Combinational,
            st_constants: Vec::new(),
        }
    }
}

/// The built harness.
#[derive(Debug)]
pub struct Harness {
    /// The netlist holding both FPUs, the miter, and all probe points.
    pub netlist: Netlist,
    /// The shared primary inputs.
    pub inputs: FpuInputs,
    /// The configuration.
    pub cfg: FpuConfig,
    /// Reference FPU handles.
    pub ref_fpu: RefFpu,
    /// Implementation FPU handles.
    pub impl_fpu: ImplFpu,
    /// Miter output: true iff the FPUs disagree.
    pub miter: Signal,
    /// The `S'`,`T'` pseudo-inputs when isolated.
    pub st: Option<(Word, Word)>,
    /// The multiplier constraint over `S'`,`T'` (constant true when not
    /// isolated).
    pub mult_constraint: Signal,
    options: HarnessOptions,
}

/// Builds the two-FPU harness.
pub fn build_harness(cfg: &FpuConfig, options: HarnessOptions) -> Harness {
    let mut n = Netlist::new();
    let inputs = FpuInputs::new(&mut n, cfg.format);
    let wwin = cfg.window_bits();

    let (st, ref_product, impl_mult) = if options.isolate_multiplier {
        let s = n.word_input("st_s", wwin);
        let t = n.word_input("st_t", wwin);
        (
            Some((s.clone(), t.clone())),
            ProductSource::Override {
                s: s.clone(),
                t: t.clone(),
            },
            MultiplierMode::Override { s, t },
        )
    } else {
        (None, ProductSource::Exact, MultiplierMode::Real)
    };

    let ref_fpu = build_ref_fpu(&mut n, cfg, &inputs, ref_product);
    let impl_fpu = build_impl_fpu(&mut n, cfg, &inputs, impl_mult, options.pipeline);

    // The miter compares the results and the IEEE flags: the paper
    // compares "the results", and the flags are part of the architected
    // result.
    let miter = {
        let d = n.xor_word(&ref_fpu.outputs.result, &impl_fpu.outputs.result);
        let res_diff = n.or_reduce(&d);
        let fd = n.xor_word(&ref_fpu.outputs.flags, &impl_fpu.outputs.flags);
        let flags_diff = n.or_reduce(&fd);
        n.or(res_diff, flags_diff)
    };
    n.output("miter", miter);

    let mult_constraint = match &st {
        None => Signal::TRUE,
        Some((s, t)) => multiplier_property(&mut n, cfg, &inputs, s, t, &options.st_constants),
    };
    n.probe("mult_constraint", mult_constraint);

    Harness {
        netlist: n,
        inputs,
        cfg: *cfg,
        ref_fpu,
        impl_fpu,
        miter,
        st,
        mult_constraint,
        options,
    }
}

impl Harness {
    /// The harness options used at build time.
    pub fn options(&self) -> &HarnessOptions {
        &self.options
    }

    /// Re-points this harness at a rebuilt `netlist` and `miter` — after
    /// fault injection ([`crate::inject_fault`]) or unrolling
    /// ([`fmaverify_netlist::unroll`]), both of which keep the harness's
    /// names but renumber nodes. The operand/opcode/rounding-mode inputs,
    /// the `S'`/`T'` pseudo-inputs and the `mult_constraint` probe are
    /// re-located by name, so the static BDD variable orders and
    /// counterexample decoding stay valid.
    ///
    /// The FPU-internal handles (`ref_fpu`, `impl_fpu`) are *not*
    /// re-located: a rebound harness drives the proof engines
    /// ([`crate::Session::run_prepared`]), not constraint construction —
    /// build constraints on the original harness and carry them across as
    /// named probes.
    ///
    /// # Panics
    /// Panics if an input of the original harness cannot be found in
    /// `netlist`.
    pub fn rebind(&self, netlist: Netlist, miter: Signal) -> Harness {
        let input = |name: String| -> Signal {
            netlist
                .find_input(&name)
                .unwrap_or_else(|| panic!("rebind: input {name} missing from rebuilt netlist"))
        };
        let word = |prefix: &str, width: usize| -> Word {
            Word::from_bits(
                (0..width)
                    .map(|i| input(format!("{prefix}[{i}]")))
                    .collect(),
            )
        };
        let w = self.cfg.format.width() as usize;
        let inputs = FpuInputs {
            a: word("a", w),
            b: word("b", w),
            c: word("c", w),
            op: word("op", 3),
            rm: word("rm", 2),
        };
        let st = self
            .st
            .as_ref()
            .map(|(s, t)| (word("st_s", s.width()), word("st_t", t.width())));
        let mult_constraint = if self.mult_constraint == Signal::TRUE {
            Signal::TRUE
        } else {
            netlist
                .find_probe("mult_constraint")
                .expect("rebind: mult_constraint probe missing")
        };
        Harness {
            netlist,
            inputs,
            cfg: self.cfg,
            ref_fpu: self.ref_fpu.clone(),
            impl_fpu: self.impl_fpu.clone(),
            miter,
            st,
            mult_constraint,
            options: self.options.clone(),
        }
    }

    /// Builds the constraint signal for a verification case of instruction
    /// `op`: the opcode constraint, the δ (or far-out) constraint over the
    /// operand exponents, the `C_sha` constraint on the reference FPU's
    /// normalization-shift signal, and the multiplier-isolation constraint.
    pub fn case_constraint(&mut self, op: FpuOp, case: CaseId) -> Signal {
        let parts = self.case_constraint_parts(op, case);
        let n = &mut self.netlist;
        let mut acc = Signal::TRUE;
        for p in parts {
            acc = n.and(acc, p);
        }
        acc
    }

    /// The conjuncts of [`Harness::case_constraint`], kept separate so the
    /// BDD engine can conjoin them progressively (cheap cones first): the
    /// opcode constraint, the δ/far-out constraint, the `C_sha` constraint
    /// (cancellation cases), and the multiplier-isolation constraint.
    pub fn case_constraint_parts(&mut self, op: FpuOp, case: CaseId) -> Vec<Signal> {
        let n = &mut self.netlist;
        let cfg = &self.cfg;
        let op_c = n.eq_const(&self.inputs.op, op.encode() as u128);
        let delta = architected_delta(n, cfg, &self.inputs);
        let wexp = cfg.exp_arith_bits();
        let dmin = cfg.delta_min_overlap();
        let dmax = cfg.delta_max_overlap();
        let signed_const = |n: &mut Netlist, v: i64| {
            n.word_const(wexp, (v as i128 & ((1i128 << wexp) - 1)) as u128)
        };

        let mut parts = vec![op_c];
        match case {
            CaseId::Monolithic => {}
            CaseId::FarOut => {
                let lo = signed_const(n, dmin);
                let hi = signed_const(n, dmax);
                let below = n.slt(&delta, &lo);
                let above = n.slt(&hi, &delta);
                parts.push(n.or(below, above));
            }
            CaseId::OverlapNoCancel { delta: d } => {
                let k = signed_const(n, d);
                parts.push(n.eq_word(&delta, &k));
            }
            CaseId::OverlapCancel { delta: d, sha } => {
                let k = signed_const(n, d);
                let d_eq = n.eq_word(&delta, &k);
                parts.push(d_eq);
                let sha_word = self.ref_fpu.sha.clone();
                let sha_c = match sha {
                    ShaCase::Exact(s) => n.eq_const(&sha_word, s as u128),
                    ShaCase::Rest => {
                        // sha >= prod_bits (all remaining values).
                        let lim = n.word_const(sha_word.width(), cfg.prod_bits() as u128);
                        n.ule(&lim, &sha_word)
                    }
                };
                parts.push(sha_c);
            }
        }
        if self.mult_constraint != Signal::TRUE {
            parts.push(self.mult_constraint);
        }
        parts
    }
}

/// Rebuilds the architected exponent difference δ = e_p − e_c from the raw
/// operand fields (with the ADD/MUL operand substitutions), independent of
/// either FPU's internals. This realizes the paper's
/// `C_δ := (e_a + e_b = e_c + δ)` constraint family.
pub fn architected_delta(n: &mut Netlist, cfg: &FpuConfig, inputs: &FpuInputs) -> Word {
    let f = cfg.format.frac_bits() as usize;
    let eb = cfg.format.exp_bits() as usize;
    let wexp = cfg.exp_arith_bits();
    let bias = cfg.format.bias() as i64;
    let is_add = n.eq_const(&inputs.op, 2);
    let is_mul = n.eq_const(&inputs.op, 3);
    let eff = |n: &mut Netlist, w: &Word| -> Word {
        let e = w.slice(f, f + eb);
        let z = n.is_zero(&e);
        let one = n.word_const(eb, 1);
        let m = n.mux_word(z, &one, &e);
        n.zext(&m, wexp)
    };
    let ea = eff(n, &inputs.a);
    let eb_raw = eff(n, &inputs.b);
    let ec_raw = eff(n, &inputs.c);
    let bias_c = n.word_const(wexp, bias as u128);
    let one_c = n.word_const(wexp, 1);
    let eb_eff = n.mux_word(is_add, &bias_c, &eb_raw);
    let ec_eff = n.mux_word(is_mul, &one_c, &ec_raw);
    let s = n.add(&ea, &eb_eff);
    let s = n.sub(&s, &bias_c);
    n.sub(&s, &ec_eff)
}

/// The multiplier-isolation property over `S'`,`T'` (and, for the soundness
/// obligation, over the real `S`,`T`): the modular sum is a feasible
/// significand product for the given operand classes, and every hot-one
/// rule in `st_constants` holds.
///
/// * always: the sum fits in `prod_bits` bits;
/// * any zero-acting operand ⇒ the sum is zero;
/// * both operands normal ⇒ the sum is at least `2^(2f)` ("the sum of S'
///   and T' lies in the range [1,4)");
/// * §6 generalization: one denormal-acting operand ⇒ sum < `2^(2f+1)`
///   ("[0,2)"), both ⇒ sum < `2^(2f)` ("[0,1)");
/// * each [`StConstant`]: that bit of `S` or `T` has that value.
///
/// [`build_harness`] assumes this signal over `S'`,`T'` and
/// [`crate::prove_multiplier_soundness`] proves it over the real `S`,`T`,
/// so the obligation is exactly the assumption.
pub fn multiplier_property(
    n: &mut Netlist,
    cfg: &FpuConfig,
    inputs: &FpuInputs,
    s: &Word,
    t: &Word,
    st_constants: &[StConstant],
) -> Signal {
    let f = cfg.format.frac_bits() as usize;
    let eb = cfg.format.exp_bits() as usize;
    let pb = cfg.prod_bits();
    let wwin = cfg.window_bits();
    assert_eq!(s.width(), wwin);
    assert_eq!(t.width(), wwin);
    let u = n.add(s, t);

    let is_add = n.eq_const(&inputs.op, 2);

    struct Cls {
        normal: Signal,
        zeroish: Signal,
        denish: Signal,
    }
    let classify = |n: &mut Netlist, w: &Word| -> Cls {
        let frac = w.slice(0, f);
        let e = w.slice(f, f + eb);
        let e_zero = n.is_zero(&e);
        let e_ones = n.eq_const(&e, (1u128 << eb) - 1);
        let f_zero = n.is_zero(&frac);
        let normal = n.and(!e_zero, !e_ones);
        match cfg.denormals {
            DenormalMode::FlushToZero => {
                // Zeros, denormals (flushed), NaN and Inf all present a zero
                // significand to the multiplier.
                Cls {
                    normal,
                    zeroish: !normal,
                    denish: Signal::FALSE,
                }
            }
            DenormalMode::FullIeee => {
                let zero = n.and(e_zero, f_zero);
                let den = n.and(e_zero, !f_zero);
                // NaN/Inf significands have no implicit bit: bound like
                // denormals.
                let denish = n.or(den, e_ones);
                Cls {
                    normal,
                    zeroish: zero,
                    denish,
                }
            }
        }
    };
    let ca = classify(n, &inputs.a);
    let cb_raw = classify(n, &inputs.b);
    // ADD forces b := 1.0 (normal, never zero).
    let cb = Cls {
        normal: n.or(is_add, cb_raw.normal),
        zeroish: n.and(!is_add, cb_raw.zeroish),
        denish: n.and(!is_add, cb_raw.denish),
    };

    // Always: sum fits in prod_bits.
    let hi = u.slice(pb, wwin);
    let mut prop = n.is_zero(&hi);
    // Zero-acting operand => zero product.
    let u_zero = n.is_zero(&u);
    let any_zero = n.or(ca.zeroish, cb.zeroish);
    let imp_zero = n.implies(any_zero, u_zero);
    prop = n.and(prop, imp_zero);
    // Both normal => sum in [1,4) scaled: u >= 2^(2f).
    let both_norm = n.and(ca.normal, cb.normal);
    let low_bound = n.word_const(wwin, 1u128 << (2 * f));
    let ge = n.ule(&low_bound, &u);
    let imp_norm = n.implies(both_norm, ge);
    prop = n.and(prop, imp_norm);
    if cfg.denormals == DenormalMode::FullIeee {
        // One denormal-ish, one normal => u < 2^(2f+1).
        let mixed = {
            let x = n.and(ca.denish, cb.normal);
            let y = n.and(cb.denish, ca.normal);
            n.or(x, y)
        };
        let lim1 = n.word_const(wwin, 1u128 << (2 * f + 1));
        let lt1 = n.ult(&u, &lim1);
        let imp1 = n.implies(mixed, lt1);
        prop = n.and(prop, imp1);
        // Both denormal-ish => u < 2^(2f).
        let both_den = n.and(ca.denish, cb.denish);
        let lt0 = n.ult(&u, &low_bound);
        let imp0 = n.implies(both_den, lt0);
        prop = n.and(prop, imp0);
    }
    for k in st_constants {
        let word = if k.in_t { t } else { s };
        let bit = word.bit(k.bit);
        let lit = if k.value { bit } else { !bit };
        prop = n.and(prop, lit);
    }
    prop
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_netlist::BitSim;
    use fmaverify_softfloat::FpFormat;

    fn micro_cfg() -> FpuConfig {
        FpuConfig {
            format: FpFormat::MICRO,
            denormals: DenormalMode::FlushToZero,
        }
    }

    #[test]
    fn harness_builds_both_modes() {
        for isolate in [false, true] {
            let h = build_harness(
                &micro_cfg(),
                HarnessOptions {
                    isolate_multiplier: isolate,
                    ..HarnessOptions::default()
                },
            );
            assert_eq!(h.st.is_some(), isolate);
            assert!(h.netlist.num_ands() > 100);
            assert_eq!(h.netlist.find_output("miter"), Some(h.miter));
        }
    }

    #[test]
    fn isolation_removes_multiplier_from_cone() {
        // Figure 1: overriding S,T makes the multiplier sinkless — the
        // miter's cone shrinks substantially.
        let full = build_harness(
            &micro_cfg(),
            HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
        );
        let isolated = build_harness(&micro_cfg(), HarnessOptions::default());
        let full_cone = full.netlist.cone_size(&[full.miter]);
        let iso_cone = isolated.netlist.cone_size(&[isolated.miter]);
        assert!(
            iso_cone < full_cone,
            "isolated cone {iso_cone} should be smaller than full {full_cone}"
        );
    }

    #[test]
    fn miter_is_false_on_random_vectors_without_isolation() {
        let h = build_harness(
            &micro_cfg(),
            HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
        );
        let mut sim = BitSim::new(&h.netlist);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..500 {
            sim.set_word(&h.inputs.a, rng.gen::<u128>() & h.cfg.format.mask());
            sim.set_word(&h.inputs.b, rng.gen::<u128>() & h.cfg.format.mask());
            sim.set_word(&h.inputs.c, rng.gen::<u128>() & h.cfg.format.mask());
            sim.set_word(&h.inputs.op, rng.gen_range(0..4));
            sim.set_word(&h.inputs.rm, rng.gen_range(0..4));
            sim.eval();
            assert!(!sim.get(h.miter), "the two FPUs disagreed");
        }
    }

    #[test]
    fn architected_delta_matches_ref_probe() {
        let mut h = build_harness(
            &micro_cfg(),
            HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
        );
        let cfg = h.cfg;
        let inputs = h.inputs.clone();
        let d = architected_delta(&mut h.netlist, &cfg, &inputs);
        let ref_delta = h.ref_fpu.delta.clone();
        let mut sim = BitSim::new(&h.netlist);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..500 {
            sim.set_word(&h.inputs.a, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&h.inputs.b, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&h.inputs.c, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&h.inputs.op, rng.gen_range(0..4));
            sim.set_word(&h.inputs.rm, 0);
            sim.eval();
            assert_eq!(sim.get_word(&d), sim.get_word(&ref_delta));
        }
    }

    #[test]
    fn multiplier_property_holds_for_real_products() {
        // Concrete spot-check of the property on the real multiplier before
        // the SAT obligation proves it exhaustively.
        let cfg = micro_cfg();
        let mut n = Netlist::new();
        let inputs = FpuInputs::new(&mut n, cfg.format);
        let fpu = build_impl_fpu(
            &mut n,
            &cfg,
            &inputs,
            MultiplierMode::Real,
            PipelineMode::Combinational,
        );
        let s = fpu.s.clone();
        let t = fpu.t.clone();
        let prop = multiplier_property(&mut n, &cfg, &inputs, &s, &t, &[]);
        let mut sim = BitSim::new(&n);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..2000 {
            sim.set_word(&inputs.a, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.b, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.c, rng.gen::<u128>() & cfg.format.mask());
            sim.set_word(&inputs.op, rng.gen_range(0..4));
            sim.set_word(&inputs.rm, rng.gen_range(0..4));
            sim.eval();
            assert!(sim.get(prop), "property violated by the real multiplier");
        }
    }
}
