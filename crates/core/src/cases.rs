//! Case-splitting (paper Section 4).
//!
//! The overall verification problem is divided into sub-cases that fix the
//! shift amounts of the alignment and normalization shifters, collapsing
//! them "into simple wires":
//!
//! * one **far-out** case (δ outside the overlap range on either side),
//! * one **overlap** case per δ with no cancellation possible,
//! * for the cancellation δ values ({−2,−1,0,1} for FMA), one sub-case per
//!   normalization shift amount `sha` plus a `C_sha/rest` completeness case.
//!
//! At double precision this yields 1 + 157 + 4×107 = 586 cases for FMA (the
//! paper counts 585; see the boundary note on
//! [`FpuConfig::delta_min_overlap`]). The §6 denormal-operand extension
//! sub-divides *every* overlap δ by `sha`, giving ≈ 17k cases at double
//! precision.

use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};

/// The normalization-shift component of a cancellation case.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShaCase {
    /// `C_sha := (sha = amount)`.
    Exact(usize),
    /// `C_sha/rest := (sha > prod_bits)` — an empty care set, "checked only
    /// for completeness".
    Rest,
}

/// One verification sub-case.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CaseId {
    /// No case split at all: the whole input space in one SAT run (used for
    /// the multiply instruction).
    Monolithic,
    /// δ outside the overlap range (both far-out sides); discharged by SAT.
    FarOut,
    /// A single overlap δ where no massive cancellation can occur.
    OverlapNoCancel {
        /// The fixed exponent difference δ = e_p − e_c.
        delta: i64,
    },
    /// A cancellation δ together with a fixed normalization shift amount.
    OverlapCancel {
        /// The fixed exponent difference.
        delta: i64,
        /// The normalization-shift sub-case.
        sha: ShaCase,
    },
}

/// The case class used for Table-1-style aggregation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CaseClass {
    /// Overlap with cancellation sub-splits.
    OverlapWithCancellation,
    /// Overlap without cancellation.
    OverlapNoCancellation,
    /// The far-out case.
    FarOut,
    /// The unsplit whole-space case (multiply).
    Monolithic,
}

impl CaseClass {
    /// All case classes, in Table-1 presentation order.
    pub const ALL: [CaseClass; 4] = [
        CaseClass::OverlapWithCancellation,
        CaseClass::OverlapNoCancellation,
        CaseClass::FarOut,
        CaseClass::Monolithic,
    ];

    /// A short stable label, e.g. for kill-matrix columns.
    pub fn label(self) -> &'static str {
        match self {
            CaseClass::OverlapWithCancellation => "overlap_cancel",
            CaseClass::OverlapNoCancellation => "overlap_no_cancel",
            CaseClass::FarOut => "farout",
            CaseClass::Monolithic => "monolithic",
        }
    }
}

impl CaseId {
    /// The aggregation class of this case.
    pub fn class(self) -> CaseClass {
        match self {
            CaseId::Monolithic => CaseClass::Monolithic,
            CaseId::FarOut => CaseClass::FarOut,
            CaseId::OverlapNoCancel { .. } => CaseClass::OverlapNoCancellation,
            CaseId::OverlapCancel { .. } => CaseClass::OverlapWithCancellation,
        }
    }

    /// The exponent difference δ this case fixes (`None` for the far-out
    /// and monolithic cases), e.g. for variable-order derivation.
    pub fn delta(self) -> Option<i64> {
        match self {
            CaseId::Monolithic | CaseId::FarOut => None,
            CaseId::OverlapNoCancel { delta } | CaseId::OverlapCancel { delta, .. } => Some(delta),
        }
    }

    /// A short stable label, e.g. for log lines and tables.
    pub fn label(self) -> String {
        match self {
            CaseId::Monolithic => "monolithic".to_string(),
            CaseId::FarOut => "farout".to_string(),
            CaseId::OverlapNoCancel { delta } => format!("ov d={delta}"),
            CaseId::OverlapCancel { delta, sha } => match sha {
                ShaCase::Exact(s) => format!("ov d={delta} sha={s}"),
                ShaCase::Rest => format!("ov d={delta} sha=rest"),
            },
        }
    }
}

/// Which δ values can cancel for a given instruction and denormal mode.
///
/// * FMA/FMS: δ ∈ {−2,−1,0,1} (the product has two bits left of the point).
/// * ADD: δ ∈ {−1,0,1} — the δ = −2 split is unnecessary for addition, as
///   the paper notes when contrasting with Chen–Bryant.
/// * MUL: none (verified by SAT without case splitting).
/// * With denormal operands (§6), *any* overlap δ can cancel (Figure 4).
pub fn cancellation_deltas(cfg: &FpuConfig, op: FpuOp) -> Vec<i64> {
    match (cfg.denormals, op) {
        (_, FpuOp::Mul) => Vec::new(),
        (DenormalMode::FlushToZero, FpuOp::Add) => vec![-1, 0, 1],
        (DenormalMode::FlushToZero, _) => cfg.cancellation_deltas().to_vec(),
        // A denormal-acting product (for ADD, the operand a itself) may have
        // leading zeros, so every overlap δ can cancel.
        (DenormalMode::FullIeee, _) => {
            (cfg.delta_min_overlap()..=cfg.delta_max_overlap()).collect()
        }
    }
}

/// Enumerates the verification cases for one instruction.
pub fn enumerate_cases(cfg: &FpuConfig, op: FpuOp) -> Vec<CaseId> {
    if op == FpuOp::Mul {
        // The multiply instruction is verified by a single SAT case without
        // case splitting (the denormalization similarity is found by the
        // solver, Section 5).
        return vec![CaseId::Monolithic];
    }
    let mut cases = vec![CaseId::FarOut];
    let cancel = cancellation_deltas(cfg, op);
    for delta in cfg.delta_min_overlap()..=cfg.delta_max_overlap() {
        if cancel.contains(&delta) {
            // The paper's 106 shift amounts (0..prod_bits) plus C_sha/rest.
            for s in 0..cfg.prod_bits() {
                cases.push(CaseId::OverlapCancel {
                    delta,
                    sha: ShaCase::Exact(s),
                });
            }
            cases.push(CaseId::OverlapCancel {
                delta,
                sha: ShaCase::Rest,
            });
        } else {
            cases.push(CaseId::OverlapNoCancel { delta });
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmaverify_softfloat::FpFormat;

    #[test]
    fn double_precision_case_count_matches_paper_modulo_boundary() {
        let cfg = FpuConfig::double_ftz();
        let cases = enumerate_cases(&cfg, FpuOp::Fma);
        // Paper: 1 far-out + 156 non-cancellation + 4*107 cancellation = 585.
        // We carry one extra overlap δ (the −55 boundary correction), hence
        // 157 non-cancellation cases and 586 total.
        let farout = cases
            .iter()
            .filter(|c| c.class() == CaseClass::FarOut)
            .count();
        let nc = cases
            .iter()
            .filter(|c| c.class() == CaseClass::OverlapNoCancellation)
            .count();
        let wc = cases
            .iter()
            .filter(|c| c.class() == CaseClass::OverlapWithCancellation)
            .count();
        assert_eq!(farout, 1);
        assert_eq!(nc, 157);
        assert_eq!(wc, 4 * 107);
        assert_eq!(cases.len(), 586);
    }

    #[test]
    fn add_drops_minus_two() {
        let cfg = FpuConfig::double_ftz();
        let fma = enumerate_cases(&cfg, FpuOp::Fma);
        let add = enumerate_cases(&cfg, FpuOp::Add);
        assert_eq!(fma.len() - add.len(), 107 - 1); // one δ goes from 107 to 1
        assert!(add
            .iter()
            .any(|c| matches!(c, CaseId::OverlapNoCancel { delta: -2 })));
    }

    #[test]
    fn mul_is_single_case() {
        let cfg = FpuConfig::double_ftz();
        assert_eq!(enumerate_cases(&cfg, FpuOp::Mul), vec![CaseId::Monolithic]);
    }

    #[test]
    fn denormal_extension_is_quadratic() {
        let cfg = FpuConfig {
            format: FpFormat::DOUBLE,
            denormals: DenormalMode::FullIeee,
        };
        let cases = enumerate_cases(&cfg, FpuOp::Fma);
        // Every one of the 161 overlap δ gets 107 sha sub-cases, plus far-out:
        // ~17k cases, matching the paper's "approximately 17,000".
        assert_eq!(cases.len(), 1 + 161 * 107);
        assert!(cases.len() > 17_000);
    }

    #[test]
    fn overlap_cases_fix_an_overlap_delta() {
        let cfg = FpuConfig {
            format: FpFormat::MICRO,
            denormals: DenormalMode::FullIeee,
        };
        for op in [FpuOp::Fma, FpuOp::Add, FpuOp::Mul] {
            for case in enumerate_cases(&cfg, op) {
                match case.delta() {
                    None => assert!(matches!(case, CaseId::FarOut | CaseId::Monolithic)),
                    Some(d) => {
                        assert!((cfg.delta_min_overlap()..=cfg.delta_max_overlap()).contains(&d))
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let cfg = FpuConfig {
            format: FpFormat::MICRO,
            denormals: DenormalMode::FlushToZero,
        };
        let cases = enumerate_cases(&cfg, FpuOp::Fma);
        let mut labels: Vec<String> = cases.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cases.len());
    }
}
