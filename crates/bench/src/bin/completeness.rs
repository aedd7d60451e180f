//! **Experiment S4 — case-split completeness**.
//!
//! Paper: "The disjunction of all the cases is easily provable as a
//! tautology, guaranteeing completeness of our methodology." and the case
//! counts: 1 far-out + 156 non-cancellation + 4×107 cancellation = 585 at
//! double precision (we count 586 after the −55 boundary correction).

use fmaverify::{enumerate_cases, prove_completeness, CaseClass};
use fmaverify_bench::{banner, bench_config, compare, dur};
use fmaverify_fpu::{FpuConfig, FpuOp};

fn main() {
    banner("completeness", "§4: 585 cases; disjunction is a tautology");
    let cfg = bench_config();

    // Case counts at double precision (enumeration only — no solving).
    let dp = FpuConfig::double_ftz();
    let dp_cases = enumerate_cases(&dp, FpuOp::Fma);
    let count = |class: CaseClass| dp_cases.iter().filter(|c| c.class() == class).count();
    println!("double-precision FMA case inventory:");
    println!("  far-out:                  {}", count(CaseClass::FarOut));
    println!(
        "  overlap w/o cancellation: {}",
        count(CaseClass::OverlapNoCancellation)
    );
    println!(
        "  overlap w/ cancellation:  {}",
        count(CaseClass::OverlapWithCancellation)
    );
    println!("  total:                    {}\n", dp_cases.len());
    compare(
        "DP case count",
        "1 + 156 + 4*107 = 585",
        &format!("1 + 157 + 4*107 = {} (boundary correction)", dp_cases.len()),
        dp_cases.len() == 586,
    );
    compare(
        "cancellation sub-cases per δ",
        "106 shifts + C_sha/rest = 107",
        &format!("{}", dp.sha_case_count()),
        dp.sha_case_count() == 107,
    );

    // The tautology proofs at the benchmark format.
    println!();
    for op in [FpuOp::Fma, FpuOp::Fms, FpuOp::Add, FpuOp::Mul] {
        let cases = enumerate_cases(&cfg, op);
        let r = prove_completeness(&cfg, op, &cases);
        println!(
            "{op:?}: {} cases cover the instruction's constraint: {} ({})",
            cases.len(),
            r.holds(),
            dur(r.duration),
        );
        assert!(r.holds(), "{op:?}: uncovered input {:?}", r.uncovered);
    }
    println!();
    compare(
        "disjunction of all cases is a tautology",
        "easily provable",
        "proved by SAT over the engines' constraints, all four instructions",
        true,
    );
}
