//! Interoperability tour: export the verification artifacts to standard
//! formats — AIGER for external model checkers, structural Verilog for EDA
//! flows, DIMACS for external SAT solvers, and a VCD waveform of a
//! counterexample replay. "No customized toolset is necessary."
//!
//! Run with: `cargo run --release -p fmaverify --example export_artifacts`
//! (files are written to `target/artifacts/`).

use std::fs;
use std::io::Write as _;

use fmaverify::{
    build_harness, inject_fault, semi_formal_check, CaseId, HarnessOptions, MutationKind,
};
use fmaverify_fpu::{DenormalMode, FpuConfig, FpuOp};
use fmaverify_netlist::{dump_counterexample, encode_to_cnf, write_aiger, write_verilog};
use fmaverify_sat::{write_dimacs, SolveResult};
use fmaverify_softfloat::FpFormat;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::path::Path::new("target/artifacts");
    fs::create_dir_all(dir)?;
    let cfg = FpuConfig {
        format: FpFormat::MICRO,
        denormals: DenormalMode::FlushToZero,
    };
    let mut harness = build_harness(
        &cfg,
        HarnessOptions {
            isolate_multiplier: false,
            ..HarnessOptions::default()
        },
    );

    // 1. AIGER: the whole two-FPU miter, consumable by ABC / aiger tools.
    let aig_path = dir.join("fma_miter.aag");
    let mut f = fs::File::create(&aig_path)?;
    write_aiger(&mut f, &harness.netlist)?;
    println!(
        "wrote {} ({} AND gates, {} inputs)",
        aig_path.display(),
        harness.netlist.num_ands(),
        harness.netlist.inputs().len()
    );

    // 2. Verilog: the miter as a flat gate-level module.
    let v_path = dir.join("fma_miter.v");
    let mut f = fs::File::create(&v_path)?;
    write_verilog(&mut f, &harness.netlist, "fma_miter")?;
    println!(
        "wrote {} (logic depth {})",
        v_path.display(),
        harness.netlist.logic_depth(&[harness.miter])
    );

    // 3. DIMACS: one verification case as a CNF an external solver can
    //    refute (UNSAT == the case holds). It is the encoding the SAT
    //    engine solves, with the primary inputs as variables 1..n.
    let case = CaseId::OverlapNoCancel { delta: 2 };
    let mut roots = harness.case_constraint_parts(FpuOp::Fma, case);
    roots.push(harness.miter);
    let (mut cnf, root_lits) = encode_to_cnf(&harness.netlist, &roots);
    for l in &root_lits {
        cnf.add_clause(&[*l]); // assert constraint parts and the miter
    }
    let cnf_path = dir.join("case_ov_d2.cnf");
    let mut f = fs::File::create(&cnf_path)?;
    write_dimacs(&mut f, &cnf)?;
    let mut check = cnf.to_solver();
    assert_eq!(check.solve(), SolveResult::Unsat, "the case must hold");
    println!(
        "wrote {} ({} vars, {} clauses; UNSAT == case [{}] holds)",
        cnf_path.display(),
        cnf.num_vars,
        cnf.clauses.len(),
        case.label()
    );

    // 4. VCD: plant a bug, find the counterexample formally, dump the wave.
    let impl_cone = harness
        .netlist
        .comb_cone(harness.impl_fpu.outputs.result.bits());
    let ref_cone = harness
        .netlist
        .comb_cone(harness.ref_fpu.outputs.result.bits());
    let candidates: Vec<_> = harness
        .netlist
        .node_ids()
        .filter(|id| {
            impl_cone[id.index()]
                && !ref_cone[id.index()]
                && matches!(harness.netlist.node(*id), fmaverify_netlist::Node::And(..))
        })
        .collect();
    for (k, &target) in candidates.iter().enumerate().step_by(23) {
        let mutated = inject_fault(&harness.netlist, target, MutationKind::AndToOr);
        let miter = mutated.find_output("miter").expect("miter");
        // Hunt with the semi-formal engine (SAT-guided stimulus).
        let out = semi_formal_check(
            &mutated,
            miter,
            &[fmaverify_netlist::Signal::TRUE],
            2_000,
            k as u64,
        );
        if let Some(cex) = out.failure {
            let assignment: Vec<(String, bool)> = cex.into_iter().collect();
            let vcd = dump_counterexample(&mutated, &assignment, 1);
            let vcd_path = dir.join("counterexample.vcd");
            let mut f = fs::File::create(&vcd_path)?;
            f.write_all(vcd.as_bytes())?;
            println!(
                "wrote {} ({} signals traced; bug {:?} at {:?}, found after {} vectors)",
                vcd_path.display(),
                vcd.lines().filter(|l| l.starts_with("$var")).count(),
                MutationKind::AndToOr,
                target,
                out.vectors,
            );
            return Ok(());
        }
    }
    println!("(no observable fault found; no VCD written)");
    Ok(())
}
