//! **Experiment S5c — the add instruction with the multiplier in the cone**.
//!
//! Paper: "The addition instruction was verified with the multiplier in the
//! cone-of-influence since the second operand of the multiplication is 1.0;
//! constant propagation automatically replaces the multiplier by trivial
//! logic."
//!
//! We measure the miter cone under the ADD opcode constraint after
//! redundancy removal, showing that the multiplier collapses; and we verify
//! the add instruction end to end without isolation.

use fmaverify::{summarize, HarnessOptions, RunConfig, Session, ToJson};
use fmaverify_bench::{banner, bench_config, compare, dur, maybe_write_json, run_config_from_env};
use fmaverify_fpu::{FpuInputs, FpuOp, MultiplierMode, PipelineMode};
use fmaverify_netlist::{sat_sweep, Netlist, SweepOptions};

fn main() {
    banner(
        "add_constprop",
        "§5: add verified with the real multiplier; constant 1.0 collapses it",
    );
    let cfg = bench_config();

    // Gate-count evidence: an implementation FPU with b hardwired to 1.0
    // sweeps down to a fraction of the full multiplier version.
    let (full_size, full_mult_size) = {
        let mut n = Netlist::new();
        let inputs = FpuInputs::new(&mut n, cfg.format);
        let fpu = fmaverify_fpu::build_impl_fpu(
            &mut n,
            &cfg,
            &inputs,
            MultiplierMode::Real,
            PipelineMode::Combinational,
        );
        let mut st: Vec<_> = fpu.s.bits().to_vec();
        st.extend_from_slice(fpu.t.bits());
        (n.cone_size(fpu.outputs.result.bits()), n.cone_size(&st))
    };
    let (add_swept_size, add_mult_size) = {
        let mut n = Netlist::new();
        let inputs = FpuInputs::new(&mut n, cfg.format);
        let fpu = fmaverify_fpu::build_impl_fpu(
            &mut n,
            &cfg,
            &inputs,
            MultiplierMode::Real,
            PipelineMode::Combinational,
        );
        // Constrain op = ADD by tying the opcode inputs: sweep under the
        // cone of (result AND op==ADD) — emulate by building a version where
        // the opcode is constant.
        let op_is_add = n.eq_const(&inputs.op, FpuOp::Add.encode() as u128);
        let mut roots: Vec<_> = fpu.outputs.result.bits().to_vec();
        roots.push(op_is_add);
        // Re-derive with the opcode constant folded: simplest is to rebuild
        // with constants, but sweeping with the op inputs free only merges
        // op-independent logic. Instead rebuild with op tied:
        let mut n2 = Netlist::new();
        let a = n2.word_input("a", cfg.format.width() as usize);
        let b = n2.word_input("b", cfg.format.width() as usize);
        let c = n2.word_input("c", cfg.format.width() as usize);
        let rm = n2.word_input("rm", 2);
        let op_const = n2.word_const(2, FpuOp::Add.encode() as u128);
        let inputs2 = FpuInputs {
            a,
            b,
            c,
            op: op_const,
            rm,
        };
        let fpu2 = fmaverify_fpu::build_impl_fpu(
            &mut n2,
            &cfg,
            &inputs2,
            MultiplierMode::Real,
            PipelineMode::Combinational,
        );
        let roots2: Vec<_> = fpu2.outputs.result.bits().to_vec();
        let before = n2.cone_size(&roots2);
        let result = sat_sweep(&n2, &roots2, SweepOptions::default());
        let mut st2: Vec<_> = fpu2.s.bits().to_vec();
        st2.extend_from_slice(fpu2.t.bits());
        let mult_size = n2.cone_size(&st2);
        println!(
            "impl FPU with op=ADD hardwired: {} gates ({} after sweeping), multiplier cone {} gates",
            before, result.ands_after, mult_size
        );
        (result.ands_after, mult_size)
    };
    println!(
        "impl FPU, full opcode space:    {full_size} gates, multiplier cone {full_mult_size} gates\n"
    );

    // End-to-end add verification without isolation.
    let report = Session::new(&cfg)
        .configure(RunConfig {
            harness: HarnessOptions {
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
            ..run_config_from_env("add_constprop")
        })
        .run(FpuOp::Add);
    println!("{}", summarize(&report));
    assert!(report.all_hold());
    maybe_write_json("add_constprop", || report.to_json());
    println!();
    compare(
        "constant 1.0 collapses the multiplier",
        "multiplier -> trivial logic",
        &format!(
            "multiplier cone {add_mult_size} vs {full_mult_size} gates, FPU {add_swept_size} vs {full_size}"
        ),
        add_mult_size * 3 < full_mult_size,
    );
    compare(
        "add verifies with the multiplier in the COI",
        "16 hours accumulated",
        &dur(report.accumulated),
        report.all_hold(),
    );
}
