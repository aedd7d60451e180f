//! The FPU-versus-oracle harness shared by the softfloat validation tests:
//! one FPU netlist over fresh inputs, simulated one vector at a time and
//! compared with [`FpuOp::apply`] on its result and flag words.

use fmaverify_fpu::{DenormalMode, FpuConfig, FpuInputs, FpuOp, FpuOutputs, ImplFpu, RefFpu};
use fmaverify_netlist::{BitSim, Netlist};
use fmaverify_softfloat::{FpFormat, RoundingMode};

/// An FPU handle that exposes its result and flag words.
pub trait Outputs {
    fn outputs(&self) -> &FpuOutputs;
}

impl Outputs for RefFpu {
    fn outputs(&self) -> &FpuOutputs {
        &self.outputs
    }
}

impl Outputs for ImplFpu {
    fn outputs(&self) -> &FpuOutputs {
        &self.outputs
    }
}

/// One FPU (`fpu`, as its builder returned it) over fresh inputs.
pub struct Harness<F> {
    pub netlist: Netlist,
    pub inputs: FpuInputs,
    pub fpu: F,
    pub cfg: FpuConfig,
}

/// Builds one FPU of `format` with `make` over fresh inputs.
pub fn build<F>(
    format: FpFormat,
    denormals: DenormalMode,
    make: impl FnOnce(&mut Netlist, &FpuConfig, &FpuInputs) -> F,
) -> Harness<F> {
    let cfg = FpuConfig { format, denormals };
    let mut netlist = Netlist::new();
    let inputs = FpuInputs::new(&mut netlist, format);
    let fpu = make(&mut netlist, &cfg, &inputs);
    Harness {
        netlist,
        inputs,
        fpu,
        cfg,
    }
}

/// Simulates one vector and asserts the FPU's result and flags equal the
/// softfloat oracle's.
pub fn check_one<F: Outputs>(
    h: &Harness<F>,
    sim: &mut BitSim,
    op: FpuOp,
    a: u128,
    b: u128,
    c: u128,
    rm: RoundingMode,
) {
    sim.set_word(&h.inputs.a, a);
    sim.set_word(&h.inputs.b, b);
    sim.set_word(&h.inputs.c, c);
    sim.set_word(&h.inputs.op, op.encode() as u128);
    sim.set_word(&h.inputs.rm, rm.encode() as u128);
    sim.eval();
    let got = sim.get_word(&h.fpu.outputs().result);
    let got_flags = sim.get_word(&h.fpu.outputs().flags) as u32;
    let want = op.apply(&h.cfg, a, b, c, rm);
    assert_eq!(
        got,
        want.bits,
        "{op:?} a={a:#x} b={b:#x} c={c:#x} rm={rm:?} mode={:?}: got {got:#x} ({}), want {:#x} ({})",
        h.cfg.denormals,
        h.cfg.format.to_f64(got),
        want.bits,
        h.cfg.format.to_f64(want.bits),
    );
    assert_eq!(
        got_flags,
        want.flags.encode(),
        "flags for {op:?} a={a:#x} b={b:#x} c={c:#x} rm={rm:?} mode={:?} (result {:#x})",
        h.cfg.denormals,
        want.bits,
    );
}
