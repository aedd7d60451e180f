//! Verification of pipelined implementations.
//!
//! The paper's targets are "multi-GHz industrial implementation models"
//! with "aggressive pipelining, clocking, etc."; because a floating-point
//! computation completes in a bounded number of steps, verification "may be
//! cast as a bounded check". This module realizes that: the two-FPU harness
//! (combinational reference, pipelined clock-gated implementation) is
//! unrolled for the pipeline latency with the operands held — the analogue
//! of the paper's driver issuing a single instruction into an empty FPU —
//! and the cycle-`L` miter is checked by the same BDD/SAT engines.
//!
//! This is the one way a harness, pipelined or not, or a mutant reaches an
//! engine: [`crate::Session::run`], [`crate::run_campaign`] (the one mutant
//! loop) and [`unroll_harness`] name the case constraints as probes
//! ([`probe_constraints`]) and re-locate them in the netlist the engines
//! check ([`engine_view`]); [`find_constraints`] locates them in the
//! probed netlist itself, and [`admitting_cases`] reads them off a
//! simulated input vector. Unrolling holds the inputs under their original
//! names, so counterexamples and rebinding read the same names in every
//! view; outputs and probes carry an `@cycle` suffix.

use fmaverify_fpu::{FpuOp, PipelineMode};
use fmaverify_netlist::{unroll, BitSim, InputMode, Netlist, Signal};

use crate::cases::CaseId;
use crate::harness::Harness;

/// A harness unrolled to its pipeline latency: a purely combinational
/// netlist whose miter compares the reference result against the
/// implementation's output registers at the result-valid cycle.
#[derive(Debug)]
pub struct UnrolledHarness {
    /// The combinational unrolled netlist.
    pub netlist: Netlist,
    /// The miter at the result-valid cycle.
    pub miter: Signal,
    /// The pipeline latency that was unrolled.
    pub latency: usize,
}

/// Unrolls a pipelined harness and returns, for each requested case, the
/// constraint parts re-located in the unrolled netlist (constraints are
/// functions of the held operands, so their cycle-0 copies are used).
///
/// This is [`probe_constraints`] followed by [`engine_view`], the pair
/// [`crate::Session::run`] and [`crate::run_campaign`] call themselves;
/// it stays as a stand-alone entry point for callers outside the crate
/// (the benchmark package's engine probes).
///
/// # Panics
/// Panics if the harness was built combinationally (nothing to unroll).
pub fn unroll_harness(
    harness: &mut Harness,
    op: FpuOp,
    cases: &[CaseId],
) -> (UnrolledHarness, Vec<(CaseId, Vec<Signal>)>) {
    let pipeline = harness.options().pipeline;
    assert!(
        pipeline != PipelineMode::Combinational,
        "combinational harnesses need no unrolling"
    );
    let probes = probe_constraints(harness, op, cases);
    let (view, constraints) = engine_view(harness, harness.netlist.clone(), &probes);
    (
        UnrolledHarness {
            netlist: view.netlist,
            miter: view.miter,
            latency: pipeline.latency(),
        },
        constraints,
    )
}

/// Builds every case's constraint parts of `op` in the harness and names
/// each part as a probe, returning the probe names per case. Rebuilding a
/// netlist (unrolling, fault injection) renumbers nodes but keeps names,
/// and probe names lie outside the cone hash, so proof-cache fingerprints
/// do not see them.
pub fn probe_constraints(
    harness: &mut Harness,
    op: FpuOp,
    cases: &[CaseId],
) -> Vec<(CaseId, Vec<String>)> {
    cases
        .iter()
        .map(|&case| {
            let parts = harness.case_constraint_parts(op, case);
            let names = parts
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let name = format!("case.{op:?}.{}#{i}", case.label());
                    harness.netlist.probe(&name, *p);
                    name
                })
                .collect();
            (case, names)
        })
        .collect()
}

/// The harness the engines check for `netlist` — `base`'s netlist or a
/// rebuilt copy of it (e.g. a mutant): a pipelined netlist is unrolled to
/// its latency with the inputs held, a combinational one passes through.
/// The harness is rebound to the result and the constraint parts named by
/// `probes` ([`probe_constraints`]) are re-located by name.
pub fn engine_view(
    base: &Harness,
    netlist: Netlist,
    probes: &[(CaseId, Vec<String>)],
) -> (Harness, Vec<(CaseId, Vec<Signal>)>) {
    let (netlist, miter_name, suffix) = match base.options().pipeline {
        PipelineMode::Combinational => (netlist, "miter".to_string(), ""),
        pipeline => {
            let latency = pipeline.latency();
            let unrolled = unroll(&netlist, latency + 1, InputMode::HoldFirst).netlist;
            (unrolled, format!("miter@{latency}"), "@0")
        }
    };
    let miter = netlist.find_output(&miter_name).expect("miter output");
    let constraints = locate(&netlist, probes, suffix);
    (base.rebind(netlist, miter), constraints)
}

/// Every case's constraint parts named by `probes` ([`probe_constraints`]),
/// in the netlist they were probed in or a rebuilt copy of it that is not
/// unrolled: e.g. the logic [`crate::fault_targets`] keeps the faults out
/// of.
pub fn find_constraints(netlist: &Netlist, probes: &[(CaseId, Vec<String>)]) -> Vec<Signal> {
    locate(netlist, probes, "")
        .into_iter()
        .flat_map(|(_, parts)| parts)
        .collect()
}

/// The cases of `constraints` ([`engine_view`]) whose parts all hold in
/// `sim`'s last evaluation: the cases that admit the simulated input
/// vector. `sim` must simulate the netlist the parts were located in.
pub fn admitting_cases(
    sim: &BitSim,
    constraints: &[(CaseId, Vec<Signal>)],
) -> Vec<(CaseId, Vec<Signal>)> {
    constraints
        .iter()
        .filter(|(_, parts)| parts.iter().all(|&p| sim.get(p)))
        .cloned()
        .collect()
}

/// Looks up every probe name of `probes`, with `suffix` appended, in
/// `netlist`.
fn locate(
    netlist: &Netlist,
    probes: &[(CaseId, Vec<String>)],
    suffix: &str,
) -> Vec<(CaseId, Vec<Signal>)> {
    probes
        .iter()
        .map(|(case, names)| {
            let parts = names
                .iter()
                .map(|n| {
                    netlist
                        .find_probe(&format!("{n}{suffix}"))
                        .expect("constraint probe")
                })
                .collect();
            (*case, parts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::enumerate_cases;
    use crate::engine_bdd::{check_miter_bdd_parts, BddEngineOptions};
    use crate::engine_sat::{check_miter_sat_parts, SatEngineOptions};
    use crate::harness::{build_harness, HarnessOptions};
    use crate::mutate::{inject_fault, MutationKind};
    use fmaverify_fpu::{DenormalMode, FpuConfig};
    use fmaverify_netlist::Node;
    use fmaverify_softfloat::FpFormat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pipelined_fma_verifies_by_unrolling() {
        let cfg = FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        };
        let mut harness = build_harness(
            &cfg,
            HarnessOptions {
                pipeline: PipelineMode::ThreeStage,
                ..HarnessOptions::default()
            },
        );
        assert!(harness.netlist.num_latches() > 0);
        let cases = enumerate_cases(&cfg, FpuOp::Fma);
        let (u, constraints) = unroll_harness(&mut harness, FpuOp::Fma, &cases);
        assert_eq!(u.latency, 3);
        assert_eq!(
            u.netlist.num_latches(),
            0,
            "the unrolled model is combinational"
        );
        for (case, parts) in &constraints {
            let holds = match case {
                CaseId::FarOut | CaseId::Monolithic => {
                    check_miter_sat_parts(&u.netlist, u.miter, parts, &SatEngineOptions::default())
                        .holds
                }
                _ => {
                    check_miter_bdd_parts(&u.netlist, u.miter, parts, &BddEngineOptions::default())
                        .holds
                }
            };
            assert!(holds, "pipelined case {case:?} failed");
        }
    }

    #[test]
    #[should_panic]
    fn combinational_harness_rejects_unroll() {
        let cfg = FpuConfig {
            format: FpFormat::MICRO,
            denormals: DenormalMode::FlushToZero,
        };
        let mut harness = build_harness(&cfg, HarnessOptions::default());
        let _ = unroll_harness(&mut harness, FpuOp::Fma, &[CaseId::FarOut]);
    }

    /// `netlist` with its first AND gate that feeds a register's
    /// next-state function inverted (a sequential-only bug).
    fn register_fault(netlist: &Netlist) -> Netlist {
        let target = netlist
            .latches()
            .iter()
            .find_map(|&l| match netlist.node(l) {
                Node::Latch { next, .. } if matches!(netlist.node(next.node()), Node::And(..)) => {
                    Some(next.node())
                }
                _ => None,
            })
            .expect("a register fed by logic");
        inject_fault(netlist, target, MutationKind::InvertOutput)
    }

    /// The unrolled view the engines check is the pipelined design: on
    /// random input vectors, stepping the register netlist to its latency
    /// gives the same miter as the view's `miter@latency`, clean and with
    /// a register fault. Without multiplier isolation (whose free `S'`,`T'`
    /// pseudo-inputs fire the miter) no vector fires on the clean design
    /// and some vector exposes the fault.
    #[test]
    fn engine_view_simulates_like_the_register_netlist() {
        let cfg = FpuConfig {
            format: FpFormat::new(3, 2),
            denormals: DenormalMode::FlushToZero,
        };
        let pipeline = PipelineMode::ThreeStage;
        let harness = build_harness(
            &cfg,
            HarnessOptions {
                pipeline,
                isolate_multiplier: false,
                ..HarnessOptions::default()
            },
        );
        let faulty = register_fault(&harness.netlist);
        let mut rng = StdRng::seed_from_u64(23);
        for (netlist, clean) in [(harness.netlist.clone(), true), (faulty, false)] {
            let (view, _) = engine_view(&harness, netlist.clone(), &[]);
            let miter = netlist.find_output("miter").expect("miter");
            let mut fired = 0;
            for _ in 0..64 {
                let mut stepped = BitSim::new(&netlist);
                let mut unrolled = BitSim::new(&view.netlist);
                for &id in netlist.inputs() {
                    let Node::Input { name } = netlist.node(id) else {
                        unreachable!("inputs() returned a non-input node");
                    };
                    let value = rng.gen::<bool>();
                    stepped.set(netlist.signal(id), value);
                    unrolled.set(view.netlist.find_input(name).expect("held input"), value);
                }
                for _ in 0..pipeline.latency() {
                    stepped.step();
                }
                unrolled.eval();
                assert_eq!(
                    stepped.get(miter),
                    unrolled.get(view.miter),
                    "clean: {clean}"
                );
                fired += usize::from(stepped.get(miter));
            }
            assert_eq!(fired > 0, !clean, "{fired} of 64 vectors fire");
        }
    }
}
