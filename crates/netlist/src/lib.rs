//! And-inverter-graph netlists with registers: the common design
//! representation of the FMA FPU verification flow.
//!
//! The paper maps every design (the industrial FPU, the reference FPU, the
//! driver) into "a netlist representation containing only 2-input AND gates,
//! inverters, and registers". This crate provides:
//!
//! * [`Netlist`]/[`Signal`] — the AIG with structural hashing, constant
//!   folding, named outputs and internal probe points;
//! * [`Netlist::import`]/[`Netlist::rebuild`] — the one node-by-node copy,
//!   with a hook on every AND gate: the sweep's merges, fault injection
//!   and equivalence checking's merged netlist are all built with it;
//! * [`Word`] and word-level operators on [`Netlist`] — the "high-level VHDL
//!   operators" (`+`, `sll`, comparators, leading-zero count, ...) used to
//!   author the reference FPU;
//! * [`BitSim`]/[`ParallelSim`] — sequential and 64-way bit-parallel
//!   simulation (the sweep's candidate classes come from [`ParallelSim`]);
//! * [`unroll`] — bounded unfolding into combinational logic for SAT;
//! * [`Gate`] — recognition of the AIG's XOR and MUX structures, shared by
//!   the gate-aware engines;
//! * [`SatEncoder`]/[`encode_to_cnf`] — gate-aware Tseitin encoding of
//!   cones of influence (one variable per XOR or MUX structure), into a
//!   solver or a DIMACS-ready CNF, and [`SatEncoder::input_model`], the one
//!   readback of a model as an input assignment;
//! * [`sat_sweep`] — simulation-guided SAT sweeping, the paper's "automated
//!   redundancy removal algorithms \[15\]";
//! * [`Sha256`] and [`Netlist::coi_hash`] — dependency-free digests and
//!   canonical structural hashing of logic cones, the substrate of the
//!   verification layer's content-addressed proof cache.
//!
//! # Examples
//!
//! ```
//! use fmaverify_netlist::Netlist;
//!
//! let mut n = Netlist::new();
//! let a = n.word_input("a", 8);
//! let b = n.word_input("b", 8);
//! let sum = n.add(&a, &b);
//! let big = n.ult(&b, &a);
//! n.output("gt", big);
//! for (i, &bit) in sum.bits().iter().enumerate() {
//!     n.output(format!("sum[{i}]"), bit);
//! }
//! assert!(n.num_ands() > 0);
//! ```

#![warn(missing_docs)]

mod aig;
mod aiger;
mod gate;
mod hash;
mod sim;
mod sweep;
mod tseitin;
mod unroll;
mod vcd;
mod verilog;
mod word;

pub use aig::{Netlist, Node, NodeId, Signal};
pub use aiger::{parse_aiger, write_aiger, ParseAigerError};
pub use gate::Gate;
pub use hash::Sha256;
pub use sim::{BitSim, ParallelSim};
pub use sweep::{prove_equal, sat_sweep, SweepOptions, SweepResult};
pub use tseitin::{encode_to_cnf, SatEncoder};
pub use unroll::{unroll, InputMode, Unrolled};
pub use vcd::{dump_counterexample, WaveRecorder};
pub use verilog::write_verilog;
pub use word::Word;
