//! Behavioral-synthesis estimation for DEFACTO-style design space
//! exploration.
//!
//! The paper drives its search with space/time *estimates* from the
//! Mentor Graphics Monet behavioral synthesis tool (binding, allocation,
//! ASAP scheduling at a fixed 40 ns clock). This crate is the
//! reproduction's substitute for Monet:
//!
//! - [`device`] — FPGA device models (Xilinx Virtex-1000 class: 12,288
//!   slices);
//! - [`memory`] — external-memory models (Annapolis WildStar class: 4
//!   memories, pipelined 1/1-cycle or non-pipelined 7/3-cycle read/write);
//! - [`oplib`] — the operator library: area (slices) and latency (cycles)
//!   per operation and bit width;
//! - [`dfg`] — datapath dataflow-graph construction from straight-line
//!   segments of the transformed kernel;
//! - [`schedule`] — resource-constrained ASAP list scheduling with
//!   per-memory port contention, reads scheduled before writes (Monet's
//!   documented behaviour), and optional designer operator bounds
//!   ([`constraints`], paper §2.3);
//! - [`mod@estimate`] — the estimator: walks the (possibly imperfect) loop
//!   structure, schedules every segment, allocates shared operators and
//!   produces total cycles, slices, the memory/compute busy times and the
//!   paper's balance metric `B = F/C`;
//! - [`report`] — ASCII Gantt rendering of schedules and steady-body
//!   extraction;
//! - [`vhdl`] — a behavioral-VHDL emitter (the `SUIF2VHDL` analog);
//! - [`par`] — a deterministic logic-synthesis/place-and-route simulator
//!   used to reproduce the paper's §6.4 estimate-accuracy study.

pub mod analytic;
pub mod constraints;
pub mod device;
pub mod dfg;
pub mod estimate;
pub mod joint;
pub mod memory;
pub mod oplib;
pub mod par;
pub mod report;
pub mod schedule;
pub mod vhdl;

pub use analytic::{AnalyticBand, AnalyticModel};
pub use constraints::ResourceConstraints;
pub use device::FpgaDevice;
pub use dfg::{
    build_dfg, build_dfg_opts, build_dfg_ranged, Dfg, DfgOptions, Node, NodeId, NodeKind,
};
pub use estimate::{
    estimate, estimate_constrained, estimate_opts, estimator_work, Estimate, EstimatePlan,
    EstimatorWork, Provenance, SynthesisOptions,
};
pub use joint::{JointAnalyticModel, JointModelKey};
pub use memory::MemoryModel;
pub use oplib::{op_spec, HwOp, OpSpec};
pub use par::{place_and_route, ParResult};
pub use report::{describe_schedule, main_body_schedule};
pub use schedule::{
    schedule_dfg, schedule_dfg_constrained, schedule_dfg_prioritized, ListPriority, Schedule,
};
pub use vhdl::emit_vhdl;
