//! Modulo scheduling for clustered VLIW machines.
//!
//! This crate implements the scheduling substrate of the MICRO-36 2003
//! instruction-replication paper:
//!
//! * [`mii`]/[`res_mii_assigned`]/[`ii_part`] — the initiation-interval
//!   lower bounds (resources, recurrences, bus bandwidth);
//! * [`sms_order`] — the swing-modulo-scheduling node ordering (the paper's
//!   reference \[18\]);
//! * [`Assignment`]/[`ClusterSet`] — which clusters hold an instance of
//!   each operation (the representation instruction replication
//!   manipulates);
//! * [`schedule`] — the backtracking-free placement engine with modulo
//!   reservation tables ([`Mrt`]) for functional units and register buses,
//!   producing a verifiable [`Schedule`];
//! * [`max_live`] — register-pressure measurement, the third cause of
//!   Figure 1;
//! * [`pseudo_schedule`] — the cheap estimates guiding partition refinement
//!   (the paper's reference \[2\]).
//!
//! # Example
//!
//! Schedule a two-cluster loop whose producer value crosses clusters:
//!
//! ```
//! use cvliw_ddg::{Ddg, OpKind};
//! use cvliw_machine::MachineConfig;
//! use cvliw_sched::{schedule, Assignment, ScheduleRequest};
//!
//! let mut b = Ddg::builder();
//! let ld = b.add_node(OpKind::Load);
//! let mul = b.add_node(OpKind::FpMul);
//! b.data(ld, mul);
//! let ddg = b.build()?;
//!
//! let machine = MachineConfig::from_spec("2c1b2l64r")?;
//! let assignment = Assignment::from_partition(&[0, 1]);
//! let sched = schedule(&ScheduleRequest {
//!     ddg: &ddg,
//!     machine: &machine,
//!     assignment: &assignment,
//!     ii: 2,
//!     zero_bus_dep_latency: false,
//! })?;
//! assert_eq!(sched.copy_count(), 1); // the load's value is communicated
//! sched.verify(&ddg, &machine)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assign;
mod cache;
mod error;
mod expand;
mod mii;
mod mrt;
mod order;
mod pseudo;
mod regalloc;
mod regs;
mod schedule;

pub use assign::{Assignment, ClusterSet};
pub use cache::LoopAnalysis;
pub use error::{IiCause, ScheduleError, VerifyError};
pub use expand::{code_shape, expand, render_expansion, CodeShape, ExpandedOp, Expansion};
pub use mii::{ii_part, mii, res_mii_assigned, res_mii_unclustered};
pub use mrt::Mrt;
pub use order::{neighbor_adjacency_ratio, sms_order};
pub use pseudo::{
    comm_penalty, pseudo_schedule, pseudo_schedule_scratch, PseudoSchedule, PseudoScratch,
};
pub use regalloc::{
    allocate_registers, ClusterAllocation, OutOfRegisters, RegAssignment, RegisterAllocation,
};
pub use regs::{
    lifetime_of, live_ranges, max_live, max_live_scratch, peak_pressure, Range, RegScratch,
};
pub use schedule::{
    schedule, schedule_with_scratch, CopyPlacement, OrderStrategy, SchedOp, SchedScratch, Schedule,
    ScheduleRequest,
};
