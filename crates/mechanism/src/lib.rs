//! Strategies, measurement, reconstruction, and error accounting for HDMM.
//!
//! This crate implements the MEASURE and RECONSTRUCT phases of Table 1(b) of
//! the paper, plus the closed-form expected-error arithmetic (Definition 7)
//! that both strategy selection and the evaluation harness rely on:
//!
//! * [`Strategy`] — implicit strategy representations (explicit blocks,
//!   Kronecker products, unions of products, weighted marginals) with
//!   sensitivity per Theorem 3;
//! * [`marginals`] — the `C(a)/G(v)/X(u)` subset algebra of §6.3 and
//!   Appendix A.4, including the linear-system pseudo-inverse;
//! * [`error`] — `‖WA⁺‖²_F` for every strategy form, decomposed per
//!   Theorems 5/6 so only per-attribute blocks are touched;
//! * [`laplace`] — the vector-form Laplace mechanism (Definition 6);
//! * [`Pipeline`] — the one checked serving pipeline, validate → MEASURE →
//!   RECONSTRUCT → ANSWER over the slabs of a [`ShardedView`] (one slab when
//!   dense) on one [`ScopedExecutor`], with MEASURE's per-slab trailing
//!   products from a [`SlabForward`] source: in-process [`Lanes`] or remote
//!   workers;
//! * [`ScopedExecutor`] — the one lane executor behind every fan-out;
//! * [`run_mechanism`], [`measure`], [`reconstruct`], [`reconstruct_with`] —
//!   the unchecked dense reference every bitwise contract compares against.

pub mod budget;
pub mod error;
mod executor;
pub mod laplace;
pub mod marginals;
mod mechanism;
pub mod phases;
pub mod sharded;
mod strategy;
mod union;

pub use budget::{validate_request, MechanismError};
pub use executor::ScopedExecutor;
pub use marginals::{MarginalsAlgebra, MarginalsStrategy};
pub use mechanism::MeasuredBlock;
pub use mechanism::{
    answer_many_from_parts, answer_many_from_parts_on, answer_workload, measure, reconstruct,
    reconstruct_with, run_mechanism, Measurements, MechanismResult, PreparedReconstruct, SolveKind,
};
pub use phases::{MechanismPhase, NoopObserver, PhaseObserver, Pipeline};
pub use sharded::{
    answer_sharded, measure_sharded, measure_with, reconstruct_sharded_with, DataSlab, Lanes,
    ShardedView, SlabForward,
};
pub use strategy::{Strategy, UnionGroup};
pub use union::UnionSolve;
