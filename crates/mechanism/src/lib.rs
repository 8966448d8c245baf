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
//! * [`run_mechanism`] — the end-to-end ε-differentially-private pipeline
//!   `measure → reconstruct → answer`.

pub mod budget;
pub mod error;
pub mod laplace;
pub mod marginals;
mod mechanism;
pub mod phases;
pub mod sharded;
mod strategy;
mod union;

pub use budget::{try_measure, try_run_mechanism, validate_request, MechanismError};
pub use marginals::{MarginalsAlgebra, MarginalsStrategy};
pub use mechanism::MeasuredBlock;
pub use mechanism::{
    answer_many_from_parts, answer_many_from_parts_on, answer_workload, measure, reconstruct,
    reconstruct_with, run_mechanism, Measurements, MechanismResult, PreparedReconstruct, SolveKind,
};
pub use phases::{
    try_run_mechanism_observed, try_run_mechanism_prepared_observed, MechanismPhase, NoopObserver,
    PhaseObserver,
};
pub use sharded::{
    answer_sharded, explicit_forward_sharded, kron_forward_from_parts, kron_forward_sharded,
    kron_transpose_sharded, measure_sharded, measure_with, reconstruct_sharded,
    reconstruct_sharded_with, try_run_mechanism_sharded_observed,
    try_run_mechanism_sharded_prepared_observed, DataSlab, ScopedExecutor, SerialExecutor,
    ShardExecutor, ShardedView,
};
pub use strategy::{Strategy, UnionGroup};
pub use union::UnionSolve;
