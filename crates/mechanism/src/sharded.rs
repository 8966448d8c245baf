//! Sharded MEASURE / RECONSTRUCT / ANSWER: the pipeline's stages over
//! leading-axis slabs of the data vector.
//!
//! HDMM's Kronecker structure makes the data vector separable per attribute
//! (§7.2): every mode contraction except the leading one operates
//! independently per leading-axis index, so a dataset partitioned into
//! contiguous slabs along its leading attribute can measure, reconstruct, and
//! answer with per-shard jobs on the [`ScopedExecutor`]'s lanes:
//!
//! * **MEASURE** — each slab's trailing-factor product (the bulk of the
//!   flops) runs wherever the pipeline's [`SlabForward`] source puts it: on
//!   the in-process [`Lanes`], or as slab RPCs to remote workers. The ordered
//!   merge and the leading contraction over *output-row* blocks always run
//!   here, and noise is added exactly once over the assembled measurement
//!   vector — the privacy analysis is unchanged because the mechanism output
//!   distribution is identical to the unsharded mechanism's.
//! * **RECONSTRUCT** — `Aᵀy` fans out over measurement-axis slabs (trailing
//!   transposes) then domain-axis blocks (leading transpose), and the inverse
//!   Grams scatter `x̂` back per domain slab. Union strategies keep their
//!   global solve — the two-group closed form of [`crate::UnionSolve`] when
//!   it applies, LSMR otherwise — and marginals run the whole `G(v)·Mᵀy`
//!   down and up the subset tree of [`crate::MarginalsAlgebra`] (a few
//!   passes over the domain in all); both are documented single-job stages.
//!   RECONSTRUCT is post-processing of measurements the coordinator already
//!   holds, so it never leaves the process.
//! * **ANSWER** — each workload term runs the same forward fan-out over `x̂`.
//!
//! A one-slab view — dense data — goes straight to the contiguous kernels
//! (`kmatvec_structured`, [`reconstruct_with`](crate::reconstruct_with),
//! [`Workload::answer`]), so the dense path keeps its kernels, allocations
//! and span tree while sharing every line of the strategy walk.
//!
//! ## Exactness contract
//!
//! Every stage here is **bitwise identical** to the plain
//! [`measure`](crate::measure) / [`reconstruct`](crate::reconstruct) /
//! [`Workload::answer`] path for *any* shard count and lane count, including
//! 1 — floating point sums are never reassociated (see
//! [`hdmm_linalg::apply_leading_rows`] for the kernel-level argument), noise
//! is drawn from the same RNG in the same order, and merges are ordered
//! concatenations. A serving engine can therefore promise: same seed, same
//! dataset, same request order ⇒ same answers, regardless of how the data
//! vector is partitioned or where its slabs live.
//!
//! [`Workload::answer`]: hdmm_workload::Workload::answer

use crate::budget::MechanismError;
use crate::laplace::add_laplace_noise;
use crate::phases::{MechanismPhase, PhaseObserver};
use crate::{
    MarginalsAlgebra, MeasuredBlock, Measurements, PreparedReconstruct, ScopedExecutor, Strategy,
};
use hdmm_linalg::{
    apply_leading_rows, apply_leading_transpose_rows, kmatvec_structured, kmatvec_trailing_slab,
    kmatvec_transpose_trailing_slab, leading_split, matvec_rows, partition_rows, Matrix,
    StructuredMatrix,
};
use hdmm_workload::Workload;
use rand::Rng;
use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;

/// Fallible dense-strategy product `A·x` for [`measure_with`]: how the
/// caller computes the explicit-matrix measurement vector.
pub type ExplicitFn<'a, E> = dyn FnMut(&Matrix) -> Result<Vec<f64>, E> + 'a;

/// Fallible Kronecker forward product over the data for [`measure_with`]:
/// how the caller computes one measurement block from its factors.
pub type ForwardFn<'a, E> = dyn FnMut(&[&StructuredMatrix]) -> Result<Vec<f64>, E> + 'a;

/// Phase 1 of the forward fan-out: the trailing-factor product of every slab
/// of the view, in slab order — where the pipeline's [`SlabForward`] source
/// plugs in.
type TrailingFn<'a, E> = dyn FnMut(&[&StructuredMatrix]) -> Result<Vec<Vec<f64>>, E> + 'a;

/// One contiguous slab of a row-major data vector: leading-axis rows `rows`
/// holding `rows.len() · (N / leading)` cells.
#[derive(Debug, Clone)]
pub struct DataSlab<'a> {
    /// Leading-axis rows `[start, end)` this slab covers.
    pub rows: Range<usize>,
    /// The slab's cells, row-major.
    pub values: &'a [f64],
}

/// A data vector partitioned into ordered, contiguous leading-axis slabs.
#[derive(Debug, Clone)]
pub struct ShardedView<'a> {
    /// Length of the partitioned leading axis (the first attribute's
    /// cardinality for multi-attribute domains).
    pub leading: usize,
    /// The slabs, in leading-axis order, jointly covering `0..leading`.
    pub slabs: Vec<DataSlab<'a>>,
}

impl<'a> ShardedView<'a> {
    /// Builds a view, validating that the slabs tile `0..leading` in order
    /// and carry consistently sized payloads.
    ///
    /// # Panics
    /// Panics if the slabs do not form an ordered partition of the axis.
    pub fn new(leading: usize, slabs: Vec<DataSlab<'a>>) -> Self {
        assert!(!slabs.is_empty(), "sharded view needs at least one slab");
        assert!(leading > 0, "leading axis must be non-empty");
        let total: usize = slabs.iter().map(|s| s.values.len()).sum();
        assert_eq!(total % leading, 0, "cells must divide evenly by the axis");
        let stride = total / leading;
        let mut next = 0usize;
        for s in &slabs {
            assert_eq!(s.rows.start, next, "slabs must tile the axis in order");
            assert!(s.rows.end >= s.rows.start, "slab range reversed");
            assert_eq!(
                s.values.len(),
                (s.rows.end - s.rows.start) * stride,
                "slab payload does not match its row range"
            );
            next = s.rows.end;
        }
        assert_eq!(next, leading, "slabs must cover the whole axis");
        ShardedView { leading, slabs }
    }

    /// `x` cut into `shards` near-equal leading-axis slabs (the canonical
    /// [`partition_rows`] partition).
    pub fn partition(x: &'a [f64], leading: usize, shards: usize) -> Self {
        let stride = x.len() / leading;
        let slabs = partition_rows(leading, shards)
            .into_iter()
            .map(|r| DataSlab {
                values: &x[r.start * stride..r.end * stride],
                rows: r,
            })
            .collect();
        ShardedView::new(leading, slabs)
    }

    /// Total cells across all slabs.
    pub fn total_len(&self) -> usize {
        self.slabs.iter().map(|s| s.values.len()).sum()
    }

    /// Cells per leading-axis row.
    pub fn stride(&self) -> usize {
        self.total_len() / self.leading
    }

    /// Number of slabs.
    pub fn shard_count(&self) -> usize {
        self.slabs.len()
    }

    /// The whole vector when the view is a single slab — the dense case the
    /// stages hand to the contiguous kernels.
    fn as_single(&self) -> Option<&'a [f64]> {
        match self.slabs.as_slice() {
            [only] => Some(only.values),
            _ => None,
        }
    }

    /// Materializes the full vector (ordered concatenation — exact).
    pub fn assemble(&self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.total_len());
        for s in &self.slabs {
            x.extend_from_slice(s.values);
        }
        x
    }

    /// The slab row ranges translated to an axis of length `axis_len` whose
    /// elements are `axis_stride` cells apart. Returns `None` when a
    /// boundary does not fall on a whole row of the target axis.
    fn ranges_on_axis(&self, axis_len: usize, axis_stride: usize) -> Option<Vec<Range<usize>>> {
        let stride = self.stride();
        let mut out = Vec::with_capacity(self.slabs.len());
        for s in &self.slabs {
            let el_start = s.rows.start * stride;
            let el_end = s.rows.end * stride;
            if !el_start.is_multiple_of(axis_stride) || !el_end.is_multiple_of(axis_stride) {
                return None;
            }
            let r = el_start / axis_stride..el_end / axis_stride;
            if r.end > axis_len {
                return None;
            }
            out.push(r);
        }
        Some(out)
    }
}

/// Where MEASURE's per-slab trailing-factor products run — the pipeline's
/// one degree of freedom ([`crate::Pipeline::run`]).
pub trait SlabForward: Sync {
    /// A failure of the fan-out; request validation errors convert into it.
    type Error: From<MechanismError>;

    /// `(⊗ trailing)·slabᵢ` for every slab of `view`, in slab order.
    /// `lanes` and `observer` are the pipeline's, for sources that fan out
    /// in-process or report shard timings.
    fn trailing_parts<O: PhaseObserver + ?Sized>(
        &self,
        trailing: &[&StructuredMatrix],
        view: &ShardedView<'_>,
        lanes: &ScopedExecutor,
        observer: &O,
    ) -> Result<Vec<Vec<f64>>, Self::Error>;
}

/// The in-process source: one job per slab on the pipeline's lanes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lanes;

impl SlabForward for Lanes {
    type Error = MechanismError;

    fn trailing_parts<O: PhaseObserver + ?Sized>(
        &self,
        trailing: &[&StructuredMatrix],
        view: &ShardedView<'_>,
        lanes: &ScopedExecutor,
        observer: &O,
    ) -> Result<Vec<Vec<f64>>, MechanismError> {
        Ok(trailing_on_lanes(
            trailing,
            view,
            lanes,
            observer,
            MechanismPhase::Measure,
        ))
    }
}

/// Unwraps a result that cannot fail.
pub(crate) fn infallible<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

/// Wraps one shard job so its wall time is reported as a shard span.
fn timed<'a, T>(
    observer: &'a (impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    shard: usize,
    body: impl FnOnce() -> T + Send + 'a,
) -> impl FnOnce() -> T + Send + 'a {
    move || {
        let t = Instant::now();
        let out = body();
        observer.shard_phase_complete(phase, shard, t.elapsed());
        out
    }
}

/// Cuts `out` into the consecutive chunks of `blocks`, `right` cells per
/// block row, so each job owns a disjoint output slice.
fn split_blocks<'o>(
    mut out: &'o mut [f64],
    blocks: &[Range<usize>],
    right: usize,
) -> Vec<&'o mut [f64]> {
    blocks
        .iter()
        .map(|b| {
            let (chunk, tail) = std::mem::take(&mut out).split_at_mut(b.len() * right);
            out = tail;
            chunk
        })
        .collect()
}

/// Phase 1 of the forward fan-out on in-process lanes: the trailing-factor
/// product of every slab, in slab order.
fn trailing_on_lanes(
    trailing: &[&StructuredMatrix],
    view: &ShardedView<'_>,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<Vec<f64>> {
    exec.run(
        view.slabs
            .iter()
            .enumerate()
            .map(|(shard, slab)| {
                timed(observer, phase, shard, move || {
                    kmatvec_trailing_slab(trailing, slab.values)
                })
            })
            .collect(),
    )
}

/// The exact forward fan-out with phase 1 supplied by `trailing`: the
/// ordered merge of the per-slab parts, then the leading contraction over
/// disjoint output-row blocks. A one-slab view, or slab boundaries that do
/// not align with the leading factor's input mode, take the contiguous
/// kernel instead — the result is identical either way.
fn kron_forward_via<E>(
    factors: &[&StructuredMatrix],
    view: &ShardedView<'_>,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
    trailing: &mut TrailingFn<'_, E>,
) -> Result<Vec<f64>, E> {
    if let Some(x) = view.as_single() {
        return Ok(kmatvec_structured(factors, x));
    }
    let split = leading_split(factors);
    let lead_n = split.leading.cols();
    if view.ranges_on_axis(lead_n, split.trailing_cols()).is_none() {
        return Ok(kmatvec_structured(factors, &view.assemble()));
    }
    let parts = trailing(&split.trailing)?;

    // Phase 2 — ordered merge (pure memory move, exact).
    let right = split.trailing_rows();
    let mut merged = Vec::with_capacity(lead_n * right);
    for p in parts {
        merged.extend(p);
    }

    // Phase 3 — leading contraction over disjoint output-row blocks, each
    // block replaying the unsharded op order.
    let m_lead = split.leading.rows();
    let mut out = vec![0.0; m_lead * right];
    let blocks = partition_rows(m_lead, view.shard_count());
    let chunks = split_blocks(&mut out, &blocks, right);
    let (leading, merged) = (split.leading, &merged);
    exec.run(
        chunks
            .into_iter()
            .zip(blocks)
            .enumerate()
            .map(|(shard, (chunk, block))| {
                timed(observer, phase, shard, move || {
                    apply_leading_rows(leading, merged, right, block, chunk);
                })
            })
            .collect(),
    );
    Ok(out)
}

/// The exact forward fan-out: `(⊗ factors)·x` over the slabs of `view`,
/// bitwise identical to `kmatvec_structured(factors, view.assemble())`.
fn kron_forward_sharded(
    factors: &[&StructuredMatrix],
    view: &ShardedView<'_>,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    infallible(kron_forward_via(
        factors,
        view,
        exec,
        observer,
        phase,
        &mut |trailing| Ok(trailing_on_lanes(trailing, view, exec, observer, phase)),
    ))
}

/// The exact transposed fan-out: `(⊗ factors)ᵀ·y`, bitwise identical to
/// `kmatvec_transpose_structured(factors, y)`. `domain_ranges` gives the
/// output (domain-axis) partition, the view's slab ranges.
fn kron_transpose_sharded(
    factors: &[&StructuredMatrix],
    y: &[f64],
    domain_ranges: &[Range<usize>],
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    phase: MechanismPhase,
) -> Vec<f64> {
    let split = leading_split(factors);
    let m_lead = split.leading.rows();
    let rest_m = split.trailing_rows();

    // Phase 1 — trailing transposes per measurement-axis slab.
    let trailing = &split.trailing;
    let parts = exec.run(
        partition_rows(m_lead, domain_ranges.len())
            .into_iter()
            .enumerate()
            .map(|(shard, block)| {
                let slab = &y[block.start * rest_m..block.end * rest_m];
                timed(observer, phase, shard, move || {
                    kmatvec_transpose_trailing_slab(trailing, slab)
                })
            })
            .collect(),
    );
    let right = split.trailing_cols();
    let mut merged = Vec::with_capacity(m_lead * right);
    for p in parts {
        merged.extend(p);
    }

    // Phase 2 — leading transpose over disjoint domain-axis blocks.
    let mut out = vec![0.0; split.leading.cols() * right];
    let chunks = split_blocks(&mut out, domain_ranges, right);
    let (leading, merged) = (split.leading, &merged);
    exec.run(
        chunks
            .into_iter()
            .zip(domain_ranges.iter().cloned())
            .enumerate()
            .map(|(shard, (chunk, block))| {
                timed(observer, phase, shard, move || {
                    apply_leading_transpose_rows(leading, merged, right, block, chunk);
                })
            })
            .collect(),
    );
    out
}

/// Row-partitioned explicit matvec over the view, exact w.r.t.
/// `a.matvec(x)`; a one-slab view is that matvec.
fn explicit_forward(
    a: &Matrix,
    view: &ShardedView<'_>,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    if let Some(x) = view.as_single() {
        return a.matvec(x);
    }
    let x = view.assemble();
    let blocks = partition_rows(a.rows(), view.shard_count());
    let mut out = vec![0.0; a.rows()];
    let chunks = split_blocks(&mut out, &blocks, 1);
    let x = &x;
    exec.run(
        chunks
            .into_iter()
            .zip(blocks)
            .enumerate()
            .map(|(shard, (chunk, block))| {
                timed(observer, MechanismPhase::Measure, shard, move || {
                    matvec_rows(a, x, block, chunk);
                })
            })
            .collect(),
    );
    out
}

/// The strategy-generic MEASURE walk, parametrized over the two forward
/// kernels: per-strategy sensitivity, block ordering, theta scaling, and the
/// noise-draw order live here — written exactly once — while `explicit`
/// (dense matvec) and `forward` (Kronecker factor product over the data)
/// decide *where* the flops run. [`measure`](crate::measure) supplies the
/// contiguous kernels; the pipeline supplies the slab fan-out, whose
/// trailing products may be RPCs that fail with a transport error. Noise is
/// always drawn *after* a block's forward product succeeds, and blocks are
/// visited in strategy order, so every caller consumes the RNG stream
/// identically — the root of the byte-identity guarantee across sources.
///
/// # Panics
/// Panics if `eps` is not positive (use [`crate::Pipeline`] for typed
/// validation).
pub fn measure_with<E>(
    strategy: &Strategy,
    eps: f64,
    rng: &mut impl Rng,
    explicit: &mut ExplicitFn<'_, E>,
    forward: &mut ForwardFn<'_, E>,
) -> Result<Measurements, E> {
    assert!(eps > 0.0, "privacy budget must be positive");
    let blocks = match strategy {
        Strategy::Explicit(a) => {
            let scale = a.norm_l1_operator() / eps;
            let mut noisy = explicit(a)?;
            add_laplace_noise(&mut noisy, scale, rng);
            vec![MeasuredBlock {
                noisy,
                noise_scale: scale,
            }]
        }
        Strategy::Kron(factors) => {
            let sens: f64 = factors.iter().map(StructuredMatrix::sensitivity).product();
            let scale = sens / eps;
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let mut noisy = forward(&refs)?;
            add_laplace_noise(&mut noisy, scale, rng);
            vec![MeasuredBlock {
                noisy,
                noise_scale: scale,
            }]
        }
        Strategy::Marginals(m) => {
            let scale = m.sensitivity() / eps;
            let algebra = MarginalsAlgebra::new(&m.domain);
            let mut blocks = Vec::new();
            for (a, &theta) in m.theta.iter().enumerate() {
                if theta == 0.0 {
                    continue;
                }
                let q = algebra.marginal_factors(a);
                let refs: Vec<&StructuredMatrix> = q.iter().collect();
                let mut noisy = forward(&refs)?;
                for v in &mut noisy {
                    *v *= theta;
                }
                add_laplace_noise(&mut noisy, scale, rng);
                blocks.push(MeasuredBlock {
                    noisy,
                    noise_scale: scale,
                });
            }
            blocks
        }
        Strategy::Union(groups) => {
            // Sequential composition: group g runs at ε_g = share_g·ε.
            let mut blocks = Vec::with_capacity(groups.len());
            for g in groups {
                let sens: f64 = g
                    .factors
                    .iter()
                    .map(StructuredMatrix::sensitivity)
                    .product();
                let scale = sens / (g.share * eps);
                let refs: Vec<&StructuredMatrix> = g.factors.iter().collect();
                let mut noisy = forward(&refs)?;
                add_laplace_noise(&mut noisy, scale, rng);
                blocks.push(MeasuredBlock {
                    noisy,
                    noise_scale: scale,
                });
            }
            blocks
        }
    };
    Ok(Measurements { blocks, eps })
}

/// MEASURE over `view` with phase 1 of every Kronecker product supplied by
/// `trailing` — the walk the pipeline and [`measure_sharded`] share.
pub(crate) fn measure_view<E>(
    strategy: &Strategy,
    view: &ShardedView<'_>,
    eps: f64,
    rng: &mut impl Rng,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
    trailing: &mut TrailingFn<'_, E>,
) -> Result<Measurements, E> {
    measure_with(
        strategy,
        eps,
        rng,
        &mut |a| Ok(explicit_forward(a, view, exec, observer)),
        &mut |refs| {
            kron_forward_via(
                refs,
                view,
                exec,
                observer,
                MechanismPhase::Measure,
                trailing,
            )
        },
    )
}

/// Sharded MEASURE on in-process lanes: computes `A·x` through the per-slab
/// fan-out and adds Laplace noise exactly once over the assembled
/// measurement vector — bitwise identical to [`measure`](crate::measure) on
/// the assembled data for every shard count, so ε-differential privacy holds
/// unchanged.
///
/// # Panics
/// Panics if `eps` is not positive (use [`crate::Pipeline`] for typed
/// validation).
pub fn measure_sharded(
    strategy: &Strategy,
    view: &ShardedView<'_>,
    eps: f64,
    rng: &mut impl Rng,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Measurements {
    infallible(measure_view(
        strategy,
        view,
        eps,
        rng,
        exec,
        observer,
        &mut |trailing| {
            Ok(trailing_on_lanes(
                trailing,
                view,
                exec,
                observer,
                MechanismPhase::Measure,
            ))
        },
    ))
}

/// Sharded RECONSTRUCT with the strategy factorization supplied by the
/// caller ([`PreparedReconstruct`]): scatters `x̂` back per domain slab,
/// bitwise identical to [`reconstruct_with`](crate::reconstruct_with).
/// Kronecker strategies fan both passes out; unions keep their global solve
/// (closed form or LSMR) and marginals their subset-tree `G(v)·Mᵀy`, each
/// as one serial stage.
///
/// # Panics
/// Panics if `prepared` was built from a different strategy variant.
pub fn reconstruct_sharded_with(
    prepared: &PreparedReconstruct,
    strategy: &Strategy,
    meas: &Measurements,
    view: &ShardedView<'_>,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    // One slab, explicit strategies (small 1-D domains), unions (a global
    // solve) and marginals (a few passes over the domain in all) keep the
    // plain serial path.
    let (Strategy::Kron(factors), None) = (strategy, view.as_single()) else {
        return crate::reconstruct_with(prepared, strategy, meas);
    };
    let PreparedReconstruct::Kron { gram_pinvs } = prepared else {
        panic!("PreparedReconstruct was built from a different strategy variant");
    };
    let refs: Vec<&StructuredMatrix> = factors.iter().collect();
    let split = leading_split(&refs);
    let lead_n = split.leading.cols();
    let Some(ranges) = view.ranges_on_axis(lead_n, split.trailing_cols()) else {
        return crate::reconstruct_with(prepared, strategy, meas);
    };
    let phase = MechanismPhase::Reconstruct;
    let aty = kron_transpose_sharded(&refs, &meas.blocks[0].noisy, &ranges, exec, observer, phase);
    let stride = aty.len() / lead_n;
    let aty_slabs = ranges
        .iter()
        .map(|r| DataSlab {
            rows: r.clone(),
            values: &aty[r.start * stride..r.end * stride],
        })
        .collect();
    let pinv_refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
    kron_forward_sharded(
        &pinv_refs,
        &ShardedView::new(lead_n, aty_slabs),
        exec,
        observer,
        phase,
    )
}

/// Sharded ANSWER: evaluates the workload on the reconstructed estimate with
/// the per-term forward fan-out over `shards` slabs. Bitwise identical to
/// [`Workload::answer`](hdmm_workload::Workload::answer), which one shard
/// runs directly.
pub fn answer_sharded(
    workload: &Workload,
    x_hat: &[f64],
    shards: usize,
    exec: &ScopedExecutor,
    observer: &(impl PhaseObserver + ?Sized),
) -> Vec<f64> {
    assert_eq!(
        x_hat.len(),
        workload.domain().size(),
        "data vector size mismatch"
    );
    if shards <= 1 {
        return workload.answer(x_hat);
    }
    let view = ShardedView::partition(x_hat, workload.domain().attr_size(0), shards);
    let mut out = Vec::with_capacity(workload.query_count());
    for t in workload.terms() {
        let refs: Vec<&StructuredMatrix> = t.factors.iter().collect();
        let mut y = kron_forward_sharded(&refs, &view, exec, observer, MechanismPhase::Answer);
        if t.weight != 1.0 {
            for v in &mut y {
                *v *= t.weight;
            }
        }
        out.extend(y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phases::NoopObserver;
    use crate::{MarginalsStrategy, MechanismResult, Pipeline, UnionGroup};
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The checked pipeline on in-process lanes, seed 42, `remaining = 1`.
    fn serve(
        w: &Workload,
        s: &Strategy,
        prepared: &PreparedReconstruct,
        view: &ShardedView<'_>,
        eps: f64,
        lanes: &ScopedExecutor,
        observer: &(impl PhaseObserver + ?Sized),
    ) -> Result<MechanismResult, MechanismError> {
        Pipeline {
            workload: w,
            strategy: s,
            prepared,
            view,
            eps,
            remaining: 1.0,
            lanes,
            observer,
        }
        .run(&mut StdRng::seed_from_u64(42), &Lanes)
    }

    fn strategies() -> Vec<(Workload, Strategy)> {
        let kron = (
            builders::prefix_2d(6, 5),
            Strategy::kron(vec![
                blocks::prefix(6).scaled(1.0 / 6.0),
                blocks::prefix(5).scaled(0.2),
            ]),
        );
        let explicit = (
            builders::prefix_1d(8),
            Strategy::Explicit(hdmm_linalg::Matrix::from_fn(8, 8, |r, c| {
                if c <= r {
                    0.125
                } else {
                    0.0
                }
            })),
        );
        let marginals = (
            builders::all_marginals(&Domain::new(&[4, 3])),
            Strategy::Marginals(MarginalsStrategy::uniform(Domain::new(&[4, 3]))),
        );
        let union = (
            builders::range_total_union_2d(4, 4),
            Strategy::Union(vec![
                UnionGroup::new(
                    0.5,
                    vec![blocks::prefix(4).scaled(0.25), blocks::total(4)],
                    vec![0],
                ),
                UnionGroup::new(
                    0.5,
                    vec![blocks::total(4), blocks::prefix(4).scaled(0.25)],
                    vec![1],
                ),
            ]),
        );
        vec![kron, explicit, marginals, union]
    }

    #[test]
    fn sharded_pipeline_is_bitwise_identical_to_plain() {
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let plain = crate::run_mechanism(&w, &s, &x, 1.0, &mut StdRng::seed_from_u64(42));
            let prepared = PreparedReconstruct::new(&s);
            for shards in [1usize, 2, 3, leading] {
                for lanes in [1, 4] {
                    let view = ShardedView::partition(&x, leading, shards);
                    let exec = ScopedExecutor::new(lanes);
                    let got = serve(&w, &s, &prepared, &view, 1.0, &exec, &NoopObserver).unwrap();
                    assert!(
                        bits_eq(&got.answers, &plain.answers),
                        "{} shards={shards}: answers diverge",
                        s.kind()
                    );
                    assert!(
                        bits_eq(&got.x_hat, &plain.x_hat),
                        "{} shards={shards}: x_hat diverges",
                        s.kind()
                    );
                }
            }
        }
    }

    #[test]
    fn prepared_sharded_is_bitwise_identical_to_unprepared() {
        let exec = ScopedExecutor::new(1);
        for (w, s) in strategies() {
            let n = w.domain().size();
            let leading = w.domain().attr_size(0);
            let x = data(n);
            let prepared = PreparedReconstruct::new(&s);
            for shards in [1usize, 2, leading] {
                let view = ShardedView::partition(&x, leading, shards);
                let mut rng = StdRng::seed_from_u64(42);
                let meas = measure_sharded(&s, &view, 1.0, &mut rng, &exec, &NoopObserver);
                let fresh = PreparedReconstruct::new(&s);
                let x_hat =
                    reconstruct_sharded_with(&fresh, &s, &meas, &view, &exec, &NoopObserver);
                let answers = answer_sharded(&w, &x_hat, shards, &exec, &NoopObserver);
                let got = serve(&w, &s, &prepared, &view, 1.0, &exec, &NoopObserver).unwrap();
                assert!(
                    bits_eq(&got.x_hat, &x_hat) && bits_eq(&got.answers, &answers),
                    "{} shards={shards}: prepared path diverges",
                    s.kind()
                );
            }
        }
    }

    #[test]
    fn sharded_validation_is_typed() {
        let w = builders::prefix_1d(8);
        let s = Strategy::identity(w.domain());
        let prepared = PreparedReconstruct::new(&s);
        let exec = ScopedExecutor::new(1);
        let x = data(8);
        let view = ShardedView::partition(&x, 8, 2);
        assert!(matches!(
            serve(&w, &s, &prepared, &view, 2.0, &exec, &NoopObserver),
            Err(MechanismError::BudgetExhausted { .. })
        ));
        assert!(matches!(
            serve(&w, &s, &prepared, &view, f64::NAN, &exec, &NoopObserver),
            Err(MechanismError::InvalidEpsilon { .. })
        ));
        let short = data(6);
        let bad_view = ShardedView::partition(&short, 6, 2);
        assert!(matches!(
            serve(&w, &s, &prepared, &bad_view, 0.5, &exec, &NoopObserver),
            Err(MechanismError::DataVectorMismatch {
                expected: 8,
                got: 6
            })
        ));
    }

    #[test]
    fn shard_spans_are_reported_per_shard() {
        use std::sync::Mutex;
        struct Spans(Mutex<Vec<(MechanismPhase, usize)>>);
        impl PhaseObserver for Spans {
            fn phase_complete(&self, _p: MechanismPhase, _e: std::time::Duration) {}
            fn shard_phase_complete(
                &self,
                phase: MechanismPhase,
                shard: usize,
                _elapsed: std::time::Duration,
            ) {
                self.0.lock().unwrap().push((phase, shard));
            }
        }
        let w = builders::prefix_2d(6, 4);
        let s = Strategy::kron(vec![blocks::prefix(6), blocks::prefix(4)]);
        let x = data(24);
        let view = ShardedView::partition(&x, 6, 3);
        let spans = Spans(Mutex::new(Vec::new()));
        let prepared = PreparedReconstruct::new(&s);
        serve(
            &w,
            &s,
            &prepared,
            &view,
            1.0,
            &ScopedExecutor::new(1),
            &spans,
        )
        .unwrap();
        let seen = spans.0.lock().unwrap();
        for phase in [
            MechanismPhase::Measure,
            MechanismPhase::Reconstruct,
            MechanismPhase::Answer,
        ] {
            for shard in 0..3 {
                assert!(
                    seen.iter().any(|&(p, sh)| p == phase && sh == shard),
                    "missing span {phase:?}/{shard}"
                );
            }
        }
    }

    #[test]
    fn view_validates_its_partition() {
        let x = data(12);
        let ok = ShardedView::new(
            6,
            vec![
                DataSlab {
                    rows: 0..2,
                    values: &x[0..4],
                },
                DataSlab {
                    rows: 2..6,
                    values: &x[4..12],
                },
            ],
        );
        assert_eq!(ok.stride(), 2);
        assert_eq!(ok.assemble(), x);
        let gap = std::panic::catch_unwind(|| {
            ShardedView::new(
                6,
                vec![DataSlab {
                    rows: 1..6,
                    values: &x[2..12],
                }],
            )
        });
        assert!(gap.is_err(), "a slab gap must be rejected");
    }
}
