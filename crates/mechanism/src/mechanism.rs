//! The end-to-end private pipeline: MEASURE → RECONSTRUCT → answer
//! (Table 1(b) of the paper, with the efficient implementations of §7.2).

use crate::error::gram_pinv;
use crate::sharded::infallible;
use crate::union::UnionSolve;
use crate::{measure_with, MarginalsAlgebra, ScopedExecutor, Strategy};
use hdmm_linalg::{
    kmatvec_structured, kmatvec_transpose_structured, lsmr, KronScratch, LinOp, LsmrOptions,
    Matrix, ScaledOp, StackedOp, StructuredMatrix,
};
use hdmm_workload::Workload;
use rand::Rng;

/// One noisy measurement block together with its noise scale.
#[derive(Debug, Clone)]
pub struct MeasuredBlock {
    /// Noisy strategy-query answers.
    pub noisy: Vec<f64>,
    /// The Laplace scale `b` used for this block.
    pub noise_scale: f64,
}

/// The output of the MEASURE phase.
#[derive(Debug, Clone)]
pub struct Measurements {
    /// Per-part noisy answers: one block for explicit/Kron strategies, one per
    /// marginal for marginals strategies, one per group for unions.
    pub blocks: Vec<MeasuredBlock>,
    /// The privacy budget consumed.
    pub eps: f64,
}

/// Result of the full mechanism run.
#[derive(Debug, Clone)]
pub struct MechanismResult {
    /// The reconstructed data-vector estimate `x̄`.
    pub x_hat: Vec<f64>,
    /// The workload answers `W·x̄`.
    pub answers: Vec<f64>,
}

/// MEASURE: computes `A·x` implicitly and adds Laplace noise calibrated to
/// the strategy sensitivity (Definition 6). ε-differentially private.
///
/// The one-slab call of the shared strategy walk [`measure_with`]: the
/// contiguous kernels over the whole data vector.
pub fn measure(strategy: &Strategy, x: &[f64], eps: f64, rng: &mut impl Rng) -> Measurements {
    infallible(measure_with(
        strategy,
        eps,
        rng,
        &mut |a| Ok(a.matvec(x)),
        &mut |refs| Ok(kmatvec_structured(refs, x)),
    ))
}

/// The strategy-only half of RECONSTRUCT, factored out so a serving layer
/// answering many requests against one cached strategy pays for it once.
///
/// Everything here is a pure deterministic function of the strategy — no
/// measurements, no randomness — so `reconstruct_with(&prepared, s, m)` is
/// bitwise identical to `reconstruct(s, m)` whether `prepared` was built
/// moments ago or cached across requests:
///
/// * explicit: the `n×n` inverse Gram `(AᵀA)⁺` (a Cholesky or eigendecomposed
///   pseudo-inverse — the dominant cost of a warm explicit request);
/// * Kronecker: the per-factor inverse Grams `(AᵢᵀAᵢ)⁺`;
/// * marginals: the subset-sum algebra tables and the §7.2 weight vector `v`
///   with `(MᵀM)⁺ = G(v)`;
/// * union: for two groups, the per-axis simultaneous diagonalization of the
///   two groups' Grams that makes the whitened normal equations a diagonal
///   solve between two Kronecker passes ([`UnionSolve`]); for any other
///   union, or when both groups have a singular Gram, nothing — those keep
///   the iterative LSMR solve.
#[derive(Debug, Clone)]
pub enum PreparedReconstruct {
    /// `(AᵀA)⁺` for an explicit strategy.
    Explicit {
        /// The inverse Gram.
        gram_pinv: Matrix,
    },
    /// Per-factor `(AᵢᵀAᵢ)⁺` for a Kronecker strategy.
    Kron {
        /// One inverse Gram per factor, in factor order.
        gram_pinvs: Vec<StructuredMatrix>,
    },
    /// The marginals subset algebra and pseudo-inverse weights.
    Marginals {
        /// Möbius/subset-sum tables for the strategy domain.
        algebra: MarginalsAlgebra,
        /// Weights `v` with `(MᵀM)⁺ = G(v)`.
        v: Vec<f64>,
    },
    /// A union strategy.
    Union {
        /// The two-group closed form; `None` reconstructs by LSMR.
        closed_form: Option<Box<UnionSolve>>,
    },
}

/// How RECONSTRUCT solves for `x̄` under a [`PreparedReconstruct`] — the
/// label of the `hdmm_reconstruct_total` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveKind {
    /// Two-group union through the simultaneous-diagonalization closed form.
    ClosedForm,
    /// Kronecker per-factor inverse Grams.
    Kron,
    /// Marginals subset algebra.
    Marginals,
    /// Explicit inverse Gram.
    Explicit,
    /// Iterative LSMR (unions without a closed form).
    Lsmr,
}

impl SolveKind {
    /// Every kind, in label order.
    pub const ALL: [SolveKind; 5] = [
        SolveKind::ClosedForm,
        SolveKind::Kron,
        SolveKind::Marginals,
        SolveKind::Explicit,
        SolveKind::Lsmr,
    ];

    /// Stable lowercase name (telemetry label).
    pub fn name(self) -> &'static str {
        match self {
            SolveKind::ClosedForm => "closed_form",
            SolveKind::Kron => "kron",
            SolveKind::Marginals => "marginals",
            SolveKind::Explicit => "explicit",
            SolveKind::Lsmr => "lsmr",
        }
    }
}

impl PreparedReconstruct {
    /// Precomputes the reconstruction operator for `strategy`.
    pub fn new(strategy: &Strategy) -> Self {
        match strategy {
            Strategy::Explicit(a) => PreparedReconstruct::Explicit {
                gram_pinv: gram_pinv(a),
            },
            Strategy::Kron(factors) => PreparedReconstruct::Kron {
                gram_pinvs: factors.iter().map(StructuredMatrix::gram_pinv).collect(),
            },
            Strategy::Marginals(m) => {
                let algebra = MarginalsAlgebra::new(&m.domain);
                let v = algebra.g_inverse_weights(&m.gram_weights());
                PreparedReconstruct::Marginals { algebra, v }
            }
            Strategy::Union(groups) => PreparedReconstruct::Union {
                closed_form: UnionSolve::new(groups).map(Box::new),
            },
        }
    }

    /// How [`reconstruct_with`] solves under this factorization.
    pub fn solve_kind(&self) -> SolveKind {
        match self {
            PreparedReconstruct::Explicit { .. } => SolveKind::Explicit,
            PreparedReconstruct::Kron { .. } => SolveKind::Kron,
            PreparedReconstruct::Marginals { .. } => SolveKind::Marginals,
            PreparedReconstruct::Union {
                closed_form: Some(_),
            } => SolveKind::ClosedForm,
            PreparedReconstruct::Union { closed_form: None } => SolveKind::Lsmr,
        }
    }
}

/// RECONSTRUCT: least-squares estimate `x̄` of the data vector from noisy
/// measurements (post-processing; consumes no privacy budget).
///
/// * explicit: `x̄ = A⁺y`;
/// * Kronecker: `(⊗Aᵢ)⁺y = ⊗(AᵢᵀAᵢ)⁺ · (⊗Aᵢᵀ)y` through two structured
///   `kmatvec` passes (§7.2) — the per-factor work is the `nᵢ × nᵢ` inverse
///   Gram (closed-form for Identity/Prefix), never the `nᵢ × mᵢ`
///   pseudo-inverse;
/// * marginals: `M⁺y = G(v)·Mᵀy` through the subset algebra (§7.2);
/// * union: no closed-form pseudo-inverse in general — noise-whitened LSMR
///   over the stacked implicit operator (§7.2, reference \[14\]); two-group
///   unions whose Grams admit a simultaneous diagonalization solve the same
///   least-squares problem exactly in closed form ([`UnionSolve`]).
///
/// Builds the strategy factorization fresh each call; serving paths that
/// answer many requests against one strategy should build a
/// [`PreparedReconstruct`] once and call [`reconstruct_with`].
pub fn reconstruct(strategy: &Strategy, meas: &Measurements) -> Vec<f64> {
    reconstruct_with(&PreparedReconstruct::new(strategy), strategy, meas)
}

/// [`reconstruct`] with the strategy-only factorization supplied by the
/// caller. Bitwise identical to `reconstruct` for a `prepared` built from the
/// same strategy (the factorization is a pure function of the strategy).
///
/// # Panics
/// Panics if `prepared` was built from a different strategy variant.
pub fn reconstruct_with(
    prepared: &PreparedReconstruct,
    strategy: &Strategy,
    meas: &Measurements,
) -> Vec<f64> {
    match (strategy, prepared) {
        (Strategy::Explicit(a), PreparedReconstruct::Explicit { gram_pinv }) => {
            let y = &meas.blocks[0].noisy;
            // A⁺ = (AᵀA)⁺Aᵀ.
            gram_pinv.matvec(&a.t_matvec(y))
        }
        (Strategy::Kron(factors), PreparedReconstruct::Kron { gram_pinvs }) => {
            let y = &meas.blocks[0].noisy;
            let refs: Vec<&StructuredMatrix> = factors.iter().collect();
            let aty = kmatvec_transpose_structured(&refs, y);
            let pinv_refs: Vec<&StructuredMatrix> = gram_pinvs.iter().collect();
            kmatvec_structured(&pinv_refs, &aty)
        }
        (Strategy::Marginals(m), PreparedReconstruct::Marginals { algebra, v }) => {
            // Mᵀy = Σ_a θ_a·Q_aᵀ·y_a over the measured marginals.
            let mut blocks = meas.blocks.iter();
            let terms: Vec<(usize, f64, &[f64])> = (m.theta.iter().enumerate())
                .filter(|&(_, &theta)| theta != 0.0)
                .map(|(a, &theta)| {
                    let block = blocks
                        .next()
                        .expect("one block per positive-weight marginal");
                    (a, theta, &block.noisy[..])
                })
                .collect();
            let mty = algebra.back_project(&terms);
            // x̄ = (MᵀM)⁺·Mᵀy = G(v)·Mᵀy.
            algebra.g_apply(v, &mty)
        }
        (
            Strategy::Union(groups),
            PreparedReconstruct::Union {
                closed_form: Some(solve),
            },
        ) => solve.solve(groups, meas),
        (Strategy::Union(groups), PreparedReconstruct::Union { closed_form: None }) => {
            // Whiten each block by its noise scale and solve jointly over the
            // stacked structured Kronecker operators.
            let mut ops: Vec<Box<dyn LinOp>> = Vec::with_capacity(groups.len());
            let mut rhs = Vec::new();
            for (g, block) in groups.iter().zip(&meas.blocks) {
                let w = 1.0 / block.noise_scale;
                ops.push(Box::new(ScaledOp {
                    alpha: w,
                    inner: StructuredMatrix::kron(g.factors.clone()),
                }));
                rhs.extend(block.noisy.iter().map(|v| v * w));
            }
            let stacked = StackedOp::new(ops);
            lsmr(&stacked, &rhs, &LsmrOptions::default()).x
        }
        _ => panic!("PreparedReconstruct was built from a different strategy variant"),
    }
}

/// Answers the workload on the reconstructed estimate: `ans = W·x̄`.
pub fn answer_workload(workload: &Workload, x_hat: &[f64]) -> Vec<f64> {
    workload.answer(x_hat)
}

/// ANSWER for a batch: evaluates several workloads against one reconstructed
/// estimate, sharing one set of Kronecker scratch buffers across every
/// product term. Each entry is bitwise identical to
/// `answer_workload(workloads[i], x_hat)`.
///
/// This is the amortization point for follow-up queries: MEASURE and
/// RECONSTRUCT ran once, and each additional workload costs only its own
/// `W·x̄` pass with no per-term allocation.
pub fn answer_many_from_parts(x_hat: &[f64], workloads: &[&Workload]) -> Vec<Vec<f64>> {
    let mut scratch = KronScratch::new();
    workloads
        .iter()
        .map(|w| w.answer_with(x_hat, &mut scratch))
        .collect()
}

/// [`answer_many_from_parts`] fanned over a [`ScopedExecutor`]: each
/// workload is an independent `W·x̄` job, so the batch parallelizes with no
/// coordination. Every job owns its own [`KronScratch`] (scratch buffers
/// never affect values), so entry `i` stays bitwise identical to
/// `answer_workload(workloads[i], x_hat)` at any lane count.
pub fn answer_many_from_parts_on(
    x_hat: &[f64],
    workloads: &[&Workload],
    exec: &ScopedExecutor,
) -> Vec<Vec<f64>> {
    exec.run(
        workloads
            .iter()
            .map(|w| move || w.answer_with(x_hat, &mut KronScratch::new()))
            .collect(),
    )
}

/// Runs the complete ε-differentially-private pipeline (Theorem 7: privacy
/// follows from the Laplace mechanism plus post-processing).
pub fn run_mechanism(
    workload: &Workload,
    strategy: &Strategy,
    x: &[f64],
    eps: f64,
    rng: &mut impl Rng,
) -> MechanismResult {
    assert_eq!(
        x.len(),
        workload.domain().size(),
        "data vector size mismatch"
    );
    let meas = measure(strategy, x, eps, rng);
    let x_hat = reconstruct(strategy, &meas);
    let answers = answer_workload(workload, &x_hat);
    MechanismResult { x_hat, answers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MarginalsStrategy;
    use crate::UnionGroup;
    use hdmm_workload::{blocks, builders, Domain};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7) % 13) as f64).collect()
    }

    #[test]
    fn kron_pipeline_is_unbiased_at_high_eps() {
        let w = builders::prefix_2d(4, 5);
        let x = data(20);
        let strat = Strategy::kron(vec![
            blocks::prefix(4).scaled(0.25),
            blocks::prefix(5).scaled(0.2),
        ]);
        let mut rng = StdRng::seed_from_u64(0);
        let res = run_mechanism(&w, &strat, &x, 1e7, &mut rng);
        let truth = w.answer(&x);
        for (a, t) in res.answers.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-3, "{a} vs {t}");
        }
    }

    #[test]
    fn marginals_pipeline_recovers_at_high_eps() {
        let domain = Domain::new(&[3, 4]);
        let w = builders::all_marginals(&domain);
        let x = data(12);
        let strat = Strategy::Marginals(MarginalsStrategy::uniform(domain));
        let mut rng = StdRng::seed_from_u64(1);
        let res = run_mechanism(&w, &strat, &x, 1e7, &mut rng);
        let truth = w.answer(&x);
        for (a, t) in res.answers.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-3, "{a} vs {t}");
        }
    }

    #[test]
    fn union_pipeline_recovers_at_high_eps() {
        let w = builders::range_total_union_2d(4, 4);
        let x = data(16);
        let strat = Strategy::Union(vec![
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
        ]);
        let mut rng = StdRng::seed_from_u64(2);
        let meas = measure(&strat, &x, 1e7, &mut rng);
        let x_hat = reconstruct(&strat, &meas);
        // The union of the two prefix-margin strategies determines the row
        // and column sums of x, which is all the workload needs.
        let truth = w.answer(&x);
        let got = answer_workload(&w, &x_hat);
        for (a, t) in got.iter().zip(&truth) {
            assert!((a - t).abs() < 1e-2, "{a} vs {t}");
        }
    }

    #[test]
    fn unions_without_a_closed_form_keep_lsmr_and_recover_at_high_eps() {
        let w = builders::range_total_union_2d(4, 4);
        let x = data(16);
        let prefix = || blocks::prefix(4).scaled(0.25);
        // A Total factor in each group: both groups' Grams are singular.
        let singular = Strategy::Union(vec![
            UnionGroup::new(0.5, vec![prefix(), blocks::total(4)], vec![0]),
            UnionGroup::new(0.5, vec![blocks::total(4), prefix()], vec![1]),
        ]);
        // Three groups: the closed form covers exactly two.
        let three = Strategy::Union(vec![
            UnionGroup::new(0.4, vec![prefix(), prefix()], vec![0]),
            UnionGroup::new(0.3, vec![prefix(), blocks::total(4)], vec![0]),
            UnionGroup::new(0.3, vec![blocks::total(4), prefix()], vec![1]),
        ]);
        let truth = w.answer(&x);
        for strat in [singular, three] {
            let prepared = PreparedReconstruct::new(&strat);
            assert_eq!(prepared.solve_kind(), SolveKind::Lsmr);
            let meas = measure(&strat, &x, 1e7, &mut StdRng::seed_from_u64(2));
            let got = answer_workload(&w, &reconstruct_with(&prepared, &strat, &meas));
            for (a, t) in got.iter().zip(&truth) {
                assert!((a - t).abs() < 1e-2, "{a} vs {t}");
            }
        }
    }

    #[test]
    fn explicit_pipeline_matches_closed_form_error() {
        // Empirical MSE over repetitions ≈ analytic expected error / m.
        let n = 8;
        let w = builders::prefix_1d(n);
        let grams = hdmm_workload::WorkloadGrams::from_workload(&w);
        let x = data(n);
        let strat = Strategy::Explicit(hdmm_linalg::Matrix::identity(n));
        let eps = 1.0;
        let analytic = crate::error::expected_total_squared_error(&grams, &strat, eps);

        let mut rng = StdRng::seed_from_u64(7);
        let trials = 600;
        let truth = w.answer(&x);
        let mut total_sq = 0.0;
        for _ in 0..trials {
            let res = run_mechanism(&w, &strat, &x, eps, &mut rng);
            total_sq += res
                .answers
                .iter()
                .zip(&truth)
                .map(|(a, t)| (a - t) * (a - t))
                .sum::<f64>();
        }
        let empirical = total_sq / trials as f64;
        assert!(
            (empirical / analytic - 1.0).abs() < 0.25,
            "empirical {empirical} vs analytic {analytic}"
        );
    }

    #[test]
    fn batch_answers_match_individual_answers_bitwise() {
        let w1 = builders::prefix_2d(4, 5);
        let w2 = builders::all_marginals(&Domain::new(&[4, 5]));
        let x_hat = data(20);
        let batch = answer_many_from_parts(&x_hat, &[&w1, &w2]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], w1.answer(&x_hat));
        assert_eq!(batch[1], w2.answer(&x_hat));
    }

    #[test]
    fn parallel_batch_answers_match_serial_bitwise() {
        let w1 = builders::prefix_2d(4, 5);
        let w2 = builders::all_marginals(&Domain::new(&[4, 5]));
        let w3 = builders::prefix_2d(4, 5);
        let x_hat = data(20);
        let workloads: [&Workload; 3] = [&w1, &w2, &w3];
        let serial = answer_many_from_parts(&x_hat, &workloads);
        for threads in [1, 2, 4, 7] {
            let par = answer_many_from_parts_on(&x_hat, &workloads, &ScopedExecutor::new(threads));
            assert_eq!(serial, par, "lane count {threads} changed answers");
        }
    }

    #[test]
    fn measurement_noise_scale_uses_sensitivity() {
        let strat = Strategy::Explicit(blocks::prefix(4)); // sensitivity 4
        let meas = measure(&strat, &data(4), 2.0, &mut StdRng::seed_from_u64(3));
        assert!((meas.blocks[0].noise_scale - 2.0).abs() < 1e-12);
    }

    #[test]
    fn union_noise_scales_by_share() {
        let strat = Strategy::Union(vec![
            UnionGroup::new(0.25, vec![StructuredMatrix::identity(3)], vec![0]),
            UnionGroup::new(0.75, vec![StructuredMatrix::identity(3)], vec![0]),
        ]);
        let meas = measure(&strat, &data(3), 1.0, &mut StdRng::seed_from_u64(4));
        assert!((meas.blocks[0].noise_scale - 4.0).abs() < 1e-12);
        assert!((meas.blocks[1].noise_scale - 4.0 / 3.0).abs() < 1e-12);
    }
}
