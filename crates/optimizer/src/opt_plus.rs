//! `OPT_+`: union-of-products strategies (Definition 11, §6.2).
//!
//! Workloads like `(R⊗T) ∪ (T⊗R)` have no good single-product strategy:
//! a product forces a pairing of queries across attributes. `OPT_+` partitions
//! the union terms into groups, optimizes each group independently with
//! `OPT_⊗`, and stacks the resulting product strategies. The privacy budget is
//! split across groups; following the paper's note that "each Aᵢ [could get]
//! a different fraction of the privacy budget", shares are set optimally
//! (`share_g ∝ residual_g^{1/3}` minimizes `Σ_g residual_g / share_g²`).

use crate::opt_kron::{opt_kron, OptKronOptions, OptKronResult};
use hdmm_mechanism::{Strategy, UnionGroup};
use hdmm_workload::{GramTerm, WorkloadGrams};
use rand::Rng;

/// Result of `OPT_+`.
#[derive(Debug, Clone)]
pub struct OptPlusResult {
    /// The union strategy with budget shares and term assignments.
    pub strategy: Strategy,
    /// Squared error including the budget split: `Σ_g residual_g / share_g²`
    /// — `INFINITY` (a failed cell) when a share is not finite and positive.
    pub squared_error: f64,
    /// Per-group `OPT_⊗` results.
    pub groups: Vec<OptKronResult>,
}

/// Partitions the workload terms into at most `l` groups by their structural
/// signature — the set of attributes carrying a non-Total factor. Terms whose
/// queries live on the same attributes belong in the same product strategy;
/// extra signatures are folded round-robin (the paper's `g` with `l = 2`).
pub fn group_terms(grams: &WorkloadGrams, l: usize) -> Vec<Vec<usize>> {
    assert!(l >= 1, "need at least one group");
    let mut signature_order: Vec<u64> = Vec::new();
    let mut assignment: Vec<usize> = Vec::new();
    for term in grams.terms() {
        let mut sig: u64 = 0;
        for (i, g) in term.factors.iter().enumerate() {
            // A Total factor's Gram is the all-ones matrix scaled; detect via
            // rank-1 structure: G = c·𝟙 has all entries equal.
            let first = g[(0, 0)];
            let is_total_like = g.as_slice().iter().all(|&v| (v - first).abs() < 1e-12);
            if !is_total_like {
                sig |= 1 << i;
            }
        }
        let pos = signature_order
            .iter()
            .position(|&s| s == sig)
            .unwrap_or_else(|| {
                signature_order.push(sig);
                signature_order.len() - 1
            });
        assignment.push(pos % l);
    }
    let groups = signature_order.len().min(l);
    let mut out = vec![Vec::new(); groups];
    for (j, &g) in assignment.iter().enumerate() {
        out[g.min(groups - 1)].push(j);
    }
    out.retain(|g| !g.is_empty());
    out
}

/// Runs `OPT_+` on an implicit workload with an explicit term partition.
pub fn opt_plus(
    grams: &WorkloadGrams,
    partition: &[Vec<usize>],
    ps: &[usize],
    rng: &mut impl Rng,
) -> OptPlusResult {
    assert!(!partition.is_empty(), "need at least one group");
    let mut group_results = Vec::with_capacity(partition.len());
    let mut residuals = Vec::with_capacity(partition.len());

    for term_indices in partition {
        let terms: Vec<GramTerm> = term_indices
            .iter()
            .map(|&j| grams.terms()[j].clone())
            .collect();
        let sub = WorkloadGrams::from_terms(grams.domain().clone(), terms);
        let res = opt_kron(&sub, &OptKronOptions::new(ps.to_vec()), rng);
        residuals.push(res.residual);
        group_results.push(res);
    }

    let shares = budget_shares(&residuals);
    let squared_error = split_error(&residuals, &shares);

    let groups = group_results
        .iter()
        .zip(partition)
        .zip(&shares)
        .map(|((res, term_indices), &share)| {
            UnionGroup::new(share, res.factors(), term_indices.clone())
        })
        .collect();

    OptPlusResult {
        strategy: Strategy::Union(groups),
        squared_error,
        groups: group_results,
    }
}

/// Optimal budget shares: minimize `Σ r_g/s_g²` s.t. `Σ s_g = 1` ⇒
/// `s_g ∝ r_g^⅓`.
fn budget_shares(residuals: &[f64]) -> Vec<f64> {
    let cube_roots: Vec<f64> = residuals.iter().map(|r| r.cbrt()).collect();
    let total: f64 = cube_roots.iter().sum();
    cube_roots.iter().map(|c| c / total.max(1e-300)).collect()
}

/// `Σ_g residual_g / share_g²`, or `INFINITY` — a failed cell the restart
/// argmin skips — when any share is not finite and positive. A negative or
/// NaN residual from `OPT_⊗` would otherwise reach MEASURE as a negative
/// noise scale.
fn split_error(residuals: &[f64], shares: &[f64]) -> f64 {
    if !shares.iter().all(|s| s.is_finite() && *s > 0.0) {
        return f64::INFINITY;
    }
    residuals.iter().zip(shares).map(|(r, s)| r / (s * s)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_mechanism::error::squared_error as mech_error;
    use hdmm_workload::{builders, WorkloadGrams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grouping_by_signature() {
        let w = builders::range_total_union_2d(8, 8);
        let grams = WorkloadGrams::from_workload(&w);
        let groups = group_terms(&grams, 2);
        assert_eq!(groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn grouping_caps_at_l() {
        let d = hdmm_workload::Domain::new(&[2, 2, 2]);
        let w = builders::all_marginals(&d); // 8 signatures
        let grams = WorkloadGrams::from_workload(&w);
        let groups = group_terms(&grams, 2);
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn opt_plus_beats_single_product_on_rt_tr() {
        // The motivating workload for union strategies (§6.2).
        let w = builders::range_total_union_2d(16, 16);
        let grams = WorkloadGrams::from_workload(&w);
        let mut rng = StdRng::seed_from_u64(0);
        let partition = group_terms(&grams, 2);
        let plus = opt_plus(&grams, &partition, &[2, 2], &mut rng);
        let kron = crate::opt_kron::opt_kron(&grams, &OptKronOptions::new(vec![2, 2]), &mut rng);
        assert!(
            plus.squared_error < kron.residual,
            "plus {} vs kron {}",
            plus.squared_error,
            kron.residual
        );
    }

    #[test]
    fn reported_error_matches_mechanism_formula() {
        let w = builders::range_total_union_2d(8, 8);
        let grams = WorkloadGrams::from_workload(&w);
        let mut rng = StdRng::seed_from_u64(1);
        let partition = group_terms(&grams, 2);
        let plus = opt_plus(&grams, &partition, &[1, 1], &mut rng);
        let err = mech_error(&grams, &plus.strategy);
        // The two sides use different inverse algorithms (Woodbury vs dense
        // Cholesky); allow small numerical slack.
        assert!(
            (plus.squared_error - err).abs() < 1e-3 * err,
            "{} vs {err}",
            plus.squared_error
        );
    }

    #[test]
    fn optimal_shares_beat_equal_shares() {
        // With asymmetric group residuals, r^⅓ shares strictly improve on 50/50.
        let r = [1.0, 8.0];
        let optimal: f64 = {
            let c: Vec<f64> = r.iter().map(|x: &f64| x.cbrt()).collect();
            let t: f64 = c.iter().sum();
            r.iter().zip(&c).map(|(x, ci)| x / (ci / t).powi(2)).sum()
        };
        let equal: f64 = r.iter().map(|x| x / 0.25).sum();
        assert!(optimal < equal);
    }

    #[test]
    fn bad_residuals_fail_the_cell_instead_of_emitting_bad_shares() {
        for residuals in [[-1.0, 8.0], [f64::NAN, 8.0], [0.0, 0.0]] {
            let shares = budget_shares(&residuals);
            assert!(
                shares.iter().any(|s| !(s.is_finite() && *s > 0.0)),
                "{residuals:?} must yield a bad share, got {shares:?}"
            );
            assert_eq!(split_error(&residuals, &shares), f64::INFINITY);
        }
        let shares = budget_shares(&[1.0, 8.0]);
        assert!((shares[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((split_error(&[1.0, 8.0], &shares) - 27.0).abs() < 1e-9);
    }
}
