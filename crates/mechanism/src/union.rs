//! Closed-form RECONSTRUCT for two-group union strategies.
//!
//! A union `A₀ ∪ A₁` of Kronecker products measured at budget shares
//! `share_g` is reconstructed by noise-whitened least squares. Group `g`'s
//! noise scale is `sens_g / (share_g·ε)`, so its whitening weight is
//! `ε·c_g` with `c_g = share_g / sens_g`; ε scales every weight equally and
//! cancels, leaving the normal equations
//!
//! ```text
//! (c₀²·⊗Gᵢ + c₁²·⊗Cᵢ) x̄ = c₀²·A₀ᵀy₀ + c₁²·A₁ᵀy₁
//! ```
//!
//! with per-axis Grams `Gᵢ` (group 0) and `Cᵢ` (group 1). Each axis pair is
//! diagonalized simultaneously: factor `Cᵢ = LᵢLᵢᵀ`, decompose
//! `Lᵢ⁻¹GᵢLᵢ⁻ᵀ = QᵢΛᵢQᵢᵀ`, and set `Sᵢ = Lᵢ⁻ᵀQᵢ`, so that
//! `Sᵢᵀ Gᵢ Sᵢ = Λᵢ` and `Sᵢᵀ Cᵢ Sᵢ = I`. The Kronecker products inherit both
//! identities, which gives
//!
//! ```text
//! (c₀²·⊗Gᵢ + c₁²·⊗Cᵢ)⁻¹ = (⊗Sᵢ) · diag(1 / (c₀²·⊗λᵢ + c₁²)) · (⊗Sᵢ)ᵀ
//! ```
//!
//! Everything but the right-hand side is a function of the strategy alone,
//! so it is built once per plan; a request then costs the two transposed
//! group products plus two dense-factor Kronecker passes.
//!
//! The factored group must have a nonsingular Gram on every axis. When group
//! 1 does not, the roles swap; when neither does (a `Total` factor on each
//! side, as in the marginal-range union `(R⊗T) ∪ (T⊗R)`), or the union has
//! some other number of groups, there is no closed form and RECONSTRUCT
//! keeps the iterative LSMR solve.

use crate::{Measurements, UnionGroup};
use hdmm_linalg::{
    kmatvec_structured, kmatvec_transpose_structured, kron_vec, Cholesky, Matrix, StructuredMatrix,
    SymEigen,
};

/// A Cholesky pivot `ℓⱼⱼ²` at or below this fraction of the Gram's largest
/// diagonal entry counts as singular: the factor is rank-deficient to
/// working precision and `Lᵢ⁻ᵀ` would amplify rounding without bound.
const PIVOT_FLOOR: f64 = 1e-10;

/// The strategy-only half of the two-group closed-form union solve.
#[derive(Debug, Clone)]
pub struct UnionSolve {
    /// Squared whitening weights `c_g²`, in group order.
    weights_sq: [f64; 2],
    /// Per-axis `Sᵢ = Lᵢ⁻ᵀQᵢ`, dense.
    s: Vec<StructuredMatrix>,
    /// `1 / (c_o²·⊗λᵢ + c_b²)` over the domain, where `b` is the factored
    /// group and `o` the other one.
    inv_diag: Vec<f64>,
}

impl UnionSolve {
    /// Builds the closed form for `groups`, or `None` when the union has no
    /// closed form (not exactly two groups, mismatched axes, or a singular
    /// Gram in both groups).
    pub fn new(groups: &[UnionGroup]) -> Option<Self> {
        let [g0, g1] = groups else {
            return None;
        };
        if g0.factors.len() != g1.factors.len()
            || g0
                .factors
                .iter()
                .zip(&g1.factors)
                .any(|(a, b)| a.cols() != b.cols())
        {
            return None;
        }
        let c_sq = |g: &UnionGroup| {
            let sens: f64 = g
                .factors
                .iter()
                .map(StructuredMatrix::sensitivity)
                .product();
            (g.share / sens).powi(2)
        };
        let weights_sq = [c_sq(g0), c_sq(g1)];
        // Factor group 1 when it can be; otherwise swap the roles.
        let (base, axes) = [1usize, 0].into_iter().find_map(|base| {
            simultaneous_diagonalization(&groups[base], &groups[1 - base]).map(|a| (base, a))
        })?;
        let (c_base, c_other) = (weights_sq[base], weights_sq[1 - base]);
        let mut lambda = vec![1.0];
        let mut s = Vec::with_capacity(axes.len());
        for (s_i, lambda_i) in axes {
            lambda = kron_vec(&lambda, &lambda_i);
            s.push(StructuredMatrix::Dense(s_i));
        }
        let inv_diag = lambda
            .iter()
            .map(|l| 1.0 / (c_other * l + c_base))
            .collect();
        Some(UnionSolve {
            weights_sq,
            s,
            inv_diag,
        })
    }

    /// `x̄ = (Σ_g c_g²·A_gᵀA_g)⁻¹ · Σ_g c_g²·A_gᵀy_g` for the measurements
    /// of the union `groups` this solve was built from.
    pub fn solve(&self, groups: &[UnionGroup], meas: &Measurements) -> Vec<f64> {
        let mut rhs = vec![0.0; self.inv_diag.len()];
        for ((g, block), &w) in groups.iter().zip(&meas.blocks).zip(&self.weights_sq) {
            let refs: Vec<&StructuredMatrix> = g.factors.iter().collect();
            let back = kmatvec_transpose_structured(&refs, &block.noisy);
            for (acc, b) in rhs.iter_mut().zip(&back) {
                *acc += w * b;
            }
        }
        let s_refs: Vec<&StructuredMatrix> = self.s.iter().collect();
        let mut z = kmatvec_transpose_structured(&s_refs, &rhs);
        for (v, d) in z.iter_mut().zip(&self.inv_diag) {
            *v *= d;
        }
        kmatvec_structured(&s_refs, &z)
    }
}

/// Per-axis `(Sᵢ, λᵢ)` with `base`'s Grams Cholesky-factored, or `None` when
/// one of them is singular (or the eigensolver does not converge).
fn simultaneous_diagonalization(
    base: &UnionGroup,
    other: &UnionGroup,
) -> Option<Vec<(Matrix, Vec<f64>)>> {
    base.factors
        .iter()
        .zip(&other.factors)
        .map(|(b, o)| {
            let gram = b.gram_dense();
            let chol = Cholesky::new(&gram).ok()?;
            let max_diag = (0..gram.rows()).map(|j| gram[(j, j)]).fold(0.0, f64::max);
            let l = chol.factor();
            if (0..l.rows()).any(|j| l[(j, j)] * l[(j, j)] <= PIVOT_FLOOR * max_diag) {
                return None;
            }
            // L⁻¹GL⁻ᵀ = L⁻¹(L⁻¹G)ᵀ, since G is symmetric.
            let half = chol.solve_lower_matrix(&o.gram_dense());
            let eig = SymEigen::new(&chol.solve_lower_matrix(&half.transpose())).ok()?;
            Some((chol.solve_upper_matrix(&eig.vectors), eig.values))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure, Strategy};
    use hdmm_workload::blocks;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn singular_group_one_swaps_roles_and_still_solves() {
        let prefix = |n: usize| blocks::prefix(n).scaled(1.0 / n as f64);
        let groups = vec![
            UnionGroup::new(0.3, vec![prefix(4), prefix(3)], vec![0]),
            UnionGroup::new(0.7, vec![blocks::total(4), prefix(3)], vec![1]),
        ];
        let solve = UnionSolve::new(&groups).expect("group 0 has SPD Grams");
        let x: Vec<f64> = (0..12).map(|i| (i % 5) as f64).collect();
        let strategy = Strategy::Union(groups.clone());
        let meas = measure(&strategy, &x, 1e9, &mut StdRng::seed_from_u64(5));
        for (a, b) in solve.solve(&groups, &meas).iter().zip(&x) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
