//! The marginals strategy parameterization and its subset algebra
//! (§6.3 and Appendix A.4 of the paper).
//!
//! A set of weighted marginals is `M(θ)`: for every attribute subset
//! `a ∈ [2^d]` (bitmask; bit `i` set means Identity on attribute `i`, clear
//! means Total), the marginal query matrix `Q_a = ⊗ᵢ [T or I]` stacked with
//! weight `θ_a`. Key facts implemented here:
//!
//! * `MᵀM = G(u)` with `u = θ²`, where `G(v) = Σ_a v_a·C(a)` and
//!   `C(a) = ⊗ᵢ[𝟙 or I]`;
//! * products stay in the class: `G(u)G(v) = G(X(u)v)` with `X(u)` *upper
//!   triangular in the subset order* (Propositions 3/4), so inverses reduce
//!   to one sparse triangular solve with `3^d` nonzeros;
//! * `‖M(θ)‖₁ = Σθ_a` (each marginal has unit column norms).

use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_workload::{Domain, WorkloadGrams};

/// Subset algebra over the `2^d` marginals of a domain.
#[derive(Debug, Clone)]
pub struct MarginalsAlgebra {
    domain: Domain,
    /// `cbar[k] = Π_{i: bit i of k clear} nᵢ` — the constant `C̄(k)` of
    /// Proposition 3.
    cbar: Vec<f64>,
}

/// Column-sparse upper-triangular matrix in subset order: for each column `b`
/// the entries `(k, value)` with `k ⊆ b`.
#[derive(Debug, Clone)]
pub struct SubsetTriangular {
    cols: Vec<Vec<(usize, f64)>>,
}

impl MarginalsAlgebra {
    /// Builds the algebra for a domain (at most ~20 attributes).
    pub fn new(domain: &Domain) -> Self {
        let d = domain.dims();
        assert!(d <= 24, "marginals algebra limited to 24 attributes");
        let subsets = 1usize << d;
        let mut cbar = vec![1.0; subsets];
        for (k, c) in cbar.iter_mut().enumerate() {
            for i in 0..d {
                if k >> i & 1 == 0 {
                    *c *= domain.attr_size(i) as f64;
                }
            }
        }
        MarginalsAlgebra {
            domain: domain.clone(),
            cbar,
        }
    }

    /// The domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of subsets `2^d`.
    pub fn subsets(&self) -> usize {
        self.cbar.len()
    }

    /// `C̄(k)`: the scalar factor of Proposition 3.
    pub fn cbar(&self, k: usize) -> f64 {
        self.cbar[k]
    }

    /// Explicit `C(a) = ⊗ᵢ[𝟙 or I]` (tests / small domains only).
    pub fn c_explicit(&self, a: usize) -> Matrix {
        let mut acc = Matrix::identity(1);
        for i in 0..self.domain.dims() {
            let n = self.domain.attr_size(i);
            let block = if a >> i & 1 == 1 {
                Matrix::identity(n)
            } else {
                Matrix::ones(n, n)
            };
            acc = hdmm_linalg::kron(&acc, &block);
        }
        acc
    }

    /// Explicit `G(v) = Σ_a v_a·C(a)` (tests / small domains only).
    pub fn g_explicit(&self, v: &[f64]) -> Matrix {
        let n = self.domain.size();
        let mut acc = Matrix::zeros(n, n);
        for (a, &va) in v.iter().enumerate() {
            if va != 0.0 {
                acc.axpy(va, &self.c_explicit(a));
            }
        }
        acc
    }

    /// Builds `X(u)` (Proposition 4): `X(u)[k,b] = Σ_{a: a&b=k} u_a·C̄(a|b)`,
    /// stored column-sparse over `k ⊆ b`. O(4^d) time, O(3^d) space.
    pub fn x_matrix(&self, u: &[f64]) -> SubsetTriangular {
        let s = self.subsets();
        assert_eq!(u.len(), s, "weight vector must have 2^d entries");
        let mut cols = Vec::with_capacity(s);
        let mut scratch = vec![0.0; s];
        for b in 0..s {
            // Accumulate over all a into k = a & b.
            for (a, &ua) in u.iter().enumerate() {
                if ua != 0.0 {
                    scratch[a & b] += ua * self.cbar[a | b];
                }
            }
            // Harvest the subsets of b (only they can be nonzero).
            let mut entries = Vec::new();
            let mut k = b;
            loop {
                if scratch[k] != 0.0 {
                    entries.push((k, scratch[k]));
                    scratch[k] = 0.0;
                }
                if k == 0 {
                    break;
                }
                k = (k - 1) & b;
            }
            cols.push(entries);
        }
        SubsetTriangular { cols }
    }

    /// The weights `v` with `G(v) = G(u)⁻¹`, by solving `X(u)·v = e_full`
    /// (the identity is `C(2^d−1)`). Requires `u_full > 0` so the diagonal of
    /// `X(u)` is positive.
    pub fn g_inverse_weights(&self, u: &[f64]) -> Vec<f64> {
        let x = self.x_matrix(u);
        let mut z = vec![0.0; self.subsets()];
        z[self.subsets() - 1] = 1.0;
        x.solve_upper(&z)
    }

    /// Applies `G(v)` to a data vector: `G(v)x = Σ_a v_a·Q_aᵀ(Q_a x)`,
    /// never materializing `N×N` matrices.
    ///
    /// The marginals `Q_a x` are computed down the subset tree (see
    /// [`MarginalsAlgebra::back_project`]): each subset is its parent's
    /// marginal with one attribute summed out, so it costs the size of the
    /// parent marginal instead of a pass over the whole domain. The
    /// back-projection walks the same tree upwards.
    pub fn g_apply(&self, v: &[f64], x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.domain.size(), "data vector size mismatch");
        assert_eq!(
            v.len(),
            self.subsets(),
            "weight vector must have 2^d entries"
        );
        let full = self.subsets() - 1;
        let order = self.subset_tree((0..full).filter(|&a| v[a] != 0.0));
        let mut acc: Vec<Vec<f64>> = vec![Vec::new(); self.subsets()];
        for &a in &order {
            let (p, _, n, inner) = self.parent_edge(a);
            let src = if p == full { x } else { &acc[p] };
            let mut marg = vec![0.0; src.len() / n];
            for (dst, block) in marg
                .chunks_exact_mut(inner)
                .zip(src.chunks_exact(n * inner))
            {
                for row in block.chunks_exact(inner) {
                    for (m, r) in dst.iter_mut().zip(row) {
                        *m += r;
                    }
                }
            }
            acc[a] = marg;
        }
        // Every child is computed, so the marginals can become `v_a·Q_a x`.
        for &a in &order {
            acc[a].iter_mut().for_each(|m| *m *= v[a]);
        }
        let mut out: Vec<f64> = x.iter().map(|xi| v[full] * xi).collect();
        self.broadcast_up(&order, &mut acc, &mut out);
        out
    }

    /// `Σ_a w_a·Q_aᵀy_a` over `(a, w_a, y_a)` terms (at most one per
    /// subset), where `y_a` is a vector over the cells of marginal `a`: the
    /// `Mᵀy` of RECONSTRUCT.
    ///
    /// Every subset `a` but the full table has a parent `a ∪ {j}`, with `j`
    /// the smallest attribute `a` lacks (ties to the lower index). The terms
    /// are broadcast along these edges from the smallest marginals upwards,
    /// each child added into its parent, so a subset costs the size of its
    /// parent marginal. The order of every sum is fixed by the domain and
    /// the set of subsets, so the result is deterministic.
    pub fn back_project(&self, terms: &[(usize, f64, &[f64])]) -> Vec<f64> {
        let full = self.subsets() - 1;
        let order = self.subset_tree(terms.iter().map(|t| t.0).filter(|&a| a != full));
        let mut acc: Vec<Vec<f64>> = vec![Vec::new(); self.subsets()];
        for &a in &order {
            acc[a] = vec![0.0; self.domain.size() / self.cbar[a] as usize];
        }
        let mut out = vec![0.0; self.domain.size()];
        for &(a, w, y) in terms {
            let dst = if a == full { &mut out } else { &mut acc[a] };
            assert_eq!(y.len(), dst.len(), "marginal {a} has the wrong length");
            for (o, yi) in dst.iter_mut().zip(y) {
                *o += w * yi;
            }
        }
        self.broadcast_up(&order, &mut acc, &mut out);
        out
    }

    /// The edge from subset `a` (not the full table) to its parent
    /// `p = a ∪ {j}`: `(p, outer, n_j, inner)`, where the parent's marginal
    /// is laid out as `outer × n_j × inner`.
    fn parent_edge(&self, a: usize) -> (usize, usize, usize, usize) {
        let d = self.domain.dims();
        let j = (0..d)
            .filter(|&i| a >> i & 1 == 0)
            .min_by_key(|&i| (self.domain.attr_size(i), i))
            .expect("the full table has no parent");
        let p = a | 1 << j;
        let size = |attrs: std::ops::Range<usize>| -> usize {
            attrs
                .filter(|&i| p >> i & 1 == 1)
                .map(|i| self.domain.attr_size(i))
                .product()
        };
        (p, size(0..j), self.domain.attr_size(j), size(j + 1..d))
    }

    /// The subsets on the parent paths from `support` to the full table,
    /// full table excluded, parents before children (decreasing size of the
    /// subset, then increasing bitmask).
    fn subset_tree(&self, support: impl Iterator<Item = usize>) -> Vec<usize> {
        let full = self.subsets() - 1;
        let mut needed = vec![false; self.subsets()];
        needed[full] = true;
        for mut a in support {
            while !needed[a] {
                needed[a] = true;
                a = self.parent_edge(a).0;
            }
        }
        let mut order: Vec<usize> = (0..full).filter(|&a| needed[a]).collect();
        order.sort_by_key(|&a| (std::cmp::Reverse(a.count_ones()), a));
        order
    }

    /// Adds every `acc[a]`, `a` in `order` (a [`Self::subset_tree`]),
    /// broadcast along its parent edge into the parent, children first; the
    /// full table's accumulator is `out`. Consumes the buffers in `acc`.
    fn broadcast_up(&self, order: &[usize], acc: &mut [Vec<f64>], out: &mut [f64]) {
        let full = self.subsets() - 1;
        for &a in order.iter().rev() {
            let (p, _, n, inner) = self.parent_edge(a);
            let child = std::mem::take(&mut acc[a]);
            let dst = if p == full { &mut *out } else { &mut acc[p] };
            for (block, src) in dst
                .chunks_exact_mut(n * inner)
                .zip(child.chunks_exact(inner))
            {
                for row in block.chunks_exact_mut(inner) {
                    for (o, c) in row.iter_mut().zip(src) {
                        *o += c;
                    }
                }
            }
        }
    }

    /// The factors of the marginal query matrix `Q_a` (Identity on set bits,
    /// Total elsewhere), as O(1) structured descriptors — measuring a
    /// marginal never allocates a dense `nᵢ × nᵢ` identity block.
    pub fn marginal_factors(&self, a: usize) -> Vec<StructuredMatrix> {
        (0..self.domain.dims())
            .map(|i| {
                let n = self.domain.attr_size(i);
                if a >> i & 1 == 1 {
                    StructuredMatrix::identity(n)
                } else {
                    StructuredMatrix::total(n)
                }
            })
            .collect()
    }

    /// The workload statistics `T_a = Σ_j w_j²·Πᵢ s(Gᵢ⁽ʲ⁾)` with `s = tr` on
    /// set bits and `s = sum` on clear bits — so that
    /// `tr[G(v)·WᵀW] = Σ_a v_a·T_a` (the §6.3 precomputation).
    pub fn workload_stats(&self, grams: &WorkloadGrams) -> Vec<f64> {
        assert_eq!(grams.domain(), &self.domain, "gram domain mismatch");
        let d = self.domain.dims();
        let s = self.subsets();
        let mut t = vec![0.0; s];
        // Per term, per attribute: (trace, sum).
        let stats: Vec<Vec<(f64, f64)>> =
            grams.terms().iter().map(|g| g.traces_and_sums()).collect();
        for (a, ta) in t.iter_mut().enumerate() {
            for (term, st) in grams.terms().iter().zip(&stats) {
                let mut prod = term.weight * term.weight;
                for (i, &(tr, sum)) in st.iter().enumerate().take(d) {
                    prod *= if a >> i & 1 == 1 { tr } else { sum };
                }
                *ta += prod;
            }
        }
        t
    }
}

impl SubsetTriangular {
    /// Entry access (zero when absent).
    pub fn get(&self, k: usize, b: usize) -> f64 {
        self.cols[b]
            .iter()
            .find(|&&(kk, _)| kk == k)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Diagonal entry of column `b`.
    pub fn diag(&self, b: usize) -> f64 {
        self.get(b, b)
    }

    /// Solves the upper-triangular system `X v = z` by column-oriented back
    /// substitution (columns processed high to low).
    pub fn solve_upper(&self, z: &[f64]) -> Vec<f64> {
        let s = self.cols.len();
        assert_eq!(z.len(), s, "rhs length mismatch");
        let mut rhs = z.to_vec();
        let mut v = vec![0.0; s];
        for b in (0..s).rev() {
            let diag = self.diag(b);
            if diag.abs() == 0.0 {
                // Degenerate weights: signal failure through non-finite
                // output rather than panicking mid-optimization.
                return vec![f64::NAN; s];
            }
            let vb = rhs[b] / diag;
            v[b] = vb;
            if vb != 0.0 {
                for &(k, x) in &self.cols[b] {
                    if k != b {
                        rhs[k] -= x * vb;
                    }
                }
            }
        }
        v
    }

    /// Solves `Xᵀ y = t` by forward substitution (columns low to high).
    pub fn solve_upper_transpose(&self, t: &[f64]) -> Vec<f64> {
        let s = self.cols.len();
        assert_eq!(t.len(), s, "rhs length mismatch");
        let mut y = vec![0.0; s];
        for b in 0..s {
            let mut acc = t[b];
            let mut diag = 0.0;
            for &(k, x) in &self.cols[b] {
                if k == b {
                    diag = x;
                } else {
                    acc -= x * y[k];
                }
            }
            if diag.abs() == 0.0 {
                return vec![f64::NAN; s];
            }
            y[b] = acc / diag;
        }
        y
    }
}

/// A weighted-marginals strategy `M(θ)` (Problem 4).
#[derive(Debug, Clone)]
pub struct MarginalsStrategy {
    /// The domain the marginals are defined over.
    pub domain: Domain,
    /// Non-negative weight per attribute subset; `theta[2^d−1]` (the full
    /// contingency table) must be positive so every workload is supported.
    pub theta: Vec<f64>,
}

impl MarginalsStrategy {
    /// Builds and validates a marginals strategy.
    pub fn new(domain: Domain, theta: Vec<f64>) -> Self {
        assert_eq!(
            theta.len(),
            1usize << domain.dims(),
            "theta must have 2^d entries"
        );
        assert!(
            theta.iter().all(|&t| t >= 0.0),
            "theta must be non-negative"
        );
        assert!(
            theta[theta.len() - 1] > 0.0,
            "full-table weight must be positive"
        );
        MarginalsStrategy { domain, theta }
    }

    /// Uniform weights over all marginals.
    pub fn uniform(domain: Domain) -> Self {
        let s = 1usize << domain.dims();
        Self::new(domain, vec![1.0 / s as f64; s])
    }

    /// Sensitivity `‖M(θ)‖₁ = Σθ_a`.
    pub fn sensitivity(&self) -> f64 {
        self.theta.iter().sum()
    }

    /// The Gram weights `u = θ²` with `MᵀM = G(u)`.
    pub fn gram_weights(&self) -> Vec<f64> {
        self.theta.iter().map(|t| t * t).collect()
    }

    /// Squared reconstruction error `‖W·M(θ)⁺‖²_F` against a workload
    /// (excluding the sensitivity factor).
    pub fn residual_error(&self, grams: &WorkloadGrams) -> f64 {
        let algebra = MarginalsAlgebra::new(&self.domain);
        let v = algebra.g_inverse_weights(&self.gram_weights());
        let t = algebra.workload_stats(grams);
        v.iter().zip(&t).map(|(a, b)| a * b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_linalg::pinv_psd;
    use hdmm_workload::builders;

    fn small_domain() -> Domain {
        Domain::new(&[2, 3, 2])
    }

    #[test]
    fn cbar_is_product_of_unset_bits() {
        let alg = MarginalsAlgebra::new(&small_domain());
        assert_eq!(alg.cbar(0), 12.0); // all Total: 2·3·2
        assert_eq!(alg.cbar(0b111), 1.0); // all Identity
        assert_eq!(alg.cbar(0b010), 4.0); // Identity on attr 1: 2·2
    }

    #[test]
    fn proposition3_product_rule() {
        // C(a)·C(b) = C̄(a|b)·C(a&b) for every pair.
        let alg = MarginalsAlgebra::new(&Domain::new(&[2, 3]));
        for a in 0..4 {
            for b in 0..4 {
                let lhs = alg.c_explicit(a).matmul(&alg.c_explicit(b));
                let rhs = alg.c_explicit(a & b).scaled(alg.cbar(a | b));
                assert!(lhs.approx_eq(&rhs, 1e-10), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn proposition4_g_product_is_linear() {
        // G(u)·G(v) = G(X(u)·v).
        let alg = MarginalsAlgebra::new(&small_domain());
        let u = [0.5, 0.1, 0.0, 0.3, 0.2, 0.0, 0.7, 1.0];
        let v = [0.2, 0.0, 0.4, 0.1, 0.0, 0.6, 0.0, 0.5];
        let lhs = alg.g_explicit(&u).matmul(&alg.g_explicit(&v));
        let x = alg.x_matrix(&u);
        let xv: Vec<f64> = {
            // Dense multiply through the sparse columns: (Xv)_k = Σ_b X[k,b]·v_b.
            let mut out = vec![0.0; 8];
            for (b, col) in (0..8).map(|b| (b, &x.cols[b])) {
                for &(k, val) in col {
                    out[k] += val * v[b];
                }
            }
            out
        };
        let rhs = alg.g_explicit(&xv);
        assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn g_inverse_weights_invert_g() {
        let alg = MarginalsAlgebra::new(&small_domain());
        let mut u = vec![0.1, 0.3, 0.0, 0.2, 0.5, 0.0, 0.1, 0.8];
        u[7] = 0.8; // full-table weight positive
        let v = alg.g_inverse_weights(&u);
        let prod = alg.g_explicit(&u).matmul(&alg.g_explicit(&v));
        assert!(prod.approx_eq(&Matrix::identity(alg.domain().size()), 1e-8));
    }

    #[test]
    fn solve_upper_transpose_consistent() {
        let alg = MarginalsAlgebra::new(&small_domain());
        let u = [0.2, 0.1, 0.4, 0.0, 0.3, 0.2, 0.0, 1.0];
        let x = alg.x_matrix(&u);
        let t: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = x.solve_upper_transpose(&t);
        // Check Xᵀy = t by direct evaluation.
        for (b, &tb) in t.iter().enumerate() {
            let mut acc = 0.0;
            for &(k, val) in &x.cols[b] {
                acc += val * y[k];
            }
            assert!((acc - tb).abs() < 1e-9, "b={b}");
        }
    }

    #[test]
    fn g_apply_matches_explicit() {
        let alg = MarginalsAlgebra::new(&small_domain());
        let v = [0.3, 0.0, 0.2, 0.5, 0.0, 0.1, 0.4, 0.9];
        let x: Vec<f64> = (0..12).map(|i| (i as f64) - 5.0).collect();
        let direct = alg.g_explicit(&v).matvec(&x);
        let implicit = alg.g_apply(&v, &x);
        for (l, r) in direct.iter().zip(&implicit) {
            assert!((l - r).abs() < 1e-9);
        }
        // Each single subset, and sparse supports whose subset tree passes
        // through subsets with v_a = 0, on a domain with tied sizes.
        let alg = MarginalsAlgebra::new(&Domain::new(&[3, 2, 4, 2]));
        let x: Vec<f64> = (0..48).map(|i| ((i * 7 % 11) as f64) - 4.5).collect();
        let mut supports: Vec<Vec<usize>> = (0..16).map(|a| vec![a]).collect();
        supports.extend([vec![0, 15], vec![1, 6, 8], vec![0, 3, 5, 10, 12]]);
        for support in supports {
            let mut v = vec![0.0; 16];
            for &a in &support {
                v[a] = 0.25 + a as f64 * 0.1;
            }
            let direct = alg.g_explicit(&v).matvec(&x);
            let implicit = alg.g_apply(&v, &x);
            for (l, r) in direct.iter().zip(&implicit) {
                assert!((l - r).abs() < 1e-9, "support {support:?}: {l} vs {r}");
            }
        }
    }

    #[test]
    fn back_project_matches_explicit_transpose() {
        let domain = Domain::new(&[3, 2, 4]);
        let alg = MarginalsAlgebra::new(&domain);
        let ys: Vec<(usize, f64, Vec<f64>)> =
            [(0b000, 0.5), (0b101, 1.5), (0b010, 0.75), (0b111, 2.0)]
                .iter()
                .map(|&(a, w)| {
                    let len: usize = (0..3)
                        .filter(|&i| a >> i & 1 == 1)
                        .map(|i| domain.attr_size(i))
                        .product();
                    (a, w, (0..len).map(|i| (i as f64 * 0.37).cos()).collect())
                })
                .collect();
        let terms: Vec<(usize, f64, &[f64])> =
            ys.iter().map(|(a, w, y)| (*a, *w, &y[..])).collect();
        let mut direct = vec![0.0; domain.size()];
        for (a, w, y) in &ys {
            let q: Vec<Matrix> = alg
                .marginal_factors(*a)
                .iter()
                .map(StructuredMatrix::to_dense)
                .collect();
            let refs: Vec<&Matrix> = q.iter().collect();
            let back = hdmm_linalg::kron_all(&refs).t_matvec(y);
            for (d, b) in direct.iter_mut().zip(&back) {
                *d += w * b;
            }
        }
        for (l, r) in direct.iter().zip(&alg.back_project(&terms)) {
            assert!((l - r).abs() < 1e-12, "{l} vs {r}");
        }
    }

    #[test]
    fn residual_error_matches_dense_pinv() {
        // ‖W·M⁺‖² computed through the subset algebra must match a dense
        // tr[(MᵀM)⁺·WᵀW] computation.
        let domain = Domain::new(&[2, 3]);
        let theta = vec![0.4, 0.3, 0.2, 0.6];
        let strat = MarginalsStrategy::new(domain.clone(), theta.clone());
        let w = builders::all_marginals(&domain);
        let grams = WorkloadGrams::from_workload(&w);

        // Dense reference: M(θ) stacked explicitly.
        let alg = MarginalsAlgebra::new(&domain);
        let mut blocks_vec = Vec::new();
        for (a, &t) in theta.iter().enumerate() {
            let q: Vec<Matrix> = alg
                .marginal_factors(a)
                .iter()
                .map(StructuredMatrix::to_dense)
                .collect();
            let refs: Vec<&Matrix> = q.iter().collect();
            blocks_vec.push(hdmm_linalg::kron_all(&refs).scaled(t));
        }
        let refs: Vec<&Matrix> = blocks_vec.iter().collect();
        let m = Matrix::vstack(&refs).unwrap();
        let dense = pinv_psd(&m.gram())
            .unwrap()
            .trace_product(&grams.explicit());
        assert!((strat.residual_error(&grams) - dense).abs() < 1e-7 * dense.abs().max(1.0));
    }

    #[test]
    fn workload_stats_identity_total_split() {
        // For the all-marginals workload on [2,2] the stats must follow
        // tr(I)=n, sum(I)=n, tr(𝟙)=n, sum(𝟙)=n² per factor kind.
        let domain = Domain::new(&[2, 2]);
        let alg = MarginalsAlgebra::new(&domain);
        let grams = WorkloadGrams::from_workload(&builders::all_marginals(&domain));
        let t = alg.workload_stats(&grams);
        // Direct check against the explicit gram: T_a = tr[C(a)·WᵀW].
        let explicit = grams.explicit();
        for (a, &ta) in t.iter().enumerate() {
            let direct = alg.c_explicit(a).trace_product(&explicit);
            assert!((ta - direct).abs() < 1e-9, "a={a}: {ta} vs {direct}");
        }
    }

    #[test]
    fn sensitivity_is_theta_sum() {
        let s = MarginalsStrategy::new(Domain::new(&[2, 2]), vec![0.1, 0.2, 0.3, 0.4]);
        assert!((s.sensitivity() - 1.0).abs() < 1e-12);
    }
}
