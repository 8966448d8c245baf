//! Property-based tests on the core identities the system relies on.

use hdmm_core::{Domain, ProductTerm, Workload, WorkloadGrams};
use hdmm_linalg::{
    kmatvec, kmatvec_transpose, kron_all, lsmr, Cholesky, DenseOp, LsmrOptions, Matrix,
};
use hdmm_mechanism::{
    measure, reconstruct_with, MarginalsAlgebra, PreparedReconstruct, SolveKind, UnionGroup,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random small query matrix with entries in {0, 1}.
fn query_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(proptest::bool::weighted(0.4), rows * cols).prop_map(move |bits| {
        Matrix::from_fn(
            rows,
            cols,
            |r, c| if bits[r * cols + c] { 1.0 } else { 0.0 },
        )
    })
}

/// A random data vector of non-negative counts.
fn data_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..50, len).prop_map(|v| v.into_iter().map(f64::from).collect())
}

/// A random p-Identity factor `[I; Θ]` on `n` cells with 1–3 extra rows,
/// normalized to sensitivity 1 — the per-axis shape `OPT_+` emits.
fn p_identity(rng: &mut StdRng, n: usize) -> Matrix {
    let p = rng.gen_range(1..=3);
    let m = Matrix::from_fn(n + p, n, |r, c| {
        if r < n {
            f64::from(u8::from(r == c))
        } else {
            rng.gen::<f64>()
        }
    });
    let sens = m.norm_l1_operator();
    m.scaled(1.0 / sens)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form two-group union RECONSTRUCT equals the dense solve of
    /// the whitened normal equations `(Σ c_g²·A_gᵀA_g) x = Σ c_g²·A_gᵀy_g`,
    /// `c_g = share_g / sens_g`, over random 2-D and 3-D p-Identity unions.
    #[test]
    fn closed_form_union_matches_dense_normal_equations(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = rng.gen_range(2..=3);
        let sizes: Vec<usize> = (0..dims).map(|_| rng.gen_range(3..=12)).collect();
        let share = rng.gen_range(0.05..0.95);
        let groups: Vec<UnionGroup> = [share, 1.0 - share]
            .into_iter()
            .enumerate()
            .map(|(g, s)| {
                let factors: Vec<Matrix> = sizes.iter().map(|&n| p_identity(&mut rng, n)).collect();
                UnionGroup::new(s, factors, vec![g])
            })
            .collect();
        let strategy = hdmm_mechanism::Strategy::Union(groups.clone());
        let prepared = PreparedReconstruct::new(&strategy);
        prop_assert_eq!(prepared.solve_kind(), SolveKind::ClosedForm);

        let n: usize = sizes.iter().product();
        let x: Vec<f64> = (0..n).map(|_| f64::from(rng.gen_range(0u32..50))).collect();
        let meas = measure(&strategy, &x, rng.gen_range(0.1..10.0), &mut rng);
        let got = reconstruct_with(&prepared, &strategy, &meas);

        let mut lhs = Matrix::zeros(n, n);
        let mut rhs = vec![0.0; n];
        for (g, block) in groups.iter().zip(&meas.blocks) {
            let dense: Vec<Matrix> = g.factors.iter().map(|f| f.to_dense()).collect();
            let refs: Vec<&Matrix> = dense.iter().collect();
            let sens: f64 = dense.iter().map(Matrix::norm_l1_operator).product();
            let c_sq = (g.share / sens).powi(2);
            let grams: Vec<Matrix> = dense.iter().map(Matrix::gram).collect();
            let gram_refs: Vec<&Matrix> = grams.iter().collect();
            lhs.axpy(c_sq, &kron_all(&gram_refs));
            for (acc, v) in rhs.iter_mut().zip(kmatvec_transpose(&refs, &block.noisy)) {
                *acc += c_sq * v;
            }
        }
        let want = Cholesky::new(&lhs).expect("SPD normal equations").solve_vec(&rhs);
        let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
        let diff: Vec<f64> = got.iter().zip(&want).map(|(a, b)| a - b).collect();
        let rel = norm(&diff) / norm(&want);
        prop_assert!(rel < 1e-8, "relative error {rel} at sizes {sizes:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1/2: implicit (Kronecker) evaluation equals explicit
    /// evaluation for arbitrary products.
    #[test]
    fn kron_answering_matches_explicit(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(2, 3),
        x in data_vec(12),
    ) {
        let explicit = kron_all(&[&w1, &w2]).matvec(&x);
        let implicit = kmatvec(&[&w1, &w2], &x);
        for (a, b) in explicit.iter().zip(&implicit) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Adjoint consistency: `⟨Ax, y⟩ = ⟨x, Aᵀy⟩` for the implicit operator.
    #[test]
    fn kmatvec_adjoint_identity(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(4, 2),
        x in data_vec(8),
        y in data_vec(12),
    ) {
        let ax = kmatvec(&[&w1, &w2], &x);
        let aty = kmatvec_transpose(&[&w1, &w2], &y);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * lhs.abs().max(1.0));
    }

    /// Theorem 3: the Kronecker sensitivity is the product of factor
    /// sensitivities (non-negative matrices).
    #[test]
    fn kron_sensitivity_product(
        w1 in query_matrix(3, 4),
        w2 in query_matrix(2, 3),
    ) {
        let explicit = kron_all(&[&w1, &w2]).norm_l1_operator();
        let implicit = w1.norm_l1_operator() * w2.norm_l1_operator();
        prop_assert!((explicit - implicit).abs() < 1e-9);
    }

    /// Workload Grams: the implicit `Σ w²·⊗Gᵢ` equals the explicit
    /// `WᵀW` of the stacked workload.
    #[test]
    fn gram_factorization(
        w1 in query_matrix(3, 3),
        w2 in query_matrix(2, 4),
        w3 in query_matrix(2, 3),
        w4 in query_matrix(3, 4),
        weight in 0.5f64..2.0,
    ) {
        let domain = Domain::new(&[3, 4]);
        let workload = Workload::new(domain, vec![
            ProductTerm::new(weight, vec![w1, w2]),
            ProductTerm::new(1.0, vec![w3, w4]),
        ]);
        let grams = WorkloadGrams::from_workload(&workload);
        let dense = workload.explicit().gram();
        prop_assert!(grams.explicit().approx_eq(&dense, 1e-8));
    }

    /// Moore–Penrose axioms hold for the pseudo-inverse used in
    /// reconstruction, on arbitrary 0/1 query matrices.
    #[test]
    fn pinv_axioms(a in query_matrix(4, 3)) {
        let ap = hdmm_linalg::pinv(&a).unwrap();
        let aapa = a.matmul(&ap).matmul(&a);
        prop_assert!(aapa.approx_eq(&a, 1e-7));
        let apaap = ap.matmul(&a).matmul(&ap);
        prop_assert!(apaap.approx_eq(&ap, 1e-7));
    }

    /// LSMR agrees with the normal-equation solution on full-rank systems.
    #[test]
    fn lsmr_matches_direct(
        a in query_matrix(6, 3),
        b in data_vec(6),
    ) {
        let gram = a.gram();
        // Skip rank-deficient draws (LSMR then returns the min-norm solution,
        // which the plain normal equations don't produce), and near-singular
        // ones where a numerically successful factorization still leaves the
        // normal equations and LSMR far apart: require every Cholesky pivot
        // to be comfortably above noise.
        let ch = hdmm_linalg::Cholesky::new(&gram);
        prop_assume!(ch.is_ok());
        let ch_ok = ch.unwrap();
        let min_pivot = (0..gram.rows())
            .map(|i| ch_ok.factor()[(i, i)])
            .fold(f64::INFINITY, f64::min);
        prop_assume!(min_pivot > 1e-3);
        let direct = ch_ok.solve_vec(&a.t_matvec(&b));
        let iter = lsmr(&DenseOp(&a), &b, &LsmrOptions::default());
        for (l, d) in iter.x.iter().zip(&direct) {
            prop_assert!((l - d).abs() < 1e-5, "{l} vs {d}");
        }
    }

    /// Proposition 3: `C(a)·C(b) = C̄(a|b)·C(a&b)` on random domains.
    #[test]
    fn marginals_product_rule(
        n1 in 2usize..4,
        n2 in 2usize..4,
        a in 0usize..4,
        b in 0usize..4,
    ) {
        let domain = Domain::new(&[n1, n2]);
        let alg = MarginalsAlgebra::new(&domain);
        let lhs = alg.c_explicit(a).matmul(&alg.c_explicit(b));
        let rhs = alg.c_explicit(a & b).scaled(alg.cbar(a | b));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    /// The closed-form error of a Kronecker strategy is invariant to how the
    /// workload union is split into terms.
    #[test]
    fn error_invariant_to_term_splitting(
        w1 in query_matrix(3, 3),
        w2 in query_matrix(4, 3),
    ) {
        let domain = Domain::new(&[3]);
        let stacked = Matrix::vstack(&[&w1, &w2]).unwrap();
        let together = Workload::new(domain.clone(), vec![ProductTerm::new(1.0, vec![stacked])]);
        let split = Workload::new(domain, vec![
            ProductTerm::new(1.0, vec![w1]),
            ProductTerm::new(1.0, vec![w2]),
        ]);
        let strat = vec![Matrix::identity(3)];
        let e1 = hdmm_mechanism::error::residual_kron(&WorkloadGrams::from_workload(&together), &strat);
        let e2 = hdmm_mechanism::error::residual_kron(&WorkloadGrams::from_workload(&split), &strat);
        prop_assert!((e1 - e2).abs() < 1e-9 * e1.abs().max(1.0));
    }

    /// Sensitivity of the union workload via per-attribute column sums equals
    /// the explicit stacked norm.
    #[test]
    fn union_sensitivity_exact(
        w1 in query_matrix(2, 3),
        w2 in query_matrix(3, 2),
        w3 in query_matrix(3, 3),
        w4 in query_matrix(2, 2),
    ) {
        let domain = Domain::new(&[3, 2]);
        let w = Workload::new(domain, vec![
            ProductTerm::new(1.0, vec![w1, w2]),
            ProductTerm::new(2.0, vec![w3, w4]),
        ]);
        let exact = w.sensitivity_exact(1 << 12).unwrap();
        let dense = w.explicit().norm_l1_operator();
        prop_assert!((exact - dense).abs() < 1e-9);
    }
}
