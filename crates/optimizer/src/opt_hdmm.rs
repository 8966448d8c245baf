//! `OPT_HDMM`: the fully automated strategy-selection driver (Algorithm 2,
//! §7.1).
//!
//! Runs the operator set `{OPT_⊗, OPT_+(g(W)), OPT_M}` across random restarts
//! and keeps the lowest-error strategy, seeded with the Identity strategy as
//! the universal fallback. Strategy selection never touches the data and
//! consumes no privacy budget.

use crate::opt_kron::{opt_kron, OptKronOptions};
use crate::opt_marginals::opt_marginals;
use crate::opt_plus::{group_terms, opt_plus};
use crate::restart::{restart_seed, RestartObserver};
use hdmm_mechanism::{ScopedExecutor, Strategy};
use hdmm_workload::{Workload, WorkloadGrams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Options for `OPT_HDMM`.
#[derive(Debug, Clone)]
pub struct HdmmOptions {
    /// Random restarts `S` (the paper uses 25 and notes far fewer suffice;
    /// the default favors wall-clock time on a single core).
    pub restarts: usize,
    /// RNG seed for reproducible selection.
    pub seed: u64,
    /// Number of groups `l` the union-partitioning function `g` produces.
    pub union_groups: usize,
    /// Run `OPT_M` when `2 ≤ d ≤ marginals_max_dims`.
    pub marginals_max_dims: usize,
    /// Per-attribute p override (`None` → the §7.1 convention).
    pub ps: Option<Vec<usize>>,
    /// Worker threads for the restart grid: `0` fans out one lane per
    /// available core, `1` is the serial reference path. Any value produces
    /// bitwise identical selections — see [`crate::restart`] for the
    /// contract.
    pub threads: usize,
}

impl Default for HdmmOptions {
    fn default() -> Self {
        HdmmOptions {
            restarts: 4,
            seed: 0,
            union_groups: 2,
            marginals_max_dims: 14,
            ps: None,
            threads: default_threads(),
        }
    }
}

/// The default restart-grid lane count: `HDMM_SELECT_THREADS` when set and
/// parseable (CI pins the suite to `1` for a serial reference run), else `0`
/// (one lane per core).
fn default_threads() -> usize {
    std::env::var("HDMM_SELECT_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The selected strategy and its error.
#[derive(Debug, Clone)]
pub struct Selected {
    /// Winning strategy (sensitivity-normalized).
    pub strategy: Strategy,
    /// Squared error coefficient: `Err = (2/ε²)·squared_error`.
    pub squared_error: f64,
    /// Which operator produced it (`identity`, `kron`, `plus`, `marginals`).
    pub operator: &'static str,
}

/// The §7.1 parameter convention: `p = 1` for attributes whose predicate sets
/// are contained in `Total ∪ Identity`, else `p = nᵢ/16`.
pub fn default_ps(workload: &Workload) -> Vec<usize> {
    let d = workload.domain().dims();
    (0..d)
        .map(|i| {
            let simple = workload
                .terms()
                .iter()
                .all(|t| t.factors[i].is_total_or_identity());
            if simple {
                1
            } else {
                (workload.domain().attr_size(i) / 16).max(1)
            }
        })
        .collect()
}

/// Runs Algorithm 2 on a logical workload.
pub fn opt_hdmm(workload: &Workload, opts: &HdmmOptions) -> Selected {
    let grams = WorkloadGrams::from_workload(workload);
    let ps = opts.ps.clone().unwrap_or_else(|| default_ps(workload));
    opt_hdmm_grams(&grams, &ps, opts)
}

/// A candidate error is usable only when the numerics were sound.
fn valid(e: f64) -> bool {
    e.is_finite() && e > 0.0
}

/// Runs Algorithm 2 directly on workload Grams (large structured workloads
/// where `W` itself is never materialized).
pub fn opt_hdmm_grams(grams: &WorkloadGrams, ps: &[usize], opts: &HdmmOptions) -> Selected {
    opt_hdmm_grams_observed(grams, ps, opts, &())
}

/// The Identity fallback of Algorithm 2's first line.
pub(crate) fn identity_fallback(grams: &WorkloadGrams) -> Selected {
    Selected {
        strategy: Strategy::identity(grams.domain()),
        squared_error: grams.frobenius_norm_sq(),
        operator: "identity",
    }
}

/// Folds restart-cell candidates in grid order under strict `<` — the
/// deterministic argmin merge. Because every candidate came from its own
/// derived RNG stream, this fold over results computed in *any* order (or on
/// any thread) equals the serial loop's result bit for bit; strict `<` means
/// loss ties resolve to the earliest grid cell (lowest restart index, then
/// operator order within the restart).
pub(crate) fn fold_candidates(
    mut best: Selected,
    candidates: impl IntoIterator<Item = Option<Selected>>,
) -> Selected {
    for cand in candidates.into_iter().flatten() {
        if cand.squared_error < best.squared_error {
            best = cand;
        }
    }
    best
}

/// [`opt_hdmm_grams`] with a per-cell completion observer (telemetry spans,
/// progress counters). The observer sees cells in completion order; the
/// returned selection is order-independent.
///
/// Every `(restart, operator)` cell draws from its own derived stream
/// ([`restart_seed`]), so a cell's candidate is independent of restart count,
/// operator applicability, and evaluation order — which is what lets
/// [`ScopedExecutor`] fan the grid over threads without changing the argmin.
pub fn opt_hdmm_grams_observed(
    grams: &WorkloadGrams,
    ps: &[usize],
    opts: &HdmmOptions,
    observer: &dyn RestartObserver,
) -> Selected {
    let d = grams.dims();
    let k = grams.terms().len();

    // The union partition is RNG-free, so every restart shares it.
    let partition = if k >= 2 && d >= 2 {
        let p = group_terms(grams, opts.union_groups);
        (p.len() >= 2).then_some(p)
    } else {
        None
    };
    let partition = partition.as_ref();
    let run_marginals = d >= 2 && d <= opts.marginals_max_dims;

    // Enumerate the restart grid in its canonical order: restart-major,
    // operators in {⊗, +, M} order within each restart.
    let mut cells: Vec<(usize, &'static str)> = Vec::new();
    for restart in 0..opts.restarts.max(1) {
        cells.push((restart, "kron"));
        if partition.is_some() {
            cells.push((restart, "plus"));
        }
        if run_marginals {
            cells.push((restart, "marginals"));
        }
    }

    observer.grid_planned(cells.len());

    let jobs: Vec<_> = cells
        .into_iter()
        .map(|(restart, operator)| {
            move || {
                let started = Instant::now();
                let mut rng =
                    StdRng::seed_from_u64(restart_seed(opts.seed, restart as u64, operator));
                let candidate = match operator {
                    "kron" => {
                        let res = opt_kron(grams, &OptKronOptions::new(ps.to_vec()), &mut rng);
                        valid(res.residual).then(|| Selected {
                            strategy: Strategy::kron(res.factors()),
                            squared_error: res.residual,
                            operator: "kron",
                        })
                    }
                    "plus" => {
                        let res = opt_plus(grams, partition.unwrap(), ps, &mut rng);
                        valid(res.squared_error).then_some(Selected {
                            squared_error: res.squared_error,
                            strategy: res.strategy,
                            operator: "plus",
                        })
                    }
                    _ => {
                        let res = opt_marginals(grams, &mut rng);
                        valid(res.squared_error).then_some(Selected {
                            squared_error: res.squared_error,
                            strategy: Strategy::Marginals(res.strategy),
                            operator: "marginals",
                        })
                    }
                };
                let loss = candidate
                    .as_ref()
                    .map_or(f64::INFINITY, |c| c.squared_error);
                observer.restart_complete(operator, restart, loss, started.elapsed());
                candidate
            }
        })
        .collect();

    let results = ScopedExecutor::new(opts.threads).run(jobs);
    fold_candidates(identity_fallback(grams), results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdmm_workload::{blocks, builders, Domain};

    fn quick() -> HdmmOptions {
        HdmmOptions {
            restarts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn default_ps_convention() {
        let d = Domain::new(&[32, 4]);
        let w = hdmm_workload::Workload::new(
            d,
            vec![hdmm_workload::ProductTerm::product(vec![
                blocks::all_range(32),
                blocks::identity(4),
            ])],
        );
        assert_eq!(default_ps(&w), vec![2, 1]);
    }

    #[test]
    fn beats_identity_on_prefix_2d() {
        let w = builders::prefix_2d(16, 16);
        let sel = opt_hdmm(&w, &quick());
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(sel.squared_error < identity_err);
        assert_ne!(sel.operator, "identity");
    }

    #[test]
    fn marginals_workload_selects_marginals_or_better() {
        // Low-order marginals on a multi-attribute domain: the Table 5 regime
        // where Identity pays a huge aggregation cost (ratio 43.89 at K=2).
        let d = Domain::new(&[10, 10, 10, 10]);
        let w = builders::upto_kway_marginals(&d, 2);
        let sel = opt_hdmm(&w, &quick());
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(
            sel.squared_error * 2.5 < identity_err,
            "{} vs identity {identity_err} (operator {})",
            sel.squared_error,
            sel.operator
        );
    }

    #[test]
    fn union_workload_can_choose_plus() {
        let w = builders::range_total_union_2d(16, 16);
        let sel = opt_hdmm(&w, &quick());
        // OPT_+ dominates single products on this workload (§6.2); whichever
        // wins, the error must beat Identity substantially.
        let identity_err = WorkloadGrams::from_workload(&w).frobenius_norm_sq();
        assert!(sel.squared_error < 0.8 * identity_err);
    }

    #[test]
    fn more_restarts_never_hurt() {
        let w = builders::prefix_2d(8, 8);
        let one = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 1,
                seed: 3,
                ..Default::default()
            },
        );
        let three = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 3,
                seed: 3,
                ..Default::default()
            },
        );
        // Per-restart seed streams make this exact: restart 0's candidates
        // are identical whether 1 or 3 restarts run, so the 3-restart argmin
        // can only improve on the 1-restart one.
        assert!(three.squared_error <= one.squared_error);
    }

    #[test]
    fn restart_streams_are_independent_of_restart_count() {
        // The restart-0 cell must produce the same candidate no matter how
        // many restarts follow; with a shared RNG stream this fails because
        // later restarts would shift earlier draws. Exercised by comparing
        // full selections whose argmin lands in restart 0.
        let w = builders::prefix_2d(8, 8);
        let a = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 2,
                seed: 11,
                ..Default::default()
            },
        );
        let b = opt_hdmm(
            &w,
            &HdmmOptions {
                restarts: 2,
                seed: 11,
                ..Default::default()
            },
        );
        assert_eq!(a.squared_error.to_bits(), b.squared_error.to_bits());
        assert_eq!(a.operator, b.operator);
    }
}
