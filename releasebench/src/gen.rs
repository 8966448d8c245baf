//! Seeded inputs: datasets, workloads and request lists.
//!
//! Everything here is a pure function of the `--seed` argument, so the same
//! seed replays the same requests. Request mixes are drawn as shuffled decks
//! with fixed class counts: the seed chooses the order and the content of
//! each request, while every run sees each class in the same proportion.
//! That keeps percentiles off class boundaries and makes runs with
//! different seeds comparable.

use hdmm_core::{builders, census, Domain, ProductTerm, Workload};
use hdmm_linalg::{Matrix, StructuredMatrix};
use hdmm_workload::blocks;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// An independent generator for the `index`-th draw of `stream` under
/// `seed`.
pub fn rng_for(seed: u64, stream: &str, index: u64) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream
        .bytes()
        .chain(seed.to_le_bytes())
        .chain(index.to_le_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// The `index`-th draw from a deck with `counts[c]` copies of class `c`,
/// each consecutive deck a fresh seeded shuffle: the class, and how many
/// draws of that class came before it.
fn deck_draw(seed: u64, stream: &str, counts: &[usize], index: usize) -> (usize, usize) {
    let mut deck: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class, n))
        .collect();
    let (round, pos) = (index / deck.len(), index % deck.len());
    deck.shuffle(&mut rng_for(seed, stream, round as u64));
    let class = deck[pos];
    let earlier = deck[..pos].iter().filter(|&&c| c == class).count();
    (class, round * counts[class] + earlier)
}

fn deck_class(seed: u64, stream: &str, counts: &[usize], index: usize) -> usize {
    deck_draw(seed, stream, counts, index).0
}

/// A registered dataset: name, domain, histogram and shard count.
pub struct Dataset {
    pub name: &'static str,
    pub domain: Domain,
    pub x: Vec<f64>,
    pub shards: usize,
}

/// `m` random interval queries over `n` cells, as a dense 0/1 matrix.
fn random_ranges(n: usize, m: usize, rng: &mut StdRng) -> Matrix {
    let bounds: Vec<(usize, usize)> = (0..m)
        .map(|_| {
            let lo = rng.gen_range(0..n);
            (lo, rng.gen_range(lo..n))
        })
        .collect();
    Matrix::from_fn(m, n, |r, c| {
        f64::from(u8::from((bounds[r].0..=bounds[r].1).contains(&c)))
    })
}

/// `m` random prefix queries `[0, b]` over `n` cells.
fn random_prefixes(n: usize, m: usize, rng: &mut StdRng) -> Matrix {
    let ends: Vec<usize> = (0..m).map(|_| rng.gen_range(0..n)).collect();
    Matrix::from_fn(m, n, |r, c| f64::from(u8::from(c <= ends[r])))
}

fn counts(len: usize, per_cell: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len)
        .map(|_| rng.gen_range(0..2 * per_cell + 1) as f64)
        .collect()
}

// ---------------------------------------------------------------------------
// cold_plan
// ---------------------------------------------------------------------------

/// The planner family a cold request is built to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Opt0,
    Kron,
    Plus,
    Marginals,
}

impl Family {
    /// The planner's tag for this family (`OptimizerChoice::tag`).
    pub fn tag(self) -> &'static str {
        match self {
            Family::Opt0 => "opt0",
            Family::Kron => "kron",
            Family::Plus => "plus",
            Family::Marginals => "marginals",
        }
    }
}

/// Which request mix a cold stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdMix {
    /// `cold_plan`: weighted versions of the paper's building blocks
    /// (Prefix, AllRange and width-k ranges on each axis, marginals).
    Paper,
    /// `cold_adhoc`: ad-hoc random interval and prefix sets on each axis and
    /// random range-marginal unions. Kept out of `BENCHMARK.json`: some of
    /// its requests fail (see the README's findings 4 and 5).
    AdHoc,
}

impl ColdMix {
    /// The mix's sub-classes: the dataset a request targets, its planner
    /// family and its count per deck of 20.
    pub fn classes(self) -> &'static [(&'static str, Family, usize)] {
        match self {
            ColdMix::Paper => &PAPER_CLASSES,
            ColdMix::AdHoc => &ADHOC_CLASSES,
        }
    }
}

/// `cold_plan` sub-classes, ordered by cold latency on a 2-core host:
/// marginals (about 11 ms) fill the first 65% of the deck, so the median
/// sits three quarters into their band, where requests are densest; the
/// slowest class (1-D n = 128, about 140 ms) fills the top 15%, so p90 sits
/// a third of the way into it.
///
/// Every axis has 64 or 128 cells: on smaller axes `OPT_0` diverges more
/// often (README, finding 4).
const PAPER_CLASSES: [(&str, Family, usize); 4] = [
    ("marg", Family::Marginals, 13),
    ("line64", Family::Opt0, 2),
    ("grid64", Family::Kron, 2),
    ("line128", Family::Opt0, 3),
];

/// `cold_adhoc` sub-classes, ordered by cold latency as above.
const ADHOC_CLASSES: [(&str, Family, usize); 6] = [
    ("marg", Family::Marginals, 6),
    ("plus16", Family::Plus, 4),
    ("grid32", Family::Kron, 2),
    ("line64", Family::Opt0, 2),
    ("grid64", Family::Kron, 3),
    ("line128", Family::Opt0, 3),
];

/// Attribute sizes of the small marginals domain (4608 cells).
const MARG_SIZES: [usize; 6] = [8, 6, 4, 4, 3, 2];

/// The cold datasets, one per domain a request of `mix` can target.
pub fn cold_datasets(seed: u64, mix: ColdMix) -> Vec<Dataset> {
    let mut rng = rng_for(seed, "cold-data", 0);
    let dense = |name, domain: Domain, x: Vec<f64>| Dataset {
        name,
        domain,
        x,
        shards: 1,
    };
    vec![
        dense("marg", Domain::new(&MARG_SIZES), counts(4608, 4, &mut rng)),
        dense(
            "plus16",
            Domain::new(&[16, 16]),
            hdmm_data::taxi_2d(16, 5_000, &mut rng),
        ),
        dense(
            "grid32",
            Domain::new(&[32, 32]),
            hdmm_data::taxi_2d(32, 20_000, &mut rng),
        ),
        dense(
            "line64",
            Domain::one_dim(64),
            hdmm_data::patent_1d(64, 10_000, &mut rng),
        ),
        dense(
            "grid64",
            Domain::new(&[64, 64]),
            hdmm_data::taxi_2d(64, 50_000, &mut rng),
        ),
        dense(
            "line128",
            Domain::one_dim(128),
            hdmm_data::patent_1d(128, 20_000, &mut rng),
        ),
    ]
    .into_iter()
    .filter(|d| mix.classes().iter().any(|c| c.0 == d.name))
    .collect()
}

/// One never-seen request of `cold_plan`.
pub struct ColdRequest {
    /// Position in the request stream.
    pub index: usize,
    pub dataset: &'static str,
    pub family: Family,
    pub workload: Workload,
}

/// A cold request stream. Every workload it yields has a fingerprint
/// distinct from all earlier ones (a collision is redrawn), so every request
/// must miss the strategy cache.
pub struct ColdGen {
    seed: u64,
    mix: ColdMix,
    next: usize,
    seen: HashSet<u128>,
}

impl ColdGen {
    pub fn new(seed: u64, mix: ColdMix) -> Self {
        ColdGen {
            seed,
            mix,
            next: 0,
            seen: HashSet::new(),
        }
    }

    /// Requests yielded so far.
    pub fn issued(&self) -> usize {
        self.next
    }

    pub fn next_request(&mut self) -> ColdRequest {
        let index = self.next;
        self.next += 1;
        let classes = self.mix.classes();
        let counts: Vec<usize> = classes.iter().map(|c| c.2).collect();
        let (class, ordinal) = deck_draw(self.seed, "cold-deck", &counts, index);
        let (dataset, family, _) = classes[class];
        let mut rng = rng_for(self.seed, "cold", index as u64);
        loop {
            let workload = match self.mix {
                ColdMix::Paper => paper_workload(self.seed, dataset, ordinal, &mut rng),
                ColdMix::AdHoc => adhoc_workload(dataset, &mut rng),
            };
            if self.seen.insert(workload.fingerprint().digest()) {
                return ColdRequest {
                    index,
                    dataset,
                    family,
                    workload,
                };
            }
        }
    }
}

/// `block` with each query scaled by its own weight in [0.5, 2).
fn weighted(block: Matrix, rng: &mut StdRng) -> Matrix {
    let w: Vec<f64> = (0..block.rows()).map(|_| rng.gen_range(0.5..2.0)).collect();
    Matrix::from_fn(block.rows(), block.cols(), |r, c| w[r] * block[(r, c)])
}

/// The paper's building blocks over `n` cells, each query scaled by its own
/// weight: 0 Prefix, 1 width-k ranges, 2 AllRange.
fn paper_axis(n: usize, block: usize, width: usize, rng: &mut StdRng) -> Matrix {
    let block = match block {
        0 => blocks::prefix(n),
        1 => blocks::width_range(n, width),
        _ => blocks::all_range(n),
    };
    weighted(block, rng)
}

/// The `ordinal`-th request of a `cold_plan` class. Its shape (the block on
/// each axis, or the number of marginals) and each axis's range width (2 to
/// n/2) are drawn from decks of the class's own, so every run sees them in
/// the same proportions; the weights come from `rng`.
fn paper_workload(seed: u64, dataset: &str, ordinal: usize, rng: &mut StdRng) -> Workload {
    let (shapes, widths) = (
        format!("cold-shape-{dataset}"),
        format!("cold-width-{dataset}"),
    );
    let width = |n: usize, draw: usize| 2 + deck_class(seed, &widths, &vec![1; n / 2 - 1], draw);
    match dataset {
        "line64" | "line128" => {
            let n = if dataset == "line64" { 64 } else { 128 };
            let block = deck_class(seed, &shapes, &[1; 3], ordinal);
            Workload::one_dim(paper_axis(n, block, width(n, ordinal), rng))
        }
        "grid64" => {
            let shape = deck_class(seed, &shapes, &[1; 4], ordinal);
            let a = paper_axis(64, shape / 2, width(64, 2 * ordinal), rng);
            let b = paper_axis(64, shape % 2, width(64, 2 * ordinal + 1), rng);
            Workload::product(Domain::new(&[64, 64]), vec![a, b])
        }
        "marg" => marg_workload(4 + deck_class(seed, &shapes, &[1; 7], ordinal), rng),
        other => unreachable!("no cold_plan dataset named {other}"),
    }
}

/// A random weighted union of `k` marginals on 1–3 attributes.
fn marg_workload(k: usize, rng: &mut StdRng) -> Workload {
    let domain = Domain::new(&MARG_SIZES);
    let mut masks: Vec<usize> = (0..1usize << MARG_SIZES.len())
        .filter(|m| (1..=3).contains(&m.count_ones()))
        .collect();
    masks.shuffle(rng);
    let terms = masks[..k]
        .iter()
        .map(|&mask| {
            let mut t = builders::marginal_term(&domain, mask);
            t.weight = rng.gen_range(0.5..2.0);
            t
        })
        .collect();
    Workload::new(domain, terms)
}

fn adhoc_workload(dataset: &str, rng: &mut StdRng) -> Workload {
    let axis = |n: usize, rng: &mut StdRng| {
        let m = rng.gen_range(n / 2..=n);
        if rng.gen_bool(0.5) {
            random_ranges(n, m, rng)
        } else {
            random_prefixes(n, m, rng)
        }
    };
    match dataset {
        "line64" | "line128" => {
            let n = if dataset == "line64" { 64 } else { 128 };
            Workload::one_dim(random_ranges(n, n, rng))
        }
        "grid32" | "grid64" => {
            let n = if dataset == "grid32" { 32 } else { 64 };
            let (a, b) = (axis(n, rng), axis(n, rng));
            Workload::product(Domain::new(&[n, n]), vec![a, b])
        }
        "plus16" => {
            let (a, b) = (
                random_ranges(16, rng.gen_range(8..=16), rng),
                random_ranges(16, rng.gen_range(8..=16), rng),
            );
            Workload::new(
                Domain::new(&[16, 16]),
                vec![
                    ProductTerm::product(vec![StructuredMatrix::from(a), blocks::total_block(16)]),
                    ProductTerm::product(vec![blocks::total_block(16), StructuredMatrix::from(b)]),
                ],
            )
        }
        "marg" => {
            let k = rng.gen_range(4..=10);
            marg_workload(k, rng)
        }
        other => unreachable!("no cold_adhoc dataset named {other}"),
    }
}

// ---------------------------------------------------------------------------
// census_release and session_followup
// ---------------------------------------------------------------------------

/// The `census_release` classes: dataset, planner family of its workload,
/// ε per request, and count per deck of 20. Ordered by warm latency on a
/// 2-core host (Taxi ≈ 20 ms, Adult ≈ 75 ms, union ≈ 220 ms, CPH over the
/// loopback workers ≈ 300 ms): the median falls two thirds into the Adult
/// band and p90 in the middle of the CPH band.
pub const CENSUS_CLASSES: [(&str, usize); 4] =
    [("taxi", 6), ("adult", 6), ("union", 4), ("cph", 4)];

/// Index of the union (`OPT_+`) dataset in [`CENSUS_CLASSES`].
pub const CENSUS_UNION: usize = 2;

/// ε granted to every `census_release` request. A power of two, so the
/// ledger's running sum is exact and the budget gate can demand equality.
pub const CENSUS_EPS: f64 = 1.0;

/// The four census datasets, in [`CENSUS_CLASSES`] order. CPH is sharded
/// into `shards` leading-axis slabs (served over the remote workers); the
/// others are dense.
pub fn census_datasets(seed: u64, shards: usize) -> Vec<Dataset> {
    let mut rng = rng_for(seed, "census-data", 0);
    let taxi = hdmm_data::taxi_2d(256, 200_000, &mut rng);
    let adult_domain = hdmm_data::adult_domain();
    let adult = hdmm_data::data_vector(&adult_domain, &hdmm_data::adult_records(100_000, &mut rng));
    let union = hdmm_data::taxi_2d(32, 20_000, &mut rng);
    let cph_domain = census::cph_domain();
    let cph = hdmm_data::data_vector(&cph_domain, &hdmm_data::cph_records(200_000, &mut rng));
    vec![
        Dataset {
            name: "taxi",
            domain: Domain::new(&[256, 256]),
            x: taxi,
            shards: 1,
        },
        Dataset {
            name: "adult",
            domain: adult_domain,
            x: adult,
            shards: 1,
        },
        Dataset {
            name: "union",
            domain: Domain::new(&[32, 32]),
            x: union,
            shards: 1,
        },
        Dataset {
            name: "cph",
            domain: cph_domain,
            x: cph,
            shards,
        },
    ]
}

/// The released workload of each census dataset.
pub fn census_workload(dataset: &str) -> Workload {
    match dataset {
        "taxi" => builders::prefix_2d(256, 256),
        "adult" => builders::upto_kway_marginals(&hdmm_data::adult_domain(), 3),
        "union" => builders::range_total_union_2d(32, 32),
        "cph" => builders::upto_kway_marginals(&census::cph_domain(), 2),
        other => unreachable!("no census dataset named {other}"),
    }
}

/// Index into [`CENSUS_CLASSES`] of the `index`-th `census_release` request.
pub fn census_request(seed: u64, index: usize) -> usize {
    let counts: Vec<usize> = CENSUS_CLASSES.iter().map(|c| c.1).collect();
    deck_class(seed, "census-deck", &counts, index)
}

/// Follow-up workloads drawn per census dataset.
pub const FOLLOWUPS_PER_DATASET: usize = 12;

/// Largest `serve_batch_from_session` batch.
pub const MAX_BATCH: usize = 32;

/// Most attributes one query of the dataset's released workload involves
/// (Taxi `P⊗P`: 2; Adult: 3-way marginals; union `R⊗T ∪ T⊗R`: 1; CPH:
/// 2-way marginals).
fn released_way(dataset: &str) -> usize {
    match dataset {
        "taxi" | "cph" => 2,
        "adult" => 3,
        "union" => 1,
        other => unreachable!("no census dataset named {other}"),
    }
}

/// Zero-ε follow-up workloads over `domain`: marginals, ranges and prefixes,
/// four of each. A follow-up involves no more attributes than the release
/// measured together, so its error is the release's noise; a query about
/// combinations the release never measured (cells of the union's grid) has
/// an error set by the data, not by the mechanism.
///
/// The pool is the same in every run: a pool drawn per seed would change
/// which follow-ups a run measures, and with it the latency and error of the
/// whole run. The seed draws which of them each request asks for.
pub fn followups(dataset: &str, domain: &Domain) -> Vec<Workload> {
    let mut rng = rng_for(0, dataset, 0);
    let way = released_way(dataset).min(2);
    let d = domain.dims();
    let sizes = domain.sizes().to_vec();
    let total = |i: usize| blocks::total_block(sizes[i]);
    (0..FOLLOWUPS_PER_DATASET)
        .map(|k| match k % 3 {
            0 => {
                // 1–3 marginals on up to `way` attributes.
                let terms = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        let a = rng.gen_range(0..d);
                        let b = if way >= 2 { rng.gen_range(0..d) } else { a };
                        builders::marginal_term(domain, (1 << a) | (1 << b))
                    })
                    .collect();
                Workload::new(domain.clone(), terms)
            }
            1 => {
                // Random ranges on one attribute, totals elsewhere.
                let a = rng.gen_range(0..d);
                let m = rng.gen_range(16..=32);
                let factors = (0..d)
                    .map(|i| {
                        if i == a {
                            StructuredMatrix::from(random_ranges(sizes[i], m, &mut rng))
                        } else {
                            total(i)
                        }
                    })
                    .collect();
                Workload::product(domain.clone(), factors)
            }
            _ => {
                // Prefixes on one attribute, crossed with Identity on a
                // small second one when the release measured pairs.
                let a = rng.gen_range(0..d);
                let b = (0..d).find(|&i| i != a && sizes[i] <= 20 && way >= 2);
                let factors = (0..d)
                    .map(|i| {
                        if i == a {
                            blocks::prefix_block(sizes[i])
                        } else if Some(i) == b {
                            blocks::identity_block(sizes[i])
                        } else {
                            total(i)
                        }
                    })
                    .collect();
                Workload::product(domain.clone(), factors)
            }
        })
        .collect()
}

/// Releases (sessions) `session_followup` makes per dataset in set-up. A
/// follow-up's error is set by the one noise draw behind its session;
/// spreading requests over several releases averages that draw out, so
/// `rmse` compares across runs.
pub const RELEASES_PER_DATASET: usize = 4;

/// One `session_followup` request: a single follow-up or a batch, given as
/// indices into the dataset's follow-up pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Followup {
    Single(usize),
    Batch(Vec<usize>),
}

/// The `index`-th `session_followup` request: the census dataset (index into
/// [`CENSUS_CLASSES`]), which of its releases, and the call. Each deck of 20
/// holds, per dataset, three single calls and two batches. Batch sizes are
/// a deck too: each dataset's batches take every size in `1..=MAX_BATCH`
/// once per `MAX_BATCH` batches, in seeded order.
pub fn session_request(seed: u64, index: usize) -> (usize, usize, Followup) {
    const PER_DATASET: [usize; 8] = [3, 2, 3, 2, 3, 2, 3, 2];
    let (class, ordinal) = deck_draw(seed, "session-deck", &PER_DATASET, index);
    let mut rng = rng_for(seed, "session", index as u64);
    let release = rng.gen_range(0..RELEASES_PER_DATASET);
    let call = if class % 2 == 0 {
        Followup::Single(rng.gen_range(0..FOLLOWUPS_PER_DATASET))
    } else {
        let stream = format!("batch-sizes-{class}");
        let size = 1 + deck_class(seed, &stream, &[1; MAX_BATCH], ordinal);
        Followup::Batch(
            (0..size)
                .map(|_| rng.gen_range(0..FOLLOWUPS_PER_DATASET))
                .collect(),
        )
    };
    (class / 2, release, call)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cold_fingerprints(seed: u64, n: usize) -> Vec<u128> {
        let mut gen = ColdGen::new(seed, ColdMix::Paper);
        (0..n)
            .map(|_| gen.next_request().workload.fingerprint().digest())
            .collect()
    }

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(cold_fingerprints(3, 40), cold_fingerprints(3, 40));
        let census: Vec<usize> = (0..60).map(|i| census_request(3, i)).collect();
        assert_eq!(
            census,
            (0..60).map(|i| census_request(3, i)).collect::<Vec<_>>()
        );
        let session: Vec<_> = (0..60).map(|i| session_request(3, i)).collect();
        assert_eq!(
            session,
            (0..60).map(|i| session_request(3, i)).collect::<Vec<_>>()
        );
        let domain = census::cph_domain();
        let a: Vec<u128> = followups("cph", &domain)
            .iter()
            .map(|w| w.fingerprint().digest())
            .collect();
        let b: Vec<u128> = followups("cph", &domain)
            .iter()
            .map(|w| w.fingerprint().digest())
            .collect();
        assert_eq!(a, b);
        assert_eq!(census_datasets(3, 2)[0].x, census_datasets(3, 2)[0].x);
    }

    #[test]
    fn different_seed_different_requests() {
        assert_ne!(cold_fingerprints(3, 40), cold_fingerprints(4, 40));
        let census = |seed| (0..60).map(|i| census_request(seed, i)).collect::<Vec<_>>();
        assert_ne!(census(3), census(4));
        let session = |seed| {
            (0..60)
                .map(|i| session_request(seed, i))
                .collect::<Vec<_>>()
        };
        assert_ne!(session(3), session(4));
        assert_ne!(census_datasets(3, 2)[0].x, census_datasets(4, 2)[0].x);
    }

    #[test]
    fn cold_plan_fingerprints_are_pairwise_distinct() {
        let fps = cold_fingerprints(11, 200);
        let distinct: HashSet<u128> = fps.iter().copied().collect();
        assert_eq!(distinct.len(), fps.len());
    }

    #[test]
    fn cold_datasets_are_the_ones_the_mix_targets() {
        for mix in [ColdMix::Paper, ColdMix::AdHoc] {
            let names: Vec<&str> = cold_datasets(1, mix).iter().map(|d| d.name).collect();
            assert_eq!(names.len(), mix.classes().len());
            assert!(mix.classes().iter().all(|c| names.contains(&c.0)));
        }
    }

    #[test]
    fn batch_sizes_cover_every_size_once_per_deck() {
        let mut sizes: Vec<usize> = (0..)
            .map(|i| session_request(9, i))
            .filter_map(|(dataset, _, call)| match call {
                Followup::Batch(ws) if dataset == 3 => Some(ws.len()),
                _ => None,
            })
            .take(MAX_BATCH)
            .collect();
        sizes.sort_unstable();
        assert_eq!(sizes, (1..=MAX_BATCH).collect::<Vec<_>>());
    }

    #[test]
    fn decks_keep_class_proportions() {
        let mut seen = [0usize; 4];
        for i in 0..200 {
            seen[census_request(5, i)] += 1;
        }
        assert_eq!(seen, [60, 60, 40, 40]);
        assert_eq!(CENSUS_CLASSES[CENSUS_UNION].0, "union");
        for mix in [ColdMix::Paper, ColdMix::AdHoc] {
            let mut gen = ColdGen::new(5, mix);
            let opt0 = (0..200)
                .filter(|_| gen.next_request().family == Family::Opt0)
                .count();
            assert_eq!(opt0, 50);
        }
    }
}
