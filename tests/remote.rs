//! Loopback integration tests for the remote shard fan-out (ISSUE 6): an
//! engine serving a sharded 2^16-cell domain through in-process TCP workers
//! must answer **byte-identically** to a dense single-node registration, for
//! worker counts {1, 2, 3} and across strategy families — and a worker
//! killed mid-MEASURE must never fail a request: tasks retry and reassign to
//! survivors, with the failure visible in `Engine::metrics()`.

use hdmm::core::{builders, Domain, QueryEngine, Workload};
use hdmm::engine::{Engine, EngineOptions, RemoteOptions, RetryPolicy};
use hdmm::linalg::{partition_rows, StructuredMatrix};
use hdmm::mechanism::{
    run_mechanism, DataSlab, MarginalsStrategy, NoopObserver, Pipeline, PreparedReconstruct,
    ScopedExecutor, ShardedView, SolveKind, Strategy, UnionGroup,
};
use hdmm::optimizer::HdmmOptions;
use hdmm_net::{spawn_worker, SlabRpc, WorkerHandle, WorkerOptions, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One plan directory per test process: every engine in a test shares it, so
/// SELECT runs once and each twin serves the identical plan from disk.
fn plan_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hdmm-remote-test-{}-{tag}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn engine_with(seed: u64, tag: &str, remote: Option<RemoteOptions>) -> Engine {
    Engine::new(EngineOptions {
        hdmm: HdmmOptions {
            restarts: 1,
            ..Default::default()
        },
        seed,
        shard_workers: 4,
        cache_dir: Some(plan_dir(tag)),
        remote,
        ..Default::default()
    })
}

fn spawn_workers(specs: &[Duration]) -> (Vec<WorkerHandle>, RemoteOptions) {
    let handles: Vec<WorkerHandle> = specs
        .iter()
        .map(|&task_delay| {
            spawn_worker(
                "127.0.0.1:0",
                WorkerOptions {
                    task_delay,
                    ..Default::default()
                },
            )
            .expect("loopback bind")
        })
        .collect();
    let opts = RemoteOptions {
        workers: handles.iter().map(|h| h.addr().to_string()).collect(),
        policy: RetryPolicy {
            task_timeout: Duration::from_secs(10),
            attempts: 3,
            backoff: Duration::from_millis(10),
        },
    };
    (handles, opts)
}

fn data(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i * 13) % 31) as f64).collect()
}

/// Strategy-family coverage: each workload routes SELECT to a different
/// optimizer (OPT_⊗ Kronecker, OPT_M marginals, OPT_+ union, OPT_0 dense
/// explicit), so the remote pipeline is exercised on every strategy form.
fn cases() -> Vec<(&'static str, Domain, Workload)> {
    // The tentpole case: a 2^16-cell domain (64·32·32), Kronecker-routed.
    let d3 = Domain::new(&[64, 32, 32]);
    let kron = Workload::product(
        d3.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    let marginals = builders::upto_kway_marginals(&d3, 2);
    let d2 = Domain::new(&[64, 32]);
    let union = builders::range_total_union_2d(64, 32);
    let d1 = Domain::one_dim(64);
    let explicit = builders::all_range_1d(64);
    vec![
        ("kron", d3.clone(), kron),
        ("marginals", d3, marginals),
        ("union", d2, union),
        ("explicit", d1, explicit),
    ]
}

/// Two requests against a dense, remote-less engine — the reference stream.
fn dense_answers(seed: u64, tag: &str, domain: &Domain, w: &Workload) -> (Vec<f64>, Vec<f64>) {
    let engine = engine_with(seed, tag, None);
    engine
        .register_dataset("d", domain.clone(), data(domain.size()), 1e6)
        .unwrap();
    let a = engine.serve("d", w, 1.0).unwrap().answers;
    let b = engine.serve("d", w, 0.5).unwrap().answers;
    (a, b)
}

#[test]
fn remote_serving_is_byte_identical_to_dense_across_worker_counts() {
    for (tag, domain, w) in cases() {
        let dense = dense_answers(7, tag, &domain, &w);
        for worker_count in [1usize, 2, 3] {
            let (_handles, remote) = spawn_workers(&vec![Duration::ZERO; worker_count]);
            let engine = engine_with(7, tag, Some(remote));
            engine
                .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
                .unwrap();
            let a = engine.serve("d", &w, 1.0).unwrap();
            let b = engine.serve("d", &w, 0.5).unwrap();
            assert_eq!(a.shards, 3.min(domain.attr_size(0)));
            assert!(
                bits_eq(&dense.0, &a.answers) && bits_eq(&dense.1, &b.answers),
                "{tag} workers={worker_count}: remote answers diverge from dense"
            );
            let m = engine.metrics();
            assert_eq!(
                m.telemetry.remote_fallbacks, 0,
                "{tag} workers={worker_count}: healthy pool must not fall back"
            );
            let pool = m.remote.expect("remote engine exposes pool health");
            assert_eq!(pool.workers.len(), worker_count);
            // The explicit family measures locally by design, but every other
            // family must actually have pushed tasks through the workers.
            if tag != "explicit" {
                assert!(
                    pool.workers.iter().map(|h| h.tasks).sum::<u64>() > 0,
                    "{tag} workers={worker_count}: no task reached the pool"
                );
            }
        }
    }
}

/// The pipeline-level contract under the engine test above: the remote
/// pipeline, handed the strategy's cached `PreparedReconstruct` the way the
/// engine hands it over, answers bitwise identically to the plain dense
/// pipeline for a closed-form union and a marginals strategy.
#[test]
fn remote_pipeline_with_cached_prepared_matches_dense_bitwise() {
    let (n1, n2) = (12, 8);
    let union = Strategy::Union(vec![
        UnionGroup::new(
            0.4,
            vec![
                StructuredMatrix::prefix(n1).scaled(1.0 / n1 as f64),
                StructuredMatrix::identity(n2),
            ],
            vec![0],
        ),
        UnionGroup::new(
            0.6,
            vec![
                StructuredMatrix::identity(n1),
                StructuredMatrix::prefix(n2).scaled(1.0 / n2 as f64),
            ],
            vec![1],
        ),
    ]);
    let cube = Domain::new(&[6, 4, 5]);
    let cases = [
        (builders::range_total_union_2d(n1, n2), union),
        (
            builders::upto_kway_marginals(&cube, 2),
            Strategy::Marginals(MarginalsStrategy::uniform(cube.clone())),
        ),
    ];
    for (w, s) in cases {
        let prepared = PreparedReconstruct::new(&s);
        if matches!(s, Strategy::Union(_)) {
            assert_eq!(prepared.solve_kind(), SolveKind::ClosedForm);
        }
        let x = data(w.domain().size());
        let leading = w.domain().attr_size(0);
        let stride = x.len() / leading;
        let slabs = partition_rows(leading, 3)
            .into_iter()
            .map(|r| DataSlab {
                rows: r.clone(),
                values: &x[r.start * stride..r.end * stride],
            })
            .collect();
        let view = ShardedView::new(leading, slabs);
        let dense = run_mechanism(&w, &s, &x, 1.0, &mut StdRng::seed_from_u64(5));
        for worker_count in [1usize, 2, 3] {
            let (_handles, opts) = spawn_workers(&vec![Duration::ZERO; worker_count]);
            let exec = WorkerPool::connect(&opts.workers, opts.policy.clone());
            let got = Pipeline {
                workload: &w,
                strategy: &s,
                prepared: &prepared,
                view: &view,
                eps: 1.0,
                remaining: 1.0,
                lanes: &ScopedExecutor::new(4),
                observer: &NoopObserver,
            }
            .run(
                &mut StdRng::seed_from_u64(5),
                &SlabRpc::untraced(&exec, "d"),
            )
            .unwrap();
            assert!(
                bits_eq(&dense.x_hat, &got.x_hat) && bits_eq(&dense.answers, &got.answers),
                "{} workers={worker_count}: remote diverges from dense",
                s.kind()
            );
        }
    }
}

#[test]
fn killed_worker_mid_measure_retries_and_reassigns() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = Workload::product(
        domain.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    let dense = dense_answers(11, "kill", &domain, &w);

    // Worker 0 delays every task by 400ms; with slabs preloaded round-robin
    // it owns shard 0, so the first MEASURE fan-out is guaranteed to be
    // sitting on it when the kill lands.
    let (handles, remote) =
        spawn_workers(&[Duration::from_millis(400), Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(11, "kill", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();

    let (first, second) = std::thread::scope(|s| {
        let serve = s.spawn(|| {
            let a = engine.serve("d", &w, 1.0).expect("request must survive");
            let b = engine.serve("d", &w, 0.5).expect("request must survive");
            (a.answers, b.answers)
        });
        // Let the MEASURE fan-out reach the slow worker, then kill it
        // mid-task: its connection is hard-closed, so the coordinator's
        // blocked read fails immediately and the task reassigns.
        std::thread::sleep(Duration::from_millis(150));
        handles[0].kill();
        serve.join().expect("serving thread must not panic")
    });
    assert!(
        bits_eq(&dense.0, &first) && bits_eq(&dense.1, &second),
        "answers after a mid-MEASURE worker kill must still match dense"
    );

    let m = engine.metrics();
    let pool = m.remote.expect("remote engine exposes pool health");
    let victim = &pool.workers[0];
    assert!(
        !victim.alive && victim.failures >= 1,
        "the killed worker's failure must be visible in metrics(): {victim:?}"
    );
    assert!(
        pool.retries >= 1,
        "the interrupted task must have been retried: {pool}"
    );
    assert!(
        pool.reassignments >= 1 || m.telemetry.remote_fallbacks >= 1,
        "the orphaned shard must have been reassigned (or the request \
         re-served locally): {pool}"
    );
    // Survivors carried the load.
    assert!(
        pool.workers[1..].iter().all(|h| h.alive),
        "surviving workers must stay alive: {pool}"
    );
}

#[test]
fn rejected_duplicate_registration_never_touches_worker_state() {
    let domain = Domain::new(&[64, 32, 32]);
    let w = Workload::product(
        domain.clone(),
        vec![64, 32, 32]
            .into_iter()
            .map(hdmm::workload::blocks::prefix_block)
            .collect(),
    );
    let dense = dense_answers(13, "dup", &domain, &w);
    let (_handles, remote) = spawn_workers(&[Duration::ZERO, Duration::ZERO]);
    let engine = engine_with(13, "dup", Some(remote));
    engine
        .register_dataset_sharded("d", domain.clone(), data(domain.size()), 3, 1e6)
        .unwrap();
    let first = engine.serve("d", &w, 1.0).unwrap().answers;
    assert!(bits_eq(&dense.0, &first));

    // Re-registering the live name with DIFFERENT data must fail — and must
    // not overwrite the live dataset's slabs on the workers: the pool's
    // `loaded` bookkeeping would otherwise skip the re-push and serve the
    // poison data silently.
    let poison = vec![0.0; domain.size()];
    assert!(matches!(
        engine.register_dataset_sharded("d", domain.clone(), poison, 3, 1e6),
        Err(hdmm::EngineError::DatasetExists { .. })
    ));
    let second = engine.serve("d", &w, 0.5).unwrap().answers;
    assert!(
        bits_eq(&dense.1, &second),
        "answers after a rejected duplicate registration must still match dense"
    );
    assert_eq!(
        engine.metrics().telemetry.remote_fallbacks,
        0,
        "the original slabs must still be serving remotely"
    );
}

#[test]
fn connect_worker_at_runtime_requires_a_transport_and_a_live_worker() {
    let (_handles, remote) = spawn_workers(&[Duration::ZERO]);
    let engine = engine_with(3, "connect", Some(remote));
    let extra = spawn_worker("127.0.0.1:0", WorkerOptions::default()).unwrap();
    engine.connect_worker(&extra.addr().to_string()).unwrap();
    assert_eq!(engine.metrics().remote.unwrap().workers.len(), 2);
    // A dead address is a typed error.
    extra.kill();
    std::thread::sleep(Duration::from_millis(20));
    assert!(engine.connect_worker(&extra.addr().to_string()).is_err());
    // An engine without a transport rejects worker registration outright.
    let local_only = engine_with(3, "connect", None);
    assert!(matches!(
        local_only.connect_worker("127.0.0.1:1"),
        Err(hdmm::EngineError::WorkerUnavailable { .. })
    ));
}
