//! Reuse properties of the persistent `QueryEngine`.
//!
//! The engine inverts the job-per-query lifecycle: the shared store,
//! splits, keyword index and per-radius routing plans are built once and
//! reused by every query. That reuse must be invisible: for any world,
//! any algorithm, either partitioning strategy and cluster workers in
//! {1, 2, 8}, a sequence of `engine.execute` calls must return results —
//! and counters, and shuffle volumes — **byte-identical** to the same
//! sequence of fresh `SpqExecutor::run_dataset` jobs, with interleaved
//! replays not disturbing later queries. `execute_batch` must match
//! request-for-request, and `serve_requests` must reproduce the
//! sequential results in request order for any worker count.

use proptest::prelude::*;
use spq::core::{QueryEngine, SharedDataset};
use spq::prelude::*;
use spq::text::Term;

/// Strategy: a small spatio-textual world plus a query stream of three
/// (keywords, radius, k) draws — radii repeat across a small class set so
/// the engine's per-radius plan cache actually gets hits.
#[allow(clippy::type_complexity)]
fn world() -> impl Strategy<
    Value = (
        Vec<DataObject>,
        Vec<FeatureObject>,
        Vec<(Vec<u32>, u8, u8)>, // queries: (keywords, radius class, k)
        u8,                      // grid cells per axis
    ),
> {
    let coord = 0.0f64..1.0;
    let data = proptest::collection::vec((coord.clone(), coord.clone()), 0..25);
    let features = proptest::collection::vec(
        (
            coord.clone(),
            coord,
            proptest::collection::vec(0u32..10, 1..5),
        ),
        0..35,
    );
    let queries = proptest::collection::vec(
        (proptest::collection::vec(0u32..10, 1..4), 0u8..3, 1u8..5),
        3,
    );
    (data, features, queries, 1u8..8).prop_map(|(d, f, qs, g)| {
        let data: Vec<DataObject> = d
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| DataObject::new(i as u64, Point::new(x, y)))
            .collect();
        let features: Vec<FeatureObject> = f
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w))| {
                FeatureObject::new(
                    i as u64,
                    Point::new(x, y),
                    KeywordSet::new(w.into_iter().map(Term).collect()),
                )
            })
            .collect();
        (data, features, qs, g)
    })
}

/// Three shared radius classes — queries repeating a class share a
/// cached plan inside the engine.
const RADIUS_CLASSES: [f64; 3] = [0.05, 0.15, 0.4];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const ALGORITHMS: [Algorithm; 3] = [Algorithm::PSpq, Algorithm::ESpqLen, Algorithm::ESpqSco];
const BALANCERS: [LoadBalancing; 2] = [
    LoadBalancing::UniformGrid,
    LoadBalancing::AdaptiveQuadtree { sample_size: 16 },
];

fn build_queries(specs: &[(Vec<u32>, u8, u8)]) -> Vec<SpqQuery> {
    specs
        .iter()
        .map(|(kw, r, k)| {
            SpqQuery::new(
                *k as usize,
                RADIUS_CLASSES[*r as usize % RADIUS_CLASSES.len()],
                KeywordSet::from_ids(kw.iter().copied()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N sequential `engine.execute` calls are byte-identical to N fresh
    /// `Executor::run_dataset` jobs, for every algorithm × partitioning ×
    /// worker count, including counters (from the response's job trace)
    /// and shuffle volume; replaying a query after serving others returns
    /// the same bytes again.
    #[test]
    fn prop_engine_reuse_matches_fresh_jobs(
        (data, features, query_specs, g) in world()
    ) {
        let queries = build_queries(&query_specs);
        let dataset = SharedDataset::new(data, features);
        for algo in ALGORITHMS {
            for balancing in BALANCERS {
                for workers in WORKER_COUNTS {
                    let exec = SpqExecutor::new(Rect::unit())
                        .algorithm(algo)
                        .grid_size(g as u32)
                        .load_balancing(balancing)
                        .cluster(ClusterConfig::with_workers(workers));
                    let engine = QueryEngine::new(exec.clone(), dataset.clone());
                    let mut first_pass = Vec::new();
                    for q in &queries {
                        let served = engine
                            .execute(&QueryRequest::new(q.clone()).with_trace())
                            .unwrap();
                        let job = &served.trace.as_ref().unwrap()[0];
                        let fresh = exec.run_dataset(&dataset, q).unwrap();
                        prop_assert_eq!(
                            &served.results, &fresh.top_k,
                            "{} workers={} balancing={:?} {}: engine diverged",
                            algo, workers, balancing, q
                        );
                        prop_assert_eq!(
                            &job.counters, &fresh.stats.counters,
                            "{} workers={} {}: counters diverged", algo, workers, q
                        );
                        prop_assert_eq!(job.shuffle_records, fresh.stats.shuffle_records);
                        prop_assert_eq!(served.stats.shuffle_bytes, fresh.shuffle_bytes);
                        // One reduce task per cell of the planned partition.
                        prop_assert_eq!(job.reduce_tasks.len(), fresh.partition.num_cells());
                        first_pass.push(served.results);
                    }
                    // Replay after the whole stream: prebuilt state is not
                    // corrupted by serving other queries in between.
                    for (q, expect) in queries.iter().zip(&first_pass) {
                        let replay = engine.execute(&QueryRequest::new(q.clone())).unwrap();
                        prop_assert_eq!(&replay.results, expect);
                    }
                    // The plan cache held one plan per distinct radius.
                    let distinct_radii = {
                        let mut bits: Vec<u64> =
                            queries.iter().map(|q| q.radius.to_bits()).collect();
                        bits.sort_unstable();
                        bits.dedup();
                        bits.len()
                    };
                    prop_assert_eq!(engine.cached_plans(), distinct_radii);
                }
            }
        }
    }

    /// `execute_batch` (keyword-index candidate pruning) and
    /// `serve_requests` (inter-query concurrency, workers 1/2/8)
    /// reproduce the sequential `execute` results exactly, in request
    /// order.
    #[test]
    fn prop_batch_and_serve_match_sequential(
        (data, features, query_specs, g) in world()
    ) {
        let requests: Vec<QueryRequest> = build_queries(&query_specs)
            .into_iter()
            .map(QueryRequest::new)
            .collect();
        let dataset = SharedDataset::new(data, features);
        for algo in ALGORITHMS {
            let exec = SpqExecutor::new(Rect::unit())
                .algorithm(algo)
                .grid_size(g as u32)
                .cluster(ClusterConfig::with_workers(2));
            let engine = QueryEngine::new(exec, dataset.clone());
            let sequential: Vec<_> = requests
                .iter()
                .map(|r| engine.execute(r).unwrap().results)
                .collect();
            let batch = engine.execute_batch(&requests).unwrap();
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                prop_assert_eq!(&b.results, s, "{} request {}: batch diverged", algo, i);
            }
            for workers in WORKER_COUNTS {
                let served = engine.serve_requests(&requests, workers).unwrap();
                prop_assert_eq!(served.len(), requests.len());
                for (i, (r, s)) in served.iter().zip(&sequential).enumerate() {
                    prop_assert_eq!(
                        &r.results, s,
                        "{} workers={} request {}: serve diverged", algo, workers, i
                    );
                }
            }
        }
    }
}

/// Deterministic end-to-end check on a bigger-than-proptest world: a
/// hotspot-heavy stream served concurrently must equal the sequential
/// pass for every worker count, and plan-cache growth is bounded by the
/// radius classes.
#[test]
fn serve_on_generated_workload_is_worker_invariant() {
    use spq::data::{QueryStream, StreamConfig, UniformGen};

    let dataset = UniformGen.generate(2_000, 42);
    let (shared, _) = dataset.to_shared_splits(8);
    let mut stream = QueryStream::new(
        dataset.vocab_size,
        StreamConfig {
            radius_classes: vec![0.03, 0.08],
            hotspot_fraction: 0.5,
            hotspots: 4,
            seed: 9,
            ..StreamConfig::default()
        },
    );
    let requests: Vec<QueryRequest> = stream
        .batch(24)
        .into_iter()
        .map(QueryRequest::new)
        .collect();
    for algo in ALGORITHMS {
        let exec = SpqExecutor::new(Rect::unit())
            .algorithm(algo)
            .grid_size(8)
            .cluster(ClusterConfig::sequential());
        let engine = QueryEngine::new(exec, shared.clone());
        let sequential: Vec<_> = requests
            .iter()
            .map(|r| engine.execute(r).unwrap().results)
            .collect();
        for workers in WORKER_COUNTS {
            let served = engine.serve_requests(&requests, workers).unwrap();
            let got: Vec<_> = served.into_iter().map(|r| r.results).collect();
            assert_eq!(got, sequential, "{algo} workers={workers}");
        }
        assert_eq!(
            engine.cached_plans(),
            2,
            "{algo}: one plan per radius class"
        );
    }
}
