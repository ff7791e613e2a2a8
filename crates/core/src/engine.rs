//! The persistent query engine: build indexes once, serve many queries.
//!
//! The paper evaluates one query per MapReduce job, and
//! [`SpqExecutor`] mirrors that lifecycle: every call re-plans the
//! partition, re-routes every object and (on the owned-input entry
//! points) re-copies the datasets. A serving system amortizes all of that
//! across the query stream. [`QueryEngine`] is that system:
//!
//! * **Build once** — construction pins the [`SharedDataset`] and its
//!   reference splits; the first query at each radius plans the space
//!   partition and fossilises the full map-side routing into
//!   [`CellRouting`] lookup tables (cached per radius, shared by every
//!   later query); a [`KeywordIndex`] inverted index over the feature
//!   keywords is built eagerly at construction.
//! * **Serve many** — the engine speaks the typed
//!   [`QueryExecutor`] surface:
//!   [`execute`](crate::service::QueryExecutor::execute) evaluates one
//!   request against the prebuilt state, byte-identical to a fresh
//!   [`SpqExecutor::run_dataset`] job;
//!   [`execute_batch`](crate::service::QueryExecutor::execute_batch)
//!   additionally resolves each request's matching features through the
//!   keyword index, so the map phase scans only candidate features
//!   instead of the whole feature set;
//!   [`serve_requests`](crate::service::QueryExecutor::serve_requests)
//!   pushes independent requests through the `spq-mapreduce` worker pool
//!   — parallelism comes from **inter-query concurrency** (each query
//!   runs as a single-threaded job), the right shape for high-QPS
//!   traffic of many small queries.
//!
//! Determinism carries over from the job runner: for a fixed engine and
//! query, every entry point returns the same bytes regardless of worker
//! counts, and `execute` matches a fresh per-query executor job exactly
//! (`tests/engine_reuse.rs` proves both properties with proptests).
//!
//! ```
//! use spq_core::{Algorithm, DataObject, FeatureObject, QueryEngine, SpqExecutor, SpqQuery};
//! use spq_core::{QueryExecutor, QueryRequest, SharedDataset};
//! use spq_spatial::{Point, Rect};
//! use spq_text::KeywordSet;
//!
//! let dataset = SharedDataset::new(
//!     vec![DataObject::new(1, Point::new(4.6, 4.8))],
//!     vec![FeatureObject::new(4, Point::new(3.8, 5.5), KeywordSet::from_ids([0]))],
//! );
//! let executor = SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0))
//!     .algorithm(Algorithm::ESpqSco)
//!     .grid_size(4);
//!
//! // Build once…
//! let engine = QueryEngine::new(executor, dataset);
//!
//! // …then serve an arbitrary stream of requests against the same state.
//! let r1 = QueryRequest::new(SpqQuery::new(1, 1.5, KeywordSet::from_ids([0])));
//! let r2 = QueryRequest::new(SpqQuery::new(1, 2.5, KeywordSet::from_ids([0, 7])));
//! assert_eq!(engine.execute(&r1).unwrap().results[0].object, 1);
//!
//! let batch = engine.execute_batch(&[r1.clone(), r2.clone()]).unwrap();
//! assert_eq!(batch.len(), 2);
//!
//! let served = engine.serve_requests(&[r1, r2], 2).unwrap();
//! assert_eq!(served[0].results, batch[0].results);
//! assert_eq!(engine.cached_plans(), 2); // one routing plan per radius
//! ```

use crate::executor::{SpqError, SpqExecutor, SpqResult};
use crate::model::FeatureObject;
use crate::partitioning::CellRouting;
use crate::query::SpqQuery;
use crate::service::{
    ExecutionMode, QueryExecutor, QueryOptions, QueryRequest, QueryResponse, QueryStats,
};
use crate::store::{ObjectRef, SharedDataset};
use parking_lot::Mutex;
use spq_mapreduce::{ClusterConfig, JobContext};
use spq_spatial::SpacePartition;
use spq_text::{KeywordSet, Term};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An inverted index from keyword to the feature objects carrying it.
///
/// Postings are CSR-packed (one flat, term-grouped slice of feature
/// indices plus a per-term offset table) and each term's posting list is
/// ascending, so merging a query's lists yields the candidate features in
/// store order — exactly the order the map phase would have visited them.
/// This is the engine's build-once replacement for the per-query keyword
/// pruning scan: instead of testing `q.W ∩ f.W` for every feature on
/// every query, a batched query probes `|q.W|` posting lists.
#[derive(Debug, Clone)]
pub struct KeywordIndex {
    /// `postings[offsets[t]..offsets[t + 1]]` are the features carrying
    /// term `t`, ascending.
    offsets: Box<[usize]>,
    postings: Box<[u32]>,
}

impl KeywordIndex {
    /// Builds the index over a feature set (one pass to count, one pass
    /// to fill).
    pub fn build(features: &[FeatureObject]) -> Self {
        let num_terms = features
            .iter()
            .flat_map(|f| f.keywords.iter())
            .map(|t| t.index() + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0usize; num_terms + 1];
        for f in features {
            for t in f.keywords.iter() {
                offsets[t.index() + 1] += 1;
            }
        }
        for t in 0..num_terms {
            offsets[t + 1] += offsets[t];
        }
        let mut postings = vec![0u32; offsets[num_terms]];
        let mut cursor = offsets.clone();
        for (i, f) in features.iter().enumerate() {
            for t in f.keywords.iter() {
                postings[cursor[t.index()]] = i as u32;
                cursor[t.index()] += 1;
            }
        }
        Self {
            offsets: offsets.into_boxed_slice(),
            postings: postings.into_boxed_slice(),
        }
    }

    /// Number of distinct term slots (= highest indexed term id + 1).
    pub fn num_terms(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The ascending feature indices carrying `term` (empty for terms no
    /// feature carries).
    pub fn postings(&self, term: Term) -> &[u32] {
        if term.index() + 1 >= self.offsets.len() {
            return &[];
        }
        &self.postings[self.offsets[term.index()]..self.offsets[term.index() + 1]]
    }

    /// Number of features carrying `term` (its document frequency) —
    /// zero for terms outside the indexed range.
    pub fn term_frequency(&self, term: Term) -> usize {
        self.postings(term).len()
    }

    /// The `n` most frequent terms, as `(term, frequency)` pairs sorted
    /// by frequency descending then term id ascending. This is the
    /// engine's "what is this dataset about" surface: after ingesting a
    /// real dump, callers author meaningful queries by picking from the
    /// head (frequent) or tail (selective) of this ranking instead of
    /// guessing term ids.
    pub fn top_terms(&self, n: usize) -> Vec<(Term, usize)> {
        let mut ranked: Vec<(Term, usize)> = (0..self.num_terms())
            .map(|t| (Term(t as u32), self.offsets[t + 1] - self.offsets[t]))
            .filter(|&(_, count)| count > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }

    /// The features sharing at least one keyword with `keywords` —
    /// exactly the set the map-side pruning rule of Algorithm 1 line 9
    /// would keep — ascending and deduplicated.
    pub fn candidates(&self, keywords: &KeywordSet) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for t in keywords.iter() {
            out.extend_from_slice(self.postings(t));
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Aggregate statistics of the dataset an engine serves — the surface a
/// caller needs to author queries against a freshly ingested dump whose
/// vocabulary and density it has never seen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Data objects `|O|`.
    pub data_objects: usize,
    /// Feature objects `|F|`.
    pub feature_objects: usize,
    /// Term-id slots in the keyword index (highest indexed id + 1).
    pub term_slots: usize,
    /// Terms carried by at least one feature (≤ `term_slots`).
    pub distinct_terms: usize,
    /// Total keyword occurrences across all features.
    pub total_keywords: u64,
    /// Mean keywords per feature (0 for a feature-less dataset).
    pub mean_keywords: f64,
    /// Length of the longest posting list (0 if no keywords).
    pub max_posting: usize,
}

/// One cached per-radius plan: the space partition plus its prebuilt
/// routing tables.
#[derive(Debug)]
struct PartitionPlan {
    partition: Arc<SpacePartition>,
    routing: CellRouting,
}

/// Cumulative engine counters (atomics — the engine is `Sync` and these
/// are bumped from concurrent serve workers).
#[derive(Debug, Default)]
struct EngineMetrics {
    queries: AtomicU64,
    plan_cache_hits: AtomicU64,
    plan_cache_misses: AtomicU64,
    keyword_probes: AtomicU64,
    keyword_hits: AtomicU64,
}

/// A point-in-time snapshot of an engine's cumulative counters — the
/// observability surface behind the ROADMAP's "engine observability"
/// item. Counters only ever grow — except
/// [`excluded_workers`](MetricsSnapshot::excluded_workers), which is a
/// gauge that falls back to zero as workers are re-admitted; diff the
/// others across two snapshots for a rate.
///
/// The remote fields are zero for the in-process backends; the remote
/// backend fills them from its membership layer (see
/// [`crate::remote::RemoteEngine::metrics`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Queries executed through any entry point.
    pub queries: u64,
    /// Queries whose per-radius partition plan was served from cache.
    pub plan_cache_hits: u64,
    /// Queries that had to build (and cache) their partition plan.
    pub plan_cache_misses: u64,
    /// Query keywords probed against the inverted keyword index.
    pub keyword_probes: u64,
    /// Probed keywords that hit a non-empty posting list.
    pub keyword_hits: u64,
    /// Shard re-dispatches after remote worker failures.
    pub remote_retries: u64,
    /// Remote workers currently out of rotation (a gauge, not a
    /// counter).
    pub excluded_workers: u64,
    /// Remote failovers served by flipping the shard's placement pointer
    /// to a warm replica (no provision round-trip).
    pub warm_failovers: u64,
    /// Remote failovers that re-shipped the shard's provision payload to
    /// a survivor.
    pub cold_reprovisions: u64,
    /// Remote workers re-admitted after probe hysteresis.
    pub readmissions: u64,
}

impl MetricsSnapshot {
    /// Merges two snapshots (used by the sharded engine to aggregate its
    /// per-shard engines).
    pub fn merged(self, other: MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries + other.queries,
            plan_cache_hits: self.plan_cache_hits + other.plan_cache_hits,
            plan_cache_misses: self.plan_cache_misses + other.plan_cache_misses,
            keyword_probes: self.keyword_probes + other.keyword_probes,
            keyword_hits: self.keyword_hits + other.keyword_hits,
            remote_retries: self.remote_retries + other.remote_retries,
            excluded_workers: self.excluded_workers + other.excluded_workers,
            warm_failovers: self.warm_failovers + other.warm_failovers,
            cold_reprovisions: self.cold_reprovisions + other.cold_reprovisions,
            readmissions: self.readmissions + other.readmissions,
        }
    }
}

/// Upper bound on cached per-radius plans. Serving workloads use a small
/// set of radius classes, so the bound exists purely as a memory safety
/// valve against adversarial streams of distinct radii: each plan pins an
/// `O(|O| + |F|·duplication)` routing table. On overflow the plan that was
/// inserted first is evicted (FIFO in insertion order), so which plans
/// survive — and with them the plan-cache hit/miss counters — is a
/// function of the query sequence alone. Plans rebuild deterministically,
/// so eviction only costs time, never correctness.
const MAX_CACHED_PLANS: usize = 64;

/// A long-lived SPQ serving engine over one dataset.
///
/// See the [module docs](self) for the lifecycle. Construction is cheap
/// apart from the keyword index (one pass over the feature keywords); the
/// per-radius partition plans are built lazily by the first query that
/// needs them and cached (keyed by the exact radius bits — real
/// workloads use a small set of radius classes; a bound of 64 plans
/// guards against unbounded-radius streams, evicting the oldest plan).
///
/// The engine is `Sync`:
/// [`serve_requests`](crate::service::QueryExecutor::serve_requests)
/// shares it across the worker pool, and external callers may do the
/// same.
#[derive(Debug)]
pub struct QueryEngine {
    exec: SpqExecutor,
    serve_exec: SpqExecutor,
    dataset: SharedDataset,
    splits: Vec<Vec<ObjectRef>>,
    /// The data-object prefix of every split — the immutable part of a
    /// candidate-pruned batch split.
    data_splits: Vec<Vec<ObjectRef>>,
    keyword_index: KeywordIndex,
    /// Cached plans keyed by radius bits, oldest insert first.
    plans: Mutex<VecDeque<(u64, Arc<PartitionPlan>)>>,
    ctx: JobContext,
    metrics: EngineMetrics,
}

/// The engine's default split count — matches
/// [`SpqExecutor::run_dataset`], so
/// [`execute`](crate::service::QueryExecutor::execute) is byte-identical
/// to the per-query path it replaces.
pub const DEFAULT_NUM_SPLITS: usize = 8;

impl QueryEngine {
    /// Builds an engine over `dataset` with [`DEFAULT_NUM_SPLITS`]
    /// round-robin splits. `executor` supplies the full query
    /// configuration (bounds, algorithm, grid sizing, load balancing,
    /// pruning, cluster).
    pub fn new(executor: SpqExecutor, dataset: SharedDataset) -> Self {
        Self::with_num_splits(executor, dataset, DEFAULT_NUM_SPLITS)
    }

    /// [`new`](Self::new) with an explicit number of round-robin splits
    /// (= map tasks per job).
    ///
    /// # Panics
    ///
    /// Panics if `num_splits == 0`.
    pub fn with_num_splits(
        executor: SpqExecutor,
        dataset: SharedDataset,
        num_splits: usize,
    ) -> Self {
        assert!(num_splits > 0, "engine needs at least one split");
        let splits = dataset.ref_splits(num_splits);
        // Derived from the actual splits (not re-derived from the
        // round-robin rule) so the candidate-split layout can never drift
        // from the full-split layout byte-identity depends on.
        let data_splits: Vec<Vec<ObjectRef>> = splits
            .iter()
            .map(|s| s.iter().copied().filter(|r| r.is_data()).collect())
            .collect();
        let keyword_index = KeywordIndex::build(dataset.features());
        let serve_exec = executor.clone().cluster(ClusterConfig::sequential());
        Self {
            exec: executor,
            serve_exec,
            dataset,
            splits,
            data_splits,
            keyword_index,
            plans: Mutex::new(VecDeque::new()),
            ctx: JobContext::new(),
            metrics: EngineMetrics::default(),
        }
    }

    /// Builds an engine directly over ingested object vectors (e.g. the
    /// `spq-data` TSV loader's output) with [`DEFAULT_NUM_SPLITS`]
    /// round-robin splits — the loaded-dump counterpart of
    /// [`new`](Self::new), wrapping the vectors into the engine's
    /// [`SharedDataset`] without an intermediate copy. Pair it with
    /// [`dataset_stats`](Self::dataset_stats) and
    /// [`KeywordIndex::top_terms`] to author queries against the real
    /// vocabulary.
    pub fn from_ingested(
        executor: SpqExecutor,
        data: Vec<crate::model::DataObject>,
        features: Vec<FeatureObject>,
    ) -> Self {
        Self::new(executor, SharedDataset::new(data, features))
    }

    /// The shared dataset the engine serves.
    pub fn dataset(&self) -> &SharedDataset {
        &self.dataset
    }

    /// Aggregate statistics of the served dataset, computed from the
    /// build-once keyword index (no extra pass over the features).
    pub fn dataset_stats(&self) -> DatasetStats {
        let idx = &self.keyword_index;
        let total_keywords = idx.postings.len() as u64;
        let distinct_terms = (0..idx.num_terms())
            .filter(|&t| idx.offsets[t + 1] > idx.offsets[t])
            .count();
        let max_posting = (0..idx.num_terms())
            .map(|t| idx.offsets[t + 1] - idx.offsets[t])
            .max()
            .unwrap_or(0);
        let feature_objects = self.dataset.features().len();
        DatasetStats {
            data_objects: self.dataset.data().len(),
            feature_objects,
            term_slots: idx.num_terms(),
            distinct_terms,
            total_keywords,
            mean_keywords: if feature_objects == 0 {
                0.0
            } else {
                total_keywords as f64 / feature_objects as f64
            },
            max_posting,
        }
    }

    /// The executor configuration the engine was built from.
    pub fn executor(&self) -> &SpqExecutor {
        &self.exec
    }

    /// The build-once inverted keyword index.
    pub fn keyword_index(&self) -> &KeywordIndex {
        &self.keyword_index
    }

    /// Number of per-radius partition plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.lock().len()
    }

    /// The cached plan for this query's radius, built on first use.
    /// Returns the plan together with whether it was a cache hit.
    fn plan(&self, query: &SpqQuery) -> (Arc<PartitionPlan>, bool) {
        let key = query.radius.to_bits();
        let cached = |plans: &VecDeque<(u64, Arc<PartitionPlan>)>| {
            plans
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, plan)| Arc::clone(plan))
        };
        if let Some(plan) = cached(&self.plans.lock()) {
            self.metrics.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
            return (plan, true);
        }
        self.metrics
            .plan_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        // Built outside the lock: concurrent builders may race, but the
        // planning is deterministic so every racer builds the same plan
        // and the first insert wins.
        let partition = self
            .exec
            .plan_partition_shared(query, &self.dataset, &self.splits);
        let routing = CellRouting::build(&partition, &self.dataset, query.radius);
        let plan = Arc::new(PartitionPlan {
            partition: Arc::new(partition),
            routing,
        });
        let mut plans = self.plans.lock();
        if let Some(raced) = cached(&plans) {
            return (raced, false);
        }
        if plans.len() >= MAX_CACHED_PLANS {
            plans.pop_front();
        }
        plans.push_back((key, Arc::clone(&plan)));
        (plan, false)
    }

    /// Runs `query` over `splits` on the cached plan for its radius,
    /// reporting whether the plan was served from cache.
    fn run_measured(
        &self,
        exec: &SpqExecutor,
        splits: &[Vec<ObjectRef>],
        query: &SpqQuery,
    ) -> Result<(SpqResult, bool), SpqError> {
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        let (plan, hit) = self.plan(query);
        let result = exec.run_planned(
            &self.dataset,
            splits,
            query,
            Arc::clone(&plan.partition),
            Some(&plan.routing),
            Some(&self.ctx),
        )?;
        Ok((result, hit))
    }

    /// Evaluates one query on a single-threaded job against the prebuilt
    /// state — the per-query building block of
    /// [`serve_requests`](crate::service::QueryExecutor::serve_requests),
    /// where parallelism comes from running many such jobs concurrently.
    /// Byte-identical to a fresh [`SpqExecutor::run_dataset`] job (jobs
    /// are worker-count-invariant); returns the raw [`SpqResult`].
    pub fn query_sequential(&self, query: &SpqQuery) -> Result<SpqResult, SpqError> {
        Ok(self.run_measured(&self.serve_exec, &self.splits, query)?.0)
    }

    /// Builds batch splits holding every data object plus only the
    /// candidate features, preserving the engine's round-robin layout
    /// (and therefore the per-split record order the shuffle depends on
    /// for byte-identical output).
    fn candidate_splits(&self, candidates: &[u32]) -> Vec<Vec<ObjectRef>> {
        let n = self.data_splits.len();
        let mut splits = self.data_splits.clone();
        for &i in candidates {
            splits[i as usize % n].push(ObjectRef::Feature(i));
        }
        splits
    }

    // ---- The typed request path (crate::service) ------------------------

    /// The executor serving a request: the engine's own when the request
    /// carries no overrides, otherwise a derived copy (executors are a
    /// few plain-old-data fields; deriving is allocation-free).
    ///
    /// With `sequential` the job stays single-threaded **regardless of
    /// the request's worker budget** — sequential execution is the
    /// serve-worker building block, where the budget is already consumed
    /// by the inter-query concurrency (exactly as the sharded scatter
    /// clears the budget before driving its shards). Honouring it here
    /// would nest multi-worker jobs inside the serve pool.
    fn exec_for(&self, options: &QueryOptions, sequential: bool) -> SpqExecutor {
        let mut exec = if sequential {
            self.serve_exec.clone()
        } else {
            self.exec.clone()
        };
        if let Some(algorithm) = options.algorithm {
            exec = exec.algorithm(algorithm);
        }
        if !sequential {
            if let Some(workers) = options.workers {
                exec = exec.cluster(ClusterConfig::with_workers(workers));
            }
        }
        if let Some(enabled) = options.keyword_pruning {
            exec = exec.keyword_pruning(enabled);
        }
        exec
    }

    /// Runs one query under per-request options; `sequential` forces a
    /// single-threaded job (the serve-worker building block), exactly as
    /// [`query_sequential`](Self::query_sequential) does.
    pub(crate) fn run_opts(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
        sequential: bool,
    ) -> Result<(SpqResult, bool), SpqError> {
        let exec = self.exec_for(options, sequential);
        self.run_measured(&exec, &self.splits, query)
    }

    /// [`run_opts`](Self::run_opts) with the map pass pruned down to the
    /// query's candidate features through the keyword index (unless
    /// pruning is disabled, which falls back to full splits). Results are
    /// byte-identical to the full-split path — candidate splits preserve
    /// the round-robin record order the shuffle depends on. This is the
    /// building block of [`execute_batch`](Self::execute_batch) and of
    /// every sharded scatter (each shard probes its own build-once
    /// index).
    pub(crate) fn run_opts_pruned(
        &self,
        query: &SpqQuery,
        options: &QueryOptions,
        sequential: bool,
    ) -> Result<(SpqResult, bool), SpqError> {
        let exec = self.exec_for(options, sequential);
        if exec.keyword_pruning_enabled() {
            let candidates = self.keyword_index.candidates(&query.keywords);
            let splits = self.candidate_splits(&candidates);
            self.run_measured(&exec, &splits, query)
        } else {
            self.run_measured(&exec, &self.splits, query)
        }
    }

    /// Probes each query keyword against the build-once keyword index,
    /// returning `(terms probed, terms matched)` and bumping the
    /// cumulative metrics. `matched == 0` proves the query cannot score
    /// any object.
    pub(crate) fn keyword_stats(&self, keywords: &KeywordSet) -> (usize, usize) {
        let probed = keywords.len();
        let matched = keywords
            .iter()
            .filter(|&t| self.keyword_index.term_frequency(t) > 0)
            .count();
        self.metrics
            .keyword_probes
            .fetch_add(probed as u64, Ordering::Relaxed);
        self.metrics
            .keyword_hits
            .fetch_add(matched as u64, Ordering::Relaxed);
        (probed, matched)
    }

    /// Wraps one executed result into a typed response.
    fn respond(
        &self,
        request: &QueryRequest,
        result: SpqResult,
        plan_hit: bool,
        keywords: (usize, usize),
        started: Instant,
    ) -> QueryResponse {
        let stats = QueryStats {
            algorithm: result.algorithm,
            plan_cache_hit: plan_hit,
            shards_touched: 1,
            shuffle_records: result.stats.shuffle_records,
            shuffle_bytes: result.shuffle_bytes,
            wall_micros: started.elapsed().as_micros() as u64,
            keyword_terms_probed: keywords.0,
            keyword_terms_matched: keywords.1,
            retries: 0,
            warm_failovers: 0,
            cold_reprovisions: 0,
        };
        QueryResponse {
            results: result.top_k,
            stats,
            trace: request.options.trace.then(|| vec![result.stats]),
        }
    }

    /// A snapshot of the engine's cumulative counters: queries served,
    /// plan-cache hits/misses, keyword-index probe outcomes.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.metrics.queries.load(Ordering::Relaxed),
            plan_cache_hits: self.metrics.plan_cache_hits.load(Ordering::Relaxed),
            plan_cache_misses: self.metrics.plan_cache_misses.load(Ordering::Relaxed),
            keyword_probes: self.metrics.keyword_probes.load(Ordering::Relaxed),
            keyword_hits: self.metrics.keyword_hits.load(Ordering::Relaxed),
            ..MetricsSnapshot::default()
        }
    }
}

impl QueryExecutor for QueryEngine {
    /// The single-store request lifecycle: probe the keyword index → run
    /// (sequential for [`ExecutionMode::Sequential`], candidate-pruned
    /// for [`ExecutionMode::Coalesced`]) → wrap stats. Validation already
    /// happened on the trait's entry points.
    fn run_validated(
        &self,
        request: &QueryRequest,
        mode: ExecutionMode,
    ) -> Result<QueryResponse, SpqError> {
        let (sequential, pruned) = match mode {
            ExecutionMode::Parallel => (false, false),
            ExecutionMode::Sequential => (true, false),
            ExecutionMode::Coalesced => (false, true),
        };
        let started = Instant::now();
        let keywords = self.keyword_stats(&request.query.keywords);
        let (result, plan_hit) = if pruned {
            self.run_opts_pruned(&request.query, &request.options, sequential)?
        } else {
            self.run_opts(&request.query, &request.options, sequential)?
        };
        Ok(self.respond(request, result, plan_hit, keywords, started))
    }

    fn metrics(&self) -> MetricsSnapshot {
        QueryEngine::metrics(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DataObject;
    use spq_spatial::{Point, Rect};

    fn feature(id: u64, x: f64, y: f64, kw: &[u32]) -> FeatureObject {
        FeatureObject::new(
            id,
            Point::new(x, y),
            KeywordSet::from_ids(kw.iter().copied()),
        )
    }

    fn paper_dataset() -> SharedDataset {
        SharedDataset::new(
            vec![
                DataObject::new(1, Point::new(4.6, 4.8)),
                DataObject::new(2, Point::new(7.5, 1.7)),
                DataObject::new(3, Point::new(8.9, 5.2)),
                DataObject::new(4, Point::new(1.8, 1.8)),
                DataObject::new(5, Point::new(1.9, 9.0)),
            ],
            vec![
                feature(1, 2.8, 1.2, &[0, 1]),
                feature(2, 5.0, 3.8, &[2, 3]),
                feature(3, 8.7, 1.9, &[4, 5]),
                feature(4, 3.8, 5.5, &[0]),
                feature(5, 5.2, 5.1, &[6, 7]),
                feature(6, 7.4, 5.4, &[8, 9]),
                feature(7, 3.0, 8.1, &[0, 10]),
                feature(8, 9.5, 7.0, &[11]),
            ],
        )
    }

    fn executor() -> SpqExecutor {
        SpqExecutor::new(Rect::from_coords(0.0, 0.0, 10.0, 10.0)).grid_size(4)
    }

    fn results(engine: &QueryEngine, query: &SpqQuery) -> Vec<crate::model::RankedObject> {
        engine
            .execute(&QueryRequest::new(query.clone()))
            .unwrap()
            .results
    }

    #[test]
    fn keyword_index_posting_lists() {
        let ds = paper_dataset();
        let idx = KeywordIndex::build(ds.features());
        assert_eq!(idx.num_terms(), 12);
        // Term 0 appears on features f1, f4, f7 (indices 0, 3, 6).
        assert_eq!(idx.postings(Term(0)), &[0, 3, 6]);
        assert_eq!(idx.postings(Term(11)), &[7]);
        assert_eq!(idx.postings(Term(999)), &[] as &[u32]);
        assert_eq!(
            idx.candidates(&KeywordSet::from_ids([0, 11, 500])),
            vec![0, 3, 6, 7]
        );
        assert!(idx.candidates(&KeywordSet::from_ids([77])).is_empty());
    }

    #[test]
    fn term_frequencies_and_top_terms() {
        let ds = paper_dataset();
        let idx = KeywordIndex::build(ds.features());
        assert_eq!(idx.term_frequency(Term(0)), 3);
        assert_eq!(idx.term_frequency(Term(11)), 1);
        assert_eq!(idx.term_frequency(Term(999)), 0);
        let top = idx.top_terms(3);
        // Term 0 is on three features; every other term on exactly one,
        // so the remainder ranks by id.
        assert_eq!(top, vec![(Term(0), 3), (Term(1), 1), (Term(2), 1)]);
        assert_eq!(idx.top_terms(100).len(), 12);
        assert!(KeywordIndex::build(&[]).top_terms(5).is_empty());
    }

    #[test]
    fn from_ingested_and_dataset_stats() {
        let ds = paper_dataset();
        let engine =
            QueryEngine::from_ingested(executor(), ds.data().to_vec(), ds.features().to_vec());
        let stats = engine.dataset_stats();
        assert_eq!(stats.data_objects, 5);
        assert_eq!(stats.feature_objects, 8);
        assert_eq!(stats.term_slots, 12);
        assert_eq!(stats.distinct_terms, 12);
        assert_eq!(stats.total_keywords, 14);
        assert!((stats.mean_keywords - 14.0 / 8.0).abs() < 1e-12);
        assert_eq!(stats.max_posting, 3);
        // Same bytes as an engine built the usual way.
        let q = SpqQuery::new(2, 1.5, KeywordSet::from_ids([0]));
        let other = QueryEngine::new(executor(), ds);
        assert_eq!(results(&engine, &q), results(&other, &q));
    }

    #[test]
    fn stats_on_empty_dataset() {
        let engine = QueryEngine::from_ingested(executor(), vec![], vec![]);
        let stats = engine.dataset_stats();
        assert_eq!(stats.feature_objects, 0);
        assert_eq!(stats.mean_keywords, 0.0);
        assert_eq!(stats.max_posting, 0);
    }

    #[test]
    fn keyword_index_on_empty_features() {
        let idx = KeywordIndex::build(&[]);
        assert_eq!(idx.num_terms(), 0);
        assert!(idx.candidates(&KeywordSet::from_ids([0])).is_empty());
    }

    #[test]
    fn engine_query_matches_fresh_executor_job() {
        let exec = executor();
        let dataset = paper_dataset();
        let engine = QueryEngine::new(exec.clone(), dataset.clone());
        for (k, r, kw) in [(1, 1.5, vec![0]), (3, 1.5, vec![0]), (2, 2.5, vec![0, 4])] {
            let q = SpqQuery::new(k, r, KeywordSet::from_ids(kw));
            let fresh = exec.run_dataset(&dataset, &q).unwrap();
            let served = engine
                .execute(&QueryRequest::new(q.clone()).with_trace())
                .unwrap();
            let job = &served.trace.as_ref().unwrap()[0];
            assert_eq!(served.results, fresh.top_k);
            assert_eq!(job.counters, fresh.stats.counters);
            assert_eq!(job.shuffle_records, fresh.stats.shuffle_records);
            // Replays are stable.
            assert_eq!(results(&engine, &q), served.results);
        }
        assert_eq!(engine.cached_plans(), 2); // radii 1.5 and 2.5
    }

    #[test]
    fn batch_matches_single_queries() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let requests: Vec<QueryRequest> = [
            (1usize, 1.5, vec![0u32]),
            (3, 1.5, vec![0]),
            (2, 2.0, vec![4, 5]),
        ]
        .into_iter()
        .map(|(k, r, kw)| QueryRequest::new(SpqQuery::new(k, r, KeywordSet::from_ids(kw))))
        .collect();
        let batch = engine.execute_batch(&requests).unwrap();
        for (r, b) in requests.iter().zip(&batch) {
            assert_eq!(b.results, results(&engine, &r.query), "{}", r.query);
        }
    }

    #[test]
    fn serve_preserves_query_order_for_any_worker_count() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let requests: Vec<QueryRequest> = (1..=5)
            .map(|k| QueryRequest::new(SpqQuery::new(k, 1.5, KeywordSet::from_ids([0]))))
            .collect();
        let sequential: Vec<_> = requests
            .iter()
            .map(|r| results(&engine, &r.query))
            .collect();
        for workers in [1, 2, 8] {
            let served = engine.serve_requests(&requests, workers).unwrap();
            let got: Vec<_> = served.into_iter().map(|r| r.results).collect();
            assert_eq!(got, sequential, "workers={workers}");
        }
    }

    #[test]
    fn batch_without_pruning_still_matches() {
        let exec = executor().keyword_pruning(false);
        let dataset = paper_dataset();
        let engine = QueryEngine::new(exec.clone(), dataset.clone());
        let q = SpqQuery::new(3, 1.5, KeywordSet::from_ids([0]));
        let batch = engine
            .execute_batch(&[QueryRequest::new(q.clone())])
            .unwrap();
        assert_eq!(
            batch[0].results,
            exec.run_dataset(&dataset, &q).unwrap().top_k
        );
    }

    #[test]
    fn plan_cache_is_bounded() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        // An adversarial stream of distinct radii must not grow the cache
        // past the bound — and eviction must not disturb results.
        let q_at = |r: f64| SpqQuery::new(1, r, KeywordSet::from_ids([0]));
        let expect = results(&engine, &q_at(1.5));
        for i in 0..(MAX_CACHED_PLANS + 20) {
            let r = 1.0 + i as f64 * 1e-3;
            results(&engine, &q_at(r));
            assert!(engine.cached_plans() <= MAX_CACHED_PLANS);
        }
        assert_eq!(results(&engine, &q_at(1.5)), expect);
    }

    #[test]
    fn plan_cache_evicts_the_oldest_radius() {
        let engine = QueryEngine::new(executor(), paper_dataset());
        let radius = |i: usize| 1.0 + i as f64 * 1e-3;
        let q_at = |i: usize| SpqQuery::new(1, radius(i), KeywordSet::from_ids([0]));
        let distinct = MAX_CACHED_PLANS as u64 + 1;
        for i in 0..=MAX_CACHED_PLANS {
            results(&engine, &q_at(i));
        }
        assert_eq!(engine.metrics().plan_cache_misses, distinct);
        // The 65th radius evicted the first one and nothing else: every
        // later radius is still served from cache...
        for i in 1..=MAX_CACHED_PLANS {
            results(&engine, &q_at(i));
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.plan_cache_hits, MAX_CACHED_PLANS as u64);
        assert_eq!(metrics.plan_cache_misses, distinct);
        // ...and the first radius has to be planned again.
        results(&engine, &q_at(0));
        assert_eq!(engine.metrics().plan_cache_misses, distinct + 1);
    }

    #[test]
    #[should_panic]
    fn zero_splits_rejected() {
        let _ = QueryEngine::with_num_splits(executor(), paper_dataset(), 0);
    }
}
