//! The job runner: map → shuffle → reduce over a bounded worker pool.
//!
//! [`JobRunner::run`] executes one [`MapReduceTask`] over horizontally
//! partitioned input: every split becomes a map task, map output is
//! partitioned/grouped by the shuffle (concatenating pre-grouped
//! sub-bucket runs, sorting only the runs the task asks for), and each of
//! the task's `num_reducers()` partitions becomes a reduce task. Results
//! and counters are deterministic for a fixed task and input — the worker
//! count only changes measured durations.
//!
//! Callers that run **many jobs over the same cluster** — one job per
//! query, as `spq_core::engine::QueryEngine` does — should create one
//! [`JobContext`] and go through [`JobRunner::run_in`], which recycles
//! per-task scratch state (the [`Counters`] sets every map and reduce
//! task allocates) across jobs instead of re-allocating it per query.
//! [`JobRunner::run`] is the one-shot convenience wrapper over a fresh
//! context.
//!
//! ```
//! use spq_mapreduce::{
//!     ClusterConfig, GroupValues, JobContext, JobRunner, MapContext, MapReduceTask,
//!     ReduceContext,
//! };
//! use std::cmp::Ordering;
//!
//! /// Classic word count: natural key = the word itself.
//! struct WordCount;
//!
//! impl MapReduceTask for WordCount {
//!     type Input = String;
//!     type Key = String;
//!     type Value = u64;
//!     type Output = (String, u64);
//!
//!     fn num_reducers(&self) -> usize {
//!         2
//!     }
//!     fn map(&self, line: &String, ctx: &mut MapContext<'_, Self>) {
//!         for word in line.split_whitespace() {
//!             ctx.emit(self, word.to_owned(), 1);
//!         }
//!     }
//!     fn partition(&self, key: &String) -> usize {
//!         key.len() % 2
//!     }
//!     fn sort_cmp(&self, a: &String, b: &String) -> Ordering {
//!         a.cmp(b)
//!     }
//!     fn reduce(
//!         &self,
//!         word: &String,
//!         values: &mut GroupValues<'_, Self>,
//!         ctx: &mut ReduceContext<'_, (String, u64)>,
//!     ) {
//!         ctx.emit((word.clone(), values.map(|(_, n)| n).sum()));
//!     }
//! }
//!
//! let runner = JobRunner::new(ClusterConfig::with_workers(2));
//! let splits = vec![vec!["to be or".to_owned()], vec!["not to be".to_owned()]];
//!
//! // One-shot:
//! let out = runner.run(&WordCount, &splits).unwrap();
//! assert_eq!(out.len(), 4); // to, be, or, not
//!
//! // Job-per-query serving: reuse one context across jobs.
//! let ctx = JobContext::new();
//! for _ in 0..3 {
//!     let again = runner.run_in(&ctx, &WordCount, &splits).unwrap();
//!     assert_eq!(again.len(), out.len());
//! }
//! ```

use crate::cluster::ClusterConfig;
use crate::counters::Counters;
use crate::pool::run_tasks;
use crate::stats::{JobStats, Phase, TaskStats};
use crate::task::{GroupValues, MapContext, MapReduceTask, ReduceContext};
use parking_lot::Mutex;
use std::fmt;
use std::time::Instant;

/// Counter: reduce-group values left unconsumed by early termination.
pub const COUNTER_REDUCE_SKIPPED: &str = "reduce.records_skipped";
/// Counter: number of reduce groups processed.
pub const COUNTER_REDUCE_GROUPS: &str = "reduce.groups";

/// Error produced when a job fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// A map or reduce task panicked.
    TaskPanicked {
        /// The phase the task belonged to.
        phase: Phase,
        /// Task index within the phase.
        task_index: usize,
        /// Captured panic message.
        message: String,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TaskPanicked {
                phase,
                task_index,
                message,
            } => write!(f, "{phase} task {task_index} panicked: {message}"),
        }
    }
}

impl std::error::Error for JobError {}

/// The result of a successful job.
#[derive(Debug, Clone)]
pub struct JobOutput<O> {
    /// Outputs per reducer, in reducer order. Private so the record
    /// count cached in `num_records` can never go stale.
    per_reducer: Vec<Vec<O>>,
    /// Execution statistics.
    pub stats: JobStats,
    /// Total record count, cached at job completion so `len`/`is_empty`
    /// don't rescan `per_reducer` on every call.
    num_records: usize,
}

impl<O> JobOutput<O> {
    /// Assembles a job output from per-reducer vectors, caching the record
    /// count.
    fn from_parts(per_reducer: Vec<Vec<O>>, stats: JobStats) -> Self {
        let num_records = per_reducer.iter().map(Vec::len).sum();
        Self {
            per_reducer,
            stats,
            num_records,
        }
    }

    /// The outputs per reducer, in reducer order.
    pub fn per_reducer(&self) -> &[Vec<O>] {
        &self.per_reducer
    }

    /// Consumes the output into the per-reducer vectors (reducer order).
    pub fn into_per_reducer(self) -> Vec<Vec<O>> {
        self.per_reducer
    }

    /// Flattens the per-reducer outputs into one vector (reducer order).
    pub fn into_flat(self) -> Vec<O> {
        let mut flat = Vec::with_capacity(self.num_records);
        flat.extend(self.per_reducer.into_iter().flatten());
        flat
    }

    /// Iterates over all outputs without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &O> {
        self.per_reducer.iter().flatten()
    }

    /// Total number of output records (cached; O(1)).
    pub fn len(&self) -> usize {
        self.num_records
    }

    /// True when no reducer produced output (cached; O(1)).
    pub fn is_empty(&self) -> bool {
        self.num_records == 0
    }
}

/// Reusable scratch state for running many jobs back to back.
///
/// Every map and reduce task allocates a task-local [`Counters`] set; a
/// job-per-query workload (the engine's serve loop) would otherwise pay
/// those allocations for every single query. A `JobContext` keeps the
/// cleared counter sets of finished tasks and hands them back to the next
/// job's tasks — create it once next to the [`JobRunner`] and pass it to
/// [`JobRunner::run_in`]. Sharing one context from several threads is
/// fine: checkout/recycle go through a mutex and fall back to a fresh
/// allocation when the pool is empty.
#[derive(Debug, Default)]
pub struct JobContext {
    recycled: Mutex<Vec<Counters>>,
}

/// Upper bound on pooled counter sets; beyond this, recycled sets are
/// simply dropped (a safety valve, not a tuning knob — counter sets are a
/// few dozen bytes each).
const MAX_RECYCLED_COUNTERS: usize = 1024;

impl JobContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a cleared counter set, reusing a recycled allocation when
    /// one is available.
    pub(crate) fn checkout_counters(&self) -> Counters {
        self.recycled.lock().pop().unwrap_or_default()
    }

    /// Returns a task's counter set to the pool.
    pub(crate) fn recycle_counters(&self, mut counters: Counters) {
        counters.clear();
        let mut pool = self.recycled.lock();
        if pool.len() < MAX_RECYCLED_COUNTERS {
            pool.push(counters);
        }
    }
}

/// Executes [`MapReduceTask`]s over horizontally partitioned input on a
/// bounded in-process worker pool.
///
/// Map tasks run on at most [`ClusterConfig::workers`] threads, the
/// shuffle concatenates pre-grouped sub-bucket runs into exactly-sized
/// buffers on the submitting thread, and reduce tasks run on the pool
/// again.
///
/// The contract every job honours (it is what all of `spq-core`'s
/// byte-identity guarantees rest on):
///
/// * **Determinism** — for a fixed task and input, the returned records
///   and counters are identical across calls and across worker counts;
///   only measured durations may differ.
/// * **Output order** — [`JobOutput`] holds outputs in reducer order, with
///   each reducer's records in its emission order.
/// * **Failure** — a panicking task surfaces as [`JobError::TaskPanicked`]
///   with the phase and task index; it never tears down the caller.
#[derive(Debug, Clone, Default)]
pub struct JobRunner {
    config: ClusterConfig,
}

type MapTaskResult<T> = (
    Vec<Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>>,
    TaskStats,
    Counters,
);

/// One reducer's shuffled input — the concatenated records plus the start
/// offset of each sort run — handed off to its reduce task exactly once.
type ReduceInput<T> = (
    Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>,
    Vec<usize>,
);

/// One map task's emitted buckets, indexed `reducer * num_subs + sub`.
type MapBuckets<T> = Vec<Vec<(<T as MapReduceTask>::Key, <T as MapReduceTask>::Value)>>;

impl JobRunner {
    /// Creates a runner with the given cluster configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Self { config }
    }

    /// The configured cluster.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// Runs one job: each element of `splits` becomes a map task; each of
    /// the task's `num_reducers()` partitions becomes a reduce task.
    ///
    /// The execution is deterministic for a fixed task and input: results
    /// and statistics record-counts do not depend on the number of
    /// workers (only the measured durations do).
    ///
    /// This is the one-shot wrapper over [`run_in`](Self::run_in) with a
    /// fresh [`JobContext`]; callers running a stream of jobs should hold
    /// a context of their own so per-task scratch state is recycled.
    pub fn run<T: MapReduceTask>(
        &self,
        task: &T,
        splits: &[Vec<T::Input>],
    ) -> Result<JobOutput<T::Output>, JobError> {
        self.run_in(&JobContext::new(), task, splits)
    }

    /// [`run`](Self::run) against a reusable [`JobContext`]: identical
    /// semantics and identical (deterministic) output, but the per-task
    /// counter sets are checked out of — and recycled back into — `ctx`
    /// instead of being allocated per job.
    pub fn run_in<T: MapReduceTask>(
        &self,
        ctx: &JobContext,
        task: &T,
        splits: &[Vec<T::Input>],
    ) -> Result<JobOutput<T::Output>, JobError> {
        let num_reducers = task.num_reducers();
        assert!(num_reducers > 0, "job needs at least one reducer");
        let num_subs = task.num_subbuckets();
        assert!(num_subs > 0, "job needs at least one subbucket");
        let job_start = Instant::now();

        // ---- Map phase -------------------------------------------------
        let map_start = Instant::now();
        let map_results: Vec<MapTaskResult<T>> =
            run_tasks(self.config.workers, splits.len(), |i| {
                let t0 = Instant::now();
                let mut buckets: Vec<Vec<(T::Key, T::Value)>> =
                    (0..num_reducers * num_subs).map(|_| Vec::new()).collect();
                let mut counters = ctx.checkout_counters();
                let mut records_out = 0u64;
                let mut ctx = MapContext {
                    buckets: &mut buckets,
                    num_subbuckets: num_subs,
                    counters: &mut counters,
                    records_out: &mut records_out,
                };
                for record in &splits[i] {
                    task.map(record, &mut ctx);
                }
                let stats = TaskStats {
                    duration: t0.elapsed(),
                    records_in: splits[i].len() as u64,
                    records_out,
                };
                (buckets, stats, counters)
            })
            .map_err(|p| JobError::TaskPanicked {
                phase: Phase::Map,
                task_index: p.task_index,
                message: p.message,
            })?;
        let map_wall = map_start.elapsed();

        // ---- Shuffle: regroup map buckets by reducer --------------------
        // Each reducer's input is assembled run by run (sub-bucket order,
        // map-task order within a run) into one exactly-sized buffer, so
        // the runs arrive pre-grouped and nothing is re-allocated mid-way.
        // The deterministic concatenation order, together with the
        // deterministic per-run sort, makes the job deterministic under
        // any worker count.
        let shuffle_start = Instant::now();
        let mut counters = Counters::new();
        let mut map_tasks = Vec::with_capacity(map_results.len());
        let mut all_buckets: Vec<MapBuckets<T>> = Vec::with_capacity(map_results.len());
        let mut shuffle_records = 0u64;
        for (buckets, stats, task_counters) in map_results {
            counters.merge(&task_counters);
            ctx.recycle_counters(task_counters);
            shuffle_records += stats.records_out;
            map_tasks.push(stats);
            all_buckets.push(buckets);
        }
        let mut reducer_inputs: Vec<ReduceInput<T>> = Vec::with_capacity(num_reducers);
        for r in 0..num_reducers {
            let total: usize = all_buckets
                .iter()
                .map(|b| {
                    (0..num_subs)
                        .map(|s| b[r * num_subs + s].len())
                        .sum::<usize>()
                })
                .sum();
            let mut input = Vec::with_capacity(total);
            let mut run_starts = Vec::with_capacity(num_subs + 1);
            for sub in 0..num_subs {
                run_starts.push(input.len());
                for buckets in &mut all_buckets {
                    input.append(&mut buckets[r * num_subs + sub]);
                }
            }
            run_starts.push(input.len());
            reducer_inputs.push((input, run_starts));
        }
        let shuffle_wall = shuffle_start.elapsed();

        // ---- Reduce phase ----------------------------------------------
        // The reducer-side sort (Hadoop's merge) is attributed to the
        // reduce task's duration, as in Hadoop. Only runs the task did not
        // pre-group on the map side are sorted — for a fully sub-bucketed
        // task this phase is comparison-free.
        let reduce_start = Instant::now();
        let slots: Vec<Mutex<ReduceInput<T>>> =
            reducer_inputs.into_iter().map(Mutex::new).collect();
        let reduce_results: Vec<(Vec<T::Output>, TaskStats, Counters)> =
            run_tasks(self.config.workers, num_reducers, |r| {
                let t0 = Instant::now();
                // `run_tasks` claims each index exactly once, so this
                // moves reducer `r`'s whole input out of its slot.
                let (mut buffer, run_starts) = std::mem::take(&mut *slots[r].lock());
                let records_in = buffer.len() as u64;
                // Unstable sort: Hadoop's merge likewise leaves the order
                // of equal composite keys unspecified; pdqsort is
                // deterministic for a given input order, which the
                // map-task-ordered concatenation above fixes.
                for sub in 0..num_subs {
                    if task.subbucket_needs_sort(sub) {
                        buffer[run_starts[sub]..run_starts[sub + 1]]
                            .sort_unstable_by(|a, b| task.sort_cmp(&a.0, &b.0));
                    }
                }
                // Canary for the sub-bucket contract (task.rs): sort
                // order must never go backwards across a run boundary,
                // or grouping would split a group across runs and
                // reduce() would run on partial values. (Order *inside*
                // a run the task declared unsorted is the task's own
                // responsibility — it promised order-insensitivity.)
                #[cfg(debug_assertions)]
                for &b in run_starts.iter().take(num_subs).skip(1) {
                    if b > 0 && b < buffer.len() {
                        debug_assert!(
                            task.sort_cmp(&buffer[b - 1].0, &buffer[b].0)
                                != std::cmp::Ordering::Greater,
                            "sub-bucket contract violated: subbucket() disagrees with \
                             sort_cmp() for keys routed to reducer {r}"
                        );
                    }
                }

                let mut out = Vec::new();
                let mut task_counters = ctx.checkout_counters();
                let mut source = buffer.into_iter().peekable();
                while let Some((group_key, _)) = source.peek() {
                    let group_key = group_key.clone();
                    let mut values = GroupValues::new(task, &group_key, &mut source);
                    let mut ctx = ReduceContext {
                        out: &mut out,
                        counters: &mut task_counters,
                    };
                    task.reduce(&group_key, &mut values, &mut ctx);
                    let skipped = values.drain_remaining();
                    task_counters.add(COUNTER_REDUCE_SKIPPED, skipped);
                    task_counters.inc(COUNTER_REDUCE_GROUPS);
                }
                let stats = TaskStats {
                    duration: t0.elapsed(),
                    records_in,
                    records_out: out.len() as u64,
                };
                (out, stats, task_counters)
            })
            .map_err(|p| JobError::TaskPanicked {
                phase: Phase::Reduce,
                task_index: p.task_index,
                message: p.message,
            })?;
        let reduce_wall = reduce_start.elapsed();

        let mut per_reducer = Vec::with_capacity(num_reducers);
        let mut reduce_tasks = Vec::with_capacity(num_reducers);
        for (out, stats, task_counters) in reduce_results {
            counters.merge(&task_counters);
            ctx.recycle_counters(task_counters);
            reduce_tasks.push(stats);
            per_reducer.push(out);
        }

        Ok(JobOutput::from_parts(
            per_reducer,
            JobStats {
                map_tasks,
                reduce_tasks,
                map_wall,
                shuffle_wall,
                reduce_wall,
                total_wall: job_start.elapsed(),
                shuffle_records,
                counters,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{GroupValues, MapContext, ReduceContext};
    use std::cmp::Ordering;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    /// Classic word count: natural key = word, no secondary sort.
    struct WordCount {
        reducers: usize,
    }

    impl MapReduceTask for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;
        type Output = (String, u64);

        fn num_reducers(&self) -> usize {
            self.reducers
        }

        fn map(&self, record: &String, ctx: &mut MapContext<'_, Self>) {
            for word in record.split_whitespace() {
                ctx.emit(self, word.to_owned(), 1);
            }
        }

        fn partition(&self, key: &String) -> usize {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            (h.finish() as usize) % self.reducers
        }

        fn sort_cmp(&self, a: &String, b: &String) -> Ordering {
            a.cmp(b)
        }

        fn reduce(
            &self,
            group: &String,
            values: &mut GroupValues<'_, Self>,
            ctx: &mut ReduceContext<'_, (String, u64)>,
        ) {
            let total: u64 = values.map(|(_, v)| v).sum();
            ctx.emit((group.clone(), total));
        }
    }

    fn word_count_input() -> Vec<Vec<String>> {
        vec![
            vec!["a b a".to_owned(), "c".to_owned()],
            vec!["b a".to_owned()],
            vec![],
            vec!["c c c b".to_owned()],
        ]
    }

    fn run_word_count(workers: usize, reducers: usize) -> Vec<(String, u64)> {
        let runner = JobRunner::new(ClusterConfig::with_workers(workers));
        let mut out = runner
            .run(&WordCount { reducers }, &word_count_input())
            .unwrap()
            .into_flat();
        out.sort();
        out
    }

    #[test]
    fn word_count_is_correct() {
        let expected = vec![
            ("a".to_owned(), 3),
            ("b".to_owned(), 3),
            ("c".to_owned(), 4),
        ];
        assert_eq!(run_word_count(1, 1), expected);
        assert_eq!(run_word_count(4, 3), expected);
        assert_eq!(run_word_count(16, 8), expected);
    }

    #[test]
    fn stats_record_counts() {
        let runner = JobRunner::new(ClusterConfig::with_workers(2));
        let out = runner
            .run(&WordCount { reducers: 2 }, &word_count_input())
            .unwrap();
        assert_eq!(out.stats.map_input_records(), 4); // 4 lines
        assert_eq!(out.stats.shuffle_records, 10); // 10 words
        assert_eq!(out.stats.reduce_output_records(), 3);
        assert_eq!(out.stats.counters.get(COUNTER_REDUCE_GROUPS), 3);
        assert_eq!(out.stats.counters.get(COUNTER_REDUCE_SKIPPED), 0);
        assert_eq!(out.stats.map_tasks.len(), 4);
        assert_eq!(out.stats.reduce_tasks.len(), 2);
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
    }

    /// Secondary sort: natural key = bucket id, composite key carries a
    /// sequence number; the reducer asserts values arrive ordered and can
    /// stop early.
    struct SecondarySort {
        take: usize,
    }

    impl MapReduceTask for SecondarySort {
        type Input = (u32, i64); // (bucket, sequence)
        type Key = (u32, i64);
        type Value = i64;
        type Output = (u32, Vec<i64>);

        fn num_reducers(&self) -> usize {
            3
        }

        fn map(&self, record: &(u32, i64), ctx: &mut MapContext<'_, Self>) {
            ctx.emit(self, *record, record.1);
        }

        fn partition(&self, key: &(u32, i64)) -> usize {
            key.0 as usize % 3
        }

        fn sort_cmp(&self, a: &(u32, i64), b: &(u32, i64)) -> Ordering {
            a.0.cmp(&b.0).then(a.1.cmp(&b.1))
        }

        fn group_eq(&self, a: &(u32, i64), b: &(u32, i64)) -> bool {
            a.0 == b.0
        }

        fn reduce(
            &self,
            group: &(u32, i64),
            values: &mut GroupValues<'_, Self>,
            ctx: &mut ReduceContext<'_, (u32, Vec<i64>)>,
        ) {
            let taken: Vec<i64> = values.take(self.take).map(|(_, v)| v).collect();
            ctx.emit((group.0, taken));
        }
    }

    fn secondary_sort_input() -> Vec<Vec<(u32, i64)>> {
        vec![
            vec![(1, 5), (2, -1), (1, 3)],
            vec![(1, 9), (2, 8), (1, 1)],
            vec![(7, 0)],
        ]
    }

    #[test]
    fn values_arrive_in_secondary_sort_order() {
        let runner = JobRunner::new(ClusterConfig::with_workers(4));
        let out = runner
            .run(&SecondarySort { take: usize::MAX }, &secondary_sort_input())
            .unwrap();
        let mut flat = out.into_flat();
        flat.sort();
        assert_eq!(
            flat,
            vec![(1, vec![1, 3, 5, 9]), (2, vec![-1, 8]), (7, vec![0]),]
        );
    }

    #[test]
    fn early_termination_counts_skipped_records() {
        let runner = JobRunner::new(ClusterConfig::with_workers(4));
        let out = runner
            .run(&SecondarySort { take: 2 }, &secondary_sort_input())
            .unwrap();
        // Group 1 has 4 values (2 skipped); groups 2 and 7 fit within 2.
        assert_eq!(out.stats.counters.get(COUNTER_REDUCE_SKIPPED), 2);
        let mut flat = out.into_flat();
        flat.sort();
        assert_eq!(flat[0], (1, vec![1, 3]));
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let run = |workers| {
            let runner = JobRunner::new(ClusterConfig::with_workers(workers));
            let out = runner
                .run(&SecondarySort { take: usize::MAX }, &secondary_sort_input())
                .unwrap();
            out.into_per_reducer()
        };
        let base = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), base);
        }
    }

    /// Sub-bucketed task shaped like the SPQ jobs: one reducer per cell,
    /// tag-0 records form an unsorted run delivered before the tag-1 run,
    /// which alone is sorted by sequence.
    struct SubBucketed;

    impl MapReduceTask for SubBucketed {
        type Input = (u32, u8, i64); // (cell, tag, seq)
        type Key = (u32, u8, i64);
        type Value = i64;
        type Output = (u32, Vec<(u8, i64)>);

        fn num_reducers(&self) -> usize {
            2
        }

        fn map(&self, record: &(u32, u8, i64), ctx: &mut MapContext<'_, Self>) {
            ctx.emit(self, *record, record.2);
        }

        fn partition(&self, key: &(u32, u8, i64)) -> usize {
            key.0 as usize
        }

        fn sort_cmp(&self, a: &(u32, u8, i64), b: &(u32, u8, i64)) -> Ordering {
            a.cmp(b)
        }

        fn group_eq(&self, a: &(u32, u8, i64), b: &(u32, u8, i64)) -> bool {
            a.0 == b.0
        }

        fn num_subbuckets(&self) -> usize {
            2
        }

        fn subbucket(&self, key: &(u32, u8, i64)) -> usize {
            key.1 as usize
        }

        fn subbucket_needs_sort(&self, sub: usize) -> bool {
            sub == 1
        }

        fn reduce(
            &self,
            group: &(u32, u8, i64),
            values: &mut GroupValues<'_, Self>,
            ctx: &mut ReduceContext<'_, (u32, Vec<(u8, i64)>)>,
        ) {
            let order: Vec<(u8, i64)> = values.map(|(k, v)| (k.1, v)).collect();
            ctx.emit((group.0, order));
        }
    }

    fn subbucket_input() -> Vec<Vec<(u32, u8, i64)>> {
        vec![
            vec![(0, 1, 9), (0, 0, 5), (1, 0, 2)],
            vec![(0, 0, 3), (0, 1, 1), (1, 1, 4)],
        ]
    }

    #[test]
    fn subbucket_runs_are_pre_grouped_and_selectively_sorted() {
        let runner = JobRunner::new(ClusterConfig::sequential());
        let out = runner.run(&SubBucketed, &subbucket_input()).unwrap();
        let mut flat = out.into_flat();
        flat.sort_by_key(|(cell, _)| *cell);
        // Cell 0: tag-0 run in map-task concatenation order (5 from task 0,
        // then 3 from task 1 — NOT sorted), then the tag-1 run sorted by
        // sequence (1 before 9).
        assert_eq!(flat[0], (0, vec![(0, 5), (0, 3), (1, 1), (1, 9)]));
        assert_eq!(flat[1], (1, vec![(0, 2), (1, 4)]));
    }

    #[test]
    fn subbucketed_job_is_worker_count_invariant() {
        let run = |workers| {
            JobRunner::new(ClusterConfig::with_workers(workers))
                .run(&SubBucketed, &subbucket_input())
                .unwrap()
                .into_per_reducer()
        };
        let base = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), base);
        }
    }

    #[test]
    fn context_reuse_is_invisible_to_results() {
        let runner = JobRunner::new(ClusterConfig::with_workers(2));
        let ctx = JobContext::new();
        let fresh = runner
            .run(&WordCount { reducers: 2 }, &word_count_input())
            .unwrap();
        for round in 0..3 {
            let out = runner
                .run_in(&ctx, &WordCount { reducers: 2 }, &word_count_input())
                .unwrap();
            assert_eq!(out.per_reducer(), fresh.per_reducer(), "round {round}");
            assert_eq!(out.stats.counters, fresh.stats.counters, "round {round}");
        }
        // The pool actually holds recycled sets after a job.
        assert!(!ctx.recycled.lock().is_empty());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let runner = JobRunner::new(ClusterConfig::sequential());
        let out = runner.run(&WordCount { reducers: 4 }, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.stats.map_tasks.len(), 0);
        assert_eq!(out.stats.reduce_tasks.len(), 4);
        assert_eq!(out.stats.counters.get(COUNTER_REDUCE_GROUPS), 0);
    }

    struct PanickyMap;

    impl MapReduceTask for PanickyMap {
        type Input = u32;
        type Key = u32;
        type Value = u32;
        type Output = u32;

        fn num_reducers(&self) -> usize {
            1
        }

        fn map(&self, record: &u32, ctx: &mut MapContext<'_, Self>) {
            if *record == 13 {
                panic!("unlucky record");
            }
            ctx.emit(self, *record, *record);
        }

        fn partition(&self, _: &u32) -> usize {
            0
        }

        fn sort_cmp(&self, a: &u32, b: &u32) -> Ordering {
            a.cmp(b)
        }

        fn reduce(
            &self,
            group: &u32,
            values: &mut GroupValues<'_, Self>,
            ctx: &mut ReduceContext<'_, u32>,
        ) {
            if *group == 99 {
                panic!("bad group");
            }
            for _ in values.by_ref() {}
            ctx.emit(*group);
        }
    }

    #[test]
    fn map_panic_becomes_job_error() {
        let runner = JobRunner::new(ClusterConfig::with_workers(2));
        let err = runner
            .run(&PanickyMap, &[vec![1, 2], vec![13]])
            .unwrap_err();
        let JobError::TaskPanicked {
            phase,
            task_index,
            ref message,
        } = err;
        assert_eq!(phase, Phase::Map);
        assert_eq!(task_index, 1);
        assert!(message.contains("unlucky"));
        assert!(err.to_string().contains("map task 1"));
    }

    #[test]
    fn reduce_panic_becomes_job_error() {
        let runner = JobRunner::new(ClusterConfig::with_workers(2));
        let err = runner.run(&PanickyMap, &[vec![1, 99]]).unwrap_err();
        let JobError::TaskPanicked { phase, .. } = err;
        assert_eq!(phase, Phase::Reduce);
    }

    #[test]
    #[should_panic]
    fn zero_reducers_rejected() {
        struct NoReducers;
        impl MapReduceTask for NoReducers {
            type Input = ();
            type Key = ();
            type Value = ();
            type Output = ();
            fn num_reducers(&self) -> usize {
                0
            }
            fn map(&self, _: &(), _: &mut MapContext<'_, Self>) {}
            fn partition(&self, _: &()) -> usize {
                0
            }
            fn sort_cmp(&self, _: &(), _: &()) -> Ordering {
                Ordering::Equal
            }
            fn reduce(&self, _: &(), _: &mut GroupValues<'_, Self>, _: &mut ReduceContext<'_, ()>) {
            }
        }
        let _ = JobRunner::new(ClusterConfig::sequential()).run(&NoReducers, &[]);
    }
}
