//! One run of one workload: write the dump, author the requests and their
//! reference answers, then [`Options::segments`] segments, each a fresh
//! set-up followed by a timed window.
//!
//! * **Set-up** (`setup_s`) is ingest of the TSV dump, `SpqService::build`
//!   and a sequential warm-up; the median over segments is reported.
//! * **Count pass**: a fixed list of traced requests on the first and the
//!   last segment's fresh service. Every per-layer count comes from it,
//!   and the two passes must agree exactly or the run fails.
//! * **Timed window**: the workload's load for its share of `--seconds`,
//!   tracing off (`--trace 0`), or on in every other segment
//!   (`--trace 1`, which reports per-layer numbers).

use crate::sys::{self, median, ms, quantile};
use crate::trace::Tracer;
use crate::workload::{Call, Load, Queries, Radii, Shape, Spec, Stream};
use spq_core::partitioning::{
    COUNTER_MAP_DUPLICATES, COUNTER_MAP_FEATURES, COUNTER_REDUCE_DISTANCE_CHECKS,
    COUNTER_REDUCE_EARLY_TERMINATIONS, COUNTER_REDUCE_FEATURES_EXAMINED,
};
use spq_core::sharded::wire;
use spq_core::{
    centralized, AdmissionConfig, AdmissionQueue, Algorithm, CellRouting, KeywordIndex, ObjectId,
    OverflowPolicy, QueryEngine, QueryExecutor, QueryRequest, QueryResponse, RankedObject,
    SharedDataset, SpqError, SpqExecutor, SpqService, Ticket,
};
use spq_data::ingest::{ingest_files, synthesize_dump_with, IngestOptions};
use spq_data::{DatasetGenerator, FlickrLike, UniformGen};
use spq_mapreduce::ClusterConfig;
use spq_spatial::Rect;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Size and length of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Overrides the workload's object count (the tiny self-check).
    pub objects: Option<usize>,
    /// Set-up plus timed window pairs the run is cut into; `setup_s` is
    /// the median of their set-ups.
    pub segments: usize,
    pub count_len: usize,
}

/// What a run prints.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub info: Vec<String>,
    pub counts: Counts,
}

/// Exact per-layer totals of one count pass.
pub type Counts = BTreeMap<String, f64>;

/// Timed closed-loop requests whose answer is checked, per second of run
/// (upper bound on the requests a fresh-radius window can reach).
const REF_RATE: f64 = 100.0;

pub fn run(spec: &'static Spec, opts: &Options) -> Result<Report, String> {
    let nproc = sys::nproc();
    let busy = spec.busy_threads();
    if busy > nproc {
        return Err(format!(
            "refusing {}: {busy} busy threads (clients x job workers) exceed nproc {nproc}",
            spec.name
        ));
    }
    let work = WorkDir::create(spec.name, opts.seed)?;
    let tracer = Tracer::new(opts.trace);
    let untraced = Tracer::new(false);

    // The dump is written before any timer starts.
    let objects = opts.objects.unwrap_or(spec.objects);
    let generator: &dyn DatasetGenerator = match spec.shape {
        Shape::Uniform => &UniformGen,
        Shape::Flickr => &FlickrLike,
    };
    synthesize_dump_with(
        generator,
        objects,
        opts.seed,
        &work.data(),
        &work.features(),
    )
    .map_err(|e| format!("writing the dump: {e}"))?;
    let prep = Prepared::new(spec, opts, &work)?;

    let mut info = vec![format!(
        "workload {} seed {} objects {objects} backend {} nproc {nproc} busy_threads {busy}",
        spec.name, opts.seed, spec.backend
    )];

    let segments = opts.segments.max(1);
    let seconds = opts.seconds / segments as f64;
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(segments);
    let mut first_counts: Option<Counts> = None;
    let mut counts = Counts::new();
    let (mut plain, mut traced) = (Window::default(), Window::default());
    let mut replay: Option<Replay> = None;
    let mut next = 0;
    let mut peaks = Vec::with_capacity(segments);
    for s in 0..segments {
        // Each segment's peak RSS starts from what is live, not from what
        // the dump, the references or an earlier service left behind.
        sys::release_free_memory();
        if !sys::reset_peak_rss() && s == 0 {
            info.push("peak RSS could not be reset; it is the whole run's".into());
        }
        let (service, times) = set_up(spec, &prep, &work, &tracer)?;
        setups.push(times);
        let counted = s == 0 || s + 1 == segments;
        if counted {
            counts = count_pass(spec, &prep, &service)?;
            match &first_counts {
                None => first_counts = Some(counts.clone()),
                Some(first) => compare_counts(first, &counts)?,
            }
        }
        // With tracing, odd segments are traced and even ones are the
        // baseline of `trace.overhead_pct`, interleaved against drift.
        let on = opts.trace && s % 2 == 1;
        let w = window(
            spec,
            &prep,
            &service,
            seconds,
            next,
            if on { &tracer } else { &untraced },
        )?;
        if let Radii::Fresh { .. } = spec.radii {
            check_fresh_radii(&prep.queries, counted, next..w.issued)?;
        }
        next = w.issued;
        info.push(w.describe());
        if on && replay.is_none() {
            replay = Some(Replay::run(&service, &w, &tracer));
        }
        if on {
            traced.absorb(w);
        } else {
            plain.absorb(w);
        }
        drop(service);
        peaks.push(sys::peak_rss_mb());
    }

    let setup_s: Vec<f64> = setups.iter().map(|t| t.total().as_secs_f64()).collect();
    let mut metrics = Vec::new();
    if !opts.trace {
        metrics.push(("qps", plain.qps(), "1/s"));
        metrics.push(("latency_p50_ms", quantile(&plain.latency_ms, 0.50), "ms"));
        metrics.push(("latency_p95_ms", quantile(&plain.latency_ms, 0.95), "ms"));
        metrics.push(("setup_s", median(&setup_s), "s"));
        metrics.push(("cpu_ms_per_query", plain.cpu_ms_per_query(), "ms"));
        metrics.push(("peak_rss_mb", median(&peaks), "MB"));
    } else {
        let replay = replay.unwrap_or_default();
        metrics = per_layer(spec, &setups, &counts, &plain, &traced, &replay, &tracer);
        metrics.push(("bench.nproc", nproc as f64, "count"));
        metrics.push(("bench.busy_threads", busy as f64, "count"));
        let path = work.trace_path();
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        info.push(format!("spans written to {}", path.display()));
        for (name, (n, total, own)) in tracer.summary() {
            info.push(format!(
                "span {name:<14} n {n:>7}  mean {total:>9.3} ms  self {own:>9.3} ms"
            ));
        }
    }
    let checked = plain.checked + traced.checked;
    info.push(format!(
        "responses checked: {checked} timed + {} count pass ({} diverged)",
        counts["checked"], counts["diverged"]
    ));
    let failed = plain.failed + traced.failed;
    Ok(Report {
        attempted: plain.attempted + traced.attempted,
        failed,
        correct: failed == 0 && counts["diverged"] == 0.0,
        metrics,
        info,
        counts,
    })
}

/// Asserts that no radius recurs on one fresh-radius service: its
/// warm-up, its count pass (when it ran one) and its timed requests all
/// drew distinct values.
fn check_fresh_radii(
    queries: &Queries,
    counted: bool,
    timed: std::ops::Range<usize>,
) -> Result<(), String> {
    let count_len = if counted { queries.count_len } else { 0 };
    let mut seen = HashSet::new();
    let all = (0..queries.warmup_len)
        .map(|i| queries.request(Stream::Warmup, i))
        .chain((0..count_len).map(|i| queries.request(Stream::Count, i)))
        .chain(timed.map(|i| queries.request(Stream::Timed, i)));
    for request in all {
        if !seen.insert(request.query.radius.to_bits()) {
            return Err(format!(
                "radius {} recurred on a fresh-radius service",
                request.query.radius
            ));
        }
    }
    Ok(())
}

/// Scratch directory inside the build directory, removed on drop.
struct WorkDir {
    dir: PathBuf,
    traces: PathBuf,
    stem: String,
}

impl WorkDir {
    fn create(workload: &str, seed: u64) -> Result<Self, String> {
        // The executable lives in <target>/release/; everything the run
        // writes stays under <target>.
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("executable has no build directory")?;
        let stem = format!("{workload}-seed{seed}");
        let dir = target
            .join("perfbench-work")
            .join(format!("{stem}-{}", std::process::id()));
        let traces = target.join("perfbench-traces");
        for d in [&dir, &traces] {
            std::fs::create_dir_all(d).map_err(|e| format!("creating {}: {e}", d.display()))?;
        }
        Ok(Self { dir, traces, stem })
    }

    fn data(&self) -> PathBuf {
        self.dir.join("data.tsv")
    }

    fn features(&self) -> PathBuf {
        self.dir.join("features.tsv")
    }

    fn trace_path(&self) -> PathBuf {
        self.traces.join(format!("{}.jsonl", self.stem))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn executor(spec: &Spec, bounds: Rect, workers: usize) -> SpqExecutor {
    SpqExecutor::new(bounds)
        .grid_size(spec.grid)
        .cluster(ClusterConfig::with_workers(workers))
}

/// Everything fixed before the first set-up: the authored requests and
/// their reference answers.
struct Prepared {
    queries: Queries,
    /// Reference answers, keyed by [`Queries::slot`].
    refs: HashMap<(Stream, usize), Vec<RankedObject>>,
    /// `KeywordIndex::candidates` sizes of the count-pass requests.
    candidates: Vec<usize>,
}

impl Prepared {
    fn new(spec: &'static Spec, opts: &Options, work: &WorkDir) -> Result<Self, String> {
        let ingested = ingest_files(&work.data(), &work.features(), &IngestOptions::default())
            .map_err(|e| format!("ingesting the dump: {e}"))?;
        let bounds = ingested.dataset.bounds;
        let cell = bounds.width().max(bounds.height()) / spec.grid as f64;
        let data = ingested.dataset.data;
        let features = ingested.dataset.features;
        let index = KeywordIndex::build(&features);
        let queries = Queries::new(spec, opts.seed, cell, &index, opts.count_len);
        let candidates = (0..opts.count_len)
            .map(|i| {
                index
                    .candidates(&queries.request(Stream::Count, i).query.keywords)
                    .len()
            })
            .collect();
        drop(index);

        // Requests whose answers are checked.
        let mut wanted: Vec<(Stream, usize)> = Vec::new();
        match spec.radii {
            Radii::Classes(_) => {
                wanted.extend((0..crate::workload::POOL).map(|i| (Stream::Timed, i)));
            }
            Radii::Fresh { .. } => {
                wanted.extend((0..opts.count_len).map(|i| (Stream::Count, i)));
                let horizon = (opts.seconds * REF_RATE).ceil() as usize;
                wanted.extend(
                    (0..horizon)
                        .filter(|&i| queries.sampled(i))
                        .map(|i| (Stream::Timed, i)),
                );
            }
        }
        let mut refs = HashMap::with_capacity(wanted.len());
        if spec.shape == Shape::Uniform {
            // The centralized grid-index oracle: exact, independent of the
            // MapReduce engine.
            for (stream, i) in wanted {
                let q = queries.request(stream, i).query;
                let answer = centralized::grid_index_topk(bounds, &data, &features, &q);
                refs.insert(queries.slot(stream, i), answer);
            }
        } else {
            // The single-store engine the other backends must match.
            let engine = QueryEngine::new(
                executor(spec, bounds, sys::nproc()),
                SharedDataset::new(data, features),
            );
            for (stream, i) in wanted {
                let answer = engine
                    .execute(&queries.request(stream, i))
                    .map_err(|e| format!("reference query failed: {e}"))?
                    .results;
                refs.insert(queries.slot(stream, i), answer);
            }
        }
        Ok(Self {
            queries,
            refs,
            candidates,
        })
    }

    fn reference(&self, stream: Stream, i: usize) -> Option<&Vec<RankedObject>> {
        self.refs.get(&self.queries.slot(stream, i))
    }
}

/// Durations of one set-up.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    ingest: Duration,
    build: Duration,
    warmup: Duration,
    objects: usize,
    provision_bytes: u64,
}

impl SetupTimes {
    fn total(&self) -> Duration {
        self.ingest + self.build + self.warmup
    }
}

fn set_up(
    spec: &Spec,
    prep: &Prepared,
    work: &WorkDir,
    tracer: &Tracer,
) -> Result<(SpqService, SetupTimes), String> {
    let t0 = Instant::now();
    let ingested = ingest_files(&work.data(), &work.features(), &IngestOptions::default())
        .map_err(|e| format!("ingesting the dump: {e}"))?;
    let t1 = Instant::now();
    let objects = ingested.objects();
    let bounds = ingested.dataset.bounds;
    let dataset = SharedDataset::new(ingested.dataset.data, ingested.dataset.features);
    let service = SpqService::build(
        executor(spec, bounds, spec.job_workers),
        dataset,
        spec.backend,
    )
    .map_err(|e| format!("building the service: {e}"))?;
    let t2 = Instant::now();
    let provision_bytes = service.remote_traffic_bytes().unwrap_or(0);
    for i in 0..prep.queries.warmup_len {
        call(spec, &service, &prep.queries.request(Stream::Warmup, i))
            .map_err(|e| format!("warm-up request {i} failed: {e}"))?;
    }
    let t3 = Instant::now();
    let root = tracer.record("setup", 0, 0, t0, t3);
    tracer.record("ingest", root, 0, t0, t1);
    tracer.record("build", root, 0, t1, t2);
    tracer.record("warmup", root, 0, t2, t3);
    Ok((
        service,
        SetupTimes {
            ingest: t1 - t0,
            build: t2 - t1,
            warmup: t3 - t2,
            objects,
            provision_bytes,
        },
    ))
}

/// One request through the workload's entry point, outside any queue.
fn call(
    spec: &Spec,
    service: &SpqService,
    request: &QueryRequest,
) -> Result<QueryResponse, SpqError> {
    match spec.load {
        Load::Closed {
            call: Call::Execute,
            ..
        } => service.execute(request),
        Load::Closed {
            call: Call::Serve, ..
        } => {
            let mut responses = service.serve_requests(std::slice::from_ref(request), 1)?;
            Ok(responses.pop().expect("one response per request"))
        }
        // The queue runs each request in the coalesced mode.
        Load::Open { .. } => {
            let mut responses = service.execute_batch(std::slice::from_ref(request))?;
            Ok(responses.pop().expect("one response per request"))
        }
    }
}

fn admission_queue<'a>(spec: &Spec, service: &'a SpqService) -> AdmissionQueue<&'a SpqService> {
    let Load::Open {
        batch_max,
        max_in_flight,
        ..
    } = spec.load
    else {
        unreachable!("admission queue on a closed-loop workload")
    };
    AdmissionQueue::new(
        service,
        AdmissionConfig::default()
            .with_max_in_flight(max_in_flight)
            .with_overflow(OverflowPolicy::Reject)
            .with_batch_max(batch_max)
            .with_batch_ticks(1),
    )
    .expect("valid admission config")
}

// ---------------------------------------------------------------------
// Count pass
// ---------------------------------------------------------------------

fn count_pass(spec: &Spec, prep: &Prepared, service: &SpqService) -> Result<Counts, String> {
    let n = prep.queries.count_len;
    let requests: Vec<QueryRequest> = (0..n)
        .map(|i| prep.queries.request(Stream::Count, i).with_trace())
        .collect();
    let before = service.metrics();
    let traffic_before = service.remote_traffic_bytes().unwrap_or(0);
    let mut c = Counts::new();
    let responses = match spec.load {
        Load::Closed { .. } => requests
            .iter()
            .map(|r| call(spec, service, r))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("count-pass request failed: {e}"))?,
        Load::Open { .. } => lockstep(spec, prep, service, &requests, &mut c)?,
    };
    let after = service.metrics();
    let add = |c: &mut Counts, key: &str, v: f64| *c.entry(key.to_owned()).or_insert(0.0) += v;
    add(&mut c, "queries", n as f64);
    add(
        &mut c,
        "plan_hits",
        (after.plan_cache_hits - before.plan_cache_hits) as f64,
    );
    add(
        &mut c,
        "plan_misses",
        (after.plan_cache_misses - before.plan_cache_misses) as f64,
    );
    add(
        &mut c,
        "retries",
        (after.remote_retries - before.remote_retries) as f64,
    );
    add(
        &mut c,
        "traffic_bytes",
        (service.remote_traffic_bytes().unwrap_or(0) - traffic_before) as f64,
    );
    add(
        &mut c,
        "candidates",
        prep.candidates.iter().sum::<usize>() as f64,
    );
    add(&mut c, "checked", 0.0);
    add(&mut c, "diverged", 0.0);
    for (i, response) in responses.iter().enumerate() {
        if let Some(expect) = prep.reference(Stream::Count, i) {
            add(&mut c, "checked", 1.0);
            if &response.results != expect {
                add(&mut c, "diverged", 1.0);
            }
        }
        add(
            &mut c,
            "shards_touched",
            response.stats.shards_touched as f64,
        );
        add(&mut c, "gather_bytes", response.stats.shuffle_bytes as f64);
        let alg = response.stats.algorithm.name();
        add(&mut c, &format!("{alg}.queries"), 1.0);
        for job in response.trace.as_deref().unwrap_or(&[]) {
            let counter = |name: &str| job.counters.get(name) as f64;
            add(&mut c, "jobs", 1.0);
            add(&mut c, "map_records_in", job.map_input_records() as f64);
            add(&mut c, "shuffle_records", job.shuffle_records as f64);
            add(
                &mut c,
                "feature_duplicates",
                counter(COUNTER_MAP_DUPLICATES),
            );
            add(&mut c, "reduce_skew", job.reduce_skew());
            add(
                &mut c,
                &format!("{alg}.examined"),
                counter(COUNTER_REDUCE_FEATURES_EXAMINED),
            );
            add(
                &mut c,
                &format!("{alg}.feature_records"),
                counter(COUNTER_MAP_FEATURES) + counter(COUNTER_MAP_DUPLICATES),
            );
            add(
                &mut c,
                &format!("{alg}.early_terminations"),
                counter(COUNTER_REDUCE_EARLY_TERMINATIONS),
            );
            add(
                &mut c,
                &format!("{alg}.distance_checks"),
                counter(COUNTER_REDUCE_DISTANCE_CHECKS),
            );
        }
    }
    Ok(c)
}

/// Drives the admission queue through the count-pass schedule on the
/// queue's manual clock alone: requests due before tick `t` are submitted,
/// then the queue ticks. Batch composition, depth and waits in ticks are
/// then a function of the schedule, not of thread timing.
fn lockstep(
    spec: &Spec,
    prep: &Prepared,
    service: &SpqService,
    requests: &[QueryRequest],
    c: &mut Counts,
) -> Result<Vec<QueryResponse>, String> {
    let Load::Open { rate_qps, tick, .. } = spec.load else {
        unreachable!("lockstep on a closed-loop workload")
    };
    let due: Vec<u64> = prep
        .queries
        .schedule(Stream::Count, requests.len(), rate_qps)
        .iter()
        .map(|d| (d.as_secs_f64() / tick.as_secs_f64()) as u64)
        .collect();
    let queue = admission_queue(spec, service);
    let mut responses: Vec<Option<QueryResponse>> = vec![None; requests.len()];
    let mut pending: VecDeque<(usize, u64, Ticket)> = VecDeque::new();
    let mut next = 0;
    let mut wait_ticks = 0u64;
    while next < requests.len() || !pending.is_empty() {
        while next < requests.len() && due[next] <= queue.now() {
            let ticket = queue
                .submit(requests[next].clone())
                .map_err(|e| format!("count-pass submit failed: {e}"))?;
            pending.push_back((next, queue.now(), ticket));
            next += 1;
        }
        queue.tick();
        for _ in 0..pending.len() {
            let (i, submitted, ticket) = pending.pop_front().expect("pending entry");
            match ticket.try_wait() {
                Ok(outcome) => {
                    wait_ticks += queue.now() - submitted;
                    responses[i] =
                        Some(outcome.map_err(|e| format!("count-pass request failed: {e}"))?);
                }
                Err(ticket) => pending.push_back((i, submitted, ticket)),
            }
        }
    }
    let stats = queue.stats();
    c.insert("serve.batches".into(), stats.coalesced_batches as f64);
    c.insert("serve.executed".into(), stats.executed as f64);
    c.insert("serve.depth_max".into(), stats.queue_depth_watermark as f64);
    c.insert("serve.rejected".into(), stats.rejected_overload as f64);
    c.insert("serve.shed".into(), stats.shed_deadline as f64);
    c.insert("serve.wait_ticks".into(), wait_ticks as f64);
    Ok(responses
        .into_iter()
        .map(|r| r.expect("every request resolved"))
        .collect())
}

fn compare_counts(first: &Counts, again: &Counts) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let keys: std::collections::BTreeSet<&String> = first.keys().chain(again.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| first.get(*k) != again.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", first.get(k), again.get(k)))
        .collect();
    Err(format!(
        "per-layer counts differ between two count passes of one seed: {}",
        diffs.join(", ")
    ))
}

// ---------------------------------------------------------------------
// Timed windows
// ---------------------------------------------------------------------

/// Per-query layer times of a traced window, summed.
#[derive(Debug, Default, Clone)]
struct Layers {
    queries: u64,
    map_ms: f64,
    shuffle_ms: f64,
    reduce_ms: f64,
    /// Wall minus the slowest job.
    other_ms: f64,
    /// Wall minus every job (the scatter is width 1 on the remote
    /// workload, so its shard jobs run back to back).
    outside_ms: f64,
    /// The first traced requests and responses, replayed afterwards.
    samples: Vec<(u64, QueryRequest, QueryResponse)>,
}

impl Layers {
    fn absorb(&mut self, other: Layers) {
        self.queries += other.queries;
        self.map_ms += other.map_ms;
        self.shuffle_ms += other.shuffle_ms;
        self.reduce_ms += other.reduce_ms;
        self.other_ms += other.other_ms;
        self.outside_ms += other.outside_ms;
        self.samples.extend(other.samples);
    }

    fn add(&mut self, wall: Duration, response: &QueryResponse) {
        let jobs = response.trace.as_deref().unwrap_or(&[]);
        let slowest = jobs.iter().map(|j| j.total_wall).max().unwrap_or_default();
        let all: Duration = jobs.iter().map(|j| j.total_wall).sum();
        self.queries += 1;
        self.map_ms += jobs.iter().map(|j| ms(j.map_wall)).sum::<f64>();
        self.shuffle_ms += jobs.iter().map(|j| ms(j.shuffle_wall)).sum::<f64>();
        self.reduce_ms += jobs.iter().map(|j| ms(j.reduce_wall)).sum::<f64>();
        self.other_ms += ms(wall.saturating_sub(slowest));
        self.outside_ms += ms(wall.saturating_sub(all));
    }
}

/// What one timed window measured.
#[derive(Debug, Default)]
struct Window {
    traced: bool,
    /// Requests started (closed loop) or scheduled (open loop).
    issued: usize,
    attempted: u64,
    completed: u64,
    failed: u64,
    checked: u64,
    latency_ms: Vec<f64>,
    /// `(cpu ms, completed)` of every window absorbed into this one.
    per_window: Vec<(f64, u64)>,
    elapsed: Duration,
    cpu: Duration,
    plan_hits: u64,
    plan_misses: u64,
    shards_touched: u64,
    threads: u64,
    sockets: u64,
    queue_wait_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    layers: Layers,
}

impl Window {
    /// Completed requests per second over the window(s).
    fn qps(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Median over windows (segments) of process CPU per completed
    /// request.
    fn cpu_ms_per_query(&self) -> f64 {
        let per: Vec<f64> = self
            .per_window
            .iter()
            .filter(|&&(_, n)| n > 0)
            .map(|&(cpu, n)| cpu / n as f64)
            .collect();
        median(&per)
    }

    /// Adds another window's samples to this one.
    fn absorb(&mut self, other: Window) {
        self.traced |= other.traced;
        self.issued = self.issued.max(other.issued);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.checked += other.checked;
        self.latency_ms.extend(other.latency_ms);
        self.per_window.extend(other.per_window);
        self.elapsed += other.elapsed;
        self.cpu += other.cpu;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.shards_touched += other.shards_touched;
        self.threads = self.threads.max(other.threads);
        self.sockets = self.sockets.max(other.sockets);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.lag_ms.extend(other.lag_ms);
        self.layers.absorb(other.layers);
    }

    fn describe(&self) -> String {
        format!(
            "{} window: {} attempted, {} completed, {} failed, {} checked in {:.3} s; \
             threads {}, sockets {}",
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.completed,
            self.failed,
            self.checked,
            self.elapsed.as_secs_f64(),
            self.threads,
            self.sockets
        )
    }
}

/// The thread and socket counts halfway through a window of `seconds`
/// that started at `start`.
fn sample_midway(start: Instant, seconds: f64) -> (u64, u64) {
    sleep_until(start + Duration::from_secs_f64(seconds / 2.0));
    (sys::threads(), sys::sockets())
}

/// Replays kept per client in a traced window.
const SAMPLES: usize = 64;

fn window(
    spec: &Spec,
    prep: &Prepared,
    service: &SpqService,
    seconds: f64,
    first: usize,
    tracer: &Tracer,
) -> Result<Window, String> {
    let before = service.metrics();
    let cpu0 = sys::process_cpu();
    let mut w = match spec.load {
        Load::Closed { clients, .. } => {
            closed(spec, prep, service, seconds, first, clients, tracer)
        }
        Load::Open { .. } => open(spec, prep, service, seconds, first, tracer),
    };
    w.cpu = sys::process_cpu().saturating_sub(cpu0);
    w.traced = tracer.enabled();
    w.per_window.push((ms(w.cpu), w.completed));
    let after = service.metrics();
    w.plan_hits = after.plan_cache_hits - before.plan_cache_hits;
    w.plan_misses = after.plan_cache_misses - before.plan_cache_misses;
    // Radius discipline: warm classes never miss; fresh radii never hit,
    // and every shard a request touches builds its plan.
    match spec.radii {
        Radii::Classes(_) if w.plan_misses != 0 => {
            return Err(format!(
                "{} timed plan misses on warmed radius classes",
                w.plan_misses
            ))
        }
        Radii::Fresh { .. } if w.plan_hits != 0 || w.plan_misses != w.shards_touched => {
            return Err(format!(
                "fresh radii: {} timed plan hits, {} misses for {} shards touched",
                w.plan_hits, w.plan_misses, w.shards_touched
            ))
        }
        _ => {}
    }
    let retries = after.remote_retries - before.remote_retries;
    if retries != 0 {
        return Err(format!("{retries} remote retries in a timed window"));
    }
    Ok(w)
}

fn closed(
    spec: &Spec,
    prep: &Prepared,
    service: &SpqService,
    seconds: f64,
    first: usize,
    clients: usize,
    tracer: &Tracer,
) -> Window {
    let next = AtomicUsize::new(first);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let traced = tracer.enabled();
    let (results, (threads, sockets)) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = Window::default();
                    let mut last = start;
                    loop {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let mut request = prep.queries.request(Stream::Timed, i);
                        if traced {
                            request = request.with_trace();
                        }
                        let t0 = Instant::now();
                        let outcome = call(spec, service, &request);
                        let t1 = Instant::now();
                        last = t1;
                        w.attempted += 1;
                        let response = match outcome {
                            Ok(response) => response,
                            Err(_) => {
                                w.failed += 1;
                                continue;
                            }
                        };
                        if let Some(expect) = prep.reference(Stream::Timed, i) {
                            w.checked += 1;
                            if &response.results != expect {
                                w.failed += 1;
                                continue;
                            }
                        }
                        w.completed += 1;
                        w.latency_ms.push(ms(t1 - t0));
                        w.shards_touched += response.stats.shards_touched as u64;
                        if traced {
                            let id = i as u64 + 1;
                            let span = tracer.record("query", 0, id, t0, t1);
                            tracer.jobs(span, id, t1, response.trace.as_deref().unwrap_or(&[]));
                            w.layers.add(t1 - t0, &response);
                            if w.layers.samples.len() < SAMPLES {
                                w.layers.samples.push((id, request, response));
                            }
                        }
                    }
                    (w, last)
                })
            })
            .collect();
        let sampled = sample_midway(start, seconds);
        let results: Vec<(Window, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, sampled)
    });
    let mut w = Window {
        issued: next.load(Ordering::Relaxed),
        threads,
        sockets,
        ..Window::default()
    };
    let mut end = start;
    for (client, last) in results {
        end = end.max(last);
        w.attempted += client.attempted;
        w.completed += client.completed;
        w.failed += client.failed;
        w.checked += client.checked;
        w.shards_touched += client.shards_touched;
        w.latency_ms.extend(client.latency_ms);
        w.layers.absorb(client.layers);
    }
    w.elapsed = end - start;
    w
}

/// A submitted request on its way to the collector.
struct Submitted {
    index: usize,
    due: Instant,
    submitted: Instant,
    ticket: Result<Ticket, SpqError>,
}

fn open(
    spec: &Spec,
    prep: &Prepared,
    service: &SpqService,
    seconds: f64,
    first: usize,
    tracer: &Tracer,
) -> Window {
    let Load::Open { rate_qps, tick, .. } = spec.load else {
        unreachable!("open loop on a closed-loop workload")
    };
    let n = (rate_qps * seconds).round() as usize;
    let schedule = prep.queries.schedule(Stream::Timed, n, rate_qps);
    let queue = admission_queue(spec, service);
    let traced = tracer.enabled();
    let generated = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Submitted>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut w = Window {
        issued: first + n,
        ..Window::default()
    };
    let mut end = start;
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_midway(start, seconds));
        // Server: ticks the manual clock at a fixed cadence until the
        // generator is done and every admitted request has resolved.
        let server = scope.spawn(|| {
            let mut next = start + tick;
            loop {
                sleep_until(next);
                next += tick;
                queue.tick();
                let s = queue.stats();
                if generated.load(Ordering::SeqCst)
                    && s.admitted == s.executed + s.failed + s.shed_deadline
                {
                    break;
                }
            }
        });
        let generator = scope.spawn(|| {
            for (j, offset) in schedule.iter().enumerate() {
                let index = first + j;
                let due = start + *offset;
                sleep_until(due);
                let submitted = Instant::now();
                let mut request = prep.queries.request(Stream::Timed, index);
                if traced {
                    request = request.with_trace();
                }
                let ticket = queue.submit(request);
                tx.send(Submitted {
                    index,
                    due,
                    submitted,
                    ticket,
                })
                .expect("collector alive");
            }
            drop(tx);
            generated.store(true, Ordering::SeqCst);
        });
        // Collector (this thread): tickets resolve in submission order.
        for s in rx.iter() {
            w.attempted += 1;
            w.lag_ms.push(ms(s.submitted - s.due));
            let outcome = s.ticket.and_then(Ticket::wait);
            let done = Instant::now();
            end = end.max(done);
            let response = match outcome {
                Ok(response) => response,
                Err(_) => {
                    w.failed += 1;
                    continue;
                }
            };
            if let Some(expect) = prep.reference(Stream::Timed, s.index) {
                w.checked += 1;
                if &response.results != expect {
                    w.failed += 1;
                    continue;
                }
            }
            let exec = Duration::from_micros(response.stats.wall_micros);
            let started = done.checked_sub(exec).unwrap_or(done).max(s.submitted);
            w.completed += 1;
            w.latency_ms.push(ms(done - s.due));
            w.queue_wait_ms.push(ms(started - s.submitted));
            if traced {
                let id = s.index as u64 + 1;
                let root = tracer.record("request", 0, id, s.due, done);
                tracer.record("queue_wait", root, id, s.submitted, started);
                let span = tracer.record("query", root, id, started, done);
                tracer.jobs(span, id, done, response.trace.as_deref().unwrap_or(&[]));
                w.layers.add(done - started, &response);
                if w.layers.samples.len() < SAMPLES {
                    let request = prep.queries.request(Stream::Timed, s.index);
                    w.layers.samples.push((id, request, response));
                }
            }
        }
        generator.join().expect("generator thread panicked");
        server.join().expect("server thread panicked");
        (w.threads, w.sockets) = sampler.join().expect("sampler thread panicked");
    });
    w.elapsed = end - start;
    w
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

// ---------------------------------------------------------------------
// Replays and per-layer metrics
// ---------------------------------------------------------------------

/// Times of public calls replayed outside the service after the traced
/// window, for the layers whose work the service does not report.
#[derive(Debug, Default)]
struct Replay {
    /// `plan_partition_shared` + `CellRouting::build`, ms per plan.
    plan_ms: f64,
    /// `KeywordIndex::candidates`, µs per query.
    probe_us: f64,
    /// Gather decode + `merge_top_k`, µs per query.
    merge_us: f64,
}

impl Replay {
    fn run(service: &SpqService, w: &Window, tracer: &Tracer) -> Self {
        let samples: Vec<&(u64, QueryRequest, QueryResponse)> =
            w.layers.samples.iter().take(SAMPLES).collect();
        let mut r = Replay::default();
        if samples.is_empty() {
            return r;
        }
        let (dataset, shards, exec) = match service {
            SpqService::Local(e) => (e.dataset().clone(), 1, e.executor().clone()),
            SpqService::Sharded(e) => (e.dataset().clone(), e.num_shards(), e.executor().clone()),
            SpqService::Remote(e) => (e.dataset().clone(), e.num_shards(), e.executor().clone()),
        };

        // Plan builds, only where the timed window built plans.
        if w.plan_misses > 0 {
            let data = dataset.data();
            let shard_sets: Vec<(SharedDataset, Vec<Vec<spq_core::ObjectRef>>)> = (0..shards)
                .map(|s| {
                    let slice = &data[s * data.len() / shards..(s + 1) * data.len() / shards];
                    let ds =
                        SharedDataset::with_shared_features(slice.to_vec(), dataset.features_arc());
                    let splits = ds.ref_splits(spq_core::engine::DEFAULT_NUM_SPLITS);
                    (ds, splits)
                })
                .collect();
            let mut total = Duration::ZERO;
            let mut plans = 0u32;
            for (id, request, _) in &samples {
                for (ds, splits) in &shard_sets {
                    let t0 = Instant::now();
                    let partition = exec.plan_partition_shared(&request.query, ds, splits);
                    let routing = CellRouting::build(&partition, ds, request.query.radius);
                    let t1 = Instant::now();
                    std::hint::black_box(routing);
                    tracer.record("plan_replay", 0, *id, t0, t1);
                    total += t1 - t0;
                    plans += 1;
                }
            }
            r.plan_ms = ms(total) / plans.max(1) as f64;
        }

        // Keyword probes against the build-once index.
        let owned;
        let index = match service {
            SpqService::Local(e) => e.keyword_index(),
            _ => {
                owned = KeywordIndex::build(dataset.features());
                &owned
            }
        };
        let mut total = Duration::ZERO;
        for (id, request, _) in &samples {
            let t0 = Instant::now();
            std::hint::black_box(index.candidates(&request.query.keywords));
            let t1 = Instant::now();
            tracer.record("keyword_probe", 0, *id, t0, t1);
            total += t1 - t0;
        }
        r.probe_us = ms(total) * 1e3 / samples.len() as f64;

        // Gather decode and merge of a buffer the size of the response's.
        if matches!(service, SpqService::Remote(_) | SpqService::Sharded(_)) {
            let id_to_index: HashMap<ObjectId, u32> = dataset
                .data()
                .iter()
                .enumerate()
                .map(|(i, o)| (o.id, i as u32))
                .collect();
            let mut total = Duration::ZERO;
            for (id, request, response) in &samples {
                let records = response.stats.shuffle_records as usize;
                let gathered: Vec<RankedObject> = response
                    .results
                    .iter()
                    .cycle()
                    .take(records)
                    .copied()
                    .collect();
                let bytes = wire::encode_results(&gathered, &id_to_index);
                let t0 = Instant::now();
                let flat = wire::decode_results(&bytes, dataset.data());
                std::hint::black_box(spq_core::merge::merge_top_k(flat, request.query.k));
                let t1 = Instant::now();
                tracer.record("merge_replay", 0, *id, t0, t1);
                total += t1 - t0;
            }
            r.merge_us = ms(total) * 1e3 / samples.len() as f64;
        }
        r
    }
}

fn per_layer(
    spec: &Spec,
    setups: &[SetupTimes],
    c: &Counts,
    plain: &Window,
    traced: &Window,
    replay: &Replay,
    tracer: &Tracer,
) -> Vec<(&'static str, f64, &'static str)> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let queries = get("queries");
    let jobs = get("jobs");
    let med = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let l = &traced.layers;
    let lq = l.queries.max(1) as f64;
    let remote = matches!(spec.backend, spq_core::Backend::Remote { .. });
    let open = matches!(spec.load, Load::Open { .. });
    let spans = tracer.summary();
    let self_ms = |name: &str| spans.get(name).map_or(0.0, |s| s.2);

    let mut m: Vec<(&'static str, f64, &'static str)> = vec![
        ("ingest.s", med(&|t| t.ingest.as_secs_f64()), "s"),
        (
            "ingest.objects_per_s",
            med(&|t| t.objects as f64 / t.ingest.as_secs_f64().max(1e-9)),
            "1/s",
        ),
        ("build.s", med(&|t| t.build.as_secs_f64()), "s"),
        ("build.warmup_s", med(&|t| t.warmup.as_secs_f64()), "s"),
        (
            "remote.provision_bytes",
            med(&|t| t.provision_bytes as f64),
            "bytes",
        ),
        ("plan.misses", get("plan_misses"), "count"),
        ("plan.hits", get("plan_hits"), "count"),
        (
            "plan.build_ms",
            replay.plan_ms * per(traced.plan_misses as f64, traced.completed as f64),
            "ms",
        ),
        (
            "keyword.candidates_per_query",
            per(get("candidates"), queries),
            "count",
        ),
        ("keyword.probe_us", replay.probe_us, "us"),
        ("job.map_ms", l.map_ms / lq, "ms"),
        ("job.shuffle_ms", l.shuffle_ms / lq, "ms"),
        ("job.reduce_ms", l.reduce_ms / lq, "ms"),
        ("job.other_ms", l.other_ms / lq, "ms"),
        (
            "job.map_records_in",
            per(get("map_records_in"), queries),
            "count",
        ),
        (
            "job.shuffle_records",
            per(get("shuffle_records"), queries),
            "count",
        ),
        (
            "job.feature_duplicates",
            per(get("feature_duplicates"), queries),
            "count",
        ),
        ("job.reduce_skew", per(get("reduce_skew"), jobs), "ratio"),
    ];
    for alg in Algorithm::ALL {
        let a = alg.name();
        let n = get(&format!("{a}.queries"));
        let examined = get(&format!("{a}.examined"));
        let (fe, sh, et, dc) = ALGO_METRICS[alg as usize];
        m.push((fe, per(examined, n), "count"));
        m.push((
            sh,
            per(examined, get(&format!("{a}.feature_records"))),
            "ratio",
        ));
        m.push((et, per(get(&format!("{a}.early_terminations")), n), "count"));
        m.push((dc, per(get(&format!("{a}.distance_checks")), n), "count"));
    }
    m.extend([
        (
            "remote.bytes_per_query",
            if remote {
                per(get("traffic_bytes"), queries)
            } else {
                0.0
            },
            "bytes",
        ),
        (
            "gather.bytes_per_query",
            if remote {
                per(get("gather_bytes"), queries)
            } else {
                0.0
            },
            "bytes",
        ),
        ("gather.merge_us", replay.merge_us, "us"),
        (
            "remote.transport_ms",
            if remote { l.outside_ms / lq } else { 0.0 },
            "ms",
        ),
        ("remote.retries", get("retries"), "count"),
        (
            "serve.queue_wait_p50_ms",
            quantile(&traced.queue_wait_ms, 0.50),
            "ms",
        ),
        (
            "serve.queue_wait_p95_ms",
            quantile(&traced.queue_wait_ms, 0.95),
            "ms",
        ),
        (
            "serve.queue_wait_ticks",
            per(get("serve.wait_ticks"), queries),
            "ticks",
        ),
        (
            "serve.batch_size_mean",
            per(get("serve.executed"), get("serve.batches")),
            "count",
        ),
        ("serve.queue_depth_max", get("serve.depth_max"), "count"),
        ("serve.rejected", get("serve.rejected"), "count"),
        ("serve.shed", get("serve.shed"), "count"),
        (
            "bench.generator_lag_ms",
            quantile(&traced.lag_ms, 0.95),
            "ms",
        ),
        ("bench.threads", traced.threads as f64, "count"),
        ("bench.connections", traced.sockets as f64, "count"),
        (
            "bench.responses_checked",
            (plain.checked + traced.checked) as f64 + get("checked"),
            "count",
        ),
        (
            "trace.overhead_pct",
            if open {
                (per(traced.cpu_ms_per_query(), plain.cpu_ms_per_query()) - 1.0) * 100.0
            } else {
                (per(plain.qps(), traced.qps()) - 1.0) * 100.0
            },
            "%",
        ),
        ("self.query_ms", self_ms("query"), "ms"),
        ("self.job_ms", self_ms("job"), "ms"),
    ]);
    m
}

const ALGO_METRICS: [(&str, &str, &str, &str); 3] = [
    (
        "algo.pSPQ.features_examined",
        "algo.pSPQ.examined_share",
        "algo.pSPQ.early_terminations",
        "algo.pSPQ.distance_checks",
    ),
    (
        "algo.eSPQlen.features_examined",
        "algo.eSPQlen.examined_share",
        "algo.eSPQlen.early_terminations",
        "algo.eSPQlen.distance_checks",
    ),
    (
        "algo.eSPQsco.features_examined",
        "algo.eSPQsco.examined_share",
        "algo.eSPQsco.early_terminations",
        "algo.eSPQsco.distance_checks",
    ),
];
