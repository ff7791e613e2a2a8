//! The three workloads, and the queries each one sends.
//!
//! Every query is a pure function of `(seed, stream, index)`, so two runs
//! of one seed send the same requests and the count pass repeats exactly.
//! Keywords are authored against the ingested vocabulary: Zipf rank `r`
//! maps to entry `r` of [`KeywordIndex::top_terms`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spq_core::{Algorithm, Backend, KeywordIndex, QueryRequest, SpqQuery};
use spq_text::{KeywordSet, Zipf};
use std::time::Duration;

/// Which generator writes the workload's TSV dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's UN: uniform locations, 10-100 uniform keywords.
    Uniform,
    /// Flickr-shaped: hotspot geography, Zipf vocabulary of 34,716 terms.
    Flickr,
}

/// How a workload picks query radii, as percentages of a grid cell side.
#[derive(Debug, Clone, Copy)]
pub enum Radii {
    /// A few recurring classes, all warmed before the timer starts, so
    /// every timed plan lookup hits.
    Classes(&'static [f64]),
    /// A radius never used before on the service, drawn from a narrow
    /// band, so every timed plan lookup misses and every built plan costs
    /// about the same.
    Fresh { lo_pct: f64, hi_pct: f64 },
}

/// How requests reach the service.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `clients` threads, each sending its next request when the previous
    /// one returns.
    Closed { clients: usize, call: Call },
    /// One generator thread submitting to an `AdmissionQueue` on a seeded
    /// Poisson schedule, one server thread ticking the queue.
    Open {
        rate_qps: f64,
        tick: Duration,
        batch_max: usize,
        max_in_flight: usize,
    },
}

/// The entry point a closed-loop client calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `QueryExecutor::execute` (parallel mode).
    Execute,
    /// `QueryExecutor::serve_requests` with one request and one worker
    /// (sequential mode).
    Serve,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub shape: Shape,
    /// Objects in the dump, half data and half features.
    pub objects: usize,
    /// Grid cells per axis.
    pub grid: u32,
    pub backend: Backend,
    /// Worker threads of one MapReduce job.
    pub job_workers: usize,
    pub radii: Radii,
    pub load: Load,
}

impl Spec {
    /// Threads that can be runnable at once: a waiting client or queue
    /// server is blocked while its job's workers run.
    pub fn busy_threads(&self) -> usize {
        match self.load {
            Load::Closed { clients, .. } => clients * self.job_workers,
            Load::Open { .. } => self.job_workers,
        }
    }
}

/// Radius classes of the local workloads, % of a cell side.
const CLASSES: &[f64] = &[5.0, 10.0, 25.0];

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "uniform-hot",
        shape: Shape::Uniform,
        objects: 120_000,
        grid: 15,
        backend: Backend::Local,
        job_workers: 2,
        radii: Radii::Classes(CLASSES),
        load: Load::Closed {
            clients: 1,
            call: Call::Execute,
        },
    },
    Spec {
        name: "flickr-remote-cold",
        shape: Shape::Flickr,
        objects: 40_000,
        grid: 50,
        backend: Backend::Remote { workers: 2 },
        job_workers: 1,
        radii: Radii::Fresh {
            lo_pct: 9.0,
            hi_pct: 11.0,
        },
        load: Load::Closed {
            clients: 2,
            call: Call::Serve,
        },
    },
    Spec {
        name: "flickr-admission",
        shape: Shape::Flickr,
        objects: 40_000,
        grid: 50,
        backend: Backend::Local,
        job_workers: 1,
        radii: Radii::Classes(CLASSES),
        load: Load::Open {
            rate_qps: 16.0,
            tick: Duration::from_millis(10),
            batch_max: 8,
            max_in_flight: 64,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Results per query.
pub const K: usize = 10;
/// Keywords per query.
pub const KEYWORDS: usize = 3;
/// Distinct queries a class-radius workload cycles through in its timed
/// window; each one's reference answer is computed before the timer.
pub const POOL: usize = 54;

/// The request streams of one run. Indices are per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    Warmup,
    Count,
    Timed,
}

/// Authors the requests of one workload and seed.
#[derive(Debug)]
pub struct Queries {
    spec: &'static Spec,
    seed: u64,
    cell: f64,
    /// Ingested term ids by descending frequency.
    terms: Vec<u32>,
    zipf: Zipf,
    pub warmup_len: usize,
    pub count_len: usize,
}

impl Queries {
    pub fn new(
        spec: &'static Spec,
        seed: u64,
        cell: f64,
        index: &KeywordIndex,
        count_len: usize,
    ) -> Self {
        let terms: Vec<u32> = index
            .top_terms(index.num_terms())
            .into_iter()
            .map(|(t, _)| t.0)
            .collect();
        assert!(
            terms.len() >= KEYWORDS,
            "vocabulary too small for {KEYWORDS} keywords"
        );
        let zipf = Zipf::new(terms.len(), 1.0);
        let warmup_len = match spec.radii {
            // Every (algorithm, radius class) pair, twice.
            Radii::Classes(classes) => 2 * Algorithm::ALL.len() * classes.len(),
            Radii::Fresh { .. } => 2 * Algorithm::ALL.len(),
        };
        Self {
            spec,
            seed,
            cell,
            terms,
            zipf,
            warmup_len,
            count_len,
        }
    }

    /// The distinct query behind request `i` of `stream`: class-radius
    /// workloads cycle their timed and count requests through the same
    /// [`POOL`] queries.
    pub fn slot(&self, stream: Stream, i: usize) -> (Stream, usize) {
        match (self.spec.radii, stream) {
            (Radii::Classes(_), Stream::Timed | Stream::Count) => (Stream::Timed, i % POOL),
            _ => (stream, i),
        }
    }

    /// Request `i` of `stream`.
    pub fn request(&self, stream: Stream, i: usize) -> QueryRequest {
        let (folded, i) = self.slot(stream, i);
        let algorithm = Algorithm::ALL[i % Algorithm::ALL.len()];
        let radius = match self.spec.radii {
            Radii::Classes(classes) => {
                self.cell * classes[(i / Algorithm::ALL.len()) % classes.len()] / 100.0
            }
            Radii::Fresh { lo_pct, hi_pct } => {
                // Each service sees warm-up, count and timed requests in
                // that order; they take consecutive slots of one
                // low-discrepancy sequence, so no radius recurs.
                let slot = match stream {
                    Stream::Warmup => i,
                    Stream::Count => self.warmup_len + i,
                    Stream::Timed => self.warmup_len + self.count_len + i,
                };
                let frac = ((slot as f64 + 1.0) * 0.618_033_988_749_894_9).fract();
                self.cell * (lo_pct + (hi_pct - lo_pct) * frac) / 100.0
            }
        };
        let mut rng = self.rng(folded as u64, i as u64);
        let ranks = self.zipf.sample_distinct(&mut rng, KEYWORDS);
        let keywords = KeywordSet::from_ids(ranks.into_iter().map(|r| self.terms[r]));
        QueryRequest::new(SpqQuery::new(K, radius, keywords)).with_algorithm(algorithm)
    }

    fn rng(&self, stream: u64, i: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Arrival offsets of `n` requests of a Poisson process with rate
    /// `rate_qps`, conditioned on `n` arrivals in `n / rate_qps` seconds
    /// (sorted uniform draws), so the offered rate is the same on every
    /// seed.
    pub fn schedule(&self, stream: Stream, n: usize, rate_qps: f64) -> Vec<Duration> {
        let mut rng = self.rng(10 + stream as u64, 0);
        let span = n as f64 / rate_qps;
        let mut due: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * span).collect();
        due.sort_by(f64::total_cmp);
        due.into_iter().map(Duration::from_secs_f64).collect()
    }

    /// Whether timed request `i` of a fresh-radius workload has its
    /// answer checked (a seeded one-in-ten sample: the reference costs
    /// as much as the query).
    pub fn sampled(&self, i: usize) -> bool {
        self.rng(20, i as u64).gen_range(0..10u32) == 0
    }
}
