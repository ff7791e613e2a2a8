//! The lint policy: which lints exist, which modules are sanctioned for
//! wall-clock reads, and which modules must keep serialized output
//! deterministically ordered.
//!
//! The lists live in code rather than a config file on purpose: changing
//! the determinism policy should be a reviewed source change with a
//! rationale string attached, not a drive-by edit to a dotfile. The
//! same lists are rendered into the JSON report so CI artifacts record
//! the policy a run was checked against.

/// One entry in a sanctioned-module list: a workspace-relative path
/// prefix plus the reason it is exempt.
#[derive(Debug, Clone, Copy)]
pub struct Sanctioned {
    /// Workspace-relative path prefix (`/`-separated).
    pub prefix: &'static str,
    /// Why the exemption is sound — rendered in diagnostics and docs.
    pub rationale: &'static str,
}

/// Modules allowed to read the wall clock (`Instant::now`,
/// `SystemTime::now`). Everything here routes timing exclusively into
/// metrics surfaces (latency histograms, `QueryStats::wall_micros`,
/// phase counters, bench reports) that the byte-identity checks
/// deliberately exclude; query *results* never depend on time.
pub const WALL_CLOCK_SANCTIONED: &[Sanctioned] = &[
    Sanctioned {
        prefix: "crates/bench/src",
        rationale: "the measurement harness: wall-clock readings are its output, \
                    never part of result payloads",
    },
    Sanctioned {
        prefix: "crates/core/src/engine.rs",
        rationale: "QueryStats::wall_micros only — results are computed before \
                    the clock is read",
    },
    Sanctioned {
        prefix: "crates/core/src/sharded.rs",
        rationale: "gather-phase wall time for QueryStats; result bytes are \
                    asserted identical to the single-store engine",
    },
    Sanctioned {
        prefix: "crates/core/src/remote.rs",
        rationale: "scatter wall time for QueryStats; membership is tick-driven, \
                    never wall-clock-driven",
    },
    Sanctioned {
        prefix: "crates/mapreduce/src/job.rs",
        rationale: "map/shuffle/reduce phase and per-task durations feeding \
                    JobStats/TaskStats only — records and counters never read \
                    the clock",
    },
];

/// Modules that produce serialized or wire output (12-byte gather
/// records, remote frames, `BENCH_*` JSON documents). Iterating a
/// `HashMap`/`HashSet` here can silently break the byte-identity
/// invariant, so the `determinism/unordered-iter` lint demands
/// `BTreeMap`/`BTreeSet` or an explicit sort before anything is
/// iterated.
pub const ORDERED_OUTPUT_MODULES: &[&str] = &[
    "crates/core/src/remote.rs",
    "crates/core/src/sharded.rs",
    "crates/mapreduce/src/remote",
    "crates/bench/src/matrix",
    "crates/bench/src/qps.rs",
    "crates/bench/src/trajectory.rs",
    "crates/bench/src/ingest_bench.rs",
    "crates/bench/src/backend_bench.rs",
    "crates/bench/src/figures.rs",
];

/// Bench modules that write `BENCH_*`/`BENCH_MATRIX` documents. Any
/// percentile/median/quantile helper defined here must route through
/// `criterion::stats::Sample` instead of hand-rolling rank math — the
/// first slice of the ROADMAP's legacy-bench-writer migration.
pub const BENCH_WRITER_MODULES: &[&str] = &[
    "crates/bench/src/matrix",
    "crates/bench/src/qps.rs",
    "crates/bench/src/trajectory.rs",
    "crates/bench/src/ingest_bench.rs",
    "crates/bench/src/backend_bench.rs",
    "crates/bench/src/figures.rs",
];

/// Stable lint identifiers, shared by diagnostics, suppression
/// directives, the JSON report and the docs.
pub mod lint {
    /// Wall-clock / ambient-randomness ban.
    pub const WALL_CLOCK: &str = "determinism/wall-clock";
    /// Hash-collection iteration in ordered-output modules.
    pub const UNORDERED_ITER: &str = "determinism/unordered-iter";
    /// `unwrap`/`expect`/`panic!`-family ratchet.
    pub const PANIC_RATCHET: &str = "panic/ratchet";
    /// `#[allow(...)]` without a justification comment.
    pub const ALLOW_JUSTIFICATION: &str = "hygiene/allow-justification";
    /// Hand-rolled percentile math in bench writers.
    pub const BENCH_STATS: &str = "bench/stats-discipline";

    /// Every lint this binary knows, for `--list` and the report.
    pub const ALL: &[&str] = &[
        WALL_CLOCK,
        UNORDERED_ITER,
        PANIC_RATCHET,
        ALLOW_JUSTIFICATION,
        BENCH_STATS,
    ];
}

/// True when `path` (workspace-relative, `/`-separated) falls under any
/// prefix in `list`.
pub fn path_in(path: &str, list: &[&str]) -> bool {
    list.iter()
        .any(|p| path == *p || path.starts_with(&format!("{p}/")))
}

/// Returns the sanction entry covering `path`, if any.
pub fn sanction_for(path: &str) -> Option<&'static Sanctioned> {
    WALL_CLOCK_SANCTIONED
        .iter()
        .find(|s| path == s.prefix || path.starts_with(&format!("{}/", s.prefix)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_matching_is_boundary_aware() {
        assert!(path_in("crates/bench/src/qps.rs", &["crates/bench/src"]));
        assert!(path_in("crates/bench/src", &["crates/bench/src"]));
        assert!(!path_in("crates/bench/src2/qps.rs", &["crates/bench/src"]));
    }

    #[test]
    fn sanctioned_entries_resolve() {
        assert!(sanction_for("crates/bench/src/bin/chaos.rs").is_some());
        assert!(sanction_for("crates/core/src/serve.rs").is_none());
    }
}
