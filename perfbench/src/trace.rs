//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out when the run ends.
//!
//! The program itself carries no tracing: every span here wraps a public
//! call made from this crate (ingest, build, warm-up, one query, a plan
//! or keyword-probe replay, queue wait). A query's job phases come back
//! as durations in the response's `JobStats`, without timestamps, so they
//! are laid out as child spans back to back, ending where the query
//! ended; self times are computed from that layout.

use spq_mapreduce::JobStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is `0` for a root span; spans of one
/// request share `request` (`0` for set-up spans).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span sink. A disabled tracer records nothing and returns span id 0.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end]` under `parent`; returns the new span's id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.push(name, parent, request, self.ns(start), self.ns(end))
    }

    fn push(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Lays the jobs of one response out as child spans of `parent`, back
    /// to back and ending at `end`, each with its map, shuffle and reduce
    /// phases in order.
    pub fn jobs(&self, parent: u64, request: u64, end: Instant, jobs: &[JobStats]) {
        if !self.enabled {
            return;
        }
        let mut cursor = self.ns(end);
        for job in jobs.iter().rev() {
            let start = cursor.saturating_sub(nanos(job.total_wall));
            let id = self.push("job", parent, request, start, cursor);
            let mut t = start;
            for (name, wall) in [
                ("map", job.map_wall),
                ("shuffle", job.shuffle_wall),
                ("reduce", job.reduce_wall),
            ] {
                let end = (t + nanos(wall)).min(cursor);
                self.push(name, id, request, t, end);
                t = end;
            }
            cursor = start;
        }
    }

    /// Per span name: `(spans, mean duration ms, mean self time ms)`,
    /// where self time is a span's duration minus the part of it its
    /// children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns - s.start_ns;
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total - covered;
        }
        acc.into_iter()
            .map(|(name, (n, total, own))| {
                let n_f = n.max(1) as f64;
                (name, (n, total as f64 / n_f / 1e6, own as f64 / n_f / 1e6))
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(covered_ns(&[(0, 10)], 5, 8), 3);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let root = t.push("query", 0, 1, 0, 10_000_000);
        t.push("job", root, 1, 2_000_000, 10_000_000);
        let s = t.summary();
        assert_eq!(s["query"], (1, 10.0, 2.0));
        assert_eq!(s["job"], (1, 8.0, 8.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record("query", 0, 1, now, now), 0);
        assert!(t.summary().is_empty());
    }
}
