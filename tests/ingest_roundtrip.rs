//! Integration tests of the real-dump ingestion path:
//!
//! * proptest: `synthesize_dump → ingest → Vocabulary → tsv::save_with_vocab
//!   → ingest` is byte-stable (same dataset, same vocabulary, and a second
//!   save produces byte-identical files),
//! * malformed-line fixtures (bad coords, empty keywords, duplicate ids,
//!   CRLF endings) assert line-numbered errors under `Fail` and skip
//!   counters under `Skip`,
//! * a loaded dump serves every algorithm byte-identically to the
//!   in-memory path over the same objects.

use proptest::prelude::*;
use spq::data::ingest::{self, synthesize_dump_with, LineErrorKind};
use spq::data::{tsv, UniformGen};
use spq::prelude::*;
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spq-it-{}-{name}", std::process::id()))
}

struct TempFiles(Vec<PathBuf>);

impl TempFiles {
    fn path(&mut self, name: &str) -> PathBuf {
        let p = temp(name);
        self.0.push(p.clone());
        p
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        for p in &self.0 {
            std::fs::remove_file(p).ok();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full external round trip is a fixed point: ingesting a
    /// synthesized dump, saving it with its vocabulary, and re-ingesting
    /// reproduces the same dataset, the same vocabulary, and byte-stable
    /// save output.
    #[test]
    fn prop_dump_roundtrip_is_byte_stable(objects in 40usize..300, seed in 0u64..1000) {
        let flickr = seed % 2 == 0; // alternate vocabulary shapes
        let mut files = TempFiles(Vec::new());
        let tag = format!("prop-{objects}-{seed}-{flickr}");
        let d = files.path(&format!("{tag}-d.tsv"));
        let f = files.path(&format!("{tag}-f.tsv"));
        // Two generators with very different vocabulary shapes.
        if flickr {
            synthesize_dump_with(&FlickrLike, objects, seed, &d, &f).unwrap();
        } else {
            synthesize_dump_with(&UniformGen, objects, seed, &d, &f).unwrap();
        }

        let first = ingest_files(&d, &f, &IngestOptions::default()).unwrap();
        prop_assert_eq!(first.skips.total(), 0);
        prop_assert_eq!(first.objects(), objects);
        prop_assert_eq!(first.dataset.vocab_size, first.vocab.len());

        let saved = files.path(&format!("{tag}-save1.tsv"));
        tsv::save_with_vocab(&first.dataset, &first.vocab, &saved).unwrap();
        let second = ingest::ingest_combined(&saved, &IngestOptions::default()).unwrap();
        prop_assert_eq!(&second.dataset.data, &first.dataset.data);
        prop_assert_eq!(&second.dataset.features, &first.dataset.features);
        prop_assert_eq!(&second.dataset.bounds, &first.dataset.bounds);
        prop_assert_eq!(second.dataset.vocab_size, first.dataset.vocab_size);
        prop_assert_eq!(&second.vocab, &first.vocab);

        let saved_again = files.path(&format!("{tag}-save2.tsv"));
        tsv::save_with_vocab(&second.dataset, &second.vocab, &saved_again).unwrap();
        prop_assert_eq!(
            std::fs::read(&saved).unwrap(),
            std::fs::read(&saved_again).unwrap(),
            "save → ingest → save must be byte-identical"
        );
    }
}

/// One malformed-line fixture: data file, feature file, expected error
/// line, and a predicate on the expected error kind.
type MalformedCase = (
    &'static str,
    &'static str,
    usize,
    fn(&LineErrorKind) -> bool,
);

#[test]
fn malformed_fixtures_fail_with_line_numbers() {
    let mut files = TempFiles(Vec::new());
    let cases: &[MalformedCase] = &[
        // Bad coordinates, on line 2 of the data file.
        ("1\t0.1\t0.2\n2\t0.3\tnope\n", "", 2, |k| {
            matches!(k, LineErrorKind::BadCoordinate(_))
        }),
        // Non-finite coordinate.
        ("1\tNaN\t0.2\n", "", 1, |k| {
            matches!(k, LineErrorKind::BadCoordinate(_))
        }),
        // Empty keyword list on a feature line.
        ("", "9\t0.5\t0.5\t\n", 1, |k| {
            matches!(k, LineErrorKind::EmptyKeywords)
        }),
        // Duplicate id within one dataset, reported on the second line.
        ("", "9\t0.1\t0.1\ta\n9\t0.2\t0.2\tb\n", 2, |k| {
            matches!(k, LineErrorKind::DuplicateId(9))
        }),
        // Wrong field count.
        ("1\t0.5\n", "", 1, |k| {
            matches!(k, LineErrorKind::FieldCount { want: 3, got: 2 })
        }),
    ];
    for (i, (data, features, line, matcher)) in cases.iter().enumerate() {
        let d = files.path(&format!("bad-{i}-d.tsv"));
        let f = files.path(&format!("bad-{i}-f.tsv"));
        std::fs::write(&d, data).unwrap();
        std::fs::write(&f, features).unwrap();
        let err = ingest_files(&d, &f, &IngestOptions::default()).unwrap_err();
        let detail = err.line().expect("line-numbered error");
        assert_eq!(detail.line, *line, "case {i}: {err}");
        assert!(matcher(&detail.kind), "case {i}: {err}");
        // The display form names the offending file and line.
        let rendered = err.to_string();
        assert!(rendered.contains(&format!("line {line}")), "{rendered}");
    }
}

#[test]
fn lossy_skip_counts_instead_of_failing() {
    let mut files = TempFiles(Vec::new());
    let d = files.path("lossy-d.tsv");
    let f = files.path("lossy-f.tsv");
    std::fs::write(&d, "1\t0.1\t0.2\n2\t0.3\tnope\n3\t0.5\t0.6\n3\t0.7\t0.8\n").unwrap();
    std::fs::write(
        &f,
        "7\t0.5\t0.5\tcafe,bar\n8\t0.6\t0.6\t\n9\t0.7\t0.7\tbar\n",
    )
    .unwrap();
    let loaded = ingest_files(&d, &f, &IngestOptions::lossy()).unwrap();
    assert_eq!(loaded.dataset.data.len(), 2); // ids 1 and 3
    assert_eq!(loaded.dataset.features.len(), 2); // ids 7 and 9
    assert_eq!(loaded.skips.bad_lines, 1);
    assert_eq!(loaded.skips.duplicate_ids, 1);
    assert_eq!(loaded.skips.empty_keywords, 1);
    assert_eq!(loaded.skips.total(), 3);
    assert_eq!(loaded.vocab.len(), 2); // cafe, bar — skipped lines intern nothing
    assert_eq!(loaded.lines, 7);
}

#[test]
fn crlf_dumps_ingest_like_unix_dumps() {
    let mut files = TempFiles(Vec::new());
    let unix_d = files.path("crlf-unix-d.tsv");
    let unix_f = files.path("crlf-unix-f.tsv");
    let dos_d = files.path("crlf-dos-d.tsv");
    let dos_f = files.path("crlf-dos-f.tsv");
    let data = "1\t0.25\t0.5\n2\t0.75\t0.5\n";
    let features = "10\t0.5\t0.25\tpizza,sushi\n11\t0.5\t0.75\tsushi\n";
    std::fs::write(&unix_d, data).unwrap();
    std::fs::write(&unix_f, features).unwrap();
    std::fs::write(&dos_d, data.replace('\n', "\r\n")).unwrap();
    std::fs::write(&dos_f, features.replace('\n', "\r\n")).unwrap();

    let unix = ingest_files(&unix_d, &unix_f, &IngestOptions::default()).unwrap();
    let dos = ingest_files(&dos_d, &dos_f, &IngestOptions::default()).unwrap();
    assert_eq!(unix.dataset.data, dos.dataset.data);
    assert_eq!(unix.dataset.features, dos.dataset.features);
    assert_eq!(unix.vocab, dos.vocab);
    assert_eq!(dos.skips.total(), 0);
}

/// A loaded dump must answer queries byte-identically to the in-memory
/// path (a fresh executor job over the same objects), for all three
/// algorithms — the property the CI ingest gate asserts at 100k+ objects.
/// The MapReduce counters come from the response's job trace.
#[test]
fn loaded_dump_serves_all_algorithms_byte_identically() {
    let mut files = TempFiles(Vec::new());
    let d = files.path("serve-d.tsv");
    let f = files.path("serve-f.tsv");
    synthesize_dump(
        &DumpConfig {
            objects: 3000,
            seed: 23,
        },
        &d,
        &f,
    )
    .unwrap();
    let loaded = ingest_files(&d, &f, &IngestOptions::default()).unwrap();
    let bounds = loaded.dataset.bounds;
    let cell = bounds.width().max(bounds.height()) / 16.0;

    let mut stream = QueryStream::new(
        loaded.vocab.len(),
        StreamConfig {
            radius_classes: vec![cell * 0.1, cell * 0.3],
            hotspot_fraction: 0.25,
            hotspots: 2,
            seed: 3,
            ..StreamConfig::default()
        },
    );
    let queries = stream.batch(8);

    for algorithm in [Algorithm::PSpq, Algorithm::ESpqLen, Algorithm::ESpqSco] {
        let exec = SpqExecutor::new(bounds).algorithm(algorithm).grid_size(16);
        let engine = QueryEngine::from_ingested(
            exec.clone(),
            loaded.dataset.data.clone(),
            loaded.dataset.features.clone(),
        );
        let (shared, _) = loaded.dataset.to_shared_splits(8);
        for q in &queries {
            let from_engine = engine
                .execute(&QueryRequest::new(q.clone()).with_trace())
                .expect("engine query");
            let in_memory = exec.run_dataset(&shared, q).expect("fresh job");
            assert_eq!(
                from_engine.results, in_memory.top_k,
                "{algorithm}: loaded-dump path diverged on {q}"
            );
            let job = &from_engine.trace.as_ref().expect("trace requested")[0];
            assert_eq!(job.counters, in_memory.stats.counters);
        }
    }
}
