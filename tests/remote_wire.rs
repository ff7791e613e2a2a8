//! Round-trip properties of the remote frame and statistics codecs.
//!
//! The remote engine's correctness argument leans on exact
//! serialization: every frame a worker sends must decode to precisely
//! what was encoded, for any content — including empty payloads and
//! payloads near the frame-size cap — and the job statistics a shard
//! ships back with its answer must survive the trip. These tests mirror
//! the `sharded::wire` round-trip style one layer down, at the frame and
//! statistics codec (`spq::mapreduce::remote`) the TCP transport
//! actually speaks.

use proptest::prelude::*;
use spq::mapreduce::remote::codec::{
    decode_counters, decode_job_stats, encode_counters, encode_job_stats, ByteReader,
};
use spq::mapreduce::remote::frame::MAGIC;
use spq::mapreduce::remote::{read_frame, write_frame, FrameError};
use spq::mapreduce::{
    ClusterConfig, Counters, GroupValues, JobRunner, JobStats, MapContext, MapReduceTask,
    ReduceContext,
};
use std::cmp::Ordering;
use std::io::Cursor;

/// Word count over string records, the canonical MapReduce shape: the
/// job whose statistics the codec is exercised with.
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
        key.len() % self.reducers
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
        ctx.emit((group.clone(), values.map(|(_, v)| v).sum()));
    }
}

fn encoded_stats(stats: &JobStats) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_job_stats(stats, &mut bytes);
    bytes
}

/// Strategy: input splits of lowercase-and-space records (what the word
/// count maps over), including empty splits and empty batches.
fn splits_strategy(max_splits: usize) -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(0u8..27, 0..12), 0..6),
        0..max_splits,
    )
    .prop_map(|splits| {
        splits
            .into_iter()
            .map(|records| {
                records
                    .into_iter()
                    .map(|bytes| {
                        bytes
                            .into_iter()
                            .map(|b| if b == 26 { ' ' } else { (b'a' + b) as char })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A frame written through a stream reads back with the same opcode
    /// and payload, for any opcode and any payload bytes.
    #[test]
    fn prop_frame_round_trips(
        opcode in 0u16..=u16::MAX,
        payload in proptest::collection::vec(0u8..=u8::MAX, 0..2048),
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, opcode, &payload).unwrap();
        let (got_op, got_payload) = read_frame(&mut Cursor::new(&stream)).unwrap();
        prop_assert_eq!(got_op, opcode);
        prop_assert_eq!(got_payload, payload);
    }

    /// Flipping a payload byte is always detected by the checksum, a torn
    /// magic is always detected, and every strict prefix of a frame reads
    /// as truncated — corruption never decodes as a valid frame.
    #[test]
    fn prop_frame_corruption_is_detected(
        opcode in 0u16..=u16::MAX,
        payload in proptest::collection::vec(0u8..=u8::MAX, 1..512),
        position in 0usize..4096,
    ) {
        let mut stream = Vec::new();
        write_frame(&mut stream, opcode, &payload).unwrap();
        let header_len = stream.len() - payload.len();

        // Corrupt one payload byte.
        let mut corrupted = stream.clone();
        let at = header_len + position % payload.len();
        corrupted[at] ^= 0x01;
        prop_assert!(matches!(
            read_frame(&mut Cursor::new(&corrupted)),
            Err(FrameError::Corrupt { .. })
        ));

        // Corrupt the magic.
        let mut bad_magic = stream.clone();
        bad_magic[0] ^= 0xFF;
        match read_frame(&mut Cursor::new(&bad_magic)) {
            Err(FrameError::BadMagic { found }) => prop_assert!(found != MAGIC),
            other => prop_assert!(false, "expected BadMagic, got {:?}", other),
        }

        // Every strict prefix is an error, not a wild read.
        let cut = position % stream.len();
        prop_assert!(read_frame(&mut Cursor::new(&stream[..cut])).is_err());
    }

    /// The statistics of a real job (per-task records, shuffle volume,
    /// counters) round-trip exactly, including jobs over empty input.
    #[test]
    fn prop_job_stats_round_trip(
        reducers in 1usize..4,
        splits in splits_strategy(4),
    ) {
        let stats = JobRunner::new(ClusterConfig::with_workers(2))
            .run(&WordCount { reducers }, &splits)
            .unwrap()
            .stats;
        let bytes = encoded_stats(&stats);
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_job_stats(&mut r).unwrap();
        prop_assert!(r.is_empty());
        prop_assert_eq!(decoded.shuffle_records, stats.shuffle_records);
        prop_assert_eq!(decoded.map_tasks.len(), stats.map_tasks.len());
        prop_assert_eq!(decoded.map_input_records(), stats.map_input_records());
        prop_assert_eq!(decoded.reduce_output_records(), stats.reduce_output_records());
        prop_assert_eq!(
            decoded.counters.iter().collect::<Vec<_>>(),
            stats.counters.iter().collect::<Vec<_>>()
        );
    }

    /// Counter sets round-trip exactly.
    #[test]
    fn prop_counters_round_trip(
        values in proptest::collection::vec(0u64..1_000_000, 0..4),
    ) {
        static NAMES: [&str; 4] = ["wire.a", "wire.b", "wire.c", "wire.d"];
        let mut counters = Counters::new();
        for (i, v) in values.iter().enumerate() {
            counters.add(NAMES[i], *v);
        }
        let mut bytes = Vec::new();
        encode_counters(&counters, &mut bytes);
        let decoded = decode_counters(&mut ByteReader::new(&bytes)).unwrap();
        prop_assert_eq!(
            decoded.iter().collect::<Vec<_>>(),
            counters.iter().collect::<Vec<_>>()
        );
    }
}

/// A payload at the upper end of what one frame realistically carries (a
/// few MiB, under the 64 MiB cap) survives the frame layer byte-for-byte.
#[test]
fn max_size_records_round_trip() {
    let payload = "x".repeat(4 << 20).into_bytes();
    let mut stream = Vec::new();
    write_frame(&mut stream, 3, &payload).unwrap();
    let (op, got) = read_frame(&mut Cursor::new(&stream)).unwrap();
    assert_eq!(op, 3);
    assert_eq!(got, payload);
}

/// Truncating encoded job statistics anywhere is a typed decode error,
/// never a panic.
#[test]
fn truncated_job_stats_are_errors() {
    let splits = vec![vec!["hello world".to_owned()], vec!["hello".to_owned()]];
    let stats = JobRunner::new(ClusterConfig::sequential())
        .run(&WordCount { reducers: 2 }, &splits)
        .unwrap()
        .stats;
    let bytes = encoded_stats(&stats);
    for cut in 0..bytes.len() {
        assert!(
            decode_job_stats(&mut ByteReader::new(&bytes[..cut])).is_err(),
            "cut={cut} decoded from truncated statistics"
        );
    }
}
