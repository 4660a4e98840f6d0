//! Cross-crate property-based tests: invariants that must hold for any
//! input, spanning the pipeline, storage, and telemetry substrates.

use oda::pipeline::frame_io::{colfile_to_frame, frame_to_colfile};
use oda::pipeline::ops::{group_by, melt, pivot, sort_by_i64, Agg, AggSpec};
use oda::pipeline::window::{assign_window, window_start};
use oda::pipeline::Frame;
use oda::storage::colfile::{ColumnData, LazyTable, TableFile};
use proptest::prelude::*;
use std::sync::Arc;

/// Rebuild a frame from freshly-allocated, owned columns — the
/// anti-view: no buffer is shared with `frame`.
fn deep_copy(frame: &Frame) -> Frame {
    let cols = frame
        .names()
        .iter()
        .zip(frame.columns())
        .map(|(name, col)| {
            let owned = match col {
                ColumnData::I64(v) => ColumnData::I64(v.to_vec().into()),
                ColumnData::F64(v) => ColumnData::F64(v.to_vec().into()),
                ColumnData::Str(v) => ColumnData::Str(v.to_vec().into()),
                ColumnData::Dict { dict, codes } => {
                    ColumnData::dict(dict.as_ref().clone(), codes.to_vec())
                }
            };
            (name.clone(), owned)
        })
        .collect();
    Frame::new(cols).expect("aligned columns")
}

/// Arbitrary small long-format frame: (key, tag, value) rows.
fn long_frame_strategy() -> impl Strategy<Value = Frame> {
    (1usize..200).prop_flat_map(|rows| {
        (
            proptest::collection::vec(0i64..10, rows),
            proptest::collection::vec(0u8..4, rows),
            proptest::collection::vec(-1_000.0f64..1_000.0, rows),
        )
            .prop_map(|(keys, tags, values)| {
                Frame::new(vec![
                    ("k".into(), ColumnData::I64(keys.into())),
                    (
                        "tag".into(),
                        ColumnData::Str(tags.into_iter().map(|t| format!("t{t}")).collect()),
                    ),
                    ("v".into(), ColumnData::F64(values.into())),
                ])
                .expect("aligned columns")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sum of per-group sums equals the global sum (no rows lost or
    /// double-counted by the hash grouping).
    #[test]
    fn group_by_partitions_mass(frame in long_frame_strategy()) {
        let grouped = group_by(
            &frame,
            &["k"],
            &[AggSpec::new("v", Agg::Sum, "s"), AggSpec::new("v", Agg::Count, "n")],
        ).unwrap();
        let group_total: f64 = grouped.f64s("s").unwrap().iter().sum();
        let global: f64 = frame.f64s("v").unwrap().iter().sum();
        prop_assert!((group_total - global).abs() < 1e-6 * global.abs().max(1.0));
        let n_total: i64 = grouped.i64s("n").unwrap().iter().sum();
        prop_assert_eq!(n_total as usize, frame.rows());
    }

    /// pivot -> melt -> pivot is a fixed point.
    #[test]
    fn pivot_melt_fixed_point(frame in long_frame_strategy()) {
        let wide = pivot(&frame, &["k"], "tag", "v", Agg::Mean).unwrap();
        let long = melt(&wide, &["k"], "tag", "v").unwrap();
        let wide2 = pivot(&long, &["k"], "tag", "v", Agg::Mean).unwrap();
        // Compare cell-by-cell with NaN-tolerant equality.
        prop_assert_eq!(wide.rows(), wide2.rows());
        prop_assert_eq!(wide.names(), wide2.names());
        for name in wide.names() {
            match (wide.column(name).unwrap(), wide2.column(name).unwrap()) {
                (ColumnData::F64(a), ColumnData::F64(b)) => {
                    for (x, y) in a.iter().zip(b) {
                        prop_assert!(
                            (x.is_nan() && y.is_nan()) || (x - y).abs() < 1e-9,
                            "{} vs {}", x, y
                        );
                    }
                }
                (a, b) => prop_assert_eq!(a, b),
            }
        }
    }

    /// Frames survive the colfile round trip bit-for-bit.
    #[test]
    fn colfile_roundtrip(frame in long_frame_strategy()) {
        let bytes = frame_to_colfile(&frame).unwrap();
        let back = colfile_to_frame(bytes).unwrap();
        prop_assert_eq!(back, frame);
    }

    /// Sorting preserves multiset of rows and orders the key column.
    #[test]
    fn sort_preserves_rows(frame in long_frame_strategy()) {
        let sorted = sort_by_i64(&frame, "k").unwrap();
        prop_assert_eq!(sorted.rows(), frame.rows());
        let keys = sorted.i64s("k").unwrap();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let mut a: Vec<i64> = frame.i64s("k").unwrap().to_vec();
        let mut b: Vec<i64> = keys.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// Window assignment: every timestamp lands in the window that
    /// contains it, for any positive width.
    #[test]
    fn windows_contain_their_timestamps(
        ts in proptest::collection::vec(-1_000_000i64..1_000_000, 1..100),
        width in 1i64..100_000,
    ) {
        let frame = Frame::new(vec![("ts".into(), ColumnData::I64(ts.clone().into()))]).unwrap();
        let w = assign_window(&frame, "ts", width).unwrap();
        let windows = w.i64s("window").unwrap();
        for (t, &win) in ts.iter().zip(windows) {
            prop_assert!(win <= *t && *t < win + width, "ts {} window {} width {}", t, win, width);
            prop_assert_eq!(Some(win), window_start(*t, width));
            prop_assert_eq!(win.rem_euclid(width), 0);
        }
    }

    /// Broker FIFO: any interleaving of keyed produces preserves
    /// per-key order on consumption.
    #[test]
    fn broker_preserves_per_key_order(
        messages in proptest::collection::vec((0u8..4, 0u32..1000), 1..200),
        partitions in 1u32..6,
    ) {
        use bytes::Bytes;
        use oda::stream::{Broker, Consumer, RetentionPolicy};
        let broker = Broker::new();
        broker.create_topic("t", partitions, RetentionPolicy::unbounded()).unwrap();
        for (i, (key, val)) in messages.iter().enumerate() {
            broker.produce(
                "t",
                i as i64,
                Some(Bytes::from(format!("k{key}"))),
                Bytes::from(format!("{key}:{val}:{i}")),
            ).unwrap();
        }
        let mut consumer = Consumer::subscribe(broker, "g", "t").unwrap();
        let mut per_key_last: std::collections::HashMap<String, usize> = Default::default();
        loop {
            let recs = consumer.poll(64).unwrap();
            if recs.is_empty() { break; }
            for r in recs {
                let text = String::from_utf8(r.value.to_vec()).unwrap();
                let mut parts = text.split(':');
                let key = parts.next().unwrap().to_string();
                let _val = parts.next().unwrap();
                let seq: usize = parts.next().unwrap().parse().unwrap();
                if let Some(&last) = per_key_last.get(&key) {
                    prop_assert!(seq > last, "key {} order violated: {} after {}", key, seq, last);
                }
                per_key_last.insert(key, seq);
            }
        }
    }

    /// Any interleaving of produce / poll / commit / rewind operations
    /// across independent consumer groups keeps per-partition offsets
    /// dense, pins each key to one partition, and preserves per-key
    /// production order in every group's delivery stream.
    #[test]
    fn stream_interleavings_keep_offsets_dense_and_keys_ordered(
        ops in proptest::collection::vec((0u8..4, 0u8..3, 1usize..40), 1..150),
        partitions in 1u32..5,
    ) {
        use bytes::Bytes;
        use oda::stream::{Broker, Consumer, RetentionPolicy};
        use std::collections::HashMap;
        const GROUPS: usize = 3;
        let broker = Broker::new();
        broker.create_topic("t", partitions, RetentionPolicy::unbounded()).unwrap();
        let mut consumers: Vec<Consumer> = (0..GROUPS)
            .map(|g| Consumer::subscribe(broker.clone(), &format!("g{g}"), "t").unwrap())
            .collect();
        let mut delivered: Vec<Vec<String>> = vec![Vec::new(); GROUPS];
        let mut next_seq = [0u64; 3];
        for (sel, arg, max) in ops {
            match sel {
                0 => {
                    // Produce one keyed record; key space is 3 wide so
                    // keys collide across partitions often.
                    let k = arg as usize;
                    broker.produce(
                        "t",
                        next_seq[k] as i64,
                        Some(Bytes::from(format!("k{k}"))),
                        Bytes::from(format!("{k}:{}", next_seq[k])),
                    ).unwrap();
                    next_seq[k] += 1;
                }
                1 => {
                    let g = arg as usize;
                    for r in consumers[g].poll(max).unwrap() {
                        delivered[g].push(String::from_utf8(r.value.to_vec()).unwrap());
                    }
                }
                2 => consumers[arg as usize].commit(),
                _ => {
                    // Crash rewind: uncommitted deliveries will repeat,
                    // so restart this group's order tracking.
                    let g = arg as usize;
                    consumers[g].seek_to_committed();
                    delivered[g].clear();
                }
            }
        }
        // Dense per-partition offsets: 0..len with no holes, and no
        // group committed past the log end.
        for p in 0..partitions {
            let recs = broker.fetch("t", p, 0, usize::MAX).unwrap();
            for (i, r) in recs.iter().enumerate() {
                prop_assert_eq!(r.offset, i as u64);
            }
            for g in 0..GROUPS {
                prop_assert!(
                    broker.committed(&format!("g{g}"), "t", p) <= recs.len() as u64
                );
            }
        }
        // Each key lives on exactly one partition, in production order.
        let mut key_partition: HashMap<String, u32> = HashMap::new();
        for p in 0..partitions {
            let mut last_seq: HashMap<String, u64> = HashMap::new();
            for r in broker.fetch("t", p, 0, usize::MAX).unwrap() {
                let text = String::from_utf8(r.value.to_vec()).unwrap();
                let (key, seq) = text.split_once(':').unwrap();
                let seq: u64 = seq.parse().unwrap();
                if let Some(&prev) = key_partition.get(key) {
                    prop_assert_eq!(prev, p, "key {} split across partitions", key);
                }
                key_partition.insert(key.to_string(), p);
                if let Some(&prev) = last_seq.get(key) {
                    prop_assert!(seq > prev, "key {} log order violated", key);
                }
                last_seq.insert(key.to_string(), seq);
            }
        }
        // Per-key order holds in every group's delivery stream.
        for (g, stream) in delivered.iter().enumerate() {
            let mut last_seq: HashMap<&str, u64> = HashMap::new();
            for text in stream {
                let (key, seq) = text.split_once(':').unwrap();
                let seq: u64 = seq.parse().unwrap();
                if let Some(&prev) = last_seq.get(key) {
                    prop_assert!(
                        seq > prev,
                        "group {} saw key {} out of order", g, key
                    );
                }
                last_seq.insert(key, seq);
            }
        }
    }

    /// View-backed frames — filter/gather/concat outputs whose columns
    /// share buffers with their source — serialize through the table
    /// writer byte-identically to frames rebuilt from owned columns.
    #[test]
    fn view_backed_frames_serialize_byte_identically(
        frame in long_frame_strategy(),
        mask_bits in proptest::collection::vec(any::<bool>(), 200),
    ) {
        let mask: Vec<bool> = (0..frame.rows()).map(|i| mask_bits[i]).collect();
        let filtered = frame.filter_mask(&mask);
        let indices: Vec<usize> = (0..frame.rows()).rev().collect();
        let gathered = frame.take(&indices);
        let merged = Frame::concat(&[filtered.clone(), gathered.clone()]).unwrap();
        for view in [filtered, gathered, merged] {
            let view_bytes = frame_to_colfile(&view).unwrap();
            let owned_bytes = frame_to_colfile(&deep_copy(&view)).unwrap();
            prop_assert_eq!(view_bytes, owned_bytes);
        }
    }

    /// Lazy chunk decode returns exactly what the eager row-group read
    /// returns, while decoding strictly fewer chunks when only one of
    /// the table's columns is touched; re-reads hit the memo cache.
    #[test]
    fn lazy_decode_matches_eager_with_fewer_chunks(frame in long_frame_strategy()) {
        let bytes = frame_to_colfile(&frame).unwrap();
        let table = Arc::new(TableFile::open(bytes).unwrap());
        let lazy = LazyTable::new(Arc::clone(&table));
        let mut eager_chunks = 0u64;
        for g in 0..table.row_group_count() {
            let eager = table.read_row_group(g).unwrap();
            eager_chunks += eager.len() as u64;
            prop_assert_eq!(&lazy.column(g, 0).unwrap(), &eager[0]);
        }
        prop_assert!(
            lazy.chunks_decoded() < eager_chunks,
            "lazy decoded {} of {} chunks", lazy.chunks_decoded(), eager_chunks
        );
        let before = lazy.chunks_decoded();
        let hits = lazy.cache_hits();
        prop_assert_eq!(&lazy.column(0, 0).unwrap(), &table.read_column(0, 0).unwrap());
        prop_assert_eq!(lazy.chunks_decoded(), before);
        prop_assert_eq!(lazy.cache_hits(), hits + 1);
    }

    /// Compression round-trips arbitrary observation batches and the
    /// wire codec is total on its own output.
    #[test]
    fn observation_wire_roundtrip(
        n in 0usize..300,
        seed in 0u64..1000,
    ) {
        use oda::telemetry::{SystemModel, TelemetryGenerator};
        use oda::telemetry::record::Observation;
        let mut generator = TelemetryGenerator::new(SystemModel::tiny(), seed);
        let mut obs = Vec::new();
        while obs.len() < n {
            obs.extend(generator.next_batch().observations);
        }
        obs.truncate(n);
        let wire = Observation::encode_batch(&obs);
        let back = Observation::decode_batch(&wire).unwrap();
        prop_assert_eq!(back, obs);
        let compressed = oda::storage::compress::compress(&wire);
        prop_assert_eq!(oda::storage::compress::decompress(&compressed).unwrap(), wire);
    }
}
