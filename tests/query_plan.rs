//! Logical query plan: pushdown equivalence and the explain golden.
//!
//! The planner's contract is "same bytes, less work": a planned scan
//! with row-group pruning and secondary indexes must return a frame
//! byte-identical to a naive full scan + filter, while decoding
//! strictly fewer column chunks. An index section that does not match
//! its file fails the scan instead of bending the answer. The explain
//! golden pins the optimized plan shape; on drift the actual render is
//! written to `target/query-explain-actual.txt` so CI can upload it for
//! diffing.

mod common;

use std::sync::Arc;

use oda::obs::{Registry, TraceEventKind, Tracer};
use oda::pipeline::frame_io::frame_to_colfile;
use oda::pipeline::logical::{ExecContext, Query};
use oda::pipeline::ops::{Agg, AggSpec};
use oda::pipeline::PipelineError;
use oda::pipeline::{Expr, Frame};
use oda::storage::colfile::{ColumnData, ColumnType, TableFile, TableSchema, TableWriter};
use oda::storage::compress::compress;
use oda::storage::{ColumnIndex, StorageError};
use proptest::prelude::*;

const TAGS: [&str; 4] = ["t0", "t1", "t2", "t3"];
const GROUP_ROWS: usize = 16;

/// Write `(ts, sensor, v)` rows into an indexed colfile, `GROUP_ROWS`
/// rows per row group; ts ascends globally so later thresholds prune
/// earlier groups.
fn build_table(tags: &[u8], values: &[f64]) -> Arc<TableFile> {
    Arc::new(TableFile::open(table_bytes(tags, values)).unwrap())
}

fn table_bytes(tags: &[u8], values: &[f64]) -> Vec<u8> {
    let schema = TableSchema::new(&[
        ("ts", ColumnType::I64),
        ("sensor", ColumnType::Dict),
        ("v", ColumnType::F64),
    ]);
    let mut w = TableWriter::new(schema);
    w.index_column("sensor").unwrap();
    for (g, chunk) in tags.chunks(GROUP_ROWS).enumerate() {
        let base = g * GROUP_ROWS;
        let ts: Vec<i64> = (0..chunk.len())
            .map(|r| ((base + r) * 100) as i64)
            .collect();
        let dict: Vec<String> = TAGS.iter().map(|t| t.to_string()).collect();
        let codes: Vec<u32> = chunk.iter().map(|&t| u32::from(t)).collect();
        let v = values[base..base + chunk.len()].to_vec();
        w.write_row_group(&[
            ColumnData::I64(ts.into()),
            ColumnData::dict(dict, codes),
            ColumnData::F64(v.into()),
        ])
        .unwrap();
    }
    w.finish()
}

/// Naive comparator: decode every row group, then filter in memory.
fn full_scan(table: &TableFile) -> Frame {
    let mut parts = Vec::new();
    for g in 0..table.row_group_count() {
        let cols = table.read_row_group(g).unwrap();
        let named: Vec<(String, ColumnData)> = table
            .schema()
            .columns
            .iter()
            .zip(cols)
            .map(|((n, _), c)| (n.clone(), c))
            .collect();
        parts.push(Frame::new(named).unwrap());
    }
    Frame::concat(&parts).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned scans return frames byte-identical to a naive full scan
    /// while decoding strictly fewer chunks (the first row group is
    /// always stats-pruned by construction).
    #[test]
    fn pushdown_equivalence(
        groups in 2usize..7,
        seed in proptest::collection::vec((0u8..4, -100.0f64..100.0), 7 * GROUP_ROWS),
        threshold_row in GROUP_ROWS..7 * GROUP_ROWS + 1,
        tag in 0usize..TAGS.len() + 1,
        project in any::<bool>(),
    ) {
        let rows = groups * GROUP_ROWS;
        let tags: Vec<u8> = seed.iter().take(rows).map(|(t, _)| *t).collect();
        let values: Vec<f64> = seed.iter().take(rows).map(|(_, v)| *v).collect();
        let table = build_table(&tags, &values);

        // ts >= threshold excludes at least row group 0; "t4" matches
        // nothing and exercises full index pruning.
        let threshold = (threshold_row.min(rows) * 100) as i64;
        let tag = TAGS.get(tag).copied().unwrap_or("t4");
        let pred = Expr::col("ts")
            .ge(Expr::LitI(threshold))
            .and(Expr::col("sensor").eq_(Expr::LitS(tag.into())));

        let naive = {
            let f = full_scan(&table);
            let mask = pred.eval_mask(&f).unwrap();
            let f = f.filter_mask(&mask);
            if project { f.select(&["ts", "v"]).unwrap() } else { f }
        };
        let mut q = Query::scan_table(Arc::clone(&table)).filter(pred);
        if project {
            q = q.select(&["ts", "v"]);
        }
        let (planned, stats) = q.execute_with(&ExecContext::named("prop")).unwrap();

        prop_assert_eq!(&planned, &naive);
        prop_assert_eq!(
            frame_to_colfile(&planned).unwrap(),
            frame_to_colfile(&naive).unwrap(),
            "planned and naive frames must serialize byte-identically"
        );
        let full_chunks = (groups * table.schema().columns.len()) as u64;
        prop_assert!(
            stats.chunks_read < full_chunks,
            "planned scan read {} of {} chunks",
            stats.chunks_read,
            full_chunks
        );
    }

    /// A Fig. 4-b clause list executes byte-identically through the
    /// optimiser and through the node-by-node timed path.
    #[test]
    fn lowering_preserves_bytes(
        seed in proptest::collection::vec((0u8..2, -50.0f64..50.0), 40..120),
    ) {
        let rows = seed.len();
        let bronze = Frame::new(vec![
            ("ts".into(), ColumnData::I64((0..rows as i64).map(|i| i * 500).collect())),
            ("node".into(), ColumnData::I64((0..rows as i64).map(|i| i % 3).collect())),
            (
                "sensor".into(),
                ColumnData::Str(seed.iter().map(|(t, _)| format!("s{t}")).collect()),
            ),
            ("value".into(), ColumnData::F64(seed.iter().map(|(_, v)| *v).collect())),
        ])
        .unwrap();
        let context = Frame::new(vec![
            ("node".into(), ColumnData::I64(vec![0, 1, 2].into())),
            ("job".into(), ColumnData::I64(vec![100, 101, 102].into())),
        ])
        .unwrap();
        let query = Query::scan(bronze)
            .filter(Expr::col("value").ge(Expr::LitF(-25.0)))
            .window("ts", 5_000)
            .group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "value")],
            )
            .pivot(&["window", "node"], "sensor", "value", Agg::Mean)
            .join(context, &["node"]);

        // Optimised path vs node-by-node path. Pivot cells with no
        // contributing rows hold NaN, so compare the serialized bytes
        // (bit-exact) rather than `Frame` equality (where NaN != NaN).
        let planned = query.clone().execute().unwrap();
        let (staged, timings) = query.execute_timed().unwrap();
        prop_assert_eq!(timings.len(), 5);
        prop_assert_eq!(planned.names(), staged.names());
        prop_assert_eq!(
            frame_to_colfile(&planned).unwrap(),
            frame_to_colfile(&staged).unwrap()
        );
    }

    /// An optimised `filter → window → GROUP BY` plan and the clause-by-
    /// clause path serialize byte-identically: frame and table scans,
    /// `Str` and `Dict` sensors (per-row-group dictionaries differ),
    /// NaN values, quality filters that empty a row group or the whole
    /// result, `I64` and `F64` inputs, and every `Agg`.
    #[test]
    fn optimized_aggregate_matches_staged(
        seed in proptest::collection::vec((0u8..4, 0i64..3, -50.0f64..50.0, 0u8..8), 1..6 * GROUP_ROWS),
        bad_group in 0usize..6,
        min_quality in 0i64..4,
        keys in 0usize..AGG_KEYS.len(),
        str_sensor in any::<bool>(),
        from_table in any::<bool>(),
        residual in any::<bool>(),
    ) {
        let rows = seed.len();
        // Quality 0 everywhere in `bad_group`; `min_quality` 3 keeps nothing.
        let quality: Vec<i64> = seed
            .iter()
            .enumerate()
            .map(|(r, s)| if r / GROUP_ROWS == bad_group { 0 } else { s.1 })
            .collect();
        let columns = vec![
            ("ts".to_string(), ColumnData::I64((0..rows as i64).map(|r| r * 700).collect())),
            ("sensor".to_string(), sensor_column(seed.iter().map(|s| TAGS[usize::from(s.0)]), str_sensor)),
            ("n".to_string(), ColumnData::I64(seed.iter().map(|s| i64::from(s.3)).collect())),
            ("q".to_string(), ColumnData::I64(quality.into())),
            (
                "v".to_string(),
                ColumnData::F64(seed.iter().map(|s| if s.3 == 0 { f64::NAN } else { s.2 }).collect()),
            ),
        ];
        let frame = Frame::new(columns.clone()).unwrap();
        let mut q = if from_table {
            Query::scan_table(grouped_table(&columns, str_sensor))
        } else {
            Query::scan(frame)
        }
        .filter(Expr::col("q").ge(Expr::LitI(min_quality)));
        if residual {
            q = q.filter(Expr::col("v").is_nan().not().or(Expr::col("n").ge(Expr::LitI(6))));
        }
        let (keys, windowed) = AGG_KEYS[keys];
        if windowed {
            q = q.window("ts", 2_500);
        }
        let mut aggs = Vec::new();
        for agg in [Agg::Sum, Agg::Mean, Agg::Min, Agg::Max, Agg::Count, Agg::First, Agg::Last] {
            aggs.push(AggSpec::new("v", agg, &format!("v_{agg:?}")));
            aggs.push(AggSpec::new("n", agg, &format!("n_{agg:?}")));
        }
        aggs.push(AggSpec::new("sensor", Agg::First, "sensor_first"));
        aggs.push(AggSpec::new("sensor", Agg::Last, "sensor_last"));
        let q = q.group_by(keys, &aggs);

        let planned = q.clone().execute().unwrap();
        let (staged, _) = q.execute_timed().unwrap();
        prop_assert_eq!(planned.names(), staged.names());
        prop_assert_eq!(
            frame_to_colfile(&planned).unwrap(),
            frame_to_colfile(&staged).unwrap()
        );
    }
}

/// Key sets for the aggregate property, each with whether it
/// needs a window: one to four key columns (`RowKey::Many`), NaN-valued
/// `F64` keys, and no keys at all.
const AGG_KEYS: [(&[&str], bool); 7] = [
    (&["window", "sensor"], true),
    (&["sensor"], false),
    (&["sensor"], true),
    (&["window"], true),
    (&["v"], false),
    (&["window", "sensor", "n", "q"], true),
    (&[], false),
];

fn sensor_column<'a>(tags: impl Iterator<Item = &'a str>, str_sensor: bool) -> ColumnData {
    let tags: Vec<String> = tags.map(str::to_string).collect();
    if str_sensor {
        return ColumnData::Str(tags.into());
    }
    let mut dict: Vec<String> = Vec::new();
    let codes = tags
        .iter()
        .map(|t| match dict.iter().position(|d| d == t) {
            Some(c) => c as u32,
            None => {
                dict.push(t.clone());
                (dict.len() - 1) as u32
            }
        })
        .collect();
    ColumnData::dict(dict, codes)
}

/// `columns` written `GROUP_ROWS` rows per row group. A `Dict` sensor
/// gets one dictionary per row group, in that group's first-occurrence
/// order, so chunk dictionaries differ.
fn grouped_table(columns: &[(String, ColumnData)], str_sensor: bool) -> Arc<TableFile> {
    let types: Vec<(&str, ColumnType)> = columns
        .iter()
        .map(|(n, c)| match c.column_type() {
            ColumnType::Str if !str_sensor => (n.as_str(), ColumnType::Dict),
            ty => (n.as_str(), ty),
        })
        .collect();
    let mut w = TableWriter::new(TableSchema::new(&types));
    w.index_column("sensor").unwrap();
    let rows = columns[0].1.len();
    for start in (0..rows).step_by(GROUP_ROWS) {
        let len = GROUP_ROWS.min(rows - start);
        let group: Vec<ColumnData> = columns
            .iter()
            .map(|(name, c)| match c.slice(start, len) {
                ColumnData::Dict { dict, codes } if name == "sensor" => {
                    sensor_column(codes.iter().map(|&c| dict[c as usize].as_str()), false)
                }
                sliced => sliced,
            })
            .collect();
        w.write_row_group(&group).unwrap();
    }
    Arc::new(TableFile::open(w.finish()).unwrap())
}

/// Deterministic fixture for the explain golden: 3 groups x 4 rows.
fn explain_table() -> Arc<TableFile> {
    let tags: Vec<u8> = (0..48).map(|r| (r % 2) as u8).collect();
    let values: Vec<f64> = (0..48).map(|r| r as f64 / 4.0).collect();
    build_table(&tags, &values)
}

#[test]
fn explain_matches_golden() {
    let q = Query::scan_table(explain_table())
        .filter(
            Expr::col("v")
                .is_nan()
                .not()
                .and(Expr::col("sensor").eq_(Expr::LitS("t0".into())))
                .and(Expr::col("ts").ge(Expr::LitI(1_600))),
        )
        .select(&["ts", "v"]);
    common::assert_golden(
        "query_explain.txt",
        "query-explain-actual.txt",
        &q.explain(),
    );
}

#[test]
fn planned_scan_reports_pruning_stats() {
    let table = explain_table();
    let (out, stats) = Query::scan_table(table)
        .filter(
            Expr::col("sensor")
                .eq_(Expr::LitS("t0".into()))
                .and(Expr::col("ts").ge(Expr::LitI(1_600))),
        )
        .select(&["ts", "v"])
        .execute_with(&ExecContext::named("stats"))
        .unwrap();
    // Row group 0 covers ts 0..1500: stats-pruned. t0 occupies even
    // rows, so groups 1 and 2 survive via the index.
    assert_eq!(stats.groups_total, 3);
    assert_eq!(stats.groups_scanned, vec![1, 2]);
    assert_eq!(stats.index_hits, 1);
    assert!(stats.chunks_pruned > 0);
    assert_eq!(out.rows(), 16);
}

/// An observed context feeds the planner's counters by exactly the
/// returned `ExecStats` and records exactly one `plan_executed` span
/// carrying the same figures.
#[test]
fn observed_execution_counts_and_traces_its_stats() {
    let tracer = Tracer::new();
    let registry = Registry::new().with_tracer(&tracer);
    const COUNTERS: [&str; 4] = [
        "query_plans_executed_total",
        "query_chunks_read_total",
        "query_chunks_pruned_total",
        "query_index_hits_total",
    ];
    let read = || COUNTERS.map(|name| registry.counter_value(name, &[]));
    let before = read();
    let ctx = ExecContext {
        name: "observed".into(),
        registry: Some(registry.clone()),
    };
    let (out, stats) = Query::scan_table(explain_table())
        .filter(
            Expr::col("sensor")
                .eq_(Expr::LitS("t0".into()))
                .and(Expr::col("ts").ge(Expr::LitI(1_600))),
        )
        .select(&["ts", "v"])
        .execute_with(&ctx)
        .unwrap();
    assert_eq!(stats.index_hits, 1, "the sensor predicate hits the index");
    assert!(stats.chunks_pruned > 0 && stats.chunks_read > 0);
    assert_eq!(stats.rows_out, out.rows() as u64);
    if !oda::obs::enabled() {
        assert!(tracer.events().is_empty());
        return;
    }
    let after = read();
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        delta,
        vec![1, stats.chunks_read, stats.chunks_pruned, stats.index_hits]
    );
    let events = tracer.events();
    assert_eq!(events.len(), 1, "one execution, one event: {events:?}");
    let TraceEventKind::PlanExecuted {
        query,
        rows_out,
        chunks_read,
        chunks_pruned,
        index_hits,
        groups,
    } = &events[0].kind
    else {
        panic!("expected plan_executed, got {}", events[0].name());
    };
    assert_eq!(query, "observed");
    assert_eq!(
        (*rows_out, *chunks_read, *chunks_pruned, *index_hits),
        (
            stats.rows_out,
            stats.chunks_read,
            stats.chunks_pruned,
            stats.index_hits
        )
    );
    let scanned: Vec<String> = stats.groups_scanned.iter().map(|g| g.to_string()).collect();
    assert_eq!(*groups, scanned.join(","));
    assert_eq!(groups, "1,2");
}

/// `file`, which indexes one column, with that index section swapped
/// for `compress(raw)`. The section sits just before the footer and its
/// location is the footer's last field, so only its `len` moves.
fn with_index_section(file: &[u8], raw: &[u8]) -> Vec<u8> {
    let n = file.len();
    let footer_len = u64::from_le_bytes(file[n - 12..n - 4].try_into().unwrap()) as usize;
    let footer = std::str::from_utf8(&file[n - 12 - footer_len..n - 12]).unwrap();
    let (head, _) = footer.rsplit_once(",\"len\":").unwrap();
    let offset: usize = head.rsplit_once("\"offset\":").unwrap().1.parse().unwrap();
    let section = compress(raw);
    let footer = format!("{head},\"len\":{}}}]}}", section.len());
    let mut out = file[..offset].to_vec();
    out.extend_from_slice(&section);
    out.extend_from_slice(footer.as_bytes());
    out.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    out.extend_from_slice(b"OCF1");
    out
}

/// An index whose bitmap covers fewer rows than its row group fails the
/// scan with a typed error. Zipping the row mask with such a bitmap left
/// the uncovered rows set — every trailing row passed the filter,
/// whatever its sensor, and the scan returned that wrong answer as if
/// it were right.
#[test]
fn index_bitmap_shorter_than_its_group_fails_the_scan() {
    // One 16-row group alternating t0/t1.
    let tags: Vec<u8> = (0..GROUP_ROWS).map(|r| (r % 2) as u8).collect();
    let values: Vec<f64> = (0..GROUP_ROWS).map(|r| r as f64).collect();
    let bytes = table_bytes(&tags, &values);
    let sensors: Vec<&str> = tags.iter().map(|&t| TAGS[usize::from(t)]).collect();
    let scan = |bytes: Vec<u8>| {
        Query::scan_table(Arc::new(TableFile::open(bytes).unwrap()))
            .filter(Expr::col("sensor").eq_(Expr::LitS("t0".into())))
            .select(&["v"])
            .execute()
    };

    // The genuine section, spliced back in, gives back the same file
    // and the right answer: the eight even rows.
    let mut genuine = ColumnIndex::new();
    genuine.add_group(0, GROUP_ROWS, sensors.iter().copied());
    assert_eq!(with_index_section(&bytes, &genuine.to_bytes()), bytes);
    let even: Vec<f64> = (0..GROUP_ROWS).step_by(2).map(|r| r as f64).collect();
    assert_eq!(scan(bytes.clone()).unwrap().f64s("v").unwrap(), &even[..]);

    // The same postings over only the first half of the group.
    let mut short = ColumnIndex::new();
    short.add_group(0, GROUP_ROWS / 2, sensors.iter().copied());
    let err = scan(with_index_section(&bytes, &short.to_bytes())).unwrap_err();
    assert!(
        matches!(err, PipelineError::Storage(StorageError::Corrupt(_))),
        "{err}"
    );
}
