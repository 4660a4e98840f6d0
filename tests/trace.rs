//! Structured-tracing invariants: journal bounds, exporter stability,
//! metrics/trace timing agreement, and lineage reconstruction.
//!
//! The golden test pins the Chrome `trace_event` export of a chaos
//! seed-11 run byte-for-byte and proves it identical across runs and
//! worker counts 1/2/8 — the export uses logical time (span layout by
//! canonical order, never wall-clock), so instrumented runs replay to
//! the same bytes. On mismatch the actual export is written to
//! `target/trace-golden-actual.json` so CI can upload it as an
//! artifact for diffing against `tests/golden/trace_export.json`.

mod common;

use bytes::Bytes;
use oda::faults::FaultPlan;
use oda::obs::{
    export_chrome_trace, export_jsonl, LineageNode, Registry, TraceEvent, TraceEventKind, TraceId,
    TraceSpanId, Tracer,
};
use oda::pipeline::checkpoint::CheckpointStore;
use oda::pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda::pipeline::metrics::PipelineMetrics;
use oda::pipeline::streaming::MemorySink;
use oda::pipeline::StreamingQuery;
use oda::stream::{Broker, Consumer, RetentionPolicy};
use oda::telemetry::record::Observation;
use oda::telemetry::system::SystemModel;
use oda::telemetry::TelemetryGenerator;
use proptest::prelude::*;
use serde_json::Value;
use std::sync::Arc;

use common::TOPIC;

const BATCHES: usize = 20;

/// The chaos seed-11 medallion flow with one traced registry attached to
/// every subsystem, supervised through crash/recovery to a drained
/// stream.
fn traced_run(workers: usize) -> (Tracer, MemorySink) {
    let tracer = Tracer::new();
    let registry = Registry::new().with_tracer(&tracer);
    let broker = Broker::new();
    broker.attach_metrics(&registry);
    common::seed_broker(&broker, BATCHES);
    let plan = Arc::new(FaultPlan::chaos(11));
    let mut sink = MemorySink::new();
    common::supervise(
        &broker,
        Some(&plan),
        workers,
        Some(&registry),
        "golden",
        &mut sink,
        None,
    );
    (tracer, sink)
}

/// The Chrome export is pinned byte-for-byte and invariant across runs
/// and worker counts: the layout is logical time (canonical event
/// order), wall-clock durations are never serialized, and every event's
/// content is a pure function of the seeded run.
#[test]
fn chrome_export_matches_golden_across_runs_and_workers() {
    if !oda::obs::enabled() {
        return; // compiled out: nothing to export
    }
    let (tracer, sink) = traced_run(1);
    assert!(sink.epochs() > 0);
    assert_eq!(tracer.journal().evicted(), 0, "journal must hold the run");
    let actual = export_chrome_trace(&tracer.events());

    let (again, _) = traced_run(1);
    assert_eq!(
        export_chrome_trace(&again.events()),
        actual,
        "two identical runs must export identical bytes"
    );
    for workers in [2, 8] {
        let (other, other_sink) = traced_run(workers);
        assert_eq!(other_sink.epochs(), sink.epochs());
        assert_eq!(
            export_chrome_trace(&other.events()),
            actual,
            "workers={workers} changed the exported trace"
        );
    }

    common::assert_golden("trace_export.json", "trace-golden-actual.json", &actual);
}

/// Metrics and traces must agree on stage durations: both read the
/// same stopwatch values, so the `pipeline_stage_duration_ns` sum for
/// a stage equals the summed duration of that stage's trace spans.
#[test]
fn metrics_and_traces_agree_on_stage_durations() {
    if !oda::obs::enabled() {
        return;
    }
    let reg = Registry::new();
    let tracer = Tracer::new();
    let broker = Broker::new();
    broker
        .create_topic(TOPIC, 2, RetentionPolicy::unbounded())
        .unwrap();
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 7);
    for _ in 0..BATCHES {
        let batch = generator.next_batch();
        let payload = Observation::encode_batch(&batch.observations);
        broker
            .produce(TOPIC, batch.ts_ms, None, Bytes::from(payload))
            .unwrap();
    }
    let consumer = Consumer::subscribe(broker.clone(), "agree", TOPIC).unwrap();
    let mut query = StreamingQuery::builder()
        .source(consumer)
        .decoder(observation_decoder(generator.catalog().clone()))
        .transform(streaming_silver_transform(15_000, 0))
        .checkpoints(CheckpointStore::new())
        .max_records(7)
        .workers(2)
        .metrics(&reg.with_tracer(&tracer))
        .build()
        .unwrap();
    let mut sink = MemorySink::new();
    query.run_to_completion(&mut sink).unwrap();
    assert!(sink.epochs() > 1);

    // The registry dedups by (name, labels): this handle reads the
    // very histograms the query observed into.
    let handle = PipelineMetrics::new(&reg);
    let events = tracer.events();
    let span_sum = |stage: &str| -> u64 {
        events
            .iter()
            .filter(|e| e.name() == stage)
            .map(|e| e.dur_ns)
            .sum()
    };
    for stage in ["fetch", "decode", "transform", "sink", "checkpoint"] {
        let h = handle.stage_histogram(stage).expect("known stage");
        assert_eq!(
            h.snapshot().sum,
            span_sum(stage),
            "{stage}: histogram sum and trace span sum diverged"
        );
    }
}

/// The engine's lineage edges chain offset ranges → Bronze → Silver,
/// navigable in both directions.
#[test]
fn lineage_chains_offsets_to_silver() {
    if !oda::obs::enabled() {
        return;
    }
    let (tracer, sink) = traced_run(2);
    let q = tracer.lineage().query();
    // Every committed epoch with records has a silver frame node whose
    // ancestors include a bronze frame and at least one offset range.
    let mut chained = 0;
    for (_, node) in q.nodes() {
        let LineageNode::Frame { stage, epoch, .. } = node else {
            continue;
        };
        if stage != "silver" {
            continue;
        }
        let ancestors = q.ancestors_of(node.id());
        let bronze = ancestors.iter().any(|(_, _, n)| {
            matches!(n, LineageNode::Frame { stage, epoch: e, .. } if stage == "bronze" && e == epoch)
        });
        let offsets = ancestors
            .iter()
            .any(|(_, _, n)| matches!(n, LineageNode::OffsetRange { .. }));
        assert!(bronze && offsets, "epoch {epoch}: broken lineage chain");
        chained += 1;
    }
    assert_eq!(chained, sink.epochs(), "every epoch must chain");
    // And forward: an offset range's descendants reach a silver frame.
    let (start, _, _) = *q
        .nodes()
        .filter(|(_, n)| matches!(n, LineageNode::OffsetRange { .. }))
        .map(|(id, n)| (*id, 0u32, n))
        .collect::<Vec<_>>()
        .first()
        .expect("offset ranges recorded");
    let descendants = q.descendants_of(start);
    assert!(
        descendants
            .iter()
            .any(|(_, _, n)| matches!(n, LineageNode::Frame { stage, .. } if stage == "silver")),
        "offset range must reach silver going forward"
    );
}

/// Ring-buffer bounds: eviction is arrival-ordered and capacity 0 is a
/// no-op journal.
#[test]
fn journal_evicts_in_arrival_order() {
    if !oda::obs::enabled() {
        return;
    }
    let tracer = Tracer::with_capacity(4);
    let trace = oda::obs::trace_id("bounds", 0);
    for i in 0..6u64 {
        tracer.record(
            trace,
            oda::obs::trace_span(trace, "produce", i),
            None,
            0,
            i,
            0,
            TraceEventKind::Produce {
                topic: "t".into(),
                partition: i,
                offset: i,
                bytes: 1,
            },
        );
    }
    assert_eq!(tracer.journal().len(), 4);
    assert_eq!(tracer.journal().evicted(), 2);
    let kept: Vec<u64> = tracer
        .journal()
        .snapshot_arrival()
        .iter()
        .map(|e| e.ctx)
        .collect();
    assert_eq!(kept, vec![2, 3, 4, 5], "oldest arrivals evict first");
}

#[test]
fn capacity_zero_journal_is_noop() {
    let tracer = Tracer::with_capacity(0);
    let trace = oda::obs::trace_id("zero", 0);
    tracer.record(
        trace,
        oda::obs::trace_span(trace, "epoch", 0),
        None,
        0,
        0,
        9,
        TraceEventKind::Checkpoint { epoch: 0 },
    );
    assert_eq!(tracer.journal().len(), 0);
    assert_eq!(
        tracer.journal().evicted(),
        0,
        "nothing stored means nothing evicted"
    );
}

/// With collection compiled out (`--no-default-features`), the whole
/// trace API is a no-op: records vanish, lineage stays empty, exports
/// are empty — and none of it perturbs the pipeline.
#[test]
fn trace_api_is_noop_without_collect() {
    let tracer = Tracer::new();
    if oda::obs::enabled() {
        return; // covered by every other test in this file
    }
    let trace = oda::obs::trace_id("noop", 1);
    tracer.record(
        trace,
        oda::obs::trace_span(trace, "epoch", 1),
        None,
        1,
        1,
        5,
        TraceEventKind::Checkpoint { epoch: 1 },
    );
    tracer.link(
        LineageNode::Series { name: "a".into() },
        LineageNode::Series { name: "b".into() },
        "x",
    );
    assert!(tracer.events().is_empty());
    assert!(tracer.lineage().is_empty());
    assert_eq!(export_chrome_trace(&tracer.events()), "[\n]\n");
    assert_eq!(export_jsonl(&tracer.events()), "");
}

/// Arbitrary events — unicode strings, control chars, and boundary
/// integers included — for the JSONL export property. (The
/// offline proptest stand-in has no `prop_oneof`, so a selector byte
/// picks the payload shape.)
fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        (0u8..6, ".{0,12}", ".{0,12}", ".{0,12}", any::<i64>()),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (sel, s1, s2, s3, w),
                (a, b, c, d, flag),
                (trace, span, has_parent, parent, scope, ctx),
            )| {
                let kind = match sel {
                    0 => TraceEventKind::Produce {
                        topic: s1,
                        partition: a,
                        offset: b,
                        bytes: c,
                    },
                    1 => TraceEventKind::Epoch {
                        records: a,
                        partitions: b,
                        watermark_ms: w,
                    },
                    2 => TraceEventKind::PartitionFetch {
                        topic: s1,
                        partition: a,
                        from: b,
                        to: c,
                        records: d,
                    },
                    3 => TraceEventKind::Lifecycle {
                        artifact: s1,
                        action: s2,
                        tier: s3,
                        bytes: a,
                    },
                    4 => TraceEventKind::FaultInjected { site: s1, kind: s2 },
                    _ => TraceEventKind::Retry {
                        op: s1,
                        attempts: a,
                        gave_up: flag,
                    },
                };
                TraceEvent {
                    trace: TraceId(trace),
                    span: TraceSpanId(span),
                    parent: has_parent.then_some(TraceSpanId(parent)),
                    scope,
                    ctx,
                    seq: b,
                    dur_ns: d,
                    kind,
                }
            },
        )
}

/// A JSON integer as the parser reports it.
fn uint(v: u64) -> Value {
    i64::try_from(v).map_or(Value::U64(v), Value::I64)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn hex_id(id: u64) -> Value {
    Value::Str(format!("{id:016x}"))
}

/// The JSON object one JSONL line must parse to, built from the event
/// without going through the exporter.
fn expected_line(e: &TraceEvent) -> Value {
    let args = match &e.kind {
        TraceEventKind::Produce {
            topic,
            partition,
            offset,
            bytes,
        } => vec![
            ("topic", text(topic)),
            ("partition", uint(*partition)),
            ("offset", uint(*offset)),
            ("bytes", uint(*bytes)),
        ],
        TraceEventKind::Epoch {
            records,
            partitions,
            watermark_ms,
        } => vec![
            ("records", uint(*records)),
            ("partitions", uint(*partitions)),
            ("watermark_ms", Value::I64(*watermark_ms)),
        ],
        TraceEventKind::PartitionFetch {
            topic,
            partition,
            from,
            to,
            records,
        } => vec![
            ("topic", text(topic)),
            ("partition", uint(*partition)),
            ("from", uint(*from)),
            ("to", uint(*to)),
            ("records", uint(*records)),
        ],
        TraceEventKind::Lifecycle {
            artifact,
            action,
            tier,
            bytes,
        } => vec![
            ("artifact", text(artifact)),
            ("action", text(action)),
            ("tier", text(tier)),
            ("bytes", uint(*bytes)),
        ],
        TraceEventKind::FaultInjected { site, kind } => {
            vec![("site", text(site)), ("kind", text(kind))]
        }
        TraceEventKind::Retry {
            op,
            attempts,
            gave_up,
        } => vec![
            ("op", text(op)),
            ("attempts", uint(*attempts)),
            ("gave_up", Value::Bool(*gave_up)),
        ],
        other => panic!("event_strategy does not generate {}", other.name()),
    };
    let object = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    object(vec![
        ("trace", hex_id(e.trace.0)),
        ("span", hex_id(e.span.0)),
        ("parent", e.parent.map_or(Value::Null, |p| hex_id(p.0))),
        ("scope", uint(e.scope)),
        ("ctx", uint(e.ctx)),
        ("seq", uint(e.seq)),
        ("dur_ns", uint(e.dur_ns)),
        ("kind", text(e.kind.name())),
        ("args", object(args)),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every JSONL line is valid JSON that an independent parser reads
    /// back to exactly the event's fields — for any ids, any durations,
    /// and any strings (quotes, backslashes, control chars, unicode) —
    /// one line per event, in canonical order.
    #[test]
    fn jsonl_export_is_valid_lossless_json(
        events in proptest::collection::vec(event_strategy(), 0..20)
    ) {
        let mut canonical = events.clone();
        canonical.sort_by_key(TraceEvent::sort_key);
        let encoded = export_jsonl(&events);
        let lines: Vec<&str> = encoded.split_terminator('\n').collect();
        prop_assert_eq!(lines.len(), canonical.len());
        for (line, event) in lines.iter().zip(&canonical) {
            // JSON forbids raw control characters inside strings; the
            // vendored parser is lenient about them, so check directly.
            prop_assert!(line.chars().all(|c| c >= ' '), "raw control char in {line:?}");
            let parsed = serde_json::value_from_slice(line.as_bytes()).expect("valid JSON");
            prop_assert_eq!(parsed, expected_line(event));
        }
    }
}
