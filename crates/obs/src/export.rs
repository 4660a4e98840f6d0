//! Trace exporters: Chrome `trace_event` JSON and self-describing JSONL.
//!
//! Two formats, two contracts:
//!
//! * [`export_chrome_trace`] is **byte-pinned**: it serializes the
//!   canonical event order with *logical* timestamps (a deterministic
//!   depth-first layout of the span tree — every leaf span is
//!   [`TICK`] µs wide, parents cover their children, instants sit at
//!   their parent's start), so two replays of the same seed produce
//!   byte-identical files regardless of worker count or wall-clock
//!   jitter. Load it in `chrome://tracing` / Perfetto to see the shape
//!   of an epoch; read real durations from the JSONL export.
//! * [`export_jsonl`] is **self-describing**: one JSON object per
//!   event, every field of [`TraceEvent`] including `dur_ns`. The
//!   serialization of a given journal is deterministic (fixed field
//!   order, integer-only values, stable escaping) and every line is
//!   valid JSON for any standard parser; the wall-clock durations make
//!   it per-run, not byte-pinned across runs.
//!
//! Both exporters consume events in canonical order (they re-sort
//! defensively), and neither allocates from the data plane: export is a
//! pull-time operation over a journal snapshot.
//!
//! This module also builds the hierarchy view: [`span_tree`] nests
//! span-shaped events by their parent links, [`critical_path`] walks
//! the slowest chain, and [`render_span_tree`] pretty-prints a tree for
//! operator consumption.

use crate::trace::{trace_id, TraceEvent, TraceEventKind, TraceId, Tracer};

/// Logical width of a leaf span in the Chrome layout, in microseconds.
pub const TICK: u64 = 1_000;

// ---------------------------------------------------------------------------
// JSON writing primitives (the crate is dependency-free by design).
// ---------------------------------------------------------------------------

/// Append `s` to `out` escaped as the body of a JSON string literal
/// (RFC 8259): quote, backslash and every control character below
/// U+0020 are escaped, so the result never carries a raw control byte.
/// The one JSON string escaper of the stack's hand-written renderers.
pub fn esc_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Start the member `"key":`, after a separating comma unless it opens
/// its object (every value ends in `"`, a digit, a letter or `}`, so a
/// trailing `{` always means "first member").
fn w_key(out: &mut String, key: &str) {
    if !(out.is_empty() || out.ends_with('{')) {
        out.push(',');
    }
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

fn w_str(out: &mut String, key: &str, v: &str) {
    w_key(out, key);
    out.push('"');
    esc_into(v, out);
    out.push('"');
}

fn w_num(out: &mut String, key: &str, v: impl std::fmt::Display) {
    w_key(out, key);
    out.push_str(&v.to_string());
}

fn w_bool(out: &mut String, key: &str, v: bool) {
    w_key(out, key);
    out.push_str(if v { "true" } else { "false" });
}

/// Write the kind's discriminator and args object (fixed field order).
fn w_kind(out: &mut String, kind: &TraceEventKind) {
    w_str(out, "kind", kind.name());
    w_key(out, "args");
    out.push('{');
    match kind {
        TraceEventKind::Produce {
            topic,
            partition,
            offset,
            bytes,
        } => {
            w_str(out, "topic", topic);
            w_num(out, "partition", *partition);
            w_num(out, "offset", *offset);
            w_num(out, "bytes", *bytes);
        }
        TraceEventKind::RetentionSweep { topic, dropped } => {
            w_str(out, "topic", topic);
            w_num(out, "dropped", *dropped);
        }
        TraceEventKind::Epoch {
            records,
            partitions,
            watermark_ms,
        } => {
            w_num(out, "records", *records);
            w_num(out, "partitions", *partitions);
            w_num(out, "watermark_ms", *watermark_ms);
        }
        TraceEventKind::Partition { partition, records } => {
            w_num(out, "partition", *partition);
            w_num(out, "records", *records);
        }
        TraceEventKind::PartitionFetch {
            topic,
            partition,
            from,
            to,
            records,
        } => {
            w_str(out, "topic", topic);
            w_num(out, "partition", *partition);
            w_num(out, "from", *from);
            w_num(out, "to", *to);
            w_num(out, "records", *records);
        }
        TraceEventKind::PartitionDecode { partition, rows } => {
            w_num(out, "partition", *partition);
            w_num(out, "rows", *rows);
        }
        TraceEventKind::Transform { rows_in, rows_out } => {
            w_num(out, "rows_in", *rows_in);
            w_num(out, "rows_out", *rows_out);
        }
        TraceEventKind::SinkWrite { rows } => {
            w_num(out, "rows", *rows);
        }
        TraceEventKind::Checkpoint { epoch } => {
            w_num(out, "epoch", *epoch);
        }
        TraceEventKind::OceanPut { bucket, key, bytes }
        | TraceEventKind::OceanGet { bucket, key, bytes } => {
            w_str(out, "bucket", bucket);
            w_str(out, "key", key);
            w_num(out, "bytes", *bytes);
        }
        TraceEventKind::LakeInsert { series, points } => {
            w_str(out, "series", series);
            w_num(out, "points", *points);
        }
        TraceEventKind::Lifecycle {
            artifact,
            action,
            tier,
            bytes,
        } => {
            w_str(out, "artifact", artifact);
            w_str(out, "action", action);
            w_str(out, "tier", tier);
            w_num(out, "bytes", *bytes);
        }
        TraceEventKind::FaultInjected { site, kind } => {
            w_str(out, "site", site);
            w_str(out, "kind", kind);
        }
        TraceEventKind::Retry {
            op,
            attempts,
            gave_up,
        } => {
            w_str(out, "op", op);
            w_num(out, "attempts", *attempts);
            w_bool(out, "gave_up", *gave_up);
        }
        TraceEventKind::ReplicaFetch {
            topic,
            partition,
            node,
            from,
            to,
            records,
            isr,
        } => {
            w_str(out, "topic", topic);
            w_num(out, "partition", *partition);
            w_num(out, "node", *node);
            w_num(out, "from", *from);
            w_num(out, "to", *to);
            w_num(out, "records", *records);
            w_bool(out, "isr", *isr);
        }
        TraceEventKind::LeaderElected {
            topic,
            partition,
            from_node,
            to_node,
        } => {
            w_str(out, "topic", topic);
            w_num(out, "partition", *partition);
            w_num(out, "from_node", *from_node);
            w_num(out, "to_node", *to_node);
        }
        TraceEventKind::IsrChange {
            topic,
            partition,
            node,
            joined,
        } => {
            w_str(out, "topic", topic);
            w_num(out, "partition", *partition);
            w_num(out, "node", *node);
            w_bool(out, "joined", *joined);
        }
        TraceEventKind::PlanExecuted {
            query,
            rows_out,
            chunks_read,
            chunks_pruned,
            index_hits,
            groups,
        } => {
            w_str(out, "query", query);
            w_num(out, "rows_out", *rows_out);
            w_num(out, "chunks_read", *chunks_read);
            w_num(out, "chunks_pruned", *chunks_pruned);
            w_num(out, "index_hits", *index_hits);
            w_str(out, "groups", groups);
        }
        TraceEventKind::AlertFired {
            detector,
            severity,
            sensor,
            node,
            window_ms,
        } => {
            w_str(out, "detector", detector);
            w_str(out, "severity", severity);
            w_str(out, "sensor", sensor);
            w_num(out, "node", *node);
            w_num(out, "window_ms", *window_ms);
        }
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// JSONL export.
// ---------------------------------------------------------------------------

/// Serialize events as self-describing JSONL: one canonical JSON object
/// per line, fixed field order, all [`TraceEvent`] fields including
/// `dur_ns`.
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut events = events.to_vec();
    events.sort_by_key(TraceEvent::sort_key);
    let mut out = String::new();
    for e in &events {
        out.push('{');
        w_str(&mut out, "trace", &format!("{:016x}", e.trace.0));
        w_str(&mut out, "span", &format!("{:016x}", e.span.0));
        match e.parent {
            Some(p) => w_str(&mut out, "parent", &format!("{:016x}", p.0)),
            None => {
                w_key(&mut out, "parent");
                out.push_str("null");
            }
        }
        w_num(&mut out, "scope", e.scope);
        w_num(&mut out, "ctx", e.ctx);
        w_num(&mut out, "seq", e.seq);
        w_num(&mut out, "dur_ns", e.dur_ns);
        w_kind(&mut out, &e.kind);
        out.push_str("}\n");
    }
    out
}

// ---------------------------------------------------------------------------
// Span trees and the Chrome trace_event export.
// ---------------------------------------------------------------------------

/// One node of a span tree: a span-shaped event plus its child spans,
/// in canonical order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's event.
    pub event: TraceEvent,
    /// Nested child spans.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Total wall-clock nanoseconds attributed to this span.
    pub fn dur_ns(&self) -> u64 {
        self.event.dur_ns
    }
}

/// Build the span forest for every trace present in `events`, in
/// canonical order. Instant events are ignored; spans whose parent is
/// absent (or is themselves) become roots.
fn forest(events: &[TraceEvent]) -> Vec<SpanNode> {
    let spans: Vec<&TraceEvent> = {
        let mut s: Vec<&TraceEvent> = events.iter().filter(|e| e.kind.is_span()).collect();
        s.sort_by_key(|a| (a.trace.0, a.sort_key()));
        s
    };
    let mut index = std::collections::HashMap::new();
    for (i, e) in spans.iter().enumerate() {
        index.entry((e.trace.0, e.span.0)).or_insert(i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut is_child = vec![false; spans.len()];
    for (i, e) in spans.iter().enumerate() {
        if let Some(parent) = e.parent {
            if let Some(&pi) = index.get(&(e.trace.0, parent.0)) {
                if pi != i {
                    children[pi].push(i);
                    is_child[i] = true;
                }
            }
        }
    }
    fn build(i: usize, spans: &[&TraceEvent], children: &[Vec<usize>]) -> SpanNode {
        SpanNode {
            event: spans[i].clone(),
            children: children[i]
                .iter()
                .map(|&c| build(c, spans, children))
                .collect(),
        }
    }
    // Group roots by trace in order of first (canonical) appearance so
    // each trace's tree stays contiguous.
    (0..spans.len())
        .filter(|&i| !is_child[i])
        .map(|i| build(i, &spans, &children))
        .collect()
}

/// The span tree(s) of one trace, in canonical order.
pub fn span_tree(events: &[TraceEvent], trace: TraceId) -> Vec<SpanNode> {
    let filtered: Vec<TraceEvent> = events
        .iter()
        .filter(|e| e.trace == trace)
        .cloned()
        .collect();
    forest(&filtered)
}

impl Tracer {
    /// The span tree of `query`'s committed epoch `epoch` — the
    /// `trace_tree(epoch)` entry point of the lineage/trace API.
    pub fn trace_tree(&self, query: &str, epoch: u64) -> Vec<SpanNode> {
        span_tree(&self.events(), trace_id(query, epoch))
    }
}

/// The critical path from `root` downward: at each level, descend into
/// the child with the largest `dur_ns` (canonical order breaks ties).
/// Returns the chain of events including `root`.
pub fn critical_path(root: &SpanNode) -> Vec<&TraceEvent> {
    let mut path = vec![&root.event];
    let mut node = root;
    while let Some(next) = node.children.iter().max_by(|a, b| {
        a.dur_ns()
            .cmp(&b.dur_ns())
            .then_with(|| b.event.sort_key().cmp(&a.event.sort_key()))
    }) {
        path.push(&next.event);
        node = next;
    }
    path
}

/// Pretty-print a span forest: one line per span, indented by depth,
/// with duration and payload summary. For operator display (durations
/// are wall-clock, so the output is not byte-pinned).
pub fn render_span_tree(nodes: &[SpanNode]) -> String {
    fn describe(kind: &TraceEventKind) -> String {
        match kind {
            TraceEventKind::Epoch {
                records,
                partitions,
                watermark_ms,
            } => {
                format!("{records} records over {partitions} partitions, watermark {watermark_ms}")
            }
            TraceEventKind::Partition { partition, records } => {
                format!("p{partition}: {records} records")
            }
            TraceEventKind::PartitionFetch {
                topic,
                partition,
                from,
                to,
                records,
            } => format!("{topic}/{partition} offsets [{from},{to}) -> {records} records"),
            TraceEventKind::PartitionDecode { partition, rows } => {
                format!("p{partition}: {rows} rows")
            }
            TraceEventKind::Transform { rows_in, rows_out } => {
                format!("{rows_in} rows -> {rows_out} rows")
            }
            TraceEventKind::SinkWrite { rows } => format!("{rows} rows"),
            TraceEventKind::Checkpoint { epoch } => format!("epoch {epoch} committed"),
            other => other.name().to_string(),
        }
    }
    fn walk(node: &SpanNode, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{:indent$}{:<10} {:>9.3}ms  {}\n",
            "",
            node.event.name(),
            node.event.dur_ns as f64 / 1e6,
            describe(&node.event.kind),
            indent = depth * 2
        ));
        for child in &node.children {
            walk(child, depth + 1, out);
        }
    }
    let mut out = String::new();
    for node in nodes {
        walk(node, 0, &mut out);
    }
    out
}

/// Logical layout of one span: start tick and width in microseconds.
struct Layout {
    ts: u64,
    dur: u64,
}

fn layout_width(node: &SpanNode) -> u64 {
    let child_sum: u64 = node.children.iter().map(layout_width).sum();
    child_sum.max(TICK)
}

fn layout_assign(
    node: &SpanNode,
    start: u64,
    out: &mut std::collections::HashMap<(u64, u64), Layout>,
) -> u64 {
    let width = layout_width(node);
    out.insert(
        (node.event.trace.0, node.event.span.0),
        Layout {
            ts: start,
            dur: width,
        },
    );
    let mut cursor = start;
    for child in &node.children {
        cursor = layout_assign(child, cursor, out);
    }
    start + width
}

/// Thread id for the Chrome export: partition-scoped spans get their
/// own row, everything else shares row 0.
fn chrome_tid(kind: &TraceEventKind) -> u64 {
    match kind {
        TraceEventKind::Partition { partition, .. }
        | TraceEventKind::PartitionFetch { partition, .. }
        | TraceEventKind::PartitionDecode { partition, .. } => partition + 1,
        _ => 0,
    }
}

/// Serialize events as a Chrome `trace_event` JSON array with the
/// deterministic logical layout described in the module docs. The
/// output is **byte-identical** across runs and worker counts for the
/// same recorded event set: every serialized field — order, ids,
/// logical timestamps — derives only from replay-stable values
/// (`dur_ns` is deliberately not serialized).
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let mut events = events.to_vec();
    events.sort_by_key(TraceEvent::sort_key);
    let roots = forest(&events);
    let mut layout = std::collections::HashMap::new();
    let mut cursor = 0u64;
    for root in &roots {
        cursor = layout_assign(root, cursor, &mut layout);
    }
    let mut tail = cursor; // instants with no laid-out parent append here

    let mut out = String::from("[\n");
    let mut first = true;
    for e in &events {
        let (ts, dur) = if e.kind.is_span() {
            let l = &layout[&(e.trace.0, e.span.0)];
            (l.ts, Some(l.dur))
        } else {
            let ts = e
                .parent
                .and_then(|p| layout.get(&(e.trace.0, p.0)))
                .map(|l| l.ts)
                .unwrap_or_else(|| {
                    let t = tail;
                    tail += TICK;
                    t
                });
            (ts, None)
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push('{');
        w_str(&mut out, "name", e.name());
        w_str(&mut out, "cat", e.kind.category());
        match dur {
            Some(d) => {
                w_str(&mut out, "ph", "X");
                w_num(&mut out, "ts", ts);
                w_num(&mut out, "dur", d);
            }
            None => {
                w_str(&mut out, "ph", "i");
                w_str(&mut out, "s", "t");
                w_num(&mut out, "ts", ts);
            }
        }
        w_num(&mut out, "pid", 1);
        w_num(&mut out, "tid", chrome_tid(&e.kind));
        w_key(&mut out, "args");
        out.push('{');
        w_str(&mut out, "trace", &format!("{:016x}", e.trace.0));
        w_str(&mut out, "span", &format!("{:016x}", e.span.0));
        w_num(&mut out, "scope", e.scope);
        w_num(&mut out, "seq", e.seq);
        let mut kind_buf = String::new();
        w_kind(&mut kind_buf, &e.kind);
        // Reuse the kind writer's args object as a nested "detail".
        let args_start = kind_buf.find("\"args\":").expect("kind writer emits args") + 7;
        w_key(&mut out, "detail");
        out.push_str(&kind_buf[args_start..]);
        out.push_str("}}");
    }
    if !first {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{trace_span, DEFAULT_JOURNAL_CAPACITY};

    fn sample_events() -> Vec<TraceEvent> {
        let t = trace_id("q", 0);
        let epoch = trace_span(t, "epoch", 0);
        let part = trace_span(t, "partition", 1);
        vec![
            TraceEvent {
                trace: t,
                span: epoch,
                parent: None,
                scope: 0,
                ctx: 0,
                seq: 0,
                dur_ns: 900,
                kind: TraceEventKind::Epoch {
                    records: 5,
                    partitions: 1,
                    watermark_ms: -3,
                },
            },
            TraceEvent {
                trace: t,
                span: part,
                parent: Some(epoch),
                scope: 0,
                ctx: 1,
                seq: 0,
                dur_ns: 400,
                kind: TraceEventKind::Partition {
                    partition: 1,
                    records: 5,
                },
            },
            TraceEvent {
                trace: t,
                span: trace_span(t, "fetch", 1),
                parent: Some(part),
                scope: 0,
                ctx: 1,
                seq: 0,
                dur_ns: 300,
                kind: TraceEventKind::PartitionFetch {
                    topic: "bronze".into(),
                    partition: 1,
                    from: 0,
                    to: 5,
                    records: 5,
                },
            },
            TraceEvent {
                trace: t,
                span: trace_span(t, "retry\n\"x\"", 1),
                parent: Some(epoch),
                scope: 0,
                ctx: 1,
                seq: 0,
                dur_ns: 0,
                kind: TraceEventKind::Retry {
                    op: "fetch \"quoted\" \\ control:\u{0001}".into(),
                    attempts: 3,
                    gave_up: false,
                },
            },
        ]
    }

    #[test]
    fn plan_executed_exports_and_categorizes_as_pipeline() {
        let t = trace_id("query", crate::trace::SERVICE_TRACE);
        let kind = TraceEventKind::PlanExecuted {
            query: "scan(bronze)".into(),
            rows_out: 42,
            chunks_read: 6,
            chunks_pruned: 10,
            index_hits: 1,
            groups: "0,2,5".into(),
        };
        assert_eq!(kind.category(), "pipeline");
        assert!(kind.is_span(), "plan execution has a duration");
        let events = vec![TraceEvent {
            trace: t,
            span: trace_span(t, kind.name(), 0),
            parent: None,
            scope: 0,
            ctx: 0,
            seq: 0,
            dur_ns: 1234,
            kind,
        }];
        let text = export_jsonl(&events);
        assert!(text.contains("\"kind\":\"plan_executed\""));
        assert!(text.contains("\"chunks_pruned\":10"));
        assert!(text.contains("\"groups\":\"0,2,5\""));
    }

    #[test]
    fn alert_fired_exports_and_categorizes_as_analytics() {
        let t = trace_id("online", 4);
        let kind = TraceEventKind::AlertFired {
            detector: "zscore".into(),
            severity: "warning".into(),
            sensor: "node_power_w".into(),
            node: -1,
            window_ms: 45_000,
        };
        assert_eq!(kind.category(), "analytics");
        assert!(!kind.is_span(), "alerts are instant events");
        let events = vec![TraceEvent {
            trace: t,
            span: trace_span(t, kind.name(), 3),
            parent: None,
            scope: 4,
            ctx: 3,
            seq: 0,
            dur_ns: 0,
            kind,
        }];
        let text = export_jsonl(&events);
        assert!(text.contains("\"kind\":\"alert_fired\""));
        assert!(text.contains("\"node\":-1"));
        assert!(text.contains("\"window_ms\":45000"));
    }

    #[test]
    fn replication_kinds_export_and_categorize_as_stream() {
        let t = trace_id("cluster", crate::trace::SERVICE_TRACE);
        let kinds = [
            TraceEventKind::ReplicaFetch {
                topic: "bronze".into(),
                partition: 1,
                node: 2,
                from: 10,
                to: 15,
                records: 5,
                isr: true,
            },
            TraceEventKind::LeaderElected {
                topic: "bronze".into(),
                partition: 1,
                from_node: 2,
                to_node: 0,
            },
            TraceEventKind::IsrChange {
                topic: "bronze".into(),
                partition: 1,
                node: 2,
                joined: false,
            },
        ];
        let events: Vec<TraceEvent> = kinds
            .iter()
            .enumerate()
            .map(|(i, k)| TraceEvent {
                trace: t,
                span: trace_span(t, k.name(), i as u64),
                parent: None,
                scope: 0,
                ctx: i as u64,
                seq: 0,
                dur_ns: 0,
                kind: k.clone(),
            })
            .collect();
        for k in &kinds {
            assert_eq!(k.category(), "stream", "kind {}", k.name());
            assert!(!k.is_span(), "replication events are instants");
        }
        let text = export_jsonl(&events);
        assert!(text.contains("\"kind\":\"replica_fetch\""));
        assert!(text.contains("\"isr\":true"));
        assert!(text.contains("\"joined\":false"));
    }

    #[test]
    fn span_tree_nests_by_parent() {
        let events = sample_events();
        let roots = span_tree(&events, trace_id("q", 0));
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].event.name(), "epoch");
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].event.name(), "partition");
        assert_eq!(roots[0].children[0].children[0].event.name(), "fetch");
        let path = critical_path(&roots[0]);
        let names: Vec<&str> = path.iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["epoch", "partition", "fetch"]);
        assert!(render_span_tree(&roots).contains("offsets [0,5)"));
    }

    #[test]
    fn chrome_layout_is_logical_and_stable() {
        let events = sample_events();
        let a = export_chrome_trace(&events);
        // Same events in reversed arrival order export identical bytes.
        let mut reversed = events.clone();
        reversed.reverse();
        let b = export_chrome_trace(&reversed);
        assert_eq!(a, b);
        // Logical time, not wall clock: dur_ns never appears.
        assert!(!a.contains("dur_ns"));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        // The lone leaf chain means every span is TICK wide at ts 0.
        assert!(a.contains("\"ts\":0,\"dur\":1000"));
    }

    #[test]
    fn default_capacity_holds_a_chaos_run() {
        // Deterministic-export runs rely on never evicting: the chaos
        // suite records a few thousand events, well under the default.
        let j = crate::trace::TraceJournal::default();
        assert_eq!(j.capacity(), DEFAULT_JOURNAL_CAPACITY);
        assert_eq!(j.evicted(), 0);
    }
}
