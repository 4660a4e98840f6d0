//! Structured event tracing with deterministic IDs.
//!
//! Where the metric layer answers "how much, in aggregate", the trace
//! layer answers "what happened to *this* epoch": every instrumented
//! component records typed [`TraceEvent`]s into a bounded
//! [`TraceJournal`], and span-shaped events nest into per-epoch trees
//! that exporters ([`crate::export`]) can lay out for `chrome://tracing`
//! or parse back from JSONL.
//!
//! # Determinism rules
//!
//! The chaos suite replays seeded fault schedules and asserts
//! byte-identical Gold output; the trace layer extends that contract to
//! the journal itself:
//!
//! * **IDs carry no entropy.** [`TraceId`] is FNV-1a of the query name
//!   folded with the epoch; [`TraceSpanId`] folds the stage name and a
//!   site context (partition, offset, artifact hash) on top. No wall
//!   clock, no randomness, no addresses.
//! * **Pipeline events are emitted serially.** The executor's worker
//!   threads only *measure*; the epoch's span tree is recorded by the
//!   serial tail after the checkpoint commits, from the same captured
//!   values the metric layer reads. Exactly one tree per committed
//!   epoch, regardless of worker count or crash replays.
//! * **Canonical order.** [`TraceJournal::snapshot`] sorts by
//!   `(scope, lane, ctx, seq, span)` — all replay-stable integers — so
//!   two runs that record the same events in different arrival orders
//!   export the same bytes. `seq` is a per-span repeat counter assigned
//!   by the journal at record time.
//! * **Wall clock stays in `dur_ns`.** Durations ride along for the
//!   JSONL export and human display; the byte-pinned Chrome export uses
//!   a logical layout and never serializes them.
//!
//! Eviction order (when the ring overflows) is arrival order, which is
//! scheduling-dependent; deterministic-export runs size the journal so
//! it never evicts (see [`DEFAULT_JOURNAL_CAPACITY`]).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::lineage::{Lineage, LineageNode};

/// FNV-1a hash of a byte slice — the stack's one stable hash. Exposed
/// so frame digests and trace IDs share a single pinned algorithm.
pub const fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash over `bytes` from state `hash`.
const fn fnv1a_fold(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// Fold the 8 little-endian bytes of `v` into an FNV-1a state.
const fn fnv1a_fold_u64(hash: u64, v: u64) -> u64 {
    fnv1a_fold(hash, &v.to_le_bytes())
}

/// Epoch sentinel for traces that belong to a long-lived service
/// (broker retention, storage tiers) rather than a pipeline epoch.
pub const SERVICE_TRACE: u64 = u64::MAX;

/// Default [`TraceJournal`] capacity: large enough that the chaos and
/// golden-export runs never evict, small enough to stay bounded.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Stable identifier for one trace: a query's one committed epoch, or a
/// service-scoped stream of events ([`SERVICE_TRACE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Stable identifier for one span or instant-event site within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceSpanId(pub u64);

/// Derive a [`TraceId`] from a query (or component) name and an epoch.
///
/// FNV-1a of the name, folded with the epoch's little-endian bytes —
/// stable across runs, builds, hosts, and worker counts.
pub const fn trace_id(query: &str, epoch: u64) -> TraceId {
    TraceId(fnv1a_fold_u64(fnv1a(query.as_bytes()), epoch))
}

/// Derive a [`TraceSpanId`] from its trace, a stage name, and a
/// site-specific context (partition id, artifact hash, 0 for singletons).
pub const fn trace_span(trace: TraceId, stage: &str, ctx: u64) -> TraceSpanId {
    TraceSpanId(fnv1a_fold_u64(fnv1a_fold(trace.0, stage.as_bytes()), ctx))
}

/// The typed payload of a trace event — the stack's event taxonomy.
///
/// Each variant carries only replay-stable values (names, counts,
/// offsets, byte sizes); anything wall-clock lives in
/// [`TraceEvent::dur_ns`]. The variant's *lane* (see
/// [`TraceEventKind::lane`]) fixes its place in the canonical sort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A record appended to a STREAM topic partition.
    Produce {
        /// Destination topic.
        topic: String,
        /// Partition the record landed in.
        partition: u64,
        /// Offset assigned to the record.
        offset: u64,
        /// Approximate record footprint in bytes.
        bytes: u64,
    },
    /// A retention sweep over a topic dropped `dropped` records.
    RetentionSweep {
        /// Topic swept.
        topic: String,
        /// Records dropped by the sweep.
        dropped: u64,
    },
    /// Root span of one committed pipeline epoch.
    Epoch {
        /// Records processed by the epoch.
        records: u64,
        /// Partitions that contributed records.
        partitions: u64,
        /// Replay-stable event-time watermark (ms).
        watermark_ms: i64,
    },
    /// Per-partition wrapper span (fetch + decode) under the epoch.
    Partition {
        /// Partition id.
        partition: u64,
        /// Records fetched from this partition this epoch.
        records: u64,
    },
    /// Fetch of one partition's slice of the epoch.
    PartitionFetch {
        /// Source topic.
        topic: String,
        /// Partition id.
        partition: u64,
        /// First offset fetched (the position before the epoch).
        from: u64,
        /// Position after the fetch (exclusive end offset).
        to: u64,
        /// Records returned.
        records: u64,
    },
    /// Decode of one partition's records into a Bronze frame.
    PartitionDecode {
        /// Partition id.
        partition: u64,
        /// Rows in the decoded (and partition-mapped) frame.
        rows: u64,
    },
    /// The serial Bronze→Silver transform.
    Transform {
        /// Rows entering the transform (merged Bronze frame).
        rows_in: u64,
        /// Rows leaving the transform (Silver frame).
        rows_out: u64,
    },
    /// The sink write of the epoch's output frame.
    SinkWrite {
        /// Rows written.
        rows: u64,
    },
    /// The checkpoint commit that sealed the epoch.
    Checkpoint {
        /// Epoch committed.
        epoch: u64,
    },
    /// An object written to OCEAN.
    OceanPut {
        /// Destination bucket.
        bucket: String,
        /// Object key.
        key: String,
        /// Object size in bytes.
        bytes: u64,
    },
    /// An object read from OCEAN.
    OceanGet {
        /// Source bucket.
        bucket: String,
        /// Object key.
        key: String,
        /// Object size in bytes.
        bytes: u64,
    },
    /// Points appended to a LAKE series.
    LakeInsert {
        /// Series key.
        series: String,
        /// Points inserted.
        points: u64,
    },
    /// A lifecycle action taken by the tier manager.
    Lifecycle {
        /// Artifact acted on.
        artifact: String,
        /// Action taken (`expire`, `archive`, `migrate-failed`).
        action: String,
        /// Tier the artifact occupied when the action fired.
        tier: String,
        /// Artifact size in bytes.
        bytes: u64,
    },
    /// A fault fired by the armed fault-plan injector.
    FaultInjected {
        /// Injection site label (e.g. `fetch`, `sink_write`).
        site: String,
        /// Human-readable fault kind.
        kind: String,
    },
    /// A retried operation that needed more than one attempt.
    Retry {
        /// Operation label (`produce`, `fetch`).
        op: String,
        /// Attempts consumed (including the final one).
        attempts: u64,
        /// True when the retry budget was exhausted and the call failed.
        gave_up: bool,
    },
    /// A cluster fetch served from a specific replica's log.
    ReplicaFetch {
        /// Source topic.
        topic: String,
        /// Partition id.
        partition: u64,
        /// Node whose log served the read.
        node: u64,
        /// First offset fetched (inclusive).
        from: u64,
        /// Position after the fetch (exclusive end offset).
        to: u64,
        /// Records returned.
        records: u64,
        /// True when the serving replica was in the in-sync set.
        isr: bool,
    },
    /// A partition leader election after a node crash.
    LeaderElected {
        /// Topic of the partition.
        topic: String,
        /// Partition id.
        partition: u64,
        /// Crashed leader the partition failed over from.
        from_node: u64,
        /// New leader (the lowest-id in-sync follower).
        to_node: u64,
    },
    /// A replica joined or left a partition's in-sync set.
    IsrChange {
        /// Topic of the partition.
        topic: String,
        /// Partition id.
        partition: u64,
        /// Replica node whose membership changed.
        node: u64,
        /// True when the replica (re)joined; false when it was dropped.
        joined: bool,
    },
    /// A logical query plan finished executing: records which colfile
    /// chunks fed the answer so lineage can walk from a result back to
    /// the exact row groups scanned.
    PlanExecuted {
        /// Query label (explain-tree root or caller-supplied name).
        query: String,
        /// Rows in the result frame.
        rows_out: u64,
        /// Column chunks actually decoded.
        chunks_read: u64,
        /// Column chunks skipped by stats pruning / index lookups.
        chunks_pruned: u64,
        /// Pushed predicates answered from a secondary index.
        index_hits: u64,
        /// Row groups scanned, comma-joined ascending (`"0,2,5"`; empty
        /// when the scan touched no groups or read an in-memory frame).
        groups: String,
    },
    /// An online detector fired an alert on a closed window.
    AlertFired {
        /// Detector that fired (`zscore`, `ewma`, `health`, `footprint`).
        detector: String,
        /// Alert severity (`info`, `warning`, `critical`).
        severity: String,
        /// Sensor (or subject) the alert is about.
        sensor: String,
        /// Node scope (-1 for facility-wide subjects).
        node: i64,
        /// Event-time window start the alert fired on (ms).
        window_ms: i64,
    },
}

impl TraceEventKind {
    /// Every fixed fact about the kind, from one match per variant:
    /// `(name, lane, is_span, category)`.
    fn facts(&self) -> (&'static str, u8, bool, &'static str) {
        use TraceEventKind as K;
        match self {
            K::Produce { .. } => ("produce", 0, false, "stream"),
            K::RetentionSweep { .. } => ("retention_sweep", 1, false, "stream"),
            K::Epoch { .. } => ("epoch", 2, true, "pipeline"),
            K::Partition { .. } => ("partition", 3, true, "pipeline"),
            K::PartitionFetch { .. } => ("fetch", 4, true, "pipeline"),
            K::PartitionDecode { .. } => ("decode", 5, true, "pipeline"),
            K::Transform { .. } => ("transform", 6, true, "pipeline"),
            K::SinkWrite { .. } => ("sink", 7, true, "pipeline"),
            K::Checkpoint { .. } => ("checkpoint", 8, true, "pipeline"),
            K::OceanPut { .. } => ("ocean_put", 9, false, "storage"),
            K::OceanGet { .. } => ("ocean_get", 10, false, "storage"),
            K::LakeInsert { .. } => ("lake_insert", 11, false, "storage"),
            K::Lifecycle { .. } => ("lifecycle", 12, false, "storage"),
            K::FaultInjected { .. } => ("fault_injected", 13, false, "faults"),
            K::Retry { .. } => ("retry", 14, false, "stream"),
            K::ReplicaFetch { .. } => ("replica_fetch", 15, false, "stream"),
            K::LeaderElected { .. } => ("leader_elected", 16, false, "stream"),
            K::IsrChange { .. } => ("isr_change", 17, false, "stream"),
            K::PlanExecuted { .. } => ("plan_executed", 18, true, "pipeline"),
            K::AlertFired { .. } => ("alert_fired", 19, false, "analytics"),
        }
    }

    /// Short stable name used by exporters and span-tree displays.
    pub fn name(&self) -> &'static str {
        self.facts().0
    }

    /// Canonical sort lane: fixes the relative order of event kinds
    /// within one scope, independent of arrival order.
    pub fn lane(&self) -> u8 {
        self.facts().1
    }

    /// True for span-shaped events (they have a meaningful duration and
    /// participate in the span tree); false for instant events.
    pub fn is_span(&self) -> bool {
        self.facts().2
    }

    /// Category label for the Chrome export's `cat` field.
    pub(crate) fn category(&self) -> &'static str {
        self.facts().3
    }
}

/// One structured trace event: stable IDs, a deterministic sort key,
/// an optional parent span, and a typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this event belongs to.
    pub trace: TraceId,
    /// This event's span site (stable across runs).
    pub span: TraceSpanId,
    /// Enclosing span, if any (builds the span tree).
    pub parent: Option<TraceSpanId>,
    /// Deterministic scope for canonical ordering: the epoch for
    /// pipeline events, 0 for service-scoped events.
    pub scope: u64,
    /// Site context (partition id, packed offsets, artifact hash…).
    pub ctx: u64,
    /// Per-span repeat counter, assigned by the journal at record time.
    pub seq: u64,
    /// Wall-clock duration in nanoseconds (0 for instant events).
    /// Excluded from the byte-pinned Chrome export by construction.
    pub dur_ns: u64,
    /// Typed payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Short stable name of the event's kind.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Canonical sort key: `(scope, lane, ctx, seq, span, trace)` —
    /// every component replay-stable.
    pub fn sort_key(&self) -> (u64, u8, u64, u64, u64, u64) {
        (
            self.scope,
            self.kind.lane(),
            self.ctx,
            self.seq,
            self.span.0,
            self.trace.0,
        )
    }
}

#[derive(Debug, Default)]
struct JournalState {
    events: VecDeque<TraceEvent>,
    /// Next repeat index per span site.
    seq: HashMap<u64, u64>,
    evicted: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// Recording takes one short mutex hold (the stack records at epoch /
/// object / fault granularity, not per row, so contention is nil). When
/// full, the oldest events are evicted in arrival order; [`Self::evicted`]
/// counts the loss so exporters can flag truncated journals. A journal
/// with capacity 0 — and any journal when `collect` is compiled out —
/// records nothing.
#[derive(Debug)]
pub struct TraceJournal {
    capacity: usize,
    state: Mutex<JournalState>,
}

impl TraceJournal {
    /// A journal bounded to `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(JournalState::default()),
        }
    }

    /// The bound this journal was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event, assigning its per-span `seq`. No-op when the
    /// capacity is 0 or collection is compiled out.
    pub fn record(&self, mut event: TraceEvent) {
        if !crate::enabled() || self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap();
        let next = state.seq.entry(event.span.0).or_insert(0);
        event.seq = *next;
        *next += 1;
        state.events.push_back(event);
        while state.events.len() > self.capacity {
            state.events.pop_front();
            state.evicted += 1;
        }
    }

    /// Events currently held (after any eviction).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted so far because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.state.lock().unwrap().evicted
    }

    /// Snapshot in canonical order — sorted by [`TraceEvent::sort_key`],
    /// so identical event sets export identical bytes regardless of
    /// arrival interleaving.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = self.snapshot_arrival();
        events.sort_by_key(TraceEvent::sort_key);
        events
    }

    /// Snapshot in arrival order (the ring's raw contents) — the order
    /// eviction follows.
    pub fn snapshot_arrival(&self) -> Vec<TraceEvent> {
        let state = self.state.lock().unwrap();
        state.events.iter().cloned().collect()
    }
}

impl Default for TraceJournal {
    fn default() -> Self {
        Self::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

/// The trace half of the observer handle: a shared [`TraceJournal`]
/// plus a shared [`Lineage`] graph. Cheap to clone (both are
/// `Arc`-backed). Components receive it inside a
/// [`Registry`](crate::Registry) built with
/// [`Registry::with_tracer`](crate::Registry::with_tracer), so one
/// `attach_metrics` call per component lands every event of a flow in
/// one journal.
#[derive(Debug, Clone)]
pub struct Tracer {
    journal: Arc<TraceJournal>,
    lineage: Lineage,
}

impl Tracer {
    /// A tracer with the default journal bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A tracer whose journal holds at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            journal: Arc::new(TraceJournal::new(capacity)),
            lineage: Lineage::new(),
        }
    }

    /// The shared journal.
    pub fn journal(&self) -> &TraceJournal {
        &self.journal
    }

    /// The shared lineage graph.
    pub fn lineage(&self) -> &Lineage {
        &self.lineage
    }

    /// Record one event (convenience over building a [`TraceEvent`]).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        trace: TraceId,
        span: TraceSpanId,
        parent: Option<TraceSpanId>,
        scope: u64,
        ctx: u64,
        dur_ns: u64,
        kind: TraceEventKind,
    ) {
        self.journal.record(TraceEvent {
            trace,
            span,
            parent,
            scope,
            ctx,
            seq: 0,
            dur_ns,
            kind,
        });
    }

    /// Record one instant event of a long-lived service (broker,
    /// storage tier, fault plan): trace `trace_id(service,
    /// SERVICE_TRACE)`, span `trace_span(trace, op, site)`, no parent,
    /// scope 0, duration 0.
    pub fn service_event(
        &self,
        service: &str,
        op: &str,
        site: u64,
        ctx: u64,
        kind: TraceEventKind,
    ) {
        let trace = trace_id(service, SERVICE_TRACE);
        self.record(trace, trace_span(trace, op, site), None, 0, ctx, 0, kind);
    }

    /// Canonical-order snapshot of the journal.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.journal.snapshot()
    }

    /// Record a lineage edge `from --relation--> to`.
    pub fn link(&self, from: LineageNode, to: LineageNode, relation: &str) {
        self.lineage.link(from, to, relation);
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(ctx: u64) -> TraceEvent {
        let trace = trace_id("t", 0);
        TraceEvent {
            trace,
            span: trace_span(trace, "produce", ctx),
            parent: None,
            scope: 0,
            ctx,
            seq: 0,
            dur_ns: 0,
            kind: TraceEventKind::Produce {
                topic: "t".into(),
                partition: 0,
                offset: ctx,
                bytes: 1,
            },
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        assert_eq!(trace_id("q", 3), trace_id("q", 3));
        assert_ne!(trace_id("q", 3), trace_id("q", 4));
        assert_ne!(trace_id("q", 3), trace_id("r", 3));
        let t = trace_id("q", 3);
        assert_eq!(trace_span(t, "fetch", 1), trace_span(t, "fetch", 1));
        assert_ne!(trace_span(t, "fetch", 1), trace_span(t, "fetch", 2));
        assert_ne!(trace_span(t, "fetch", 1), trace_span(t, "decode", 1));
        // Pinned: the empty-input FNV-1a basis must never drift.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // trace_id folds exactly 8 epoch bytes onto the name hash.
        assert_eq!(
            trace_id("q", 0).0,
            fnv1a_fold_u64(fnv1a(b"q"), 0),
            "derivation must stay FNV-1a(name) ⊕ epoch bytes"
        );
    }

    #[test]
    fn journal_assigns_per_span_seq() {
        let j = TraceJournal::new(16);
        for _ in 0..3 {
            j.record(instant(7));
        }
        j.record(instant(8));
        if !crate::enabled() {
            assert_eq!(j.len(), 0);
            return;
        }
        let events = j.snapshot();
        let seqs: Vec<u64> = events
            .iter()
            .filter(|e| e.ctx == 7)
            .map(|e| e.seq)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(events.iter().filter(|e| e.ctx == 8).count(), 1);
    }

    #[test]
    fn snapshot_is_canonically_sorted() {
        let j = TraceJournal::new(16);
        // Record out of ctx order; snapshot must sort.
        j.record(instant(5));
        j.record(instant(1));
        j.record(instant(3));
        if !crate::enabled() {
            return;
        }
        let ctxs: Vec<u64> = j.snapshot().iter().map(|e| e.ctx).collect();
        assert_eq!(ctxs, vec![1, 3, 5]);
        let arrival: Vec<u64> = j.snapshot_arrival().iter().map(|e| e.ctx).collect();
        assert_eq!(arrival, vec![5, 1, 3]);
    }
}
