//! # oda-obs — self-telemetry for the ODA stack
//!
//! An ODA framework must export its own operational metrics before it
//! can be operated at scale (Netti et al.; DCDB Wintermute): per-stream
//! lag and volume accounting, pipeline stage latencies, and tier health
//! are what let operators trust a 4+ TB/day pipeline. This crate is
//! that layer for the reproduction: a lock-cheap metric registry
//! ([`Registry`]) holding monotonic [`Counter`]s, [`Gauge`]s, and
//! fixed-bucket [`Histogram`]s, a compile-out stage timer
//! ([`Stopwatch`]), and a Prometheus-style text exposition
//! ([`Registry::render_prometheus`]).
//!
//! Aggregates alone cannot reconstruct a single epoch's causal path, so
//! the crate also carries the *per-unit* half of observability: a
//! structured trace journal ([`trace`]) with deterministic IDs and
//! hierarchical spans, an end-to-end lineage graph ([`lineage`]) from
//! topic/partition/offset ranges through medallion frame digests to
//! tier placements, and byte-stable exporters ([`export`]) for Chrome
//! `trace_event` JSON and self-describing JSONL.
//!
//! # One observer handle
//!
//! [`Registry`] is the handle every instrumented component attaches
//! to. [`Registry::with_tracer`] returns a handle over the same metric
//! families that also carries a [`Tracer`], so each service exposes a
//! single `attach_metrics(&registry)` and keeps a single observer slot:
//! a plain [`Registry::new`] wires metrics only, a traced handle wires
//! metrics, trace events and lineage. Long-lived services record their
//! instant events through one call, [`Tracer::service_event`].
//!
//! On top of the registry sits the operator-plane half: a
//! deterministic SLO health engine ([`health`]) that reads the counter
//! sums and gauge levels its [`Selector`]s name straight from the
//! registry ([`Registry::counter_sum`], [`Registry::gauge_max`]) once
//! per logical tick, diffs those readings over multi-window burn rates
//! against declared [`SloObjective`]s, and renders byte-stable
//! `Healthy/Degraded/Unhealthy` reports for `/healthz`.
//!
//! # Determinism rules
//!
//! The stack's chaos suite asserts *byte-identical* Gold output under
//! seeded fault schedules, so observability must never perturb the data
//! plane. The rules that keep it safe:
//!
//! * **Integer-valued everywhere.** Counters and histogram observations
//!   are `u64` (counts, bytes, nanoseconds); gauges are `i64`. Merges
//!   and accumulation are wrapping integer addition — exactly
//!   associative and commutative, unlike floating-point sums — so a
//!   histogram merged in any order is bit-identical.
//! * **Read-only taps.** Instrumentation only observes values the data
//!   plane already computed; it never draws randomness, never branches
//!   the payload path, and never feeds back into scheduling.
//! * **Wall-clock stays in timings.** Span durations are the one
//!   nondeterministic quantity; they live in timing histograms and the
//!   `timings` field of pipeline epoch metadata, which is excluded from
//!   equality/replay comparisons by construction.
//!
//! # Compile-out
//!
//! The `collect` feature (default on) gates every atomic. With
//! `--no-default-features` the recording methods become inlined no-ops
//! and [`enabled`] returns `false`; call sites need no `cfg` of their
//! own. Tests that assert metric *values* guard on [`enabled`].

pub mod export;
pub mod health;
pub mod histogram;
pub mod lineage;
pub mod metric;
pub mod registry;
pub mod span;
pub mod trace;

pub use export::{
    critical_path, esc_into, export_chrome_trace, export_jsonl, render_span_tree, span_tree,
    SpanNode,
};
pub use health::{
    default_objectives, render_health_json, HealthEngine, HealthReport, ObjectiveReport, Selector,
    SloKind, SloObjective, Subsystem, SubsystemHealth, Verdict,
};
pub use histogram::{exponential_bounds, Histogram, HistogramSnapshot};
pub use lineage::{Lineage, LineageNode, LineageNodeId, LineageQuery};
pub use metric::{Counter, Gauge};
pub use registry::Registry;
pub use span::Stopwatch;
pub use trace::{
    fnv1a, trace_id, trace_span, TraceEvent, TraceEventKind, TraceId, TraceJournal, TraceSpanId,
    Tracer, DEFAULT_JOURNAL_CAPACITY, SERVICE_TRACE,
};

/// True when the `collect` feature is on and metrics actually record.
///
/// With collection compiled out, every recording call is a no-op and
/// every read returns zero; tests that assert observed values should
/// return early when this is `false`.
pub const fn enabled() -> bool {
    cfg!(feature = "collect")
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_matches_feature() {
        assert_eq!(super::enabled(), cfg!(feature = "collect"));
    }
}
