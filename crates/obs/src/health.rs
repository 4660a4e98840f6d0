//! Deterministic SLO health engine: windowed counter sums, burn rates,
//! and `Healthy/Degraded/Unhealthy` verdicts — without a wall clock.
//!
//! The paper's ODA stacks are *operated* through health surfaces, not
//! raw counter dumps: an operator asks "is the stream plane meeting its
//! SLO" and gets a verdict, not 4 TB/day of samples. This module is
//! that layer for the reproduction, built on two ideas:
//!
//! 1. **Logical ticks, not seconds.** Rates need a denominator. Wall
//!    clock would make every verdict nondeterministic, so the engine's
//!    time base is the *observation tick*: the driving loop (an epoch
//!    boundary, a scenario step) calls [`HealthEngine::observe`], which
//!    reads the cumulative counter sums the objectives and rollups need
//!    straight from the [`Registry`] ([`Registry::counter_sum`]: one
//!    family lookup per selector, no copy of the registry), keeps them
//!    as one small reading per tick in a ring of `window_long + 1`, and
//!    evaluates each window as the difference of two readings. Scrapes
//!    read the cached report and never advance time — N concurrent
//!    `/healthz` clients observe identical bytes and cannot perturb the
//!    verdict stream.
//! 2. **Multi-window burn rates.** Each [`SloObjective`] is evaluated
//!    over a short and a long window (Google SRE-style): a short-window
//!    spike plus a long-window trend pages ([`Verdict::Unhealthy`]); a
//!    single window over budget warns ([`Verdict::Degraded`]). All
//!    arithmetic is integer (parts-per-million and percent), so the
//!    rendered report is byte-stable for a fixed observation sequence.
//!
//! Subsystem rollups follow the RED/USE shape — **r**ate, **e**rrors,
//! **s**aturation per subsystem — derived purely from metric families
//! the stack already emits (epoch failures, retry exhaustion, consumer
//! lag, ISR shrinks, retention drops, alert volume). Gauges (objective
//! levels and USE saturation) are read at the current tick only
//! ([`Registry::gauge_max`]). Histograms are not read at all: the
//! `*_duration_ns` families carry wall clock, and no objective needs
//! them.

use std::collections::{BTreeMap, VecDeque};

use crate::registry::Registry;

/// `(family name, sorted label pairs)` — one series in a snapshot.
pub type SeriesKey = (String, Vec<(String, String)>);

/// An owned point-in-time copy of a [`Registry`]'s counter and gauge
/// values, as [`Registry::snapshot`] returns it. The health engine does
/// not read it; only the benchmark's `obs.snapshot_ns` probe takes one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter series values.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauge series values.
    pub gauges: BTreeMap<SeriesKey, i64>,
}

/// Selects counter/gauge series: a family name plus an optional
/// `(label, value)` pair every matched series must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// Metric family name, e.g. `retry_exhausted_total`.
    pub family: String,
    /// Optional label filter, e.g. `("op", "produce")`.
    pub label: Option<(String, String)>,
}

impl Selector {
    /// Match every series of `family`.
    pub fn family(family: &str) -> Self {
        Self {
            family: family.to_string(),
            label: None,
        }
    }

    /// Match the series of `family` carrying `label == value`.
    pub fn labeled(family: &str, label: &str, value: &str) -> Self {
        Self {
            family: family.to_string(),
            label: Some((label.to_string(), value.to_string())),
        }
    }
}

/// The subsystems health rolls up to, mirroring the crate layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// Broker, consumers, replication (`oda-stream`).
    Stream,
    /// Epoch executor and medallion flow (`oda-pipeline`).
    Pipeline,
    /// LAKE/OCEAN tiers and lifecycle (`oda-storage`).
    Storage,
    /// Injection and retry machinery (`oda-faults`).
    Faults,
    /// Query engine and online detectors (`oda-analytics`).
    Analytics,
}

impl Subsystem {
    /// Stable lowercase name used in JSON and sorting.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Stream => "stream",
            Subsystem::Pipeline => "pipeline",
            Subsystem::Storage => "storage",
            Subsystem::Faults => "faults",
            Subsystem::Analytics => "analytics",
        }
    }

    /// Every subsystem, in the fixed order reports render them.
    pub const ALL: [Subsystem; 5] = [
        Subsystem::Stream,
        Subsystem::Pipeline,
        Subsystem::Storage,
        Subsystem::Faults,
        Subsystem::Analytics,
    ];
}

/// How an [`SloObjective`] turns windowed counter sums (or a gauge
/// level) into a burn rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SloKind {
    /// Bad events over total events must stay under `target_ppm`
    /// (parts per million). Burn is `ratio / target` in percent.
    ErrorRatio {
        /// Counters counting successful work units.
        good: Vec<Selector>,
        /// Counters counting failed work units.
        bad: Vec<Selector>,
        /// Error budget: tolerated bad fraction, in ppm.
        target_ppm: u64,
    },
    /// A counter's per-tick rate must stay under `max_per_tick`.
    RateBound {
        /// The counter whose rate is bounded.
        counter: Selector,
        /// Tolerated events per observation tick.
        max_per_tick: u64,
    },
    /// A gauge level must stay under `max` (evaluated at the latest
    /// tick; the max across matching series is compared).
    GaugeBound {
        /// The gauge whose level is bounded.
        gauge: Selector,
        /// Tolerated level.
        max: i64,
    },
}

/// A declared service-level objective, owned by one subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloObjective {
    /// Stable identifier, e.g. `stream-delivery`.
    pub name: String,
    /// Subsystem the objective rolls up to.
    pub subsystem: Subsystem,
    /// The measurement.
    pub kind: SloKind,
}

/// Health verdict, ordered so `max` picks the worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Burn under budget on every window.
    Healthy,
    /// At least one window at or over budget (burn ≥ 100%).
    Degraded,
    /// Short *and* long windows burning ≥ [`PAGE_BURN_PCT`].
    Unhealthy,
}

impl Verdict {
    /// Stable lowercase name used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Healthy => "healthy",
            Verdict::Degraded => "degraded",
            Verdict::Unhealthy => "unhealthy",
        }
    }
}

/// Burn percentage at which both windows firing means "page": 6× the
/// error budget, the classic fast-burn multiwindow threshold.
pub const PAGE_BURN_PCT: u64 = 600;

/// Burn percentage at which a single window means "warn".
pub const WARN_BURN_PCT: u64 = 100;

/// Evaluation of one objective at one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveReport {
    /// Objective identifier.
    pub name: String,
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Worst-window verdict.
    pub verdict: Verdict,
    /// Burn percent over the short window (100 = exactly at budget).
    pub burn_short_pct: u64,
    /// Burn percent over the long window.
    pub burn_long_pct: u64,
    /// Kind-specific measured value over the short window
    /// (ppm for ratios, event count for rates, level for gauges).
    pub value: u64,
    /// Kind-specific budget the value is compared against.
    pub target: u64,
}

/// RED/USE rollup for one subsystem over the short window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsystemHealth {
    /// Which subsystem.
    pub subsystem: Subsystem,
    /// Worst verdict among the subsystem's objectives.
    pub verdict: Verdict,
    /// Work units processed in the short window (R of RED).
    pub rate: u64,
    /// Failed work units in the short window (E of RED).
    pub errors: u64,
    /// Current saturation level (USE), from the worst gauge —
    /// consumer lag for stream, tier bytes for storage; zero where no
    /// saturation gauge exists.
    pub saturation: u64,
}

/// One full health evaluation: overall verdict, per-subsystem rollups,
/// per-objective burn rates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Logical tick (number of `observe` calls) this report is for.
    pub tick: u64,
    /// Ticks covered by the short window at this point in history.
    pub window_short: u64,
    /// Ticks covered by the long window.
    pub window_long: u64,
    /// Worst verdict across all objectives.
    pub overall: Verdict,
    /// Rollups, one per subsystem, in [`Subsystem::ALL`] order.
    pub subsystems: Vec<SubsystemHealth>,
    /// Objective evaluations in declaration order.
    pub objectives: Vec<ObjectiveReport>,
}

impl HealthReport {
    /// The report rendered before any observation: tick 0, all healthy.
    pub fn empty() -> Self {
        Self {
            tick: 0,
            window_short: 0,
            window_long: 0,
            overall: Verdict::Healthy,
            subsystems: Subsystem::ALL
                .iter()
                .map(|&s| SubsystemHealth {
                    subsystem: s,
                    verdict: Verdict::Healthy,
                    rate: 0,
                    errors: 0,
                    saturation: 0,
                })
                .collect(),
            objectives: Vec::new(),
        }
    }
}

/// What one tick keeps of the registry: the cumulative counter sums
/// the engine judges. A window is the difference of two readings.
#[derive(Debug, Clone)]
struct Reading {
    /// Per objective, `[good or events, bad]` (zero for gauge bounds).
    objectives: Vec<[u64; 2]>,
    /// Per subsystem in [`Subsystem::ALL`] order, RED `[rate, errors]`.
    subsystems: [[u64; 2]; 5],
}

impl Reading {
    fn take(objectives: &[SloObjective], reg: &Registry) -> Self {
        Self {
            objectives: objectives.iter().map(|o| sums(&o.kind, reg)).collect(),
            subsystems: Subsystem::ALL.map(|s| red(s, reg)),
        }
    }

    /// `self − base`, saturating per sum: a sum that went backwards
    /// reads as no progress, never as wraparound.
    fn since(&self, base: &Self) -> Self {
        let sub =
            |a: &[u64; 2], b: &[u64; 2]| [a[0].saturating_sub(b[0]), a[1].saturating_sub(b[1])];
        Self {
            objectives: (self.objectives.iter().zip(&base.objectives))
                .map(|(a, b)| sub(a, b))
                .collect(),
            subsystems: std::array::from_fn(|i| sub(&self.subsystems[i], &base.subsystems[i])),
        }
    }
}

/// The engine: declared objectives plus a ring of per-tick readings.
///
/// Drive it from the *data-plane loop* (one [`observe`] per epoch or
/// scenario step); serve scrapes from [`last_report`], which is
/// read-only. The engine never writes to the registry, so attaching it
/// cannot perturb chaos byte-identity.
///
/// [`observe`]: HealthEngine::observe
/// [`last_report`]: HealthEngine::last_report
#[derive(Debug, Clone)]
pub struct HealthEngine {
    objectives: Vec<SloObjective>,
    window_short: usize,
    window_long: usize,
    history: VecDeque<Reading>,
    tick: u64,
    last: HealthReport,
}

impl HealthEngine {
    /// An engine over `objectives` with explicit window sizes (ticks).
    ///
    /// # Panics
    /// If `window_short` is zero or exceeds `window_long`
    /// (configuration-time misuse).
    pub fn new(objectives: Vec<SloObjective>, window_short: usize, window_long: usize) -> Self {
        assert!(
            window_short > 0 && window_short <= window_long,
            "health windows must satisfy 0 < short <= long"
        );
        Self {
            objectives,
            window_short,
            window_long,
            history: VecDeque::with_capacity(window_long + 1),
            tick: 0,
            last: HealthReport::empty(),
        }
    }

    /// The stack's stock objectives over 5-tick / 60-tick windows.
    pub fn with_defaults() -> Self {
        Self::new(default_objectives(), 5, 60)
    }

    /// The declared objectives.
    pub fn objectives(&self) -> &[SloObjective] {
        &self.objectives
    }

    /// Read the registry in place, advance one tick, and evaluate every
    /// objective.
    ///
    /// The tick reads only the families its selectors name, under the
    /// registry's read locks; it copies nothing and never writes. This
    /// is the only method that moves logical time. Call it from exactly
    /// one place in the driving loop; concurrent scrapers must use
    /// [`Self::last_report`].
    pub fn observe(&mut self, registry: &Registry) -> HealthReport {
        if self.history.len() > self.window_long {
            self.history.pop_front();
        }
        self.history
            .push_back(Reading::take(&self.objectives, registry));
        self.tick += 1;
        self.last = self.evaluate(registry);
        self.last.clone()
    }

    /// The most recent report (the pre-observation empty report before
    /// the first tick). Read-only: safe from any number of scrapers.
    pub fn last_report(&self) -> HealthReport {
        self.last.clone()
    }

    /// The sums over the trailing `window` ticks plus the tick count
    /// they actually cover (shorter early in history).
    fn window(&self, window: usize) -> (Reading, u64) {
        let len = self.history.len();
        let latest = &self.history[len - 1];
        match window.min(len - 1) {
            // First observation: everything counts from zero so the
            // initial report reflects totals, not an empty window.
            0 => (latest.clone(), 1),
            ticks => (latest.since(&self.history[len - 1 - ticks]), ticks as u64),
        }
    }

    fn evaluate(&self, latest: &Registry) -> HealthReport {
        let (short, ticks_short) = self.window(self.window_short);
        let (long, ticks_long) = self.window(self.window_long);

        let objectives: Vec<ObjectiveReport> = self
            .objectives
            .iter()
            .enumerate()
            .map(|(i, o)| {
                let (burn_short, value, target) =
                    burn(&o.kind, short.objectives[i], ticks_short, latest);
                let (burn_long, _, _) = burn(&o.kind, long.objectives[i], ticks_long, latest);
                let verdict = if burn_short >= PAGE_BURN_PCT && burn_long >= PAGE_BURN_PCT {
                    Verdict::Unhealthy
                } else if burn_short >= WARN_BURN_PCT || burn_long >= WARN_BURN_PCT {
                    Verdict::Degraded
                } else {
                    Verdict::Healthy
                };
                ObjectiveReport {
                    name: o.name.clone(),
                    subsystem: o.subsystem,
                    verdict,
                    burn_short_pct: burn_short,
                    burn_long_pct: burn_long,
                    value,
                    target,
                }
            })
            .collect();

        let subsystems = Subsystem::ALL
            .iter()
            .zip(short.subsystems)
            .map(|(&s, [rate, errors])| {
                let verdict = objectives
                    .iter()
                    .filter(|o| o.subsystem == s)
                    .map(|o| o.verdict)
                    .max()
                    .unwrap_or(Verdict::Healthy);
                SubsystemHealth {
                    subsystem: s,
                    verdict,
                    rate,
                    errors,
                    saturation: saturation(s, latest),
                }
            })
            .collect();

        let overall = objectives
            .iter()
            .map(|o| o.verdict)
            .max()
            .unwrap_or(Verdict::Healthy);

        HealthReport {
            tick: self.tick,
            window_short: ticks_short,
            window_long: ticks_long,
            overall,
            subsystems,
            objectives,
        }
    }
}

/// Sum of the counter series matched by any of `sels`.
fn sum_of(reg: &Registry, sels: &[Selector]) -> u64 {
    sels.iter()
        .map(|s| reg.counter_sum(s))
        .fold(0, u64::saturating_add)
}

/// One objective's cumulative counter sums: `[good, bad]` for a ratio,
/// `[events, 0]` for a rate; a gauge bound reads no counter.
fn sums(kind: &SloKind, reg: &Registry) -> [u64; 2] {
    match kind {
        SloKind::ErrorRatio { good, bad, .. } => [sum_of(reg, good), sum_of(reg, bad)],
        SloKind::RateBound { counter, .. } => [reg.counter_sum(counter), 0],
        SloKind::GaugeBound { .. } => [0, 0],
    }
}

/// Burn percent for one kind over one window's sums, plus the measured
/// value and its budget (for the report's `value`/`target` fields).
fn burn(kind: &SloKind, [n, bad_n]: [u64; 2], ticks: u64, latest: &Registry) -> (u64, u64, u64) {
    match kind {
        SloKind::ErrorRatio { target_ppm, .. } => {
            let total = n.saturating_add(bad_n);
            if total == 0 {
                // No traffic: vacuously within budget.
                return (0, 0, *target_ppm);
            }
            let ratio_ppm = bad_n.saturating_mul(1_000_000) / total;
            let burn_pct = ratio_ppm.saturating_mul(100) / (*target_ppm).max(1);
            (burn_pct, ratio_ppm, *target_ppm)
        }
        SloKind::RateBound { max_per_tick, .. } => {
            let budget = max_per_tick.saturating_mul(ticks.max(1));
            let burn_pct = n.saturating_mul(100) / budget.max(1);
            (burn_pct, n, budget)
        }
        SloKind::GaugeBound { gauge, max } => {
            let level = latest.gauge_max(gauge).max(0) as u64;
            let budget = (*max).max(1) as u64;
            let burn_pct = level.saturating_mul(100) / budget;
            (burn_pct, level, budget)
        }
    }
}

/// RED inputs per subsystem: cumulative `[rate, errors]` counter sums.
fn red(s: Subsystem, reg: &Registry) -> [u64; 2] {
    let sum = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| reg.counter_sum(&Selector::family(n)))
            .fold(0, u64::saturating_add)
    };
    match s {
        Subsystem::Stream => [
            sum(&["stream_produce_records_total", "stream_fetch_records_total"]),
            sum(&[
                "retry_exhausted_total",
                "stream_retention_dropped_records_total",
                "stream_isr_shrinks_total",
            ]),
        ],
        Subsystem::Pipeline => [
            sum(&["pipeline_records_total"]),
            sum(&["pipeline_failed_epochs_total"]),
        ],
        Subsystem::Storage => [
            sum(&["ocean_put_objects_total", "lake_inserted_points_total"]),
            reg.counter_sum(&Selector::labeled(
                "storage_lifecycle_actions_total",
                "action",
                "migrate-failed",
            ))
            .saturating_add(sum(&["lake_retention_dropped_points_total"])),
        ],
        Subsystem::Faults => [
            sum(&["faults_injected_total", "retry_attempts_retried_total"]),
            sum(&["retry_exhausted_total"]),
        ],
        Subsystem::Analytics => [
            sum(&["query_plans_executed_total"]),
            sum(&["oda_alerts_fired_total"]),
        ],
    }
}

/// USE saturation per subsystem: the worst level of its gauge at the
/// current tick (zero where no saturation gauge exists).
fn saturation(s: Subsystem, latest: &Registry) -> u64 {
    let family = match s {
        Subsystem::Stream => "stream_consumer_lag",
        Subsystem::Storage => "storage_tier_bytes",
        Subsystem::Analytics => "lake_points",
        Subsystem::Pipeline | Subsystem::Faults => return 0,
    };
    latest.gauge_max(&Selector::family(family)).max(0) as u64
}

/// The stack's stock objectives: one availability/stability objective
/// per plane, all derived from families the crates already emit.
pub fn default_objectives() -> Vec<SloObjective> {
    vec![
        SloObjective {
            name: "stream-delivery".into(),
            subsystem: Subsystem::Stream,
            kind: SloKind::ErrorRatio {
                good: vec![
                    Selector::family("stream_produce_records_total"),
                    Selector::family("stream_fetch_records_total"),
                ],
                bad: vec![Selector::family("retry_exhausted_total")],
                target_ppm: 10_000, // 1% of deliveries may exhaust retries
            },
        },
        SloObjective {
            name: "stream-isr-stability".into(),
            subsystem: Subsystem::Stream,
            kind: SloKind::RateBound {
                counter: Selector::family("stream_isr_shrinks_total"),
                max_per_tick: 1,
            },
        },
        SloObjective {
            name: "stream-consumer-lag".into(),
            subsystem: Subsystem::Stream,
            kind: SloKind::GaugeBound {
                gauge: Selector::family("stream_consumer_lag"),
                max: 10_000,
            },
        },
        SloObjective {
            name: "pipeline-epoch-success".into(),
            subsystem: Subsystem::Pipeline,
            kind: SloKind::ErrorRatio {
                good: vec![Selector::family("pipeline_epochs_total")],
                bad: vec![Selector::family("pipeline_failed_epochs_total")],
                target_ppm: 100_000, // chaos presets retry failed epochs
            },
        },
        SloObjective {
            name: "storage-migration".into(),
            subsystem: Subsystem::Storage,
            kind: SloKind::ErrorRatio {
                good: vec![Selector::labeled(
                    "storage_lifecycle_actions_total",
                    "action",
                    "archived",
                )],
                bad: vec![Selector::labeled(
                    "storage_lifecycle_actions_total",
                    "action",
                    "migrate-failed",
                )],
                target_ppm: 100_000,
            },
        },
        SloObjective {
            name: "fault-pressure".into(),
            subsystem: Subsystem::Faults,
            kind: SloKind::RateBound {
                counter: Selector::family("faults_injected_total"),
                max_per_tick: 50,
            },
        },
        SloObjective {
            name: "alert-volume".into(),
            subsystem: Subsystem::Analytics,
            kind: SloKind::RateBound {
                counter: Selector::family("oda_alerts_fired_total"),
                max_per_tick: 5,
            },
        },
    ]
}

/// Render a report as pretty-printed JSON, byte-stable for equal
/// reports: integer-valued fields only, fixed key order, no wall-clock
/// anywhere. This is the `/healthz` body and the golden-fixture format.
pub fn render_health_json(report: &HealthReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    push_kv_u64(&mut out, 1, "tick", report.tick, true);
    push_kv_u64(&mut out, 1, "window_short_ticks", report.window_short, true);
    push_kv_u64(&mut out, 1, "window_long_ticks", report.window_long, true);
    push_kv_str(&mut out, 1, "overall", report.overall.as_str(), true);

    indent(&mut out, 1);
    out.push_str("\"subsystems\": [\n");
    for (i, s) in report.subsystems.iter().enumerate() {
        indent(&mut out, 2);
        out.push_str("{\n");
        push_kv_str(&mut out, 3, "subsystem", s.subsystem.as_str(), true);
        push_kv_str(&mut out, 3, "verdict", s.verdict.as_str(), true);
        push_kv_u64(&mut out, 3, "rate", s.rate, true);
        push_kv_u64(&mut out, 3, "errors", s.errors, true);
        push_kv_u64(&mut out, 3, "saturation", s.saturation, false);
        indent(&mut out, 2);
        out.push('}');
        if i + 1 < report.subsystems.len() {
            out.push(',');
        }
        out.push('\n');
    }
    indent(&mut out, 1);
    out.push_str("],\n");

    indent(&mut out, 1);
    out.push_str("\"objectives\": [\n");
    for (i, o) in report.objectives.iter().enumerate() {
        indent(&mut out, 2);
        out.push_str("{\n");
        push_kv_str(&mut out, 3, "name", &o.name, true);
        push_kv_str(&mut out, 3, "subsystem", o.subsystem.as_str(), true);
        push_kv_str(&mut out, 3, "verdict", o.verdict.as_str(), true);
        push_kv_u64(&mut out, 3, "burn_short_pct", o.burn_short_pct, true);
        push_kv_u64(&mut out, 3, "burn_long_pct", o.burn_long_pct, true);
        push_kv_u64(&mut out, 3, "value", o.value, true);
        push_kv_u64(&mut out, 3, "target", o.target, false);
        indent(&mut out, 2);
        out.push('}');
        if i + 1 < report.objectives.len() {
            out.push(',');
        }
        out.push('\n');
    }
    indent(&mut out, 1);
    out.push_str("]\n");
    out.push_str("}\n");
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn push_kv_u64(out: &mut String, level: usize, key: &str, v: u64, comma: bool) {
    indent(out, level);
    out.push('"');
    out.push_str(key);
    out.push_str("\": ");
    out.push_str(&v.to_string());
    if comma {
        out.push(',');
    }
    out.push('\n');
}

fn push_kv_str(out: &mut String, level: usize, key: &str, v: &str, comma: bool) {
    indent(out, level);
    out.push('"');
    out.push_str(key);
    out.push_str("\": \"");
    // Objective names are public, caller-declared strings.
    crate::export::esc_into(v, out);
    out.push('"');
    if comma {
        out.push(',');
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window is the difference of two readings' sums, so a counter
    /// first seen mid-history counts from zero. Sums saturate as a whole
    /// where per-series deltas saturated each series; the two agree on
    /// every registry, because a [`crate::Counter`] only has `add`/`inc`.
    #[test]
    fn windowed_sums_count_new_series_from_zero() {
        let reg = Registry::new();
        let x = reg.counter("stream_produce_records_total", "", &[]);
        let mut eng = HealthEngine::new(default_objectives(), 1, 4);
        let mut rates = || {
            let r = eng.observe(&reg);
            [r.subsystems[0].rate, r.subsystems[1].rate]
        };
        x.add(10);
        let first = rates();
        x.add(15);
        // `pipeline_records_total` appears at tick 2 and counts from zero.
        reg.counter("pipeline_records_total", "", &[]).add(3);
        let second = rates();
        if crate::enabled() {
            assert_eq!([first, second], [[10, 0], [15, 3]]);
        } else {
            assert_eq!([first, second], [[0, 0]; 2]);
        }
    }

    /// A sum that goes backwards reads no progress, not a wraparound. A
    /// registry counter cannot go backwards, so this drives the ring's
    /// difference directly.
    #[test]
    fn reading_since_never_wraps() {
        let at = |x: u64| Reading {
            objectives: vec![[x, 3]],
            subsystems: [[x, 3]; 5],
        };
        let back = at(10).since(&at(25));
        assert_eq!(back.objectives, [[0, 0]]);
        assert_eq!(back.subsystems, [[0, 0]; 5]);
        let forward = at(25).since(&at(10));
        assert_eq!(forward.objectives, [[15, 0]]);
    }

    /// Error-ratio SLO: healthy under clean traffic, degraded when the
    /// bad counter starts burning budget, unhealthy on sustained burn.
    #[test]
    fn burn_rate_verdict_transitions() {
        let objectives = vec![SloObjective {
            name: "delivery".into(),
            subsystem: Subsystem::Stream,
            kind: SloKind::ErrorRatio {
                good: vec![Selector::family("ok_total")],
                bad: vec![Selector::family("bad_total")],
                target_ppm: 10_000, // 1%
            },
        }];
        let mut eng = HealthEngine::new(objectives, 2, 8);
        let reg = Registry::new();
        let (ok, bad) = (
            reg.counter("ok_total", "", &[]),
            reg.counter("bad_total", "", &[]),
        );
        let mut ticks = |n: usize, good: u64, failed: u64| {
            let mut tick = || {
                ok.add(good);
                bad.add(failed);
                eng.observe(&reg)
            };
            (0..n).map(|_| tick()).collect::<Vec<_>>()
        };

        // Clean traffic: 100 good per tick.
        let clean = ticks(4, 100, 0);
        // 10% failures: 10x the 1% budget → short and long windows both
        // exceed the 600% page threshold once sustained.
        let burning = ticks(8, 90, 10).pop().unwrap();
        // Back to clean traffic: the short window recovers first
        // (degraded while the long window still remembers the burn).
        let recovering = ticks(3, 100, 0).pop().unwrap();
        let recovered = ticks(8, 100, 0).pop().unwrap();
        assert!(clean.iter().all(|r| r.overall == Verdict::Healthy));
        if crate::enabled() {
            assert_eq!(burning.overall, Verdict::Unhealthy);
            assert_eq!(burning.objectives[0].value, 100_000); // 10% in ppm
            assert_eq!(recovering.overall, Verdict::Degraded);
        } else {
            assert_eq!(burning.overall, Verdict::Healthy);
            assert_eq!(recovering.overall, Verdict::Healthy);
        }
        assert_eq!(recovered.overall, Verdict::Healthy);
    }

    #[test]
    fn rate_bound_and_gauge_bound() {
        let objectives = vec![
            SloObjective {
                name: "events".into(),
                subsystem: Subsystem::Faults,
                kind: SloKind::RateBound {
                    counter: Selector::family("ev_total"),
                    max_per_tick: 10,
                },
            },
            SloObjective {
                name: "level".into(),
                subsystem: Subsystem::Stream,
                kind: SloKind::GaugeBound {
                    gauge: Selector::family("lag"),
                    max: 100,
                },
            },
        ];
        let mut eng = HealthEngine::new(objectives, 2, 4);
        let reg = Registry::new();
        let (ev, lag) = (reg.counter("ev_total", "", &[]), reg.gauge("lag", "", &[]));
        let mut tick = |events: u64, level: i64| {
            ev.add(events);
            lag.set(level);
            eng.observe(&reg)
        };
        assert_eq!(tick(5, 40).overall, Verdict::Healthy);
        // 200 events in one tick = 20x budget on both windows → page.
        let paged = tick(200, 40);
        // Gauge at 150% of bound → degraded (levels don't multi-window).
        let high = tick(0, 150);
        if crate::enabled() {
            assert_eq!(paged.objectives[0].verdict, Verdict::Unhealthy);
            assert_eq!(high.objectives[1].verdict, Verdict::Degraded);
            assert_eq!(high.objectives[1].value, 150);
        } else {
            assert_eq!(paged.overall, Verdict::Healthy);
            assert_eq!(high.overall, Verdict::Healthy);
        }
    }

    /// Storage migration counts only archived moves as successes:
    /// expiries are not migrations, and a failed migration is no success.
    #[test]
    fn storage_migration_counts_only_archived_moves_as_good() {
        let reg = Registry::new();
        let action = |a: &str, n| {
            reg.counter("storage_lifecycle_actions_total", "", &[("action", a)])
                .add(n)
        };
        action("archived", 9);
        action("migrate-failed", 1);
        action("expired", 40);
        let report = HealthEngine::with_defaults().observe(&reg);
        let migration = (report.objectives.iter())
            .find(|o| o.name == "storage-migration")
            .expect("stock objective present");
        if crate::enabled() {
            // 1 failed of 10 migrations: exactly the 10% budget.
            assert_eq!(migration.value, 100_000);
            assert_eq!(migration.verdict, Verdict::Degraded);
        } else {
            assert_eq!(migration.verdict, Verdict::Healthy);
        }
    }

    #[test]
    fn first_tick_reports_totals_and_is_deterministic() {
        let mut a = HealthEngine::with_defaults();
        let mut b = HealthEngine::with_defaults();
        let reg = Registry::new();
        reg.counter("stream_produce_records_total", "", &[])
            .add(500);
        let ra = a.observe(&reg);
        let rb = b.observe(&reg);
        assert_eq!(ra, rb);
        assert_eq!(render_health_json(&ra), render_health_json(&rb));
        assert_eq!(ra.tick, 1);
        let stream = &ra.subsystems[0];
        assert_eq!(stream.subsystem, Subsystem::Stream);
        if crate::enabled() {
            assert_eq!(stream.rate, 500);
        }
    }

    /// The windowed engine keeps a bounded ring of readings; its report
    /// at every tick must equal what a fresh engine computes by
    /// replaying the whole history up to that tick on a fresh registry
    /// — including after the ring has started evicting (history longer
    /// than the long window).
    #[test]
    fn incremental_tick_matches_replay_from_scratch() {
        const TICKS: u64 = 70;
        let reg = Registry::new();
        let mut incremental = HealthEngine::with_defaults();
        for t in 1..=TICKS {
            drive_scripted_tick(&reg, t);
            let report = incremental.observe(&reg);
            let (replay_reg, mut replay) = (Registry::new(), HealthEngine::with_defaults());
            let mut replayed = HealthReport::empty();
            for s in 1..=t {
                drive_scripted_tick(&replay_reg, s);
                replayed = replay.observe(&replay_reg);
            }
            assert_eq!(
                render_health_json(&report),
                render_health_json(&replayed),
                "tick {t}"
            );
        }
        assert!(TICKS as usize > incremental.window_long + 1, "ring evicted");
    }

    /// Tick `t` of a scripted stack: labeled series in every engine
    /// family, per-partition lag, a mix of lifecycle actions, and bursts
    /// that push objectives over budget.
    fn drive_scripted_tick(reg: &Registry, t: u64) {
        let c = |name: &str, labels: &[(&str, &str)], n: u64| reg.counter(name, "", labels).add(n);
        let burst = |from: u64, to: u64| (from..to).contains(&t);
        for p in ["0", "1", "2", "3"] {
            let pn: u64 = p.parse().unwrap();
            c(
                "stream_produce_records_total",
                &[("partition", p), ("topic", "t")],
                100 + pn * 10,
            );
            c(
                "stream_fetch_records_total",
                &[("group", "g"), ("partition", p)],
                90 + pn,
            );
            if burst(40, 43) {
                c("stream_isr_shrinks_total", &[("partition", p)], pn % 2 * 2);
            }
            let lag = if pn == 2 && burst(50, 55) {
                12_000
            } else {
                (t * 13 + pn * 37) % 700
            };
            reg.gauge(
                "stream_consumer_lag",
                "",
                &[("group", "g"), ("partition", p)],
            )
            .set(lag as i64);
        }
        c(
            "retry_exhausted_total",
            &[("op", "produce")],
            if burst(3, 9) { 80 } else { 0 },
        );
        c(
            "retry_exhausted_total",
            &[("op", "fetch")],
            u64::from(t.is_multiple_of(7)),
        );
        c("pipeline_epochs_total", &[], 1);
        c("pipeline_records_total", &[("stage", "silver")], 400);
        c(
            "pipeline_failed_epochs_total",
            &[("stage", "gold")],
            u64::from(t.is_multiple_of(9)),
        );
        for (action, every, n) in [
            ("archived", 5, 9),
            ("expired", 4, 3),
            ("migrate-failed", 10, 1),
        ] {
            let n = if t.is_multiple_of(every) { n } else { 0 };
            c("storage_lifecycle_actions_total", &[("action", action)], n);
        }
        c("ocean_put_objects_total", &[], 2);
        c("lake_inserted_points_total", &[("table", "power")], 50);
        c(
            "lake_retention_dropped_points_total",
            &[],
            u64::from(t.is_multiple_of(11)) * 5,
        );
        for (tier, bytes) in [("hot", t * 1_000), ("ocean", t * 40_000)] {
            reg.gauge("storage_tier_bytes", "", &[("tier", tier)])
                .set(bytes as i64);
        }
        c("faults_injected_total", &[("kind", "drop")], (t * 7) % 60);
        c("retry_attempts_retried_total", &[("op", "produce")], t % 3);
        c(
            "oda_alerts_fired_total",
            &[("detector", "ewma")],
            if burst(60, 63) { 9 } else { t % 4 },
        );
        c("query_plans_executed_total", &[], 3);
        reg.gauge("lake_points", "", &[]).set((t * 50) as i64);
    }

    /// A real registry through a 70-tick scripted history, beside 1 000
    /// series of a family no objective reads. Every tick's render folds
    /// into one pinned hash, so any change in what a tick reads from the
    /// registry moves it.
    #[test]
    fn scripted_registry_history_renders_pinned_bytes() {
        let reg = Registry::new();
        for i in 0..1_000u64 {
            let series = i.to_string();
            reg.counter("unrelated_requests_total", "", &[("series", &series)])
                .add(i);
        }
        let mut eng = HealthEngine::with_defaults();
        let mut rendered = String::new();
        let mut worst = Verdict::Healthy;
        for t in 1..=70 {
            drive_scripted_tick(&reg, t);
            let report = eng.observe(&reg);
            worst = worst.max(report.overall);
            rendered.push_str(&render_health_json(&report));
        }
        if crate::enabled() {
            assert_eq!(worst, Verdict::Unhealthy, "the bursts must page");
            assert_eq!(crate::fnv1a(rendered.as_bytes()), 0xb6cd_b28d_8f96_fad3);
        } else {
            assert_eq!(worst, Verdict::Healthy);
        }
    }

    #[test]
    fn scrapes_do_not_advance_time() {
        let mut eng = HealthEngine::with_defaults();
        let reg = Registry::new();
        reg.counter("stream_produce_records_total", "", &[]).add(10);
        eng.observe(&reg);
        let r1 = eng.last_report();
        let r2 = eng.last_report();
        assert_eq!(r1, r2);
        assert_eq!(eng.last_report().tick, 1);
    }

    #[test]
    fn render_is_valid_shape_and_stable() {
        let mut eng = HealthEngine::with_defaults();
        let reg = Registry::new();
        reg.counter("stream_produce_records_total", "", &[]).add(10);
        let r = eng.observe(&reg);
        let j = render_health_json(&r);
        assert_eq!(j, render_health_json(&r));
        assert!(j.starts_with("{\n"));
        assert!(j.ends_with("}\n"));
        assert!(j.contains("\"overall\": \"healthy\""));
        assert!(j.contains("\"subsystem\": \"stream\""));
        assert!(j.contains("\"name\": \"stream-delivery\""));
        // Exactly one series per declared objective.
        assert_eq!(
            j.matches("\"burn_short_pct\"").count(),
            default_objectives().len()
        );
    }

    #[test]
    fn render_escapes_control_characters_in_objective_names() {
        let objectives = vec![SloObjective {
            name: "a\tb\r\u{1}".into(),
            subsystem: Subsystem::Faults,
            kind: SloKind::RateBound {
                counter: Selector::family("ev_total"),
                max_per_tick: 1,
            },
        }];
        let mut eng = HealthEngine::new(objectives, 2, 4);
        let j = render_health_json(&eng.observe(&Registry::new()));
        assert!(j.contains("\"name\": \"a\\tb\\r\\u0001\""), "{j}");
        // RFC 8259: no raw control character inside the document; the
        // only bytes below 0x20 are the renderer's own line breaks.
        assert!(
            j.bytes().all(|b| b >= 0x20 || b == b'\n'),
            "raw control byte in {j:?}"
        );
    }

    #[test]
    fn empty_report_is_healthy() {
        let r = HealthReport::empty();
        assert_eq!(r.overall, Verdict::Healthy);
        assert_eq!(r.subsystems.len(), 5);
        let j = render_health_json(&r);
        assert!(j.contains("\"tick\": 0"));
    }
}
