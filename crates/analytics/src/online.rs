//! Online ODA operators: streaming detectors over live Silver windows.
//!
//! This module is the "insight" half of the inundation-to-insight loop:
//! detectors that run *inside* the pipeline, on each closed 15 s window,
//! rather than as offline batch refinement. Four detector families:
//!
//! * **Rolling z-score** — each watched series keeps a bounded window of
//!   past window-means; a new mean more than `z_threshold` deviations
//!   from the window statistics raises an anomaly alert.
//! * **EWMA deviation** — an exponentially weighted mean/variance per
//!   series; large deviations from the smoothed baseline alert with a
//!   longer memory than the rolling window.
//! * **Sensor health** — per-series scoring of dropout rate (missing
//!   samples vs. the series' observed sample rate), stuck-at runs
//!   (bit-identical window means), and firmware-skew drift (a node's
//!   reading drifting away from the fleet median of the same sensor).
//! * **Job footprint** — per-job power profiles accumulated from live
//!   windows and classified with the Fig. 10 classifier features from
//!   `oda-ml` when the job completes.
//!
//! # Replay stability
//!
//! Detectors are stateful, so exactly-once semantics cannot come from
//! the sink-idempotency trick alone — re-running a detector over a
//! replayed epoch would double its state updates. [`AlertingSink`]
//! solves this at the epoch boundary: it wraps the real sink and skips
//! detection for any epoch at or below the highest epoch already
//! analyzed. Replayed epochs are byte-identical to their first delivery
//! (the chaos suite proves this for the Silver stream), so skipping
//! them yields exactly the alert stream of a fault-free run. The chaos
//! suite extends its byte-identity checks to the encoded alert stream.
//!
//! # Determinism
//!
//! Alerts carry no wall-clock and no randomness; emission order is the
//! deterministic Silver row order (window, then node/sensor key). Two
//! runs over the same stream — any worker count, any fault schedule —
//! produce byte-identical [`alerts_jsonl`] encodings.

use oda_ml::classifier::{ProfileClassifier, TrainConfig};
use oda_obs::{trace_id, trace_span, Registry, TraceEventKind};
use oda_pipeline::frame::Frame;
use oda_pipeline::streaming::{EpochMeta, Sink};
use oda_pipeline::PipelineError;
use oda_telemetry::jobs::{ApplicationArchetype, Job};
use oda_telemetry::power::PowerModel;
use oda_telemetry::system::SystemModel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// Alert severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Operationally interesting, no action required.
    Info,
    /// Needs a look.
    Warning,
    /// Needs action.
    Critical,
}

impl Severity {
    /// Lowercase stable label (metrics/trace payloads).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

/// One deterministic, replay-stable alert record.
///
/// Field order is the canonical wire order ([`alerts_jsonl`] relies on
/// serde emitting fields in declaration order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Event-time start of the window the alert fired on (ms).
    pub window_ms: i64,
    /// Detector that fired: `zscore`, `ewma`, `health-dropout`,
    /// `health-stuck`, `health-skew`, or `footprint`.
    pub detector: String,
    /// How bad.
    pub severity: Severity,
    /// Node scope (-1 for facility-wide subjects).
    pub node: i64,
    /// Sensor (or subject) the alert is about.
    pub sensor: String,
    /// The observed value that fired.
    pub value: f64,
    /// The baseline the value was judged against.
    pub baseline: f64,
    /// Human-readable description (deterministic).
    pub message: String,
}

/// Canonical JSONL encoding of an alert stream — the byte-identity
/// surface the chaos suite pins, and the golden-fixture format.
pub fn alerts_jsonl(alerts: &[Alert]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&serde_json::to_string(a).expect("alert serializes"));
        out.push('\n');
    }
    out
}

/// Parse [`alerts_jsonl`] output (golden fixtures, alert topics).
pub fn parse_alerts_jsonl(input: &str) -> Result<Vec<Alert>, serde_json::Error> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// Knobs for the online detector engine.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Sensors the z-score/EWMA/health detectors watch.
    pub watch: Vec<String>,
    /// Sensors the fleet-median skew detector watches (should be flat
    /// across nodes when healthy, e.g. inlet temperature).
    pub skew_watch: Vec<String>,
    /// Rolling window length (in closed windows) for the z-score.
    pub z_window: usize,
    /// |z| that raises an anomaly.
    pub z_threshold: f64,
    /// EWMA smoothing factor in (0, 1].
    pub ewma_alpha: f64,
    /// EWMA deviations (in smoothed sigmas) that raise an anomaly.
    pub ewma_threshold: f64,
    /// Closed windows a series must accumulate before its anomaly
    /// detectors arm (warm-up).
    pub min_windows: usize,
    /// Windows in the health dropout average.
    pub health_window: usize,
    /// Rolling dropout fraction that raises a warning.
    pub dropout_warning: f64,
    /// Rolling dropout fraction that raises a critical alert.
    pub dropout_critical: f64,
    /// Consecutive bit-identical window means that mean "stuck-at".
    pub stuck_windows: u32,
    /// Relative deviation from the fleet median that means firmware
    /// skew.
    pub skew_threshold: f64,
    /// Minimum nodes reporting a sensor before skew scoring runs.
    pub skew_min_nodes: usize,
    /// Minimum profile length (windows) before a job footprint is
    /// classified.
    pub footprint_min_windows: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            watch: vec![
                "node_power_w".into(),
                "node_inlet_temp_c".into(),
                "node_outlet_temp_c".into(),
                "substation_power_w".into(),
                "plant_return_temp_c".into(),
            ],
            skew_watch: vec!["node_inlet_temp_c".into()],
            z_window: 20,
            z_threshold: 4.5,
            ewma_alpha: 0.15,
            ewma_threshold: 6.0,
            min_windows: 8,
            health_window: 16,
            dropout_warning: 0.25,
            dropout_critical: 0.5,
            stuck_windows: 6,
            skew_threshold: 0.02,
            skew_min_nodes: 3,
            footprint_min_windows: 6,
        }
    }
}

// ---------------------------------------------------------------------------
// Detector algebra (pure, property-tested).
// ---------------------------------------------------------------------------

/// Exponentially weighted mean and variance (West's update).
///
/// Incremental by construction: feeding a sequence in any split of
/// consecutive chunks produces bit-identical state to feeding it whole.
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    mean: f64,
    var: f64,
    n: u64,
}

impl Ewma {
    /// A fresh estimator with smoothing factor `alpha` in (0, 1].
    pub fn new(alpha: f64) -> Ewma {
        Ewma {
            alpha,
            mean: 0.0,
            var: 0.0,
            n: 0,
        }
    }

    /// Fold one sample into the estimate.
    pub fn update(&mut self, x: f64) {
        if self.n == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let d = x - self.mean;
            self.mean += self.alpha * d;
            self.var = (1.0 - self.alpha) * (self.var + self.alpha * d * d);
        }
        self.n += 1;
    }

    /// Batch recompute: fold `xs` into a fresh estimator.
    pub fn batch(alpha: f64, xs: &[f64]) -> Ewma {
        let mut e = Ewma::new(alpha);
        for &x in xs {
            e.update(x);
        }
        e
    }

    /// Smoothed mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smoothed standard deviation.
    pub fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Samples folded so far.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Bounded rolling window with O(1) running mean/std.
#[derive(Debug, Clone)]
pub struct RollingWindow {
    cap: usize,
    buf: VecDeque<f64>,
    sum: f64,
    sumsq: f64,
}

impl RollingWindow {
    /// A window holding at most `cap` samples.
    pub fn new(cap: usize) -> RollingWindow {
        RollingWindow {
            cap: cap.max(1),
            buf: VecDeque::new(),
            sum: 0.0,
            sumsq: 0.0,
        }
    }

    /// Push a sample, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        if self.buf.len() == self.cap {
            let old = self.buf.pop_front().expect("cap >= 1");
            self.sum -= old;
            self.sumsq -= old * old;
        }
        self.buf.push_back(x);
        self.sum += x;
        self.sumsq += x * x;
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Running mean from the maintained sums.
    pub fn mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Running population standard deviation from the maintained sums.
    pub fn std(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let n = self.buf.len() as f64;
        let m = self.sum / n;
        (self.sumsq / n - m * m).max(0.0).sqrt()
    }

    /// Mean recomputed from the raw buffer (property-test oracle).
    pub fn batch_mean(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.buf.iter().sum::<f64>() / self.buf.len() as f64
        }
    }

    /// Std recomputed from the raw buffer (property-test oracle).
    pub fn batch_std(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        let n = self.buf.len() as f64;
        let m = self.batch_mean();
        (self.buf.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n)
            .max(0.0)
            .sqrt()
    }
}

// ---------------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SeriesState {
    zwin: RollingWindow,
    ewma: Ewma,
    /// Rolling (missing, expected) window tallies for dropout scoring.
    health: VecDeque<(f64, f64)>,
    /// Largest per-window sample count seen (the series' sample rate).
    max_count: i64,
    /// Consecutive bit-identical window means.
    stuck_run: u32,
    last_mean_bits: Option<u64>,
    /// EWMA of this node's relative deviation from the fleet median.
    skew: Ewma,
    z_alarm: bool,
    ewma_alarm: bool,
    dropout_alarm: bool,
    stuck_alarm: bool,
    skew_alarm: bool,
}

impl SeriesState {
    fn new(config: &OnlineConfig) -> SeriesState {
        SeriesState {
            zwin: RollingWindow::new(config.z_window),
            ewma: Ewma::new(config.ewma_alpha),
            health: VecDeque::new(),
            max_count: 0,
            stuck_run: 0,
            last_mean_bits: None,
            skew: Ewma::new(config.ewma_alpha),
            z_alarm: false,
            ewma_alarm: false,
            dropout_alarm: false,
            stuck_alarm: false,
            skew_alarm: false,
        }
    }
}

/// Per-job live power-profile accumulation for footprint classification.
#[derive(Debug)]
struct FootprintTracker {
    jobs: Vec<Job>,
    /// node -> (start_ms, end_ms, job index), sorted by start.
    node_jobs: BTreeMap<i64, Vec<(i64, i64, usize)>>,
    /// (job index, window) -> (sum, n) of node-power window means.
    acc: BTreeMap<(usize, i64), (f64, u32)>,
    done: Vec<bool>,
    classifier: Option<ProfileClassifier>,
}

impl FootprintTracker {
    fn new(jobs: Vec<Job>, classifier: Option<ProfileClassifier>) -> FootprintTracker {
        let mut node_jobs: BTreeMap<i64, Vec<(i64, i64, usize)>> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            for &n in &job.nodes {
                node_jobs
                    .entry(i64::from(n))
                    .or_default()
                    .push((job.start_ms, job.end_ms, i));
            }
        }
        for v in node_jobs.values_mut() {
            v.sort_unstable();
        }
        let done = vec![false; jobs.len()];
        FootprintTracker {
            jobs,
            node_jobs,
            acc: BTreeMap::new(),
            done,
            classifier,
        }
    }

    fn observe(&mut self, window: i64, node: i64, mean: f64) {
        if let Some(intervals) = self.node_jobs.get(&node) {
            for &(start, end, idx) in intervals {
                if window >= start && window < end && !self.done[idx] {
                    let cell = self.acc.entry((idx, window)).or_insert((0.0, 0));
                    cell.0 += mean;
                    cell.1 += 1;
                }
            }
        }
    }

    /// Jobs whose last window has closed, with their mean-power
    /// profiles, in job-id order. `min_len` drops too-short profiles.
    fn finalize(&mut self, watermark: i64, min_len: usize) -> Vec<(Job, Vec<f64>)> {
        let mut out = Vec::new();
        for idx in 0..self.jobs.len() {
            if self.done[idx] || self.jobs[idx].end_ms > watermark {
                continue;
            }
            self.done[idx] = true;
            let windows: Vec<(i64, f64)> = self
                .acc
                .range((idx, i64::MIN)..=(idx, i64::MAX))
                .map(|(&(_, w), &(sum, n))| (w, sum / f64::from(n.max(1))))
                .collect();
            self.acc.retain(|&(i, _), _| i != idx);
            if windows.len() >= min_len {
                out.push((
                    self.jobs[idx].clone(),
                    windows.into_iter().map(|(_, v)| v).collect(),
                ));
            }
        }
        out.sort_by_key(|(j, _)| j.id);
        out
    }
}

/// The online detector engine: feed it closed Silver windows, it emits
/// deterministic [`Alert`]s.
pub struct OnlineAnalytics {
    config: OnlineConfig,
    series: BTreeMap<(i64, String), SeriesState>,
    footprint: Option<FootprintTracker>,
    alerts: Vec<Alert>,
    /// Highest closed window start processed (footprint watermark).
    max_window: i64,
    metrics: Option<Registry>,
}

impl OnlineAnalytics {
    /// An engine with the given knobs.
    pub fn new(config: OnlineConfig) -> OnlineAnalytics {
        OnlineAnalytics {
            config,
            series: BTreeMap::new(),
            footprint: None,
            alerts: Vec::new(),
            max_window: i64::MIN,
            metrics: None,
        }
    }

    /// Enable job-footprint classification: `jobs` is the known job
    /// schedule (scenario runs know it up front), `classifier` an
    /// optionally pre-trained Fig. 10 classifier. Without a classifier,
    /// footprint alerts still fire with the profile's shape features
    /// summarized but no predicted label.
    pub fn with_jobs(mut self, jobs: Vec<Job>, classifier: Option<ProfileClassifier>) -> Self {
        self.footprint = Some(FootprintTracker::new(jobs, classifier));
        self
    }

    /// Attach a metrics registry: fired alerts count into
    /// `oda_alerts_fired_total{detector=…}` and, when the registry
    /// carries a tracer, every alert records an `AlertFired` trace event
    /// scoped to the epoch that closed the window.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(registry.clone());
    }

    /// The engine's knobs.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Every alert fired so far, in deterministic emission order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Canonical encoding of the full alert stream.
    pub fn alerts_bytes(&self) -> Vec<u8> {
        alerts_jsonl(&self.alerts).into_bytes()
    }

    fn emit(&mut self, epoch: u64, alert: Alert) {
        if let Some(reg) = &self.metrics {
            reg.counter(
                "oda_alerts_fired_total",
                "Online detector alerts fired",
                &[("detector", alert.detector.as_str())],
            )
            .inc();
            if let Some(tracer) = reg.tracer() {
                let trace = trace_id("online", epoch);
                let span = trace_span(
                    trace,
                    "alert",
                    oda_obs::fnv1a(
                        format!("{}|{}|{}", alert.detector, alert.node, alert.sensor).as_bytes(),
                    ),
                );
                tracer.record(
                    trace,
                    span,
                    None,
                    epoch,
                    alert.window_ms as u64,
                    0,
                    TraceEventKind::AlertFired {
                        detector: alert.detector.clone(),
                        severity: alert.severity.label().to_string(),
                        sensor: alert.sensor.clone(),
                        node: alert.node,
                        window_ms: alert.window_ms,
                    },
                );
            }
        }
        self.alerts.push(alert);
    }

    /// Process one epoch's Silver frame (schema of
    /// `streaming_silver_transform`, with or without the `gap` column)
    /// and append any alerts it raises. Returns the alerts fired by
    /// this call.
    pub fn process_silver(
        &mut self,
        epoch: u64,
        frame: &Frame,
    ) -> Result<Vec<Alert>, PipelineError> {
        let first_new = self.alerts.len();
        if frame.is_empty() {
            return Ok(Vec::new());
        }
        let windows = frame.i64s("window")?;
        let nodes = frame.i64s("node")?;
        let sensors = frame.cat("sensor")?;
        let means = frame.f64s("mean")?;
        let counts = frame.i64s("count")?;
        let gaps = frame.i64s("gap").ok();

        // Rows arrive sorted by (window, key); process window groups in
        // order so cross-series scoring (fleet skew) sees a whole window.
        let mut i = 0;
        while i < frame.rows() {
            let w = windows[i];
            let mut j = i;
            while j < frame.rows() && windows[j] == w {
                j += 1;
            }
            self.process_window(epoch, w, i..j, nodes, &sensors, means, counts, gaps)?;
            self.max_window = self.max_window.max(w);
            i = j;
        }
        self.finalize_footprints(epoch);
        Ok(self.alerts[first_new..].to_vec())
    }

    #[allow(clippy::too_many_arguments)]
    fn process_window(
        &mut self,
        epoch: u64,
        window: i64,
        rows: std::ops::Range<usize>,
        nodes: &[i64],
        sensors: &oda_pipeline::frame::StrColumn<'_>,
        means: &[f64],
        counts: &[i64],
        gaps: Option<&[i64]>,
    ) -> Result<(), PipelineError> {
        let cfg = self.config.clone();
        // Fleet collection for the skew detector: sensor -> (node, mean).
        let mut fleet: BTreeMap<String, Vec<(i64, f64)>> = BTreeMap::new();

        for r in rows.clone() {
            let sensor = sensors.get(r);
            let node = nodes[r];
            let mean = means[r];
            let count = counts[r];
            let is_gap = gaps.map(|g| g[r] == 1).unwrap_or(false) || count == 0;
            let good = !is_gap && mean.is_finite();

            // Footprints accumulate node power regardless of watch lists.
            if good && sensor == "node_power_w" && node >= 0 {
                if let Some(tracker) = self.footprint.as_mut() {
                    tracker.observe(window, node, mean);
                }
            }

            let watched = cfg.watch.iter().any(|s| s == sensor);
            let skew_watched = cfg.skew_watch.iter().any(|s| s == sensor);
            if !watched && !skew_watched {
                continue;
            }

            if skew_watched && good {
                fleet
                    .entry(sensor.to_string())
                    .or_default()
                    .push((node, mean));
            }
            if !watched {
                continue;
            }

            let state = self
                .series
                .entry((node, sensor.to_string()))
                .or_insert_with(|| SeriesState::new(&cfg));

            // --- health: dropout rate ---------------------------------
            state.max_count = state.max_count.max(count);
            if state.max_count > 0 {
                let expected = state.max_count as f64;
                let missing = (expected - count as f64).max(0.0);
                state.health.push_back((missing, expected));
                while state.health.len() > cfg.health_window {
                    state.health.pop_front();
                }
            }
            let (miss, exp): (f64, f64) = state
                .health
                .iter()
                .fold((0.0, 0.0), |(m, e), &(mi, ei)| (m + mi, e + ei));
            let dropout_frac = if exp > 0.0 { miss / exp } else { 0.0 };
            let dropout_sev = if dropout_frac >= cfg.dropout_critical {
                Some(Severity::Critical)
            } else if dropout_frac >= cfg.dropout_warning {
                Some(Severity::Warning)
            } else {
                None
            };
            let fire_dropout = match dropout_sev {
                Some(_) if !state.dropout_alarm && state.health.len() >= cfg.min_windows => {
                    state.dropout_alarm = true;
                    true
                }
                Some(_) => false,
                None => {
                    if dropout_frac < cfg.dropout_warning / 2.0 {
                        state.dropout_alarm = false;
                    }
                    false
                }
            };

            // --- health: stuck-at -------------------------------------
            let mut fire_stuck = false;
            if good {
                let bits = mean.to_bits();
                if state.last_mean_bits == Some(bits) {
                    state.stuck_run += 1;
                } else {
                    state.stuck_run = 0;
                    state.stuck_alarm = false;
                }
                state.last_mean_bits = Some(bits);
                if state.stuck_run + 1 >= cfg.stuck_windows && !state.stuck_alarm {
                    state.stuck_alarm = true;
                    fire_stuck = true;
                }
            }

            // --- anomaly: rolling z-score -----------------------------
            let mut fire_z: Option<(f64, f64)> = None;
            let mut fire_e: Option<(f64, f64)> = None;
            if good {
                if state.zwin.len() >= cfg.min_windows {
                    let std = state.zwin.std().max(1e-9);
                    let z = (mean - state.zwin.mean()) / std;
                    if z.abs() >= cfg.z_threshold {
                        if !state.z_alarm {
                            state.z_alarm = true;
                            fire_z = Some((z, state.zwin.mean()));
                        }
                    } else if z.abs() < cfg.z_threshold / 2.0 {
                        state.z_alarm = false;
                    }
                }
                state.zwin.push(mean);

                // --- anomaly: EWMA deviation --------------------------
                if state.ewma.count() >= cfg.min_windows as u64 {
                    let std = state.ewma.std().max(1e-9);
                    let dev = (mean - state.ewma.mean()) / std;
                    if dev.abs() >= cfg.ewma_threshold {
                        if !state.ewma_alarm {
                            state.ewma_alarm = true;
                            fire_e = Some((dev, state.ewma.mean()));
                        }
                    } else if dev.abs() < cfg.ewma_threshold / 2.0 {
                        state.ewma_alarm = false;
                    }
                }
                state.ewma.update(mean);
            }

            // Emit in fixed detector order for this row.
            let sensor_name = sensor.to_string();
            if let Some((z, base)) = fire_z {
                self.emit(
                    epoch,
                    Alert {
                        window_ms: window,
                        detector: "zscore".into(),
                        severity: Severity::Warning,
                        node,
                        sensor: sensor_name.clone(),
                        value: mean,
                        baseline: base,
                        message: format!(
                            "window mean {mean:.3} is {z:+.1}σ from rolling mean {base:.3}"
                        ),
                    },
                );
            }
            if let Some((dev, base)) = fire_e {
                self.emit(
                    epoch,
                    Alert {
                        window_ms: window,
                        detector: "ewma".into(),
                        severity: Severity::Warning,
                        node,
                        sensor: sensor_name.clone(),
                        value: mean,
                        baseline: base,
                        message: format!(
                            "window mean {mean:.3} deviates {dev:+.1}σ from EWMA {base:.3}"
                        ),
                    },
                );
            }
            if fire_dropout {
                self.emit(
                    epoch,
                    Alert {
                        window_ms: window,
                        detector: "health-dropout".into(),
                        severity: dropout_sev.expect("fired"),
                        node,
                        sensor: sensor_name.clone(),
                        value: dropout_frac,
                        baseline: cfg.dropout_warning,
                        message: format!(
                            "dropout rate {:.0}% over last {} windows",
                            dropout_frac * 100.0,
                            cfg.health_window
                        ),
                    },
                );
            }
            if fire_stuck {
                self.emit(
                    epoch,
                    Alert {
                        window_ms: window,
                        detector: "health-stuck".into(),
                        severity: Severity::Warning,
                        node,
                        sensor: sensor_name,
                        value: mean,
                        baseline: f64::from(cfg.stuck_windows),
                        message: format!(
                            "value stuck at {mean:.3} for {} consecutive windows",
                            state_stuck_run(&self.series, node, sensor) + 1,
                        ),
                    },
                );
            }
        }

        // --- health: firmware-skew drift (needs the whole window) -----
        for (sensor, readings) in fleet {
            if readings.len() < cfg.skew_min_nodes {
                continue;
            }
            let mut vals: Vec<f64> = readings.iter().map(|&(_, v)| v).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let median = vals[vals.len() / 2];
            if median.abs() < f64::EPSILON {
                continue;
            }
            for (node, mean) in readings {
                let ratio = mean / median - 1.0;
                let state = self
                    .series
                    .entry((node, sensor.clone()))
                    .or_insert_with(|| SeriesState::new(&cfg));
                state.skew.update(ratio);
                let drift = state.skew.mean();
                let mut fire: Option<f64> = None;
                if state.skew.count() >= cfg.min_windows as u64 {
                    if drift.abs() >= cfg.skew_threshold {
                        if !state.skew_alarm {
                            state.skew_alarm = true;
                            fire = Some(drift);
                        }
                    } else if drift.abs() < cfg.skew_threshold / 2.0 {
                        state.skew_alarm = false;
                    }
                }
                if let Some(drift) = fire {
                    self.emit(
                        epoch,
                        Alert {
                            window_ms: window,
                            detector: "health-skew".into(),
                            severity: Severity::Warning,
                            node,
                            sensor: sensor.clone(),
                            value: mean,
                            baseline: median,
                            message: format!(
                                "reading drifted {:+.1}% from fleet median {median:.3}",
                                drift * 100.0
                            ),
                        },
                    );
                }
            }
        }
        Ok(())
    }

    fn finalize_footprints(&mut self, epoch: u64) {
        let min_len = self.config.footprint_min_windows;
        let watermark = self.max_window;
        let Some(tracker) = &mut self.footprint else {
            return;
        };
        let finished = tracker.finalize(watermark, min_len);
        for (job, profile) in finished {
            let features = oda_ml::features::featurize(&profile);
            let mean_w = profile.iter().sum::<f64>() / profile.len() as f64;
            let label = self
                .footprint
                .as_ref()
                .and_then(|t| t.classifier.as_ref())
                .map(|c| c.classify(&profile).to_string());
            let message = match &label {
                Some(l) => format!(
                    "job {} ({} nodes, {} windows) classified as {l}; truth {}",
                    job.id,
                    job.nodes.len(),
                    profile.len(),
                    job.archetype.label()
                ),
                None => format!(
                    "job {} ({} nodes, {} windows) footprint: duty {:.2}, cv {:.2}",
                    job.id,
                    job.nodes.len(),
                    profile.len(),
                    features[oda_ml::features::SHAPE_POINTS + 5],
                    features[oda_ml::features::SHAPE_POINTS + 1],
                ),
            };
            self.emit(
                epoch,
                Alert {
                    window_ms: job.end_ms,
                    detector: "footprint".into(),
                    severity: Severity::Info,
                    node: i64::from(*job.nodes.first().unwrap_or(&0)),
                    sensor: format!("job-{}", job.id),
                    value: mean_w,
                    baseline: profile.len() as f64,
                    message,
                },
            );
        }
    }
}

fn state_stuck_run(series: &BTreeMap<(i64, String), SeriesState>, node: i64, sensor: &str) -> u32 {
    series
        .get(&(node, sensor.to_string()))
        .map(|s| s.stuck_run)
        .unwrap_or(0)
}

/// Deterministic synthetic training profiles for the footprint
/// classifier: archetype power shapes through the system's power model,
/// phase-staggered without randomness. Labels are archetype labels.
pub fn synthetic_training_profiles(
    system: &SystemModel,
    per_class: usize,
    windows: usize,
) -> Vec<(Vec<f64>, String)> {
    let power = PowerModel::new(system.clone());
    let mut out = Vec::new();
    for archetype in ApplicationArchetype::ALL {
        for k in 0..per_class {
            let phase = (k as f64 * 0.618_033_988_749_895).fract();
            let len = windows + (k % 5);
            let duration = len as f64 * 15.0;
            let profile: Vec<f64> = (0..len)
                .map(|w| {
                    let t = w as f64 * 15.0 + 7.5;
                    let gpu = archetype.gpu_util(t, duration, phase);
                    let cpu = archetype.cpu_util(t, duration, phase);
                    power.node_power(cpu, gpu)
                })
                .collect();
            out.push((profile, archetype.label().to_string()));
        }
    }
    out
}

/// Train a small deterministic footprint classifier on
/// [`synthetic_training_profiles`] (seconds, not minutes: tuned for the
/// test suite).
pub fn train_footprint_classifier(system: &SystemModel) -> ProfileClassifier {
    let profiles = synthetic_training_profiles(system, 24, 32);
    let config = TrainConfig {
        hidden: 16,
        epochs: 60,
        ..TrainConfig::default()
    };
    let (classifier, _eval) = ProfileClassifier::train(&profiles, &config);
    classifier
}

// ---------------------------------------------------------------------------
// Sink integration.
// ---------------------------------------------------------------------------

/// A [`Sink`] wrapper that runs the online detectors over each *newly*
/// committed epoch, skipping replays (see the module docs for why this
/// is exactly-once). The wrapped sink sees every write unchanged.
pub struct AlertingSink<S> {
    inner: S,
    engine: OnlineAnalytics,
    analyzed: Option<u64>,
}

impl<S> AlertingSink<S> {
    /// Wrap `inner`, analyzing each epoch with `engine`.
    pub fn new(inner: S, engine: OnlineAnalytics) -> AlertingSink<S> {
        AlertingSink {
            inner,
            engine,
            analyzed: None,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The detector engine (alert log access).
    pub fn engine(&self) -> &OnlineAnalytics {
        &self.engine
    }

    /// Alerts fired so far, in deterministic order.
    pub fn alerts(&self) -> &[Alert] {
        self.engine.alerts()
    }

    /// Unwrap into the inner sink and the engine.
    pub fn into_parts(self) -> (S, OnlineAnalytics) {
        (self.inner, self.engine)
    }
}

impl<S: Sink> Sink for AlertingSink<S> {
    fn write(&mut self, meta: &EpochMeta, frame: &Frame) -> Result<(), PipelineError> {
        self.inner.write(meta, frame)?;
        // Replayed epochs are byte-identical to their first delivery;
        // analyzing them again would double detector state updates.
        if self.analyzed.is_some_and(|max| meta.epoch <= max) {
            return Ok(());
        }
        self.engine.process_silver(meta.epoch, frame)?;
        self.analyzed = Some(meta.epoch);
        Ok(())
    }
}

/// Publish an alert stream to a broker topic (one record per alert,
/// keyed by detector). Creates the topic with one partition if absent —
/// a single partition keeps consumption order identical to emission
/// order.
pub fn publish_alerts(
    broker: &oda_stream::Broker,
    topic: &str,
    alerts: &[Alert],
) -> Result<u64, oda_stream::StreamError> {
    use oda_stream::RetentionPolicy;
    if broker
        .create_topic(topic, 1, RetentionPolicy::default())
        .is_err()
    {
        // Already exists: append.
    }
    let mut appended = 0u64;
    for a in alerts {
        let line = serde_json::to_string(a).expect("alert serializes");
        broker.produce(
            topic,
            a.window_ms,
            Some(a.detector.clone().into_bytes().into()),
            line.into_bytes().into(),
        )?;
        appended += 1;
    }
    Ok(appended)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_obs::Tracer;
    use oda_storage::colfile::ColumnData;

    /// Build a Silver-shaped frame from (window, node, sensor, mean,
    /// count, gap) rows.
    fn silver(rows: &[(i64, i64, &str, f64, i64, i64)]) -> Frame {
        let mut dict: Vec<String> = Vec::new();
        let mut codes = Vec::new();
        for &(_, _, s, _, _, _) in rows {
            let code = match dict.iter().position(|d| d == s) {
                Some(i) => i as u32,
                None => {
                    dict.push(s.to_string());
                    (dict.len() - 1) as u32
                }
            };
            codes.push(code);
        }
        Frame::new(vec![
            (
                "window".into(),
                ColumnData::I64(rows.iter().map(|r| r.0).collect::<Vec<_>>().into()),
            ),
            (
                "node".into(),
                ColumnData::I64(rows.iter().map(|r| r.1).collect::<Vec<_>>().into()),
            ),
            ("sensor".into(), ColumnData::dict(dict, codes)),
            (
                "mean".into(),
                ColumnData::F64(rows.iter().map(|r| r.3).collect::<Vec<_>>().into()),
            ),
            (
                "min".into(),
                ColumnData::F64(rows.iter().map(|r| r.3).collect::<Vec<_>>().into()),
            ),
            (
                "max".into(),
                ColumnData::F64(rows.iter().map(|r| r.3).collect::<Vec<_>>().into()),
            ),
            (
                "count".into(),
                ColumnData::I64(rows.iter().map(|r| r.4).collect::<Vec<_>>().into()),
            ),
            (
                "gap".into(),
                ColumnData::I64(rows.iter().map(|r| r.5).collect::<Vec<_>>().into()),
            ),
        ])
        .expect("aligned columns")
    }

    fn watch_one(sensor: &str) -> OnlineConfig {
        OnlineConfig {
            watch: vec![sensor.to_string()],
            skew_watch: vec![],
            min_windows: 4,
            z_window: 8,
            health_window: 8,
            ..OnlineConfig::default()
        }
    }

    /// A quiet baseline then a step; both anomaly detectors must fire
    /// exactly once each (edge-triggered), deterministically.
    #[test]
    fn zscore_and_ewma_fire_on_step_change() {
        let mut engine = OnlineAnalytics::new(watch_one("p"));
        let mut rows = Vec::new();
        for w in 0..12 {
            // Small deterministic wiggle so the window std is nonzero.
            let v = 100.0 + if w % 2 == 0 { 0.5 } else { -0.5 };
            rows.push((w * 15_000, 0i64, "p", v, 15, 0));
        }
        rows.push((12 * 15_000, 0, "p", 160.0, 15, 0));
        rows.push((13 * 15_000, 0, "p", 160.0, 15, 0));
        let fired = engine.process_silver(0, &silver(&rows)).expect("processes");
        let detectors: Vec<&str> = fired.iter().map(|a| a.detector.as_str()).collect();
        assert!(detectors.contains(&"zscore"), "no zscore in {detectors:?}");
        assert!(detectors.contains(&"ewma"), "no ewma in {detectors:?}");
        // Edge-triggered: the second 160.0 window must not re-fire.
        assert_eq!(
            fired.iter().filter(|a| a.detector == "zscore").count(),
            1,
            "zscore refired inside one excursion"
        );
    }

    #[test]
    fn dropout_health_fires_and_is_edge_triggered() {
        let mut engine = OnlineAnalytics::new(watch_one("p"));
        let mut rows = Vec::new();
        for w in 0..6 {
            rows.push((w * 15_000, 0i64, "p", 10.0 + w as f64, 15, 0));
        }
        // Sensor goes dark: gap rows.
        for w in 6..20 {
            rows.push((w * 15_000, 0i64, "p", f64::NAN, 0, 1));
        }
        let fired = engine.process_silver(0, &silver(&rows)).expect("processes");
        let drops: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.detector == "health-dropout")
            .collect();
        assert_eq!(drops.len(), 1, "dropout must fire once: {fired:?}");
        assert!(drops[0].value >= engine.config().dropout_warning);
    }

    #[test]
    fn stuck_at_fires_on_bit_identical_means() {
        let mut engine = OnlineAnalytics::new(watch_one("p"));
        let mut rows = Vec::new();
        for w in 0..4 {
            rows.push((w * 15_000, 0i64, "p", 10.0 + w as f64, 15, 0));
        }
        for w in 4..12 {
            rows.push((w * 15_000, 0i64, "p", 42.0, 15, 0));
        }
        let fired = engine.process_silver(0, &silver(&rows)).expect("processes");
        let stuck: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.detector == "health-stuck")
            .collect();
        assert_eq!(stuck.len(), 1, "stuck must fire once: {fired:?}");
        assert_eq!(stuck[0].value, 42.0);
    }

    #[test]
    fn skew_fires_for_drifting_node_only() {
        let config = OnlineConfig {
            watch: vec![],
            skew_watch: vec!["t".into()],
            min_windows: 4,
            skew_threshold: 0.02,
            skew_min_nodes: 3,
            ..OnlineConfig::default()
        };
        let mut engine = OnlineAnalytics::new(config);
        let mut rows = Vec::new();
        for w in 0..20 {
            let scale = if w < 5 { 1.0 } else { 1.06 };
            rows.push((w * 15_000, 0i64, "t", 21.0 * scale, 15, 0));
            rows.push((w * 15_000, 1i64, "t", 21.0, 15, 0));
            rows.push((w * 15_000, 2i64, "t", 21.0, 15, 0));
            rows.push((w * 15_000, 3i64, "t", 21.0, 15, 0));
        }
        let fired = engine.process_silver(0, &silver(&rows)).expect("processes");
        let skews: Vec<&Alert> = fired
            .iter()
            .filter(|a| a.detector == "health-skew")
            .collect();
        assert!(!skews.is_empty(), "skew never fired: {fired:?}");
        assert!(
            skews.iter().all(|a| a.node == 0),
            "skew fired for a healthy node: {skews:?}"
        );
    }

    #[test]
    fn alerting_sink_skips_replayed_epochs() {
        use oda_pipeline::streaming::MemorySink;
        let mut sink = AlertingSink::new(MemorySink::new(), OnlineAnalytics::new(watch_one("p")));
        let mut rows = Vec::new();
        for w in 0..12 {
            let v = 100.0 + if w % 2 == 0 { 0.5 } else { -0.5 };
            rows.push((w * 15_000, 0i64, "p", v, 15, 0));
        }
        rows.push((12 * 15_000, 0, "p", 160.0, 15, 0));
        let frame = silver(&rows);
        let meta = EpochMeta {
            epoch: 0,
            partitions: 1,
            records: rows.len(),
            watermark_ms: 13 * 15_000,
            timings: Default::default(),
        };
        sink.write(&meta, &frame).expect("first write");
        let after_first = sink.alerts().to_vec();
        assert!(!after_first.is_empty(), "step must alert");
        // Crash-replay: the same epoch arrives again. The inner sink
        // dedupes by epoch; the engine must skip it entirely.
        sink.write(&meta, &frame).expect("replayed write");
        assert_eq!(sink.alerts(), &after_first[..], "replay changed alerts");
        assert_eq!(sink.inner().write_calls, 2);
    }

    #[test]
    fn alert_stream_round_trips_through_jsonl() {
        let alerts = vec![Alert {
            window_ms: 45_000,
            detector: "zscore".into(),
            severity: Severity::Warning,
            node: -1,
            sensor: "substation_power_w".into(),
            value: 13_000.5,
            baseline: 9_800.25,
            message: "window mean 13000.500 is +5.2σ from rolling mean 9800.250".into(),
        }];
        let text = alerts_jsonl(&alerts);
        assert_eq!(parse_alerts_jsonl(&text).expect("parses"), alerts);
    }

    #[test]
    fn footprint_classifies_completed_jobs() {
        let system = SystemModel::tiny();
        let classifier = train_footprint_classifier(&system);
        let power = PowerModel::new(system.clone());
        let job = Job {
            id: 7,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::MolecularDynamics,
            nodes: vec![0, 1],
            submit_ms: 0,
            start_ms: 0,
            end_ms: 32 * 15_000,
            phase: 0.25,
        };
        let config = OnlineConfig {
            watch: vec!["node_power_w".into()],
            skew_watch: vec![],
            ..OnlineConfig::default()
        };
        let mut engine =
            OnlineAnalytics::new(config).with_jobs(vec![job.clone()], Some(classifier));
        let mut rows = Vec::new();
        for w in 0..34i64 {
            let t = w as f64 * 15.0 + 7.5;
            let gpu = job.archetype.gpu_util(t, 480.0, job.phase);
            let cpu = job.archetype.cpu_util(t, 480.0, job.phase);
            let p = power.node_power(cpu, gpu);
            rows.push((w * 15_000, 0i64, "node_power_w", p, 15, 0));
            rows.push((w * 15_000, 1i64, "node_power_w", p * 1.01, 15, 0));
        }
        let fired = engine.process_silver(0, &silver(&rows)).expect("processes");
        let foot: Vec<&Alert> = fired.iter().filter(|a| a.detector == "footprint").collect();
        assert_eq!(foot.len(), 1, "one completed job: {fired:?}");
        assert_eq!(foot[0].sensor, "job-7");
        assert_eq!(foot[0].severity, Severity::Info);
        assert!(
            foot[0].message.contains("classified as md"),
            "md profile misclassified: {}",
            foot[0].message
        );
    }

    #[test]
    fn trace_and_metrics_record_alert_firings() {
        let registry = Registry::default();
        let tracer = Tracer::new();
        let mut engine = OnlineAnalytics::new(watch_one("p"));
        engine.attach_metrics(&registry.with_tracer(&tracer));
        let mut rows = Vec::new();
        for w in 0..12 {
            let v = 100.0 + if w % 2 == 0 { 0.5 } else { -0.5 };
            rows.push((w * 15_000, 0i64, "p", v, 15, 0));
        }
        rows.push((12 * 15_000, 0, "p", 160.0, 15, 0));
        let fired = engine.process_silver(3, &silver(&rows)).expect("processes");
        if !oda_obs::enabled() {
            return; // recording compiled out; the alert stream itself is data-plane
        }
        assert!(!fired.is_empty());
        let count = registry.counter_value("oda_alerts_fired_total", &[("detector", "zscore")]);
        assert_eq!(count, 1);
        let events = tracer.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(&e.kind, TraceEventKind::AlertFired { detector, .. } if detector == "zscore")),
            "no AlertFired trace event"
        );
    }

    // -----------------------------------------------------------------
    // Detector algebra proptests.
    // -----------------------------------------------------------------

    use proptest::prelude::*;

    fn finite_series() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1.0e6f64..1.0e6, 1..120)
    }

    proptest! {
        /// EWMA is incremental: processing a series split at any point
        /// equals batch recompute over the whole series, bit for bit.
        #[test]
        fn ewma_split_equals_batch(xs in finite_series(), split in 0usize..120) {
            let split = split.min(xs.len());
            let alpha = 0.2;
            let mut inc = Ewma::new(alpha);
            for &x in &xs[..split] { inc.update(x); }
            for &x in &xs[split..] { inc.update(x); }
            let batch = Ewma::batch(alpha, &xs);
            prop_assert_eq!(inc, batch);
        }

        /// The rolling window's running sums agree with recomputing the
        /// statistics from the raw buffer after every push.
        #[test]
        fn zscore_window_running_stats_match_batch(xs in finite_series(), cap in 1usize..32) {
            let mut w = RollingWindow::new(cap);
            for &x in &xs {
                w.push(x);
                let scale = w.batch_std().abs().max(w.batch_mean().abs()).max(1.0);
                prop_assert!((w.mean() - w.batch_mean()).abs() <= 1e-6 * scale,
                    "mean drifted: {} vs {}", w.mean(), w.batch_mean());
                prop_assert!((w.std() - w.batch_std()).abs() <= 1e-5 * scale,
                    "std drifted: {} vs {}", w.std(), w.batch_std());
            }
        }

        /// Feeding the engine one frame of N windows equals feeding the
        /// same windows split across two frames at any window boundary.
        #[test]
        fn split_window_processing_equals_whole(
            vals in proptest::collection::vec(50.0f64..150.0, 4..40),
            split_at in 1usize..39,
        ) {
            let rows: Vec<(i64, i64, &str, f64, i64, i64)> = vals
                .iter()
                .enumerate()
                .map(|(w, &v)| (w as i64 * 15_000, 0i64, "p", v, 15, 0))
                .collect();
            let split_at = split_at.min(rows.len() - 1);
            let mut whole = OnlineAnalytics::new(watch_one("p"));
            whole.process_silver(0, &silver(&rows)).expect("whole");
            let mut split = OnlineAnalytics::new(watch_one("p"));
            split.process_silver(0, &silver(&rows[..split_at])).expect("first half");
            split.process_silver(1, &silver(&rows[split_at..])).expect("second half");
            prop_assert_eq!(
                alerts_jsonl(whole.alerts()),
                alerts_jsonl(split.alerts()),
                "split-window alert stream diverged"
            );
        }
    }
}
