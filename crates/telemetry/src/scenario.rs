//! Scripted facility scenario packs.
//!
//! A [`ScenarioPack`] is a deterministic script of operational
//! disturbances — set-point changes, actuator events, workload bursts,
//! calibration faults — replayed against a seeded
//! [`TelemetryGenerator`]. Packs are the test substrate for the online
//! detectors: each standard pack has a known disturbance window, and the
//! integration suite pins the alerts it must raise as golden
//! `expected_alerts` fixtures.
//!
//! Determinism contract: for a fixed pack and seed, the emitted batch
//! stream is byte-for-byte reproducible. Scripted actions are RNG-free
//! (they never consume generator entropy), so a pack perturbs *what the
//! facility does*, not the noise stream it is observed through.

use crate::error::TelemetryError;
use crate::generator::{TelemetryBatch, TelemetryGenerator};
use crate::jobs::{ApplicationArchetype, Job};
use crate::system::SystemModel;

/// The four standard facility scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioKind {
    /// Coolant supply set point excursion: +6.5 C for ~2.5 minutes.
    CoolingExcursion,
    /// Facility power-cap event clamping every node mid-run.
    PowerCapEvent,
    /// A burst of scripted jobs saturating the machine at once.
    JobStorm,
    /// A bad firmware rollout skewing one sensor on part of the fleet,
    /// drifting worse over time.
    SensorFirmwareSkew,
}

impl ScenarioKind {
    /// All standard scenarios, in canonical order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::CoolingExcursion,
        ScenarioKind::PowerCapEvent,
        ScenarioKind::JobStorm,
        ScenarioKind::SensorFirmwareSkew,
    ];

    /// Stable kebab-case name (CLI flags, fixture file names).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::CoolingExcursion => "cooling-excursion",
            ScenarioKind::PowerCapEvent => "power-cap",
            ScenarioKind::JobStorm => "job-storm",
            ScenarioKind::SensorFirmwareSkew => "firmware-skew",
        }
    }

    /// Parse a scenario name; unknown names are an error, not a panic.
    pub fn from_name(name: &str) -> Result<ScenarioKind, TelemetryError> {
        ScenarioKind::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| TelemetryError::InvalidConfig(format!("unknown scenario {name:?}")))
    }
}

/// One scripted action against the running generator.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// Move the coolant supply set point (C).
    SetCoolantSupplyC(f64),
    /// Set or clear the per-node power cap (W).
    SetPowerCapW(Option<f64>),
    /// Submit `count` identical scripted jobs.
    SubmitJobs {
        /// How many jobs to queue at once.
        count: u32,
        /// Nodes each job requests.
        nodes_each: usize,
        /// Utilization shape the jobs run.
        archetype: ApplicationArchetype,
        /// Wall time of each job (ms).
        duration_ms: i64,
    },
    /// Apply a calibration bias to `sensor` on nodes `node_lo..node_hi`.
    SetSensorScale {
        /// Catalog sensor name.
        sensor: String,
        /// First biased node (inclusive).
        node_lo: u32,
        /// One past the last biased node (exclusive).
        node_hi: u32,
        /// Multiplicative bias (absolute, not compounding).
        scale: f64,
    },
}

/// A scripted action bound to the tick it fires before.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStep {
    /// Tick index (0-based) the action applies ahead of.
    pub at_tick: u32,
    /// What happens.
    pub action: ScenarioAction,
}

/// A deterministic scenario script over a reference system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPack {
    kind: ScenarioKind,
    ticks: u32,
    script: Vec<ScenarioStep>,
    /// Tick range `[lo, hi)` in which the disturbance is live — the
    /// window detectors are expected to fire inside.
    disturbance: (u32, u32),
}

/// Length of every standard pack, in 1 s ticks (10 simulated minutes —
/// 40 closed 15 s windows).
pub const STANDARD_TICKS: u32 = 600;

impl ScenarioPack {
    /// The standard script for `kind` (see module docs for the shapes).
    pub fn standard(kind: ScenarioKind) -> ScenarioPack {
        let step = |at_tick: u32, action: ScenarioAction| ScenarioStep { at_tick, action };
        let (script, disturbance) = match kind {
            ScenarioKind::CoolingExcursion => (
                vec![
                    step(300, ScenarioAction::SetCoolantSupplyC(27.5)),
                    step(450, ScenarioAction::SetCoolantSupplyC(21.0)),
                ],
                (300, 470),
            ),
            ScenarioKind::PowerCapEvent => (
                vec![
                    // Sustained near-peak load so the cap has bite.
                    // Single-node jobs so the burst starts even when the
                    // background workload already holds part of the
                    // machine (per-node power peaks the same either way).
                    step(
                        2,
                        ScenarioAction::SubmitJobs {
                            count: 4,
                            nodes_each: 1,
                            archetype: ApplicationArchetype::Hpl,
                            duration_ms: 560_000,
                        },
                    ),
                    // The cap lands late enough that online detectors'
                    // rolling statistics have re-converged on the loaded
                    // baseline after the job-start power step.
                    step(420, ScenarioAction::SetPowerCapW(Some(1_100.0))),
                    step(545, ScenarioAction::SetPowerCapW(None)),
                ],
                (420, 565),
            ),
            ScenarioKind::JobStorm => (
                vec![step(
                    300,
                    ScenarioAction::SubmitJobs {
                        count: 8,
                        nodes_each: 1,
                        archetype: ApplicationArchetype::DlTraining,
                        duration_ms: 150_000,
                    },
                )],
                (300, 480),
            ),
            ScenarioKind::SensorFirmwareSkew => (
                vec![
                    step(240, skew("node_inlet_temp_c", 1.03)),
                    step(300, skew("node_inlet_temp_c", 1.05)),
                    step(360, skew("node_inlet_temp_c", 1.08)),
                    step(420, skew("node_inlet_temp_c", 1.10)),
                ],
                (240, 600),
            ),
        };
        ScenarioPack {
            kind,
            ticks: STANDARD_TICKS,
            script,
            disturbance,
        }
    }

    /// A custom pack. The script is sorted by tick at start time;
    /// actions are validated eagerly against the target system.
    pub fn custom(
        kind: ScenarioKind,
        ticks: u32,
        script: Vec<ScenarioStep>,
        disturbance: (u32, u32),
    ) -> ScenarioPack {
        ScenarioPack {
            kind,
            ticks,
            script,
            disturbance,
        }
    }

    /// Which scenario this pack scripts.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// Stable scenario name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Total ticks the pack runs for.
    pub fn ticks(&self) -> u32 {
        self.ticks
    }

    /// Tick range `[lo, hi)` the disturbance is live in.
    pub fn disturbance_ticks(&self) -> (u32, u32) {
        self.disturbance
    }

    /// Begin a deterministic run of this pack on the tiny reference
    /// system. Every scripted action is validated eagerly — a pack that
    /// names an unknown sensor or an impossible node range fails here,
    /// not half way through a run.
    pub fn start(&self, seed: u64) -> Result<ScenarioRun, TelemetryError> {
        self.start_on(SystemModel::tiny(), seed)
    }

    /// Begin a run against an explicit system model.
    pub fn start_on(&self, system: SystemModel, seed: u64) -> Result<ScenarioRun, TelemetryError> {
        let gen = TelemetryGenerator::new(system, seed);
        for s in &self.script {
            if s.at_tick >= self.ticks {
                return Err(TelemetryError::InvalidConfig(format!(
                    "step at tick {} beyond pack length {}",
                    s.at_tick, self.ticks
                )));
            }
            match &s.action {
                ScenarioAction::SetCoolantSupplyC(c) => {
                    if !c.is_finite() {
                        return Err(TelemetryError::InvalidConfig(format!(
                            "coolant set point must be finite, got {c}"
                        )));
                    }
                }
                ScenarioAction::SetPowerCapW(cap) => {
                    if let Some(c) = cap {
                        if !c.is_finite() || *c <= 0.0 {
                            return Err(TelemetryError::InvalidConfig(format!(
                                "power cap must be finite and > 0 W, got {c}"
                            )));
                        }
                    }
                }
                ScenarioAction::SubmitJobs {
                    count,
                    nodes_each,
                    duration_ms,
                    ..
                } => {
                    if *count == 0
                        || *nodes_each == 0
                        || *nodes_each > gen.system().node_count() as usize
                        || *duration_ms <= 0
                    {
                        return Err(TelemetryError::InvalidConfig(format!(
                            "scripted burst of {count} x {nodes_each}-node jobs \
                             ({duration_ms} ms) invalid for this system"
                        )));
                    }
                }
                ScenarioAction::SetSensorScale {
                    sensor,
                    node_lo,
                    node_hi,
                    scale,
                } => {
                    gen.catalog().require(sensor)?;
                    if *node_lo >= *node_hi
                        || *node_hi > gen.system().node_count()
                        || !scale.is_finite()
                        || *scale <= 0.0
                    {
                        return Err(TelemetryError::InvalidConfig(format!(
                            "bias {sensor}[{node_lo}..{node_hi}] x{scale} invalid"
                        )));
                    }
                }
            }
        }
        let mut script = self.script.clone();
        script.sort_by_key(|s| s.at_tick);
        Ok(ScenarioRun {
            gen,
            script,
            cursor: 0,
            tick: 0,
            ticks: self.ticks,
            kind: self.kind,
        })
    }
}

fn skew(sensor: &str, scale: f64) -> ScenarioAction {
    ScenarioAction::SetSensorScale {
        sensor: sensor.to_string(),
        node_lo: 0,
        node_hi: 2,
        scale,
    }
}

/// An in-progress scenario run: a generator plus the script cursor.
pub struct ScenarioRun {
    gen: TelemetryGenerator,
    script: Vec<ScenarioStep>,
    cursor: usize,
    tick: u32,
    ticks: u32,
    kind: ScenarioKind,
}

impl ScenarioRun {
    /// Scenario being run.
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// The underlying generator (catalog, system, scheduler access).
    pub fn generator(&self) -> &TelemetryGenerator {
        &self.gen
    }

    /// Ticks emitted so far.
    pub fn tick(&self) -> u32 {
        self.tick
    }

    /// Total ticks the pack runs for.
    pub fn ticks(&self) -> u32 {
        self.ticks
    }

    /// Apply any due scripted actions, then advance the generator one
    /// tick. Script application errors surface here (they are already
    /// excluded for packs validated by [`ScenarioPack::start`]).
    pub fn next_batch(&mut self) -> Result<TelemetryBatch, TelemetryError> {
        while self.cursor < self.script.len() && self.script[self.cursor].at_tick <= self.tick {
            let action = self.script[self.cursor].action.clone();
            self.cursor += 1;
            match action {
                ScenarioAction::SetCoolantSupplyC(c) => self.gen.set_coolant_supply_c(c),
                ScenarioAction::SetPowerCapW(cap) => self.gen.set_power_cap_w(cap)?,
                ScenarioAction::SubmitJobs {
                    count,
                    nodes_each,
                    archetype,
                    duration_ms,
                } => {
                    for _ in 0..count {
                        self.gen.submit_job(nodes_each, archetype, duration_ms)?;
                    }
                }
                ScenarioAction::SetSensorScale {
                    sensor,
                    node_lo,
                    node_hi,
                    scale,
                } => self
                    .gen
                    .set_sensor_scale(&sensor, node_lo, node_hi, scale)?,
            }
        }
        self.tick += 1;
        Ok(self.gen.next_batch())
    }

    /// Run the remaining ticks and collect the batches.
    pub fn run_to_end(&mut self) -> Result<Vec<TelemetryBatch>, TelemetryError> {
        let mut out = Vec::with_capacity((self.ticks.saturating_sub(self.tick)) as usize);
        while self.tick < self.ticks {
            out.push(self.next_batch()?);
        }
        Ok(out)
    }

    /// Every job the run has seen — completed then running, by id.
    /// (The twin replays these against the measured power series.)
    pub fn jobs(&self) -> Vec<Job> {
        let sched = self.gen.scheduler();
        let mut jobs: Vec<Job> = sched.completed().to_vec();
        jobs.extend(sched.running().cloned());
        jobs.sort_by_key(|j| j.id);
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Quality;

    /// The pack's disturbance window in event-time ms `[lo, hi)` (one
    /// tick is one second).
    fn disturbance_ms(pack: &ScenarioPack) -> (i64, i64) {
        let (lo, hi) = pack.disturbance_ticks();
        (i64::from(lo) * 1_000, i64::from(hi) * 1_000)
    }

    #[test]
    fn standard_packs_run_deterministically() -> Result<(), TelemetryError> {
        for kind in ScenarioKind::ALL {
            let pack = ScenarioPack::standard(kind);
            let a = pack.start(17)?.run_to_end()?;
            let b = pack.start(17)?.run_to_end()?;
            assert_eq!(a, b, "{} not reproducible", kind.name());
            assert_eq!(a.len(), STANDARD_TICKS as usize);
            let c = pack.start(18)?.run_to_end()?;
            assert_ne!(a, c, "{} ignores its seed", kind.name());
        }
        Ok(())
    }

    #[test]
    fn names_round_trip_and_unknown_is_error() {
        for kind in ScenarioKind::ALL {
            assert_eq!(ScenarioKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(matches!(
            ScenarioKind::from_name("meteor-strike"),
            Err(TelemetryError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_packs_fail_eagerly_at_start() {
        let bad_sensor = ScenarioPack::custom(
            ScenarioKind::SensorFirmwareSkew,
            100,
            vec![ScenarioStep {
                at_tick: 10,
                action: ScenarioAction::SetSensorScale {
                    sensor: "node_powr_w".into(),
                    node_lo: 0,
                    node_hi: 2,
                    scale: 1.1,
                },
            }],
            (10, 100),
        );
        assert!(matches!(
            bad_sensor.start(1),
            Err(TelemetryError::UnknownSensor(_))
        ));
        let late_step = ScenarioPack::custom(
            ScenarioKind::JobStorm,
            100,
            vec![ScenarioStep {
                at_tick: 100,
                action: ScenarioAction::SetCoolantSupplyC(25.0),
            }],
            (0, 100),
        );
        assert!(matches!(
            late_step.start(1),
            Err(TelemetryError::InvalidConfig(_))
        ));
        let oversubscribed = ScenarioPack::custom(
            ScenarioKind::JobStorm,
            100,
            vec![ScenarioStep {
                at_tick: 1,
                action: ScenarioAction::SubmitJobs {
                    count: 1,
                    nodes_each: 9_999,
                    archetype: ApplicationArchetype::Debug,
                    duration_ms: 60_000,
                },
            }],
            (0, 100),
        );
        assert!(matches!(
            oversubscribed.start(1),
            Err(TelemetryError::InvalidConfig(_))
        ));
    }

    #[test]
    fn cooling_excursion_moves_thermal_telemetry() -> Result<(), TelemetryError> {
        let pack = ScenarioPack::standard(ScenarioKind::CoolingExcursion);
        let (lo_ms, hi_ms) = disturbance_ms(&pack);
        let mut run = pack.start(7)?;
        let inlet = run.generator().catalog().sensor_id("node_inlet_temp_c")?;
        let mut before = Vec::new();
        let mut during = Vec::new();
        for batch in run.run_to_end()? {
            for o in batch.observations {
                if o.sensor == inlet && o.quality == Quality::Good {
                    if batch.ts_ms <= lo_ms {
                        before.push(o.value);
                    } else if batch.ts_ms > lo_ms + 10_000 && batch.ts_ms <= hi_ms - 10_000 {
                        during.push(o.value);
                    }
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&during) > mean(&before) + 5.0,
            "excursion invisible: before {:.2} during {:.2}",
            mean(&before),
            mean(&during)
        );
        Ok(())
    }

    #[test]
    fn power_cap_clamps_during_event_window() -> Result<(), TelemetryError> {
        let pack = ScenarioPack::standard(ScenarioKind::PowerCapEvent);
        let (lo_ms, hi_ms) = disturbance_ms(&pack);
        let mut run = pack.start(7)?;
        let power = run.generator().catalog().sensor_id("node_power_w")?;
        let mut peak_before = 0.0f64;
        let mut peak_during = 0.0f64;
        for batch in run.run_to_end()? {
            for o in batch.observations {
                if o.sensor == power && o.quality == Quality::Good {
                    if batch.ts_ms > 200_000 && batch.ts_ms <= lo_ms {
                        peak_before = peak_before.max(o.value);
                    } else if batch.ts_ms > lo_ms + 1_000 && batch.ts_ms <= hi_ms - 20_000 {
                        peak_during = peak_during.max(o.value);
                    }
                }
            }
        }
        assert!(
            peak_before > 1_500.0,
            "HPL load missing: peak {peak_before:.0} W"
        );
        assert!(
            peak_during < 1_100.0 * 1.2,
            "cap not visible: peak {peak_during:.0} W"
        );
        Ok(())
    }

    #[test]
    fn job_storm_saturates_the_machine() -> Result<(), TelemetryError> {
        let pack = ScenarioPack::standard(ScenarioKind::JobStorm);
        let (lo_ms, _) = disturbance_ms(&pack);
        let mut run = pack.start(7)?;
        let mut peak_util_during = 0.0f64;
        while run.tick() < run.ticks() {
            let batch = run.next_batch()?;
            if batch.ts_ms > lo_ms {
                peak_util_during = peak_util_during.max(run.generator().scheduler().utilization());
            }
        }
        assert!(
            peak_util_during >= 0.99,
            "storm never saturated: peak util {peak_util_during:.2}"
        );
        assert!(
            run.jobs().iter().any(|j| j.project == "PRJ900"),
            "scripted storm jobs missing from job record"
        );
        Ok(())
    }
}
