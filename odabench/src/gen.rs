//! Inputs from the seed. The programs under test only ever see what is
//! generated here: the same seed gives the same telemetry, jobs, events,
//! arrival order and key choice.

use bytes::Bytes;
use oda_telemetry::events::Event;
use oda_telemetry::{
    ApplicationArchetype, Job, JobEvent, Observation, Quality, SystemModel, TelemetryBatch,
    TelemetryGenerator,
};
use std::collections::HashMap;

/// SplitMix64: the harness's own seeded stream for choices the telemetry
/// generator does not make (job sizes, arrival delays, dropped readings).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// The simulated system's name: topic prefix and LAKE series namespace.
pub const SYSTEM: &str = "compass";
/// Prefix of every LAKE series name, as the dashboard takes it.
pub const SERIES_PREFIX: &str = "compass/";
/// The sensor Gold, LAKE and the power queries are about.
pub const POWER_SENSOR: &str = "node_power_w";

/// LAKE series holding one node's power.
pub fn power_series(node: usize) -> String {
    format!("{SERIES_PREFIX}node{node}/{POWER_SENSOR}")
}

/// A Compass-density slice of the facility: Compass's per-node sensor
/// complement and rates on `cabinets` cabinets of 128 nodes.
pub fn compass_slice(cabinets: u32) -> SystemModel {
    SystemModel {
        cabinets,
        ..SystemModel::compass()
    }
}

/// Everything one simulated span of the facility emitted.
pub struct Telemetry {
    pub system: SystemModel,
    pub batches: Vec<TelemetryBatch>,
    /// Jobs that started during the span (the allocation context).
    pub jobs: Vec<Job>,
    pub events: Vec<Event>,
    pub observations: usize,
}

/// Run the telemetry generator for `ticks` one-second ticks under a
/// scripted, seed-chosen job mix that keeps about four fifths of the
/// nodes allocated for the whole span.
pub fn telemetry(seed: u64, cabinets: u32, ticks: usize) -> Telemetry {
    let system = compass_slice(cabinets);
    let mut generator = TelemetryGenerator::new(system.clone(), seed);
    let mut rng = SplitMix64::new(seed ^ 0x0dab_e9c4);
    let span_ms = ticks as i64 * 1_000;
    let mut free = system.node_count() as u64 * 4 / 5;
    while free > 0 {
        let nodes = rng.range(1, 33).min(free);
        let archetype = ApplicationArchetype::ALL[rng.range(0, 6) as usize];
        generator
            .submit_job(nodes as usize, archetype, span_ms * 4)
            .expect("job fits the system");
        free -= nodes;
    }
    let mut batches = Vec::with_capacity(ticks);
    let mut jobs = Vec::new();
    let mut events = Vec::new();
    let mut observations = 0;
    for _ in 0..ticks {
        let batch = generator.next_batch();
        observations += batch.observations.len();
        events.extend(batch.events.iter().cloned());
        for je in &batch.job_events {
            if let JobEvent::Start(job) = je {
                jobs.push(job.clone());
            }
        }
        batches.push(batch);
    }
    Telemetry {
        system,
        batches,
        jobs,
        events,
        observations,
    }
}

/// Turn a seed-chosen `share` of the readings into dropouts (`Missing`,
/// NaN), on top of the generator's own dropout and suspect flags.
pub fn degrade(batches: &mut [TelemetryBatch], share: f64, rng: &mut SplitMix64) {
    for batch in batches {
        for obs in &mut batch.observations {
            if rng.unit() < share {
                obs.value = f64::NAN;
                obs.quality = Quality::Missing;
            }
        }
    }
}

/// One record to produce: a node shard of one tick.
pub struct ShardRecord {
    pub ts_ms: i64,
    pub key: Bytes,
    pub observations: Vec<Observation>,
}

/// Node shards per tick, as `oda_core::ingest` shards them.
pub const SHARDS: usize = oda_core::ingest::BRONZE_SHARDS as usize;

/// Share of records that arrive late but inside the allowed lateness,
/// and share that arrive after their window has been emitted.
pub const LATE_SHARE: f64 = 0.15;
pub const TOO_LATE_SHARE: f64 = 0.05;

/// Hostile arrival order for `ingest_disorder`: every tick is cut into
/// node shards; each shard record is delayed by a seed-chosen number of
/// ticks (most by none, `LATE_SHARE` by less than `lateness_ticks`,
/// `TOO_LATE_SHARE` by more than window + lateness, so their window has
/// already been emitted), and the records are produced in arrival order.
/// `keys[s]` is the produce key of shard `s`. Returns one record list
/// per arrival tick; the horizon is bounded by the largest delay.
pub fn disordered_arrivals(
    batches: &[TelemetryBatch],
    keys: &[Bytes],
    lateness_ticks: u64,
    window_ticks: u64,
    rng: &mut SplitMix64,
) -> Vec<Vec<ShardRecord>> {
    let too_late = lateness_ticks + window_ticks;
    let mut arrivals: Vec<Vec<ShardRecord>> = Vec::new();
    for (tick, batch) in batches.iter().enumerate() {
        let mut shards: Vec<Vec<Observation>> = vec![Vec::new(); SHARDS];
        for &obs in &batch.observations {
            shards[obs.component.node as usize % SHARDS].push(obs);
        }
        for (s, observations) in shards.into_iter().enumerate() {
            if observations.is_empty() {
                continue;
            }
            let draw = rng.unit();
            let delay = if draw < TOO_LATE_SHARE {
                rng.range(too_late, too_late + 30)
            } else if draw < TOO_LATE_SHARE + LATE_SHARE {
                rng.range(1, lateness_ticks)
            } else {
                0
            };
            let at = tick + delay as usize;
            if arrivals.len() <= at {
                arrivals.resize_with(at + 1, Vec::new);
            }
            arrivals[at].push(ShardRecord {
                ts_ms: batch.ts_ms,
                key: keys[s].clone(),
                observations,
            });
        }
    }
    arrivals
}

/// Reference Silver: per (window, node, sensor) count/min/max/sum of the
/// good readings, folded in generation order by the simplest code that
/// can be right. The pipeline's output must merge to exactly these
/// counts and extremes however the records were ordered or partitioned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub count: u64,
    pub min: f64,
    pub max: f64,
    pub sum: f64,
}

pub type CellKey = (i64, u32, u16);

pub fn reference_silver(batches: &[TelemetryBatch], window_ms: i64) -> HashMap<CellKey, Cell> {
    let mut cells: HashMap<CellKey, Cell> = HashMap::new();
    for obs in batches.iter().flat_map(|b| &b.observations) {
        if obs.quality != Quality::Good || obs.value.is_nan() {
            continue;
        }
        let window = obs.ts_ms.div_euclid(window_ms) * window_ms;
        let cell = cells
            .entry((window, obs.component.node, obs.sensor))
            .or_insert(Cell {
                count: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                sum: 0.0,
            });
        cell.count += 1;
        cell.min = cell.min.min(obs.value);
        cell.max = cell.max.max(obs.value);
        cell.sum += obs.value;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = telemetry(9, 1, 20);
        let b = telemetry(9, 1, 20);
        let c = telemetry(10, 1, 20);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.jobs, b.jobs);
        assert_ne!(a.batches, c.batches);
        assert!(!a.jobs.is_empty(), "scripted jobs start on the first tick");
    }

    #[test]
    fn disorder_keeps_every_record_and_bounds_the_horizon() {
        let t = telemetry(3, 1, 40);
        let keys: Vec<Bytes> = (0..SHARDS).map(|s| Bytes::from(format!("k{s}"))).collect();
        let arrivals = disordered_arrivals(&t.batches, &keys, 30, 60, &mut SplitMix64::new(3));
        let obs: usize = arrivals
            .iter()
            .flatten()
            .map(|r| r.observations.len())
            .sum();
        assert_eq!(obs, t.observations);
        assert!(arrivals.len() <= 40 + 30 + 60 + 30);
        let late = arrivals
            .iter()
            .enumerate()
            .flat_map(|(at, rs)| rs.iter().map(move |r| (at, r)))
            .filter(|(at, r)| (r.ts_ms / 1_000 - 1) as usize != *at)
            .count();
        assert!(late > 0);
    }
}
