//! Facility assembly: systems, broker, tiers, and bookkeeping.

use crate::config::FacilityConfig;
use crate::ingest::{publish_batch, topics};
use oda_storage::lake::Lake;
use oda_storage::ocean::Ocean;
use oda_storage::tiering::TierManager;
use oda_storage::Glacier;
use oda_stream::{Broker, RetentionPolicy};
use oda_telemetry::events::Event;
use oda_telemetry::jobs::{Job, JobEvent};
use oda_telemetry::{SystemModel, TelemetryGenerator};
use std::sync::Arc;

/// Aggregate statistics of one facility tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickStats {
    /// Observations published.
    pub observations: usize,
    /// Events published.
    pub events: usize,
    /// Job lifecycle records published.
    pub job_events: usize,
}

/// The assembled facility: the one-stop shop of §V.
pub struct Facility {
    config: FacilityConfig,
    generators: Vec<TelemetryGenerator>,
    broker: Arc<Broker>,
    lake: Arc<Lake>,
    ocean: Arc<Ocean>,
    glacier: Glacier,
    tiers: TierManager,
    /// Completed + running jobs seen so far, per system.
    job_history: Vec<Vec<Job>>,
    /// Events seen so far, per system.
    event_history: Vec<Vec<Event>>,
    now_ms: i64,
}

impl Facility {
    /// Build the facility: generators, topics, tiers.
    pub fn build(config: FacilityConfig) -> Facility {
        let broker = Broker::new();
        let mut generators = Vec::new();
        for (i, system) in config.systems.iter().enumerate() {
            let seed = config.seed.wrapping_add(i as u64 * 0x9e37_79b9);
            generators.push(
                TelemetryGenerator::with_workload(system.clone(), seed, config.workload.clone())
                    .with_tick_ms(config.tick_ms),
            );
            let (bronze, events, jobs) = topics(&system.name);
            broker
                .create_topic(
                    &bronze,
                    config.bronze_partitions,
                    RetentionPolicy::stream_default(),
                )
                .expect("fresh topic");
            broker
                .create_topic(&events, 1, RetentionPolicy::stream_default())
                .expect("fresh");
            broker
                .create_topic(&jobs, 1, RetentionPolicy::unbounded())
                .expect("fresh");
        }
        let n = config.systems.len();
        Facility {
            config,
            generators,
            broker,
            lake: Arc::new(Lake::new()),
            ocean: Ocean::new(),
            glacier: Glacier::new(),
            tiers: TierManager::new(),
            job_history: vec![Vec::new(); n],
            event_history: vec![Vec::new(); n],
            now_ms: 0,
        }
    }

    /// The facility configuration.
    pub fn config(&self) -> &FacilityConfig {
        &self.config
    }

    /// Simulated time (ms).
    pub fn now_ms(&self) -> i64 {
        self.now_ms
    }

    /// The STREAM broker.
    pub fn broker(&self) -> Arc<Broker> {
        self.broker.clone()
    }

    /// The LAKE service.
    pub fn lake(&self) -> Arc<Lake> {
        self.lake.clone()
    }

    /// The OCEAN service.
    pub fn ocean(&self) -> Arc<Ocean> {
        self.ocean.clone()
    }

    /// The GLACIER service.
    pub fn glacier(&self) -> &Glacier {
        &self.glacier
    }

    /// The tier lifecycle manager.
    pub fn tiers(&mut self) -> &mut TierManager {
        &mut self.tiers
    }

    /// Systems in the facility.
    pub fn systems(&self) -> Vec<&SystemModel> {
        self.generators.iter().map(|g| g.system()).collect()
    }

    /// The telemetry generator of system `i` (actuators live here).
    pub fn generator_mut(&mut self, i: usize) -> &mut TelemetryGenerator {
        &mut self.generators[i]
    }

    /// Every job observed so far on system `i` (running + completed).
    pub fn jobs(&self, i: usize) -> &[Job] {
        &self.job_history[i]
    }

    /// Every event observed so far on system `i`.
    pub fn events(&self, i: usize) -> &[Event] {
        &self.event_history[i]
    }

    /// Advance the whole facility one tick: generate, publish to
    /// STREAM, feed the LAKE's hot series, track jobs/events.
    pub fn tick(&mut self) -> TickStats {
        let mut stats = TickStats::default();
        for (i, generator) in self.generators.iter_mut().enumerate() {
            let system_name = generator.system().name.clone();
            let node_power_id = generator.catalog().by_name("node_power_w").map(|s| s.id);
            let batch = generator.next_batch();
            self.now_ms = self.now_ms.max(batch.ts_ms);
            let (o, e, j) =
                publish_batch(&self.broker, &system_name, &batch).expect("facility topics exist");
            stats.observations += o;
            stats.events += e;
            stats.job_events += j;
            // Hot path into the LAKE: node power series for dashboards.
            if let Some(id) = node_power_id {
                for obs in &batch.observations {
                    if obs.sensor == id && !obs.value.is_nan() {
                        self.lake.insert(
                            &format!("{}/node{}/node_power_w", system_name, obs.component.node),
                            obs.ts_ms,
                            obs.value,
                        );
                    }
                }
            }
            self.event_history[i].extend(batch.events.iter().cloned());
            for je in &batch.job_events {
                if let JobEvent::Start(job) = je {
                    self.job_history[i].push(job.clone());
                }
            }
        }
        stats
    }

    /// Run `n` ticks, returning cumulative stats.
    pub fn run(&mut self, n: usize) -> TickStats {
        let mut total = TickStats::default();
        for _ in 0..n {
            let s = self.tick();
            total.observations += s.observations;
            total.events += s.events;
            total.job_events += s.job_events;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FacilityConfig;
    use oda_stream::Consumer;

    #[test]
    fn build_creates_topics_per_system() {
        let f = Facility::build(FacilityConfig::tiny(1));
        let names = f.broker().topic_names();
        assert!(names.contains(&"tiny.bronze".to_string()));
        assert!(names.contains(&"tiny.events".to_string()));
        assert!(names.contains(&"tiny.jobs".to_string()));
    }

    #[test]
    fn ticks_publish_and_feed_lake() {
        let mut f = Facility::build(FacilityConfig::tiny(2));
        let stats = f.run(30);
        assert!(stats.observations > 0);
        // Bronze is consumable.
        let mut c = Consumer::subscribe(f.broker(), "t", "tiny.bronze").unwrap();
        assert!(!c.poll(10).unwrap().is_empty());
        // The LAKE has hot node power series.
        let series = f.lake().series_with_prefix("tiny/", 0, f.now_ms() + 1);
        assert_eq!(series.len(), 8, "one power series per node");
        let pts = f
            .lake()
            .plan(0, f.now_ms() + 1)
            .series("tiny/node0/node_power_w")
            .points();
        assert!(!pts.is_empty());
    }

    #[test]
    fn job_history_accumulates() {
        let mut f = Facility::build(FacilityConfig::tiny(3));
        // One simulated hour at 1-minute ticks for job turnover.
        let mut cfg = FacilityConfig::tiny(3);
        cfg.tick_ms = 60_000;
        let mut f2 = Facility::build(cfg);
        f2.run(120);
        assert!(!f2.jobs(0).is_empty(), "no jobs started in 2h");
        f.run(5);
        assert!(f.now_ms() >= 5_000);
    }

    #[test]
    fn paper_facility_builds_both_systems() {
        let f = Facility::build(FacilityConfig::paper_facility(1));
        let names: Vec<&str> = f.systems().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["mountain", "compass"]);
        assert_eq!(f.broker().topic_names().len(), 6);
    }
}
