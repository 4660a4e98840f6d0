//! The sensor-to-Gold ingest job, assembled from the product's public
//! API, and the two closed-loop workloads that drive it.
//!
//! One pass feeds a fixed, pre-generated observation set chunk by chunk
//! through `publish_batch` → 8-partition topic → `StreamingQuery`
//! (observation decoder, quality filter, windowed Silver transform,
//! checkpoints) → the bench-owned [`MedallionSink`] (Silver→Gold job,
//! colfile encode, OCEAN put, LAKE insert, tier bookkeeping). Every call
//! into a layer is wrapped in a span when a tracer is attached and runs
//! bare otherwise.

use crate::gen::{
    self, power_series, Cell, CellKey, ShardRecord, SplitMix64, Telemetry, POWER_SENSOR, SYSTEM,
};
use crate::trace::{span, Tracer};
use crate::{text, Tally};
use bytes::Bytes;
use oda_core::ingest::{publish_batch, topics};
use oda_obs::Registry;
use oda_pipeline::frame_io::{colfile_to_frame, frame_to_colfile};
use oda_pipeline::medallion::{
    job_context_frame, observation_decoder, quality_filter_map, silver_to_gold_job_energy,
    streaming_silver_transform,
};
use oda_pipeline::ops::Agg;
use oda_pipeline::streaming::{Decoder, PartitionMap, Transform};
use oda_pipeline::{
    CheckpointStore, EpochMeta, Expr, Frame, PipelineError, Query, Sink, StreamingQuery,
};
use oda_storage::lake::Point;
use oda_storage::{ColumnData, DataClass, Lake, Ocean, Tier, TierManager};
use oda_stream::{Broker, Consumer, RetentionPolicy};
use oda_telemetry::{Component, Observation, Quality, SensorCatalog, TelemetryBatch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub const PARTITIONS: u32 = 8;
const SILVER_BUCKET: &str = "silver";
const GOLD_BUCKET: &str = "gold";

/// Size and traffic shape of one ingest workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cabinets: u32,
    pub ticks: usize,
    /// Ticks published between two drains of the query.
    pub chunk_ticks: usize,
    pub window_ms: i64,
    pub lateness_ms: i64,
    pub max_records: usize,
    /// Permuted arrival order, skewed keys, raised bad-quality share.
    pub disorder: bool,
}

/// Share of readings `ingest_disorder` turns into dropouts, on top of
/// the generator's own (about 30 % of rows end up rejected).
const DISORDER_BAD_SHARE: f64 = 0.29;
/// Share of node shards keyed onto the two hot partitions.
const HOT_SHARD_SHARE: f64 = 0.70;

impl Shape {
    pub fn steady(smoke: bool) -> Shape {
        Shape {
            cabinets: if smoke { 1 } else { 4 },
            ticks: if smoke { 45 } else { 360 },
            chunk_ticks: 4,
            window_ms: 15_000,
            lateness_ms: 0,
            max_records: 2_048,
            disorder: false,
        }
    }

    pub fn disorder(smoke: bool) -> Shape {
        Shape {
            window_ms: 60_000,
            lateness_ms: 30_000,
            disorder: true,
            // Twice the steady chunk: a 60 s window closes for one chunk
            // in eight, which keeps p95 inside the emitting chunks and
            // off the cliff between them and the rest.
            chunk_ticks: 8,
            ticks: if smoke { 100 } else { 360 },
            ..Shape::steady(smoke)
        }
    }
}

/// What one chunk of the feed publishes.
pub enum Chunk {
    /// Whole ticks through `oda_core::ingest::publish_batch`.
    Ticks(Vec<TelemetryBatch>),
    /// Shard records in hostile arrival order with bench-chosen keys.
    Records(Vec<ShardRecord>),
}

/// Everything a pass needs, built once per run in set-up.
pub struct Inputs {
    pub shape: Shape,
    pub catalog: SensorCatalog,
    pub feed: Vec<Chunk>,
    pub telemetry: Telemetry,
    pub job_ctx: Frame,
    pub reference: HashMap<CellKey, Cell>,
    /// Observations in the feed, the flush marker excluded.
    pub observations: usize,
    /// Readings the quality filter must keep.
    pub good_observations: u64,
}

/// One reading far enough in the future to close every real window, so
/// a pass ends with all Silver emitted and the conservation oracle can
/// be exact. Its own cell stays in state and is never emitted.
fn flush_marker(last_ts_ms: i64, shape: &Shape, sensor: u16) -> Observation {
    Observation {
        ts_ms: last_ts_ms + 2 * shape.window_ms + shape.lateness_ms,
        sensor,
        component: Component::node(0),
        value: 1.0,
        quality: Quality::Good,
    }
}

/// Produce keys that put `HOT_SHARD_SHARE` of the node shards on
/// partitions 0 and 1 and spread the rest over the other six. Keys are
/// found by asking the topic where it would place them.
fn skewed_keys() -> Vec<Bytes> {
    let probe = oda_stream::topic::Topic::new("probe", PARTITIONS, RetentionPolicy::unbounded());
    let mut by_partition: Vec<Vec<Bytes>> = vec![Vec::new(); PARTITIONS as usize];
    let mut i = 0u32;
    while by_partition.iter().any(|keys| keys.len() < gen::SHARDS) {
        let key = Bytes::from(format!("shard-{i}"));
        by_partition[probe.partition_for(Some(&key)) as usize].push(key);
        i += 1;
    }
    let hot = (gen::SHARDS as f64 * HOT_SHARD_SHARE).round() as usize;
    (0..gen::SHARDS)
        .map(|s| {
            let partition = if s < hot { s % 2 } else { 2 + s % 6 };
            by_partition[partition][s].clone()
        })
        .collect()
}

impl Inputs {
    pub fn generate(seed: u64, shape: Shape) -> Inputs {
        let mut telemetry = gen::telemetry(seed, shape.cabinets, shape.ticks);
        let catalog = SensorCatalog::for_system(&telemetry.system);
        let mut rng = SplitMix64::new(seed ^ 0x1d15_0bde);
        if shape.disorder {
            gen::degrade(&mut telemetry.batches, DISORDER_BAD_SHARE, &mut rng);
        }
        let reference = gen::reference_silver(&telemetry.batches, shape.window_ms);
        let good_observations = reference.values().map(|c| c.count).sum();
        let last_ts = telemetry.batches.last().map_or(0, |b| b.ts_ms);
        // The feed takes the batches over: nothing else reads them again.
        let batches = std::mem::take(&mut telemetry.batches);
        let power = catalog
            .sensor_id(POWER_SENSOR)
            .expect("every system has node power");
        let marker = flush_marker(last_ts, &shape, power);
        let mut feed: Vec<Chunk> = if shape.disorder {
            let keys = skewed_keys();
            let arrivals = gen::disordered_arrivals(
                &batches,
                &keys,
                (shape.lateness_ms / 1_000) as u64,
                (shape.window_ms / 1_000) as u64,
                &mut rng,
            );
            let mut chunks = Vec::new();
            let mut it = arrivals.into_iter().peekable();
            while it.peek().is_some() {
                let records: Vec<ShardRecord> =
                    it.by_ref().take(shape.chunk_ticks).flatten().collect();
                if !records.is_empty() {
                    chunks.push(Chunk::Records(records));
                }
            }
            chunks.push(Chunk::Records(vec![ShardRecord {
                ts_ms: marker.ts_ms,
                key: keys[0].clone(),
                observations: vec![marker],
            }]));
            chunks
        } else {
            let mut chunks = Vec::new();
            let mut it = batches.into_iter().peekable();
            while it.peek().is_some() {
                chunks.push(Chunk::Ticks(it.by_ref().take(shape.chunk_ticks).collect()));
            }
            chunks
        };
        if !shape.disorder {
            feed.push(Chunk::Ticks(vec![TelemetryBatch {
                ts_ms: marker.ts_ms,
                observations: vec![marker],
                events: Vec::new(),
                job_events: Vec::new(),
            }]));
        }
        let job_ctx = job_context_frame(&telemetry.jobs);
        Inputs {
            observations: telemetry.observations,
            shape,
            catalog,
            feed,
            telemetry,
            job_ctx,
            reference,
            good_observations,
        }
    }
}

/// Exact row counts at the wrapped stage boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    pub decoded_rows: AtomicU64,
    pub filter_rows_out: AtomicU64,
    pub transform_rows_out: AtomicU64,
}

fn counted_decoder(inner: Decoder, counts: Arc<Counts>, tracer: Option<Arc<Tracer>>) -> Decoder {
    Box::new(move |records| {
        let _g = span(&tracer, "pipeline.decode");
        let frame = inner(records)?;
        counts
            .decoded_rows
            .fetch_add(frame.rows() as u64, Ordering::Relaxed);
        Ok(frame)
    })
}

fn counted_filter(
    inner: PartitionMap,
    counts: Arc<Counts>,
    tracer: Option<Arc<Tracer>>,
) -> PartitionMap {
    Box::new(move |frame| {
        let _g = span(&tracer, "pipeline.filter");
        let out = inner(frame)?;
        counts
            .filter_rows_out
            .fetch_add(out.rows() as u64, Ordering::Relaxed);
        Ok(out)
    })
}

fn counted_transform(
    mut inner: Transform,
    counts: Arc<Counts>,
    tracer: Option<Arc<Tracer>>,
) -> Transform {
    Box::new(move |frame, state| {
        let _g = span(&tracer, "pipeline.transform");
        let out = inner(frame, state)?;
        counts
            .transform_rows_out
            .fetch_add(out.rows() as u64, Ordering::Relaxed);
        Ok(out)
    })
}

/// What the sink stored, for throughput, space and layer figures.
#[derive(Debug, Default, Clone)]
pub struct SinkStats {
    pub silver_rows: u64,
    pub gold_rows: u64,
    pub power_rows: u64,
    pub lake_points: u64,
    pub parts: u64,
    pub raw_bytes: u64,
    pub encoded_bytes: u64,
}

/// Silver → Gold → colfile → OCEAN + LAKE + tier registry, idempotent in
/// the epoch (parts are keyed by epoch, so a replay overwrites).
pub struct MedallionSink {
    ocean: Arc<Ocean>,
    lake: Arc<Lake>,
    tiers: TierManager,
    job_ctx: Frame,
    window_ms: i64,
    series: Vec<String>,
    tracer: Option<Arc<Tracer>>,
    pub stats: SinkStats,
}

fn storage_err(e: oda_storage::StorageError) -> PipelineError {
    PipelineError::from(e)
}

/// In-memory width of a frame: 8 bytes per number, 4 per dictionary
/// code, the bytes of each plain string.
fn raw_bytes(frame: &Frame) -> u64 {
    frame
        .columns()
        .iter()
        .map(|c| match c {
            ColumnData::I64(v) => v.len() as u64 * 8,
            ColumnData::F64(v) => v.len() as u64 * 8,
            ColumnData::Dict { codes, .. } => codes.len() as u64 * 4,
            ColumnData::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

impl MedallionSink {
    fn store(
        &mut self,
        bucket: &str,
        class: DataClass,
        meta: &EpochMeta,
        frame: &Frame,
    ) -> Result<(), PipelineError> {
        let bytes = {
            let _g = span(&self.tracer, "storage.encode");
            frame_to_colfile(frame)?
        };
        self.stats.raw_bytes += raw_bytes(frame);
        self.stats.encoded_bytes += bytes.len() as u64;
        let key = format!("epoch-{:08}.ocf", meta.epoch);
        let size = bytes.len() as u64;
        {
            let _g = span(&self.tracer, "storage.ocean_put");
            self.ocean
                .put(bucket, &key, Bytes::from(bytes))
                .map_err(storage_err)?;
        }
        let _g = span(&self.tracer, "storage.tier");
        self.tiers.register(
            &format!("{bucket}/{key}"),
            class,
            Tier::Ocean,
            size,
            meta.watermark_ms,
        );
        self.stats.parts += 1;
        Ok(())
    }

    /// Per-job energy of this epoch's closed windows: the power rows of
    /// the long Silver frame pivoted wide, joined with the allocation
    /// context on node, cut to each job's interval, and reduced.
    fn gold(&self, power: Frame) -> Result<Frame, PipelineError> {
        let contextualized = Query::scan(power)
            .pivot(&["window", "node"], "sensor", "mean", Agg::Mean)
            .join(self.job_ctx.clone(), &["node"])
            .filter(
                Expr::col("window")
                    .ge(Expr::col("job_start_ms"))
                    .and(Expr::col("window").lt(Expr::col("job_end_ms"))),
            )
            .execute()?;
        silver_to_gold_job_energy(&contextualized, self.window_ms)
    }

    fn feed_lake(&mut self, power: &Frame) -> Result<(), PipelineError> {
        let windows = power.i64s("window")?;
        let nodes = power.i64s("node")?;
        let means = power.f64s("mean")?;
        let mut per_node: Vec<Vec<Point>> = vec![Vec::new(); self.series.len()];
        for ((&ts_ms, &node), &value) in windows.iter().zip(nodes).zip(means) {
            per_node[node as usize].push(Point { ts_ms, value });
        }
        let _g = span(&self.tracer, "storage.lake_insert");
        for (series, points) in self.series.iter().zip(&per_node) {
            if !points.is_empty() {
                self.lake.insert_batch(series, points);
                self.stats.lake_points += points.len() as u64;
            }
        }
        Ok(())
    }
}

impl Sink for MedallionSink {
    fn write(&mut self, meta: &EpochMeta, silver: &Frame) -> Result<(), PipelineError> {
        if silver.is_empty() {
            return Ok(());
        }
        let _sink = span(&self.tracer, "bench.sink");
        self.stats.silver_rows += silver.rows() as u64;
        self.store(SILVER_BUCKET, DataClass::Silver, meta, silver)?;
        let (power, gold) = {
            let _g = span(&self.tracer, "pipeline.gold");
            let mask = Expr::col("sensor")
                .eq_(Expr::LitS(POWER_SENSOR.into()))
                .eval_mask(silver)?;
            let power = silver.filter_mask(&mask);
            let gold = if power.is_empty() {
                None
            } else {
                Some(self.gold(power.clone())?)
            };
            (power, gold)
        };
        if let Some(gold) = gold {
            self.stats.power_rows += power.rows() as u64;
            self.stats.gold_rows += gold.rows() as u64;
            self.store(GOLD_BUCKET, DataClass::Gold, meta, &gold)?;
            self.feed_lake(&power)?;
        }
        let _g = span(&self.tracer, "storage.tier");
        self.tiers.advance(meta.watermark_ms);
        Ok(())
    }
}

/// Sums of what the product reports about its own epochs.
#[derive(Debug, Default, Clone)]
pub struct EpochSums {
    pub epochs: u64,
    pub records: u64,
    pub fetch_ns: u64,
    pub checkpoint_ns: u64,
    pub checkpoint_bytes: u64,
    pub state_keys_max: u64,
}

/// The assembled system of one pass: fresh broker, query, tiers.
pub struct Job {
    broker: Arc<Broker>,
    bronze: String,
    query: StreamingQuery,
    pub sink: MedallionSink,
    checkpoints: CheckpointStore,
    tracer: Option<Arc<Tracer>>,
    pub counts: Arc<Counts>,
    pub sums: EpochSums,
    pub ocean: Arc<Ocean>,
    pub lake: Arc<Lake>,
}

impl Job {
    pub fn assemble(
        inputs: &Inputs,
        workers: usize,
        tracer: Option<Arc<Tracer>>,
        registry: Option<&Registry>,
    ) -> Result<Job, String> {
        let shape = &inputs.shape;
        let broker = Broker::new();
        let (bronze, events, jobs) = topics(SYSTEM);
        broker
            .create_topic(&bronze, PARTITIONS, RetentionPolicy::unbounded())
            .map_err(text)?;
        for side in [&events, &jobs] {
            broker
                .create_topic(side, 1, RetentionPolicy::unbounded())
                .map_err(text)?;
        }
        let ocean = Ocean::new();
        ocean.create_bucket(SILVER_BUCKET);
        ocean.create_bucket(GOLD_BUCKET);
        let lake = Arc::new(Lake::new());
        let mut tiers = TierManager::new();
        let checkpoints = CheckpointStore::new();
        let counts = Arc::new(Counts::default());
        let consumer = Consumer::subscribe(broker.clone(), "odabench", &bronze).map_err(text)?;
        let mut builder = StreamingQuery::builder()
            .source(consumer)
            .decoder(counted_decoder(
                observation_decoder(inputs.catalog.clone()),
                Arc::clone(&counts),
                tracer.clone(),
            ))
            .map_partitions(counted_filter(
                quality_filter_map(),
                Arc::clone(&counts),
                tracer.clone(),
            ))
            .transform(counted_transform(
                streaming_silver_transform(shape.window_ms, shape.lateness_ms),
                Arc::clone(&counts),
                tracer.clone(),
            ))
            .checkpoints(checkpoints.clone())
            .max_records(shape.max_records)
            .workers(workers);
        // The operator plane of `live_ops`: every service counts into it.
        if let Some(registry) = registry {
            broker.attach_metrics(registry);
            ocean.attach_metrics(registry);
            lake.attach_metrics(registry);
            tiers.attach_metrics(registry);
            builder = builder.metrics(registry);
        }
        let query = builder.build().map_err(text)?;
        let nodes = inputs.telemetry.system.node_count();
        let sink = MedallionSink {
            ocean: Arc::clone(&ocean),
            lake: Arc::clone(&lake),
            tiers,
            job_ctx: inputs.job_ctx.clone(),
            window_ms: shape.window_ms,
            series: (0..nodes as usize).map(power_series).collect(),
            tracer: tracer.clone(),
            stats: SinkStats::default(),
        };
        Ok(Job {
            broker,
            bronze,
            query,
            sink,
            checkpoints,
            tracer,
            counts,
            sums: EpochSums::default(),
            ocean,
            lake,
        })
    }

    /// Publish one chunk.
    pub fn publish(&mut self, chunk: &Chunk) -> Result<(), String> {
        let _g = span(&self.tracer, "core.publish");
        match chunk {
            Chunk::Ticks(batches) => {
                for batch in batches {
                    publish_batch(&self.broker, SYSTEM, batch).map_err(text)?;
                }
            }
            Chunk::Records(records) => {
                for r in records {
                    let payload = Bytes::from(Observation::encode_batch(&r.observations));
                    let _p = span(&self.tracer, "stream.produce");
                    self.broker
                        .produce(&self.bronze, r.ts_ms, Some(r.key.clone()), payload)
                        .map_err(text)?;
                }
            }
        }
        Ok(())
    }

    /// Run epochs until the query has caught up with the topic, calling
    /// `each` after every committed epoch.
    pub fn drain_with(&mut self, mut each: impl FnMut(&EpochMeta)) -> Result<(), String> {
        loop {
            let guard = span(&self.tracer, "pipeline.epoch");
            if let (Some(t), Some(g)) = (&self.tracer, &guard) {
                t.fan_out(g);
            }
            let consumed = self.query.run_once(&mut self.sink);
            if let Some(t) = &self.tracer {
                t.fan_in();
            }
            if consumed.map_err(text)? == 0 {
                return Ok(());
            }
            let meta = *self
                .query
                .last_meta()
                .expect("a committed epoch leaves its meta");
            self.sums.epochs += 1;
            self.sums.records += meta.records as u64;
            self.sums.fetch_ns += meta.timings.fetch_ns;
            self.sums.checkpoint_ns += meta.timings.checkpoint_ns;
            self.sums.state_keys_max = self
                .sums
                .state_keys_max
                .max(self.query.state().len() as u64);
            if let (Some(t), Some(g)) = (&self.tracer, guard) {
                // The commit is the last thing `run_once` does, so the
                // product-reported checkpoint time ends where the epoch
                // span is about to.
                let end = t.now_ns();
                let dur = meta.timings.checkpoint_ns.min(end);
                t.reported("pipeline.checkpoint", g.id(), end - dur, dur);
                drop(g);
                self.sums.checkpoint_bytes += self
                    .checkpoints
                    .latest()
                    .map_or(0, |cp| cp.state.len() as u64);
            }
            each(&meta);
        }
    }

    pub fn drain(&mut self) -> Result<(), String> {
        self.drain_with(|_| {})
    }

    /// Records the consumer has not read yet.
    pub fn backlog(&self) -> u64 {
        (0..PARTITIONS)
            .map(|p| {
                let end = self
                    .broker
                    .topic(&self.bronze)
                    .and_then(|t| t.latest_offset(p))
                    .unwrap_or(0);
                end.saturating_sub(self.broker.committed("odabench", &self.bronze, p))
            })
            .sum()
    }

    /// Max over mean records per bronze partition.
    pub fn partition_skew(&self) -> f64 {
        let per: Vec<u64> = (0..PARTITIONS)
            .map(|p| {
                self.broker
                    .topic(&self.bronze)
                    .and_then(|t| t.latest_offset(p))
                    .unwrap_or(0)
            })
            .collect();
        let mean = per.iter().sum::<u64>() as f64 / per.len() as f64;
        per.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
    }

    pub fn produced_bytes(&self) -> usize {
        self.broker.bytes()
    }
}

/// What a finished pass left in OCEAN, read back through the public API.
#[derive(Debug, Clone, PartialEq)]
pub struct Stored {
    pub silver_digest: u64,
    pub gold_digest: u64,
    pub bytes: u64,
}

fn fold_digest(acc: u64, bytes: &[u8]) -> u64 {
    acc.rotate_left(5) ^ oda_obs::fnv1a(bytes)
}

/// Digest every stored Silver and Gold part in key order.
pub fn read_back(ocean: &Ocean) -> Result<Stored, String> {
    let mut digests = [0u64; 2];
    let mut bytes = 0;
    for (slot, bucket) in [SILVER_BUCKET, GOLD_BUCKET].into_iter().enumerate() {
        for key in ocean.list(bucket, "") {
            let part = ocean.get(bucket, &key).map_err(text)?;
            bytes += part.len() as u64;
            digests[slot] = fold_digest(digests[slot], &part);
        }
    }
    Ok(Stored {
        silver_digest: digests[0],
        gold_digest: digests[1],
        bytes,
    })
}

/// The stored Silver parts merged back into one cell per (window, node,
/// sensor), plus how many rows were late re-emissions of a cell that had
/// already been written.
pub fn merged_silver(
    ocean: &Ocean,
    catalog: &SensorCatalog,
) -> Result<(HashMap<CellKey, Cell>, u64), String> {
    let mut cells: HashMap<CellKey, Cell> = HashMap::new();
    let mut late = 0;
    for key in ocean.list(SILVER_BUCKET, "") {
        let part = ocean.get(SILVER_BUCKET, &key).map_err(text)?;
        let frame = colfile_to_frame(part.to_vec()).map_err(text)?;
        let windows = frame.i64s("window").map_err(text)?;
        let nodes = frame.i64s("node").map_err(text)?;
        let sensors = frame.cat("sensor").map_err(text)?;
        let means = frame.f64s("mean").map_err(text)?;
        let mins = frame.f64s("min").map_err(text)?;
        let maxs = frame.f64s("max").map_err(text)?;
        let counts = frame.i64s("count").map_err(text)?;
        let mut ids: HashMap<&str, u16> = HashMap::new();
        for row in 0..frame.rows() {
            let name = sensors.get(row);
            let id = match ids.get(name) {
                Some(&id) => id,
                None => {
                    let id = catalog.sensor_id(name).map_err(text)?;
                    ids.insert(name, id);
                    id
                }
            };
            let add = Cell {
                count: counts[row] as u64,
                min: mins[row],
                max: maxs[row],
                sum: means[row] * counts[row] as f64,
            };
            cells
                .entry((windows[row], nodes[row] as u32, id))
                .and_modify(|c| {
                    late += 1;
                    c.count += add.count;
                    c.min = c.min.min(add.min);
                    c.max = c.max.max(add.max);
                    c.sum += add.sum;
                })
                .or_insert(add);
        }
    }
    Ok((cells, late))
}

/// Hold the pipeline's Silver against the reference computed in set-up:
/// the same cells, exact counts and extremes, means to rounding.
pub fn check_against_reference(
    merged: &HashMap<CellKey, Cell>,
    reference: &HashMap<CellKey, Cell>,
    tally: &mut Tally,
) {
    tally.check(merged.len() == reference.len(), || {
        format!(
            "silver has {} cells, reference {}",
            merged.len(),
            reference.len()
        )
    });
    let mut wrong = 0usize;
    for (key, want) in reference {
        let ok = merged.get(key).is_some_and(|got| {
            got.count == want.count
                && got.min == want.min
                && got.max == want.max
                && (got.sum - want.sum).abs() <= 1e-9 * want.sum.abs().max(1.0)
        });
        wrong += usize::from(!ok);
    }
    tally.check(wrong == 0, || {
        format!("{wrong} silver cells differ from the sorted-order reference")
    });
}

/// Push the head of the feed through a throwaway job, so first-use
/// costs are paid in set-up and not by the first timed pass.
pub fn warm_up(inputs: &Inputs) -> Result<(), String> {
    let mut job = Job::assemble(inputs, 2, None, None)?;
    for chunk in inputs.feed.iter().take(inputs.feed.len() / 8 + 1) {
        job.publish(chunk)?;
        job.drain()?;
    }
    Ok(())
}

/// Figures of one closed-loop pass.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub chunk_ms: Vec<f64>,
    pub stored: Stored,
    pub sums: EpochSums,
    pub sink: SinkStats,
    pub decoded_rows: u64,
    pub filter_rows_out: u64,
    pub transform_rows_out: u64,
    pub partition_skew: f64,
    pub produced_bytes: usize,
    /// Set when the pass was asked to verify against the reference.
    pub late_silver_rows: Option<u64>,
}

/// One closed-loop pass: publish a chunk, drain the query, repeat.
/// With `verify`, the stored Silver is also held against the reference.
pub fn run_pass(
    inputs: &Inputs,
    workers: usize,
    tracer: Option<Arc<Tracer>>,
    verify: bool,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let mut job = Job::assemble(inputs, workers, tracer.clone(), None)?;
    let cpu0 = crate::stats::cpu_seconds();
    let start = std::time::Instant::now();
    let mut chunk_ms = Vec::with_capacity(inputs.feed.len());
    {
        let _pass = span(&tracer, "bench.pass");
        for chunk in &inputs.feed {
            let t0 = std::time::Instant::now();
            tally.attempted += 1;
            let done = job.publish(chunk).and_then(|()| job.drain());
            if let Err(e) = done {
                tally.fail(format!("ingest chunk: {e}"));
                return Err(e);
            }
            chunk_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = crate::stats::cpu_seconds() - cpu0;
    let stored = read_back(&job.ocean)?;
    let filter_rows_out = job.counts.filter_rows_out.load(Ordering::Relaxed);
    let mut late_silver_rows = None;
    if verify {
        let (merged, late) = merged_silver(&job.ocean, &inputs.catalog)?;
        check_against_reference(&merged, &inputs.reference, tally);
        // The flush marker is the one good reading that is never emitted.
        tally.check(filter_rows_out == inputs.good_observations + 1, || {
            format!(
                "filter kept {filter_rows_out} rows, reference has {} good readings",
                inputs.good_observations
            )
        });
        late_silver_rows = Some(late);
    }
    Ok(Pass {
        wall_s,
        cpu_s,
        chunk_ms,
        stored,
        sums: job.sums.clone(),
        sink: job.sink.stats.clone(),
        decoded_rows: job.counts.decoded_rows.load(Ordering::Relaxed),
        filter_rows_out,
        transform_rows_out: job.counts.transform_rows_out.load(Ordering::Relaxed),
        partition_skew: job.partition_skew(),
        produced_bytes: job.produced_bytes(),
        late_silver_rows,
    })
}
