//! Checkpointed micro-batch streaming with exactly-once sinks.
//!
//! A [`StreamingQuery`] polls a broker consumer, decodes records into a
//! frame, applies a stateful transform, writes the result to a [`Sink`]
//! tagged with its [`EpochMeta`], and then atomically commits a
//! checkpoint (epoch, offsets, and the state as a base or as a delta
//! onto the previous checkpoint). On recovery the query restores the
//! latest checkpoint through its chain; a batch that was sunk but not checkpointed is
//! replayed with the *same epoch*, so an idempotent sink deduplicates —
//! exactly-once end-to-end.
//!
//! Queries are configured through [`StreamingQueryBuilder`]; with
//! `workers(n)` the per-partition fetch/decode/map stage runs on `n`
//! threads via the [`crate::executor`] module, with a deterministic
//! ordered merge (partition id, then offset) feeding the serial
//! stateful transform — output is byte-identical for any worker count.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::error::PipelineError;
pub use crate::executor::EpochMeta;
use crate::executor::{epoch_meta, merge_partition_outputs, partition_stage, PartitionOutput};
use crate::frame::Frame;
use crate::frame_io::frame_digest;
use crate::metrics::PipelineMetrics;
use crate::state::StateStore;
use oda_faults::{FaultKind, FaultPoint, FaultSite};
use oda_obs::{trace_id, trace_span, LineageNode, Registry, TraceEventKind, TraceSpanId, Tracer};
use oda_stream::{Consumer, Record};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Batch output target with idempotent epoch semantics.
pub trait Sink {
    /// Write the output of the epoch described by `meta`. Must be
    /// idempotent in `meta.epoch`: writing the same epoch twice must
    /// leave one copy.
    fn write(&mut self, meta: &EpochMeta, frame: &Frame) -> Result<(), PipelineError>;
}

/// In-memory sink keyed by epoch (idempotent by construction).
#[derive(Debug, Default)]
pub struct MemorySink {
    batches: BTreeMap<u64, Frame>,
    metas: BTreeMap<u64, EpochMeta>,
    /// Total writes attempted, including duplicate epochs (for tests).
    pub write_calls: usize,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Batches in epoch order.
    pub fn frames(&self) -> Vec<&Frame> {
        self.batches.values().collect()
    }

    /// Concatenate all batches into one frame.
    pub fn concat(&self) -> Result<Frame, PipelineError> {
        let frames: Vec<Frame> = self.batches.values().cloned().collect();
        Frame::concat(&frames)
    }

    /// Total rows across batches.
    pub fn total_rows(&self) -> usize {
        self.batches.values().map(Frame::rows).sum()
    }

    /// Number of distinct epochs written.
    pub fn epochs(&self) -> usize {
        self.batches.len()
    }

    /// The metadata the engine attached to `epoch`, if written.
    pub fn meta(&self, epoch: u64) -> Option<&EpochMeta> {
        self.metas.get(&epoch)
    }

    /// Epoch metadata in epoch order.
    pub fn metas(&self) -> Vec<&EpochMeta> {
        self.metas.values().collect()
    }
}

impl Sink for MemorySink {
    fn write(&mut self, meta: &EpochMeta, frame: &Frame) -> Result<(), PipelineError> {
        self.write_calls += 1;
        self.batches.insert(meta.epoch, frame.clone());
        self.metas.insert(meta.epoch, *meta);
        Ok(())
    }
}

/// Batch decoder: broker records -> frame. Must be row-local (each
/// record decodes independently of its neighbors) so that decoding a
/// partition slice equals slicing a decoded batch — the property that
/// makes per-partition parallel decode equivalent to the serial path.
pub type Decoder = Box<dyn Fn(&[Record]) -> Result<Frame, PipelineError> + Send + Sync>;
/// Stateful transform: input frame + state -> output frame. Runs
/// serially on the merged epoch, after the parallel partition stage.
pub type Transform = Box<dyn FnMut(Frame, &mut StateStore) -> Result<Frame, PipelineError> + Send>;
/// Stateless per-partition map applied inside workers, between decode
/// and merge (e.g. row filtering, unit normalization). Must be
/// row-local, like [`Decoder`].
pub type PartitionMap = Box<dyn Fn(Frame) -> Result<Frame, PipelineError> + Send + Sync>;

/// Step-by-step configuration for a [`StreamingQuery`].
///
/// ```text
/// StreamingQueryBuilder::new()
///     .source(consumer)            // required
///     .decoder(decode)             // required
///     .transform(transform)        // required
///     .checkpoints(store)          // required
///     .map_partitions(map)         // optional parallel stage
///     .max_records(5_000)          // default 10_000
///     .workers(4)                  // default 1
///     .faults(plan)                // optional, one plan
///     .build()?                    // validates + checkpoint recovery
/// ```
///
/// `build` validates the configuration ([`PipelineError::InvalidQuery`]
/// on a missing stage or zero budget) and performs checkpoint recovery:
/// if the store holds a checkpoint, the consumer is sought to its
/// offsets, state is restored from the newest base and the deltas after
/// it, and the query resumes at the next epoch.
#[derive(Default)]
pub struct StreamingQueryBuilder {
    source: Option<Consumer>,
    decoder: Option<Decoder>,
    partition_map: Option<PartitionMap>,
    transform: Option<Transform>,
    checkpoints: Option<CheckpointStore>,
    max_records: Option<usize>,
    workers: Option<usize>,
    faults: Option<Arc<dyn FaultPoint>>,
    metrics: Option<PipelineMetrics>,
    trace_name: Option<String>,
}

impl StreamingQueryBuilder {
    /// Start an empty configuration.
    pub fn new() -> StreamingQueryBuilder {
        StreamingQueryBuilder::default()
    }

    /// The consumer to poll (required).
    pub fn source(mut self, consumer: Consumer) -> Self {
        self.source = Some(consumer);
        self
    }

    /// The record decoder (required).
    pub fn decoder(mut self, decode: Decoder) -> Self {
        self.decoder = Some(decode);
        self
    }

    /// Optional stateless per-partition map, run inside workers after
    /// decode and before the ordered merge.
    pub fn map_partitions(mut self, map: PartitionMap) -> Self {
        self.partition_map = Some(map);
        self
    }

    /// The stateful transform (required).
    pub fn transform(mut self, transform: Transform) -> Self {
        self.transform = Some(transform);
        self
    }

    /// The checkpoint store to recover from and commit to (required).
    pub fn checkpoints(mut self, checkpoints: CheckpointStore) -> Self {
        self.checkpoints = Some(checkpoints);
        self
    }

    /// Cap records per micro-batch (default 10 000, must be ≥ 1).
    pub fn max_records(mut self, max: usize) -> Self {
        self.max_records = Some(max);
        self
    }

    /// Worker threads for the partition stage (default 1, must be ≥ 1).
    /// Output is byte-identical for every worker count; more workers
    /// than partitions is clamped.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Arm a fault plan at the query's sink-write site; a later call
    /// replaces an earlier one. Crash-after-sink schedules (see
    /// `FaultPlan::crash_after_sink`) arm here.
    pub fn faults(mut self, faults: Arc<dyn FaultPoint>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Register engine metrics (epoch/record counters, per-stage latency
    /// histograms) in `registry`. When the registry carries a tracer,
    /// also record structured trace spans (epoch → partition → stage
    /// tail) and Bronze→Silver lineage edges in it: events are emitted
    /// serially after the checkpoint commits, from the same stopwatch
    /// reads the `pipeline_stage_duration_ns` histogram observes, so
    /// traces and metrics never disagree on a stage's duration. Both are
    /// a read-only tap: they never change what the query computes.
    pub fn metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(PipelineMetrics::new(registry));
        self
    }

    /// Logical query name used to derive this query's trace ids
    /// (default `"query"`). Give two queries tracing into one journal
    /// distinct names so their epochs land in distinct traces.
    pub fn trace_name(mut self, name: &str) -> Self {
        self.trace_name = Some(name.to_string());
        self
    }

    /// Validate the configuration and build the query, recovering from
    /// the latest checkpoint if one exists.
    pub fn build(self) -> Result<StreamingQuery, PipelineError> {
        let missing = |what: &str| PipelineError::InvalidQuery(format!("{what} is required"));
        let mut consumer = self.source.ok_or_else(|| missing("source"))?;
        let decode = self.decoder.ok_or_else(|| missing("decoder"))?;
        let transform = self.transform.ok_or_else(|| missing("transform"))?;
        let checkpoints = self.checkpoints.ok_or_else(|| missing("checkpoints"))?;
        let max_records = self.max_records.unwrap_or(10_000);
        if max_records == 0 {
            return Err(PipelineError::InvalidQuery(
                "max_records must be at least 1".into(),
            ));
        }
        let workers = self.workers.unwrap_or(1);
        if workers == 0 {
            return Err(PipelineError::InvalidQuery(
                "workers must be at least 1".into(),
            ));
        }
        let chain = checkpoints.chain();
        let (state, epoch) = match chain.last() {
            Some(cp) => {
                for (&p, &off) in &cp.offsets {
                    consumer.seek(p, off)?;
                }
                let links = chain.iter().map(|cp| (cp.epoch, cp.state.as_slice()));
                let state = StateStore::restore_chain(links)
                    .ok_or_else(|| PipelineError::Decode("corrupt state snapshot".into()))?;
                (state, cp.epoch + 1)
            }
            None => (StateStore::new(), 0),
        };
        Ok(StreamingQuery {
            consumer,
            decode,
            partition_map: self.partition_map,
            transform,
            state,
            checkpoints,
            epoch,
            max_records,
            workers,
            faults: self.faults,
            metrics: self.metrics,
            trace_name: self.trace_name.unwrap_or_else(|| "query".into()),
            last_meta: None,
        })
    }
}

/// A recoverable micro-batch query. Configure via
/// [`StreamingQueryBuilder`].
pub struct StreamingQuery {
    consumer: Consumer,
    decode: Decoder,
    partition_map: Option<PartitionMap>,
    transform: Transform,
    state: StateStore,
    checkpoints: CheckpointStore,
    epoch: u64,
    max_records: usize,
    workers: usize,
    /// Armed fault plan, consulted at the sink-write site. Crashes in
    /// the sink→checkpoint window come from here (simulating the
    /// exactly-once vulnerable window).
    faults: Option<Arc<dyn FaultPoint>>,
    metrics: Option<PipelineMetrics>,
    trace_name: String,
    last_meta: Option<EpochMeta>,
}

impl std::fmt::Debug for StreamingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingQuery")
            .field("epoch", &self.epoch)
            .field("max_records", &self.max_records)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl StreamingQuery {
    /// Start configuring a query.
    pub fn builder() -> StreamingQueryBuilder {
        StreamingQueryBuilder::new()
    }

    fn fault(&self, site: FaultSite, ctx: u64) -> Option<FaultKind> {
        self.faults.as_ref()?.check(site, ctx)
    }

    /// Current epoch (next batch number).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Worker threads used by the partition stage.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Read-only view of the query state.
    pub fn state(&self) -> &StateStore {
        &self.state
    }

    /// Metadata (with complete stage timings) of the last committed
    /// epoch, if any. Unlike the meta the sink sees mid-epoch, this one
    /// includes `sink_ns` and `checkpoint_ns`.
    pub fn last_meta(&self) -> Option<&EpochMeta> {
        self.last_meta.as_ref()
    }

    /// The tracer the attached registry carries, if any.
    fn tracer(&self) -> Option<&Tracer> {
        self.metrics.as_ref()?.tracer.as_ref()
    }

    /// Process one micro-batch. Returns records consumed (0 = caught up).
    ///
    /// The per-partition fetch/decode/map stage runs on the configured
    /// worker pool; the deterministic merge (partition id, then offset)
    /// then feeds the serial transform → sink → checkpoint tail. The
    /// consumer's positions advance only after every partition's stage
    /// succeeded, so a failed epoch re-reads the identical record set.
    pub fn run_once(&mut self, sink: &mut dyn Sink) -> Result<usize, PipelineError> {
        match self.run_epoch(sink) {
            Ok(records) => Ok(records),
            Err(e) => {
                if let Some(m) = &self.metrics {
                    m.failed_epochs.inc();
                }
                Err(e)
            }
        }
    }

    fn run_epoch(&mut self, sink: &mut dyn Sink) -> Result<usize, PipelineError> {
        let budget = self.consumer.per_partition_budget(self.max_records);
        let partitions: Vec<(u32, u64)> = self
            .consumer
            .assignment()
            .iter()
            .map(|&p| (p, self.consumer.position(p).expect("assigned partition")))
            .collect();
        let outputs = partition_stage(
            &self.consumer,
            &partitions,
            budget,
            self.workers,
            &self.decode,
            self.partition_map.as_ref(),
        )?;
        // Accept the epoch's reads: advance positions (retention
        // skip-forward applies even to empty fetches).
        for o in &outputs {
            self.consumer.seek(o.partition, o.next_offset)?;
        }
        let mut meta = epoch_meta(self.epoch, &outputs);
        if meta.records == 0 {
            return Ok(0);
        }
        let input = merge_partition_outputs(&outputs)?;
        let rows_in = input.rows();
        let tracing = self.tracer().is_some() && oda_obs::enabled();
        let bronze_digest = if tracing { frame_digest(&input)? } else { 0 };
        let sw = oda_obs::Stopwatch::start();
        let output = (self.transform)(input, &mut self.state)?;
        meta.timings.transform_ns = sw.elapsed_ns();
        let rows_out = output.rows();
        let silver_digest = if tracing { frame_digest(&output)? } else { 0 };
        let sw = oda_obs::Stopwatch::start();
        sink.write(&meta, &output)?;
        meta.timings.sink_ns = sw.elapsed_ns();
        if let Some(kind) = self.fault(FaultSite::SinkWrite, self.epoch) {
            return Err(PipelineError::Injected(kind));
        }
        let sw = oda_obs::Stopwatch::start();
        self.checkpoints.try_commit(Checkpoint {
            epoch: self.epoch,
            offsets: self.consumer.positions(),
            state: self.state.checkpoint(self.checkpoints.wants_base()),
        })?;
        self.state.committed(self.epoch);
        self.consumer.commit();
        meta.timings.checkpoint_ns = sw.elapsed_ns();
        self.epoch += 1;
        if let Some(m) = &self.metrics {
            m.record_epoch(meta.records, &meta.timings);
        }
        if tracing {
            self.record_epoch_trace(
                &meta,
                &partitions,
                &outputs,
                rows_in,
                rows_out,
                bronze_digest,
                silver_digest,
            );
        }
        self.last_meta = Some(meta);
        Ok(meta.records)
    }

    /// Emit the committed epoch's span tree and lineage edges.
    ///
    /// Runs serially after the checkpoint commit — a crashed epoch
    /// leaves no events; a replayed epoch emits exactly once — and
    /// reads the same stopwatch values `pipeline_stage_duration_ns`
    /// observed, so traces and metrics cannot disagree on a stage's
    /// duration. Every partition gets a span (even an empty fetch), so
    /// the fetch/decode span durations sum exactly to the epoch's
    /// [`crate::executor::EpochTimings`].
    #[allow(clippy::too_many_arguments)]
    fn record_epoch_trace(
        &self,
        meta: &EpochMeta,
        partitions: &[(u32, u64)],
        outputs: &[PartitionOutput],
        rows_in: usize,
        rows_out: usize,
        bronze_digest: u64,
        silver_digest: u64,
    ) {
        let Some(tr) = self.tracer() else { return };
        let epoch = meta.epoch;
        let trace = trace_id(&self.trace_name, epoch);
        // Every span of the epoch: site = ctx, scope = the epoch.
        let span = |stage: &str, ctx: u64, parent: Option<TraceSpanId>, dur_ns: u64, kind| {
            let id = trace_span(trace, stage, ctx);
            tr.record(trace, id, parent, epoch, ctx, dur_ns, kind);
            id
        };
        let t = &meta.timings;
        let root = span(
            "epoch",
            epoch,
            None,
            t.fetch_ns + t.decode_ns + t.transform_ns + t.sink_ns + t.checkpoint_ns,
            TraceEventKind::Epoch {
                records: meta.records as u64,
                partitions: meta.partitions as u64,
                watermark_ms: meta.watermark_ms,
            },
        );
        let topic = self.consumer.topic().to_string();
        let starts: BTreeMap<u32, u64> = partitions.iter().copied().collect();
        let bronze = LineageNode::Frame {
            stage: "bronze".into(),
            epoch,
            digest: bronze_digest,
            rows: rows_in as u64,
        };
        for o in outputs {
            let pctx = o.partition as u64;
            let pspan = span(
                "partition",
                pctx,
                Some(root),
                o.fetch_ns + o.decode_ns,
                TraceEventKind::Partition {
                    partition: pctx,
                    records: o.records as u64,
                },
            );
            let from = starts.get(&o.partition).copied().unwrap_or(0);
            span(
                "fetch",
                pctx,
                Some(pspan),
                o.fetch_ns,
                TraceEventKind::PartitionFetch {
                    topic: topic.clone(),
                    partition: pctx,
                    from,
                    to: o.next_offset,
                    records: o.records as u64,
                },
            );
            span(
                "decode",
                pctx,
                Some(pspan),
                o.decode_ns,
                TraceEventKind::PartitionDecode {
                    partition: pctx,
                    rows: o.frame.rows() as u64,
                },
            );
            if o.records > 0 {
                tr.lineage().link(
                    LineageNode::OffsetRange {
                        topic: topic.clone(),
                        partition: pctx,
                        start: from,
                        end: o.next_offset,
                    },
                    bronze.clone(),
                    "decode",
                );
            }
        }
        let (rows_in, rows_out) = (rows_in as u64, rows_out as u64);
        let transform = TraceEventKind::Transform { rows_in, rows_out };
        span("transform", epoch, Some(root), t.transform_ns, transform);
        let sink = TraceEventKind::SinkWrite { rows: rows_out };
        span("sink", epoch, Some(root), t.sink_ns, sink);
        let checkpoint = TraceEventKind::Checkpoint { epoch };
        span("checkpoint", epoch, Some(root), t.checkpoint_ns, checkpoint);
        tr.lineage().link(
            bronze,
            LineageNode::Frame {
                stage: "silver".into(),
                epoch,
                digest: silver_digest,
                rows: rows_out,
            },
            "transform",
        );
    }

    /// Run until the consumer is caught up; returns batches processed.
    pub fn run_to_completion(&mut self, sink: &mut dyn Sink) -> Result<usize, PipelineError> {
        let mut batches = 0;
        while self.run_once(sink)? > 0 {
            batches += 1;
        }
        Ok(batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::KeyHint;
    use bytes::Bytes;
    use oda_faults::FaultPlan;
    use oda_storage::colfile::ColumnData;
    use oda_stream::{Broker, RetentionPolicy};
    use std::sync::Arc;

    /// Each record's value is an f64 in text; decode to a 1-column frame.
    fn decoder() -> Decoder {
        Box::new(|records: &[Record]| {
            let vals: Vec<f64> = records
                .iter()
                .map(|r| {
                    std::str::from_utf8(&r.value)
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| PipelineError::Decode("bad float".into()))
                })
                .collect::<Result<_, _>>()?;
            Frame::new(vec![("v".into(), ColumnData::F64(vals.into()))])
        })
    }

    /// Running-sum transform: adds a column with the cumulative total,
    /// kept in one state cell (window 0, node 0, sensor "sum").
    fn summing_transform() -> Transform {
        Box::new(|frame: Frame, state: &mut StateStore| {
            let sensor = state.sensor_code("sum");
            let key = state.key_id(0, sensor, &mut KeyHint::default());
            let cell = state.cell_at(0, key);
            for &v in frame.f64s("v")? {
                cell.push(v);
            }
            let total = cell.sum;
            let mut out = frame;
            let n = out.rows();
            out.push_column("running_total", ColumnData::F64(vec![total; n].into()))?;
            Ok(out)
        })
    }

    fn broker_with(values: &[f64]) -> Arc<Broker> {
        let b = Broker::new();
        b.create_topic("vals", 1, RetentionPolicy::unbounded())
            .unwrap();
        for (i, v) in values.iter().enumerate() {
            b.produce("vals", i as i64, None, Bytes::from(v.to_string()))
                .unwrap();
        }
        b
    }

    fn query(b: &Arc<Broker>, cps: &CheckpointStore, max: usize) -> StreamingQuery {
        let c = Consumer::subscribe(b.clone(), "q", "vals").unwrap();
        StreamingQuery::builder()
            .source(c)
            .decoder(decoder())
            .transform(summing_transform())
            .checkpoints(cps.clone())
            .max_records(max)
            .build()
            .unwrap()
    }

    #[test]
    fn processes_stream_in_micro_batches() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let cps = CheckpointStore::new();
        let mut q = query(&b, &cps, 2);
        let mut sink = MemorySink::new();
        let batches = q.run_to_completion(&mut sink).unwrap();
        assert_eq!(batches, 3, "5 records at 2/batch = 3 batches");
        assert_eq!(sink.total_rows(), 5);
        // Running total of the final batch is the grand total.
        let last = sink.frames().last().unwrap().f64s("running_total").unwrap()[0];
        assert_eq!(last, 15.0);
        assert_eq!(cps.len(), 3);
    }

    #[test]
    fn recovery_resumes_where_checkpoint_left_off() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0]);
        let cps = CheckpointStore::new();
        {
            let mut q = query(&b, &cps, 2);
            let mut sink = MemorySink::new();
            q.run_once(&mut sink).unwrap(); // batch 0: [1,2]
                                            // q dropped = crash after clean checkpoint
        }
        let mut q2 = query(&b, &cps, 2);
        assert_eq!(q2.epoch(), 1, "resumes at next epoch");
        let mut sink2 = MemorySink::new();
        q2.run_to_completion(&mut sink2).unwrap();
        // Only the unprocessed records [3,4] flow; state carried the sum.
        assert_eq!(sink2.total_rows(), 2);
        let total = sink2
            .frames()
            .last()
            .unwrap()
            .f64s("running_total")
            .unwrap()[0];
        assert_eq!(total, 10.0, "state must survive recovery");
    }

    #[test]
    fn corrupt_latest_checkpoint_fails_build_with_a_typed_error() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0]);
        let cps = CheckpointStore::new();
        query(&b, &cps, 2).run_once(&mut MemorySink::new()).unwrap();
        let good = cps.latest().unwrap();
        // The same checkpoint with one state bit flipped, and a state
        // snapshot in a format this build does not read.
        let mut flipped = good.state.clone();
        flipped[good.state.len() / 2] ^= 0x10;
        for state in [flipped, br#"{"cells":[],"counters":{}}"#.to_vec()] {
            let cps = CheckpointStore::new();
            cps.commit(Checkpoint {
                state,
                ..good.clone()
            });
            let err = StreamingQuery::builder()
                .source(Consumer::subscribe(b.clone(), "q", "vals").unwrap())
                .decoder(decoder())
                .transform(summing_transform())
                .checkpoints(cps)
                .build()
                .unwrap_err();
            assert_eq!(err, PipelineError::Decode("corrupt state snapshot".into()));
        }
    }

    #[test]
    fn recovery_replays_the_base_and_its_deltas() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let cps = CheckpointStore::new();
        let mut q = query(&b, &cps, 2);
        let mut sink = MemorySink::new();
        q.run_once(&mut sink).unwrap();
        q.run_once(&mut sink).unwrap();
        let chain = cps.chain();
        assert_eq!(chain.len(), 2, "a base and one delta");
        assert!(
            !crate::state::is_delta(&chain[0].state) && crate::state::is_delta(&chain[1].state)
        );
        let mut q2 = query(&b, &cps, 2);
        assert_eq!((q2.epoch(), q2.state()), (2, q.state()));
        let mut sink2 = MemorySink::new();
        q2.run_to_completion(&mut sink2).unwrap();
        let total = sink2
            .frames()
            .last()
            .unwrap()
            .f64s("running_total")
            .unwrap()[0];
        assert_eq!(total, 21.0);
    }

    /// Loses the checkpoint commit of one epoch, once.
    #[derive(Debug)]
    struct LoseCommitOf(u64, std::sync::atomic::AtomicBool);

    impl FaultPoint for LoseCommitOf {
        fn check(&self, site: FaultSite, epoch: u64) -> Option<FaultKind> {
            use std::sync::atomic::Ordering::SeqCst;
            (site == FaultSite::CheckpointCommit && epoch == self.0 && !self.1.swap(true, SeqCst))
                .then_some(FaultKind::CheckpointLost)
        }
    }

    #[test]
    fn a_lost_commit_between_deltas_recovers_exactly() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let cps = CheckpointStore::new();
        cps.arm_faults(Arc::new(LoseCommitOf(2, false.into())));
        let mut q = query(&b, &cps, 2);
        let mut sink = MemorySink::new();
        q.run_once(&mut sink).unwrap();
        q.run_once(&mut sink).unwrap();
        let err = q.run_once(&mut sink).unwrap_err();
        assert!(err.to_string().contains("checkpoint lost"), "{err}");
        // The same query carries on: epoch 2 again, over the next two
        // records, and its delta must cover the lost epoch's folds too.
        q.run_once(&mut sink).unwrap();
        assert_eq!((cps.len(), q.epoch()), (3, 3));
        let q2 = query(&b, &cps, 2);
        assert_eq!(q2.state(), q.state());
        let total = sink.frames().last().unwrap().f64s("running_total").unwrap()[0];
        assert_eq!(total, 36.0, "every record folded once");
    }

    #[test]
    fn crash_between_sink_and_checkpoint_is_exactly_once() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0]);
        let cps = CheckpointStore::new();
        let mut sink = MemorySink::new();
        {
            let c = Consumer::subscribe(b.clone(), "q", "vals").unwrap();
            let mut q = StreamingQuery::builder()
                .source(c)
                .decoder(decoder())
                .transform(summing_transform())
                .checkpoints(cps.clone())
                .max_records(2)
                .faults(Arc::new(FaultPlan::crash_after_sink([1])))
                .build()
                .unwrap();
            q.run_once(&mut sink).unwrap(); // epoch 0 ok
            let err = q.run_once(&mut sink).unwrap_err(); // epoch 1 sunk, not checkpointed
            assert!(err.to_string().contains("injected"));
        }
        assert_eq!(
            sink.epochs(),
            2,
            "epoch 1 reached the sink before the crash"
        );
        assert_eq!(cps.len(), 1, "but was never checkpointed");
        // Recover: epoch 1 replays with the same id; sink dedups.
        let mut q2 = query(&b, &cps, 2);
        assert_eq!(q2.epoch(), 1);
        q2.run_to_completion(&mut sink).unwrap();
        assert_eq!(sink.epochs(), 2);
        assert_eq!(sink.total_rows(), 4, "no loss, no duplication");
        let total = sink.frames().last().unwrap().f64s("running_total").unwrap()[0];
        assert_eq!(
            total, 10.0,
            "replayed batch recomputed against restored state"
        );
        assert!(
            sink.write_calls > sink.epochs(),
            "a duplicate write was deduplicated"
        );
    }

    #[test]
    fn metrics_count_epochs_records_and_failures() {
        let b = broker_with(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let cps = CheckpointStore::new();
        let reg = oda_obs::Registry::new();
        let c = Consumer::subscribe(b.clone(), "q", "vals").unwrap();
        let mut q = StreamingQuery::builder()
            .source(c)
            .decoder(decoder())
            .transform(summing_transform())
            .checkpoints(cps.clone())
            .max_records(2)
            .metrics(&reg)
            .faults(Arc::new(FaultPlan::crash_after_sink([2])))
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        q.run_once(&mut sink).unwrap(); // epoch 0: [1,2]
        q.run_once(&mut sink).unwrap(); // epoch 1: [3,4]
        assert!(q.run_once(&mut sink).is_err()); // epoch 2 crashes post-sink
        if oda_obs::enabled() {
            assert_eq!(reg.counter_value("pipeline_epochs_total", &[]), 2);
            assert_eq!(reg.counter_value("pipeline_records_total", &[]), 4);
            assert_eq!(reg.counter_value("pipeline_failed_epochs_total", &[]), 1);
            let render = reg.render_prometheus();
            assert!(render.contains("pipeline_stage_duration_ns_bucket"));
        }
        // last_meta reflects the last *committed* epoch only.
        let meta = q.last_meta().unwrap();
        assert_eq!(meta.epoch, 1);
        assert_eq!(meta.records, 2);
    }

    #[test]
    fn caught_up_query_returns_zero() {
        let b = broker_with(&[1.0]);
        let cps = CheckpointStore::new();
        let mut q = query(&b, &cps, 10);
        let mut sink = MemorySink::new();
        assert_eq!(q.run_once(&mut sink).unwrap(), 1);
        assert_eq!(q.run_once(&mut sink).unwrap(), 0);
        // New data wakes it up again.
        b.produce("vals", 10, None, Bytes::from("7.5")).unwrap();
        assert_eq!(q.run_once(&mut sink).unwrap(), 1);
    }

    #[test]
    fn decode_failure_does_not_checkpoint() {
        let b = Broker::new();
        b.create_topic("vals", 1, RetentionPolicy::unbounded())
            .unwrap();
        b.produce("vals", 0, None, Bytes::from("not-a-float"))
            .unwrap();
        let cps = CheckpointStore::new();
        let mut q = query(&b, &cps, 10);
        let mut sink = MemorySink::new();
        assert!(q.run_once(&mut sink).is_err());
        assert!(cps.is_empty());
        assert_eq!(sink.epochs(), 0);
    }

    #[test]
    fn builder_validates_configuration() {
        let missing = StreamingQueryBuilder::new().build().unwrap_err();
        assert!(matches!(missing, PipelineError::InvalidQuery(_)));
        assert!(missing.to_string().contains("source"));

        let b = broker_with(&[1.0]);
        let bad_workers = StreamingQuery::builder()
            .source(Consumer::subscribe(b.clone(), "q", "vals").unwrap())
            .decoder(decoder())
            .transform(summing_transform())
            .checkpoints(CheckpointStore::new())
            .workers(0)
            .build()
            .unwrap_err();
        assert!(bad_workers.to_string().contains("workers"));

        let bad_budget = StreamingQuery::builder()
            .source(Consumer::subscribe(b, "q", "vals").unwrap())
            .decoder(decoder())
            .transform(summing_transform())
            .checkpoints(CheckpointStore::new())
            .max_records(0)
            .build()
            .unwrap_err();
        assert!(bad_budget.to_string().contains("max_records"));
    }

    #[test]
    fn sink_receives_epoch_meta() {
        let b = Broker::new();
        b.create_topic("vals", 2, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..6 {
            // Keyless: round-robin across both partitions.
            b.produce("vals", 100 + i, None, Bytes::from(format!("{i}.0")))
                .unwrap();
        }
        let c = Consumer::subscribe(b, "q", "vals").unwrap();
        let mut q = StreamingQuery::builder()
            .source(c)
            .decoder(decoder())
            .transform(summing_transform())
            .checkpoints(CheckpointStore::new())
            .workers(2)
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        q.run_to_completion(&mut sink).unwrap();
        let meta = *sink.meta(0).unwrap();
        assert_eq!(meta.epoch, 0);
        assert_eq!(meta.partitions, 2);
        assert_eq!(meta.records, 6);
        assert_eq!(meta.watermark_ms, 105, "max record ts in the epoch");
    }

    #[test]
    fn worker_counts_produce_identical_output() {
        let run = |workers: usize| {
            let b = Broker::new();
            b.create_topic("vals", 4, RetentionPolicy::unbounded())
                .unwrap();
            for i in 0..40 {
                b.produce("vals", i, None, Bytes::from(format!("{i}.25")))
                    .unwrap();
            }
            let c = Consumer::subscribe(b, "q", "vals").unwrap();
            let mut q = StreamingQuery::builder()
                .source(c)
                .decoder(decoder())
                .transform(summing_transform())
                .checkpoints(CheckpointStore::new())
                .max_records(8)
                .workers(workers)
                .build()
                .unwrap();
            let mut sink = MemorySink::new();
            q.run_to_completion(&mut sink).unwrap();
            sink
        };
        let base = run(1);
        for workers in [2, 8] {
            let sink = run(workers);
            assert_eq!(sink.epochs(), base.epochs());
            assert_eq!(
                sink.concat().unwrap(),
                base.concat().unwrap(),
                "workers={workers} diverged"
            );
            assert_eq!(
                sink.metas()
                    .into_iter()
                    .copied()
                    .collect::<Vec<EpochMeta>>(),
                base.metas()
                    .into_iter()
                    .copied()
                    .collect::<Vec<EpochMeta>>()
            );
        }
    }
}
