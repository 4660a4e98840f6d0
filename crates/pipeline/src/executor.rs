//! Partition-parallel epoch executor.
//!
//! The paper's medallion pipelines refine 4.2–4.5 TB/day by running the
//! Bronze→Silver stage *per partition in parallel* and merging
//! deterministically before the stateful reduction. This module is that
//! execution model: the calling thread fetches every topic partition's
//! slice, a pool of scoped worker threads decodes and partition-maps
//! the slices concurrently (spawned only when two or more slices hold
//! records), then [`merge_partition_outputs`] produces ONE canonical
//! frame — ordered by partition id ascending, then offset ascending
//! within a partition — regardless of worker count or thread
//! interleaving.
//!
//! # Determinism contract
//!
//! The output of an epoch is a pure function of (broker contents,
//! positions, per-partition budget, decoder, partition map):
//!
//! * The record set is fixed before any thread runs: partition `p` is
//!   read from its position for at most `budget` records — never "work
//!   stealing", which would make the set depend on timing.
//! * Every partition is fetched and every fetched slice decoded, however
//!   many workers run. Workers own disjoint slices (striped
//!   `i % workers`), and fault plans key their schedules by
//!   `(site, ctx)` with the fetch ctx being the partition id, so
//!   injected faults hit the same partition at the same invocation no
//!   matter which thread draws them, in any order.
//! * The merge sorts by partition id; offsets within a partition are
//!   already ascending. Identical input ⇒ byte-identical merged frame
//!   for 1, 2, or 64 workers.
//! * Errors are reported for the *lowest failing partition id*, not for
//!   whichever thread lost the race, so the error a caller observes is
//!   reproducible too.
//!
//! The stateful Silver transform, the Gold reduction, the sink write,
//! and the checkpoint commit stay serial — state evolution must see one
//! canonical epoch order — which is exactly the structure the chaos
//! suite's byte-identical-replay assertions verify.

use crate::error::PipelineError;
use crate::frame::Frame;
use crate::streaming::{Decoder, PartitionMap};
use oda_stream::{Consumer, Record};

/// Wall-clock stage timings of one epoch, in nanoseconds.
///
/// Timings are the one nondeterministic part of an epoch's metadata, so
/// they are **excluded from [`EpochMeta`] equality**: replay-stability
/// assertions compare data fields only, and two byte-identical runs may
/// legitimately differ here. All zero when `oda-obs` collection is
/// compiled out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochTimings {
    /// Broker fetch time summed across partition workers.
    pub fetch_ns: u64,
    /// Decode + partition-map time summed across partition workers.
    pub decode_ns: u64,
    /// Serial stateful transform time.
    pub transform_ns: u64,
    /// Sink write time. Zero in the meta a [`crate::streaming::Sink`]
    /// receives (its own write is still in progress); complete in
    /// [`crate::streaming::StreamingQuery::last_meta`].
    pub sink_ns: u64,
    /// Checkpoint commit + offset commit time. Zero in the sink's view,
    /// like `sink_ns`.
    pub checkpoint_ns: u64,
}

/// Per-epoch metadata handed to [`crate::streaming::Sink::write`], so
/// sinks stop re-deriving epoch state from the frames they receive.
///
/// The `timings` field is part of the struct's `Debug` output — an
/// operator dumping a meta sees the full [`EpochTimings`] — but it is
/// deliberately **not** part of equality: `Eq` compares the
/// deterministic data fields only, so replay-stability assertions can
/// compare metas across runs whose wall-clock timings differ.
#[derive(Debug, Clone, Copy)]
pub struct EpochMeta {
    /// The batch epoch (also the idempotency key for the sink).
    pub epoch: u64,
    /// Partitions that contributed at least one record this epoch.
    pub partitions: usize,
    /// Total records consumed this epoch.
    pub records: usize,
    /// Max record timestamp (ms) observed in this epoch — the epoch's
    /// event-time high water mark. A pure function of the epoch's
    /// record set, so a replayed epoch reproduces it exactly.
    pub watermark_ms: i64,
    /// Stage timings (operator view; never part of equality).
    pub timings: EpochTimings,
}

/// Equality covers the deterministic data fields only; `timings` is
/// wall-clock and intentionally ignored so replay-stability tests can
/// compare metas across runs.
impl PartialEq for EpochMeta {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.partitions == other.partitions
            && self.records == other.records
            && self.watermark_ms == other.watermark_ms
    }
}

impl Eq for EpochMeta {}

/// One partition's slice of an epoch after the parallel stage.
#[derive(Debug)]
pub struct PartitionOutput {
    /// Partition id.
    pub partition: u32,
    /// Decoded (and partition-mapped) frame for this partition's slice.
    pub frame: Frame,
    /// Records consumed from this partition.
    pub records: usize,
    /// Position to advance the consumer to once the epoch is accepted.
    pub next_offset: u64,
    /// Max record timestamp in this slice (`i64::MIN` when empty).
    pub watermark_ms: i64,
    /// Broker fetch time for this slice, ns (0 with collection off).
    pub fetch_ns: u64,
    /// Decode + partition-map time for this slice, ns.
    pub decode_ns: u64,
}

/// One partition's fetched slice, waiting for its decode.
struct Fetched {
    partition: u32,
    records: Vec<Record>,
    next_offset: u64,
    fetch_ns: u64,
}

/// Decode + partition-map one fetched slice.
///
/// This is the body every worker runs; a single worker runs the
/// identical code serially, which is why output cannot depend on the
/// pool size.
fn decode_slice(
    slice: Fetched,
    decode: &Decoder,
    partition_map: Option<&PartitionMap>,
) -> Result<PartitionOutput, PipelineError> {
    let watermark_ms = slice
        .records
        .iter()
        .map(|r| r.ts_ms)
        .max()
        .unwrap_or(i64::MIN);
    let decode_watch = oda_obs::Stopwatch::start();
    let mut frame = decode(&slice.records)?;
    if let Some(map) = partition_map {
        frame = map(frame)?;
    }
    Ok(PartitionOutput {
        partition: slice.partition,
        frame,
        records: slice.records.len(),
        next_offset: slice.next_offset,
        watermark_ms,
        fetch_ns: slice.fetch_ns,
        decode_ns: decode_watch.elapsed_ns(),
    })
}

/// Run the per-partition stage for `partitions` (pairs of partition id
/// and start offset), decoding across up to `workers` threads.
///
/// Every partition is fetched on the calling thread, in the order
/// given; a fetch is a position-neutral read, far cheaper than a
/// thread. Every slice that fetched is then decoded, whether or not it
/// is empty — on worker threads only when at least two slices hold
/// records, since an epoch with nothing to read (every drain ends with
/// one) or one busy partition gains nothing from a spawn.
///
/// Returns outputs sorted by partition id. On failure, returns the
/// error of the lowest failing partition id (deterministic), after
/// every partition has run — no position has moved, so the caller can
/// simply retry the epoch.
pub fn partition_stage(
    consumer: &Consumer,
    partitions: &[(u32, u64)],
    budget: usize,
    workers: usize,
    decode: &Decoder,
    partition_map: Option<&PartitionMap>,
) -> Result<Vec<PartitionOutput>, PipelineError> {
    let fetched: Vec<Result<Fetched, PipelineError>> = partitions
        .iter()
        .map(|&(partition, from)| {
            let watch = oda_obs::Stopwatch::start();
            let (records, next_offset) = consumer.fetch_partition(partition, from, budget)?;
            Ok(Fetched {
                partition,
                records,
                next_offset,
                fetch_ns: watch.elapsed_ns(),
            })
        })
        .collect();
    let busy = fetched
        .iter()
        .filter(|f| f.as_ref().is_ok_and(|f| !f.records.is_empty()))
        .count();
    let workers = workers.max(1).min(busy);
    let results: Vec<Result<PartitionOutput, PipelineError>> = if workers <= 1 {
        fetched
            .into_iter()
            .map(|f| f.and_then(|slice| decode_slice(slice, decode, partition_map)))
            .collect()
    } else {
        // Striped static assignment: worker w owns slice indexes w,
        // w+workers, w+2*workers, ... Deterministic, no queue, no work
        // stealing.
        let mut stripes: Vec<Vec<(usize, Fetched)>> = (0..workers).map(|_| Vec::new()).collect();
        let mut results: Vec<Option<Result<PartitionOutput, PipelineError>>> =
            Vec::with_capacity(fetched.len());
        for (i, f) in fetched.into_iter().enumerate() {
            match f {
                Ok(slice) => {
                    stripes[i % workers].push((i, slice));
                    results.push(None);
                }
                Err(e) => results.push(Some(Err(e))),
            }
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = stripes
                .into_iter()
                .map(|stripe| {
                    s.spawn(move || {
                        stripe
                            .into_iter()
                            .map(|(i, slice)| (i, decode_slice(slice, decode, partition_map)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                for (i, r) in h.join().expect("partition worker panicked") {
                    results[i] = Some(r);
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every partition ran"))
            .collect()
    };
    let mut outputs = Vec::with_capacity(partitions.len());
    let mut first_err: Option<(u32, PipelineError)> = None;
    for (result, &(p, _)) in results.into_iter().zip(partitions) {
        match result {
            Ok(o) => outputs.push(o),
            Err(e) => {
                if first_err.as_ref().is_none_or(|(fp, _)| p < *fp) {
                    first_err = Some((p, e));
                }
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    outputs.sort_by_key(|o| o.partition);
    Ok(outputs)
}

/// Deterministic ordered merge: concatenate partition slices by
/// partition id ascending (offsets within a slice are already
/// ascending). This is the canonical epoch order every downstream
/// stage — stateful transform, Gold reduction, sink — observes.
pub fn merge_partition_outputs(outputs: &[PartitionOutput]) -> Result<Frame, PipelineError> {
    debug_assert!(
        outputs.windows(2).all(|w| w[0].partition < w[1].partition),
        "merge input must be partition-ordered"
    );
    let frames: Vec<Frame> = outputs.iter().map(|o| o.frame.clone()).collect();
    Frame::concat(&frames)
}

/// Aggregate an epoch's metadata from its partition outputs. Fetch and
/// decode timings sum across partitions (total work, not wall-clock);
/// the serial-tail timings are filled in by the streaming engine.
pub fn epoch_meta(epoch: u64, outputs: &[PartitionOutput]) -> EpochMeta {
    EpochMeta {
        epoch,
        partitions: outputs.iter().filter(|o| o.records > 0).count(),
        records: outputs.iter().map(|o| o.records).sum(),
        watermark_ms: outputs
            .iter()
            .map(|o| o.watermark_ms)
            .max()
            .unwrap_or(i64::MIN),
        timings: EpochTimings {
            fetch_ns: outputs.iter().map(|o| o.fetch_ns).sum(),
            decode_ns: outputs.iter().map(|o| o.decode_ns).sum(),
            ..EpochTimings::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use oda_storage::colfile::ColumnData;
    use oda_stream::{Broker, RetentionPolicy};
    use std::sync::Arc;

    fn decoder() -> Decoder {
        Box::new(|records| {
            let vals: Vec<f64> = records
                .iter()
                .map(|r| {
                    std::str::from_utf8(&r.value)
                        .ok()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| PipelineError::Decode("bad float".into()))
                })
                .collect::<Result<_, _>>()?;
            let parts: Vec<i64> = records.iter().map(|r| r.ts_ms).collect();
            Frame::new(vec![
                ("v".into(), ColumnData::F64(vals.into())),
                ("ts".into(), ColumnData::I64(parts.into())),
            ])
        })
    }

    fn broker(partitions: u32, n: u64) -> Arc<Broker> {
        let b = Broker::new();
        b.create_topic("t", partitions, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..n {
            // Keyless: round-robin spreads records evenly.
            b.produce("t", i as i64, None, Bytes::from(format!("{i}.5")))
                .unwrap();
        }
        b
    }

    fn stage_with(workers: usize) -> (Vec<PartitionOutput>, Frame) {
        let b = broker(4, 100);
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let parts: Vec<(u32, u64)> = c.assignment().iter().map(|&p| (p, 0)).collect();
        let d = decoder();
        let outs = partition_stage(&c, &parts, 1_000, workers, &d, None).unwrap();
        let merged = merge_partition_outputs(&outs).unwrap();
        (outs, merged)
    }

    #[test]
    fn merge_is_identical_across_worker_counts() {
        let (outs1, merged1) = stage_with(1);
        for workers in [2, 3, 8] {
            let (outs, merged) = stage_with(workers);
            assert_eq!(merged1, merged, "workers={workers} diverged");
            assert_eq!(outs.len(), outs1.len());
            for (a, b) in outs.iter().zip(&outs1) {
                assert_eq!(a.partition, b.partition);
                assert_eq!(a.next_offset, b.next_offset);
                assert_eq!(a.watermark_ms, b.watermark_ms);
            }
        }
    }

    #[test]
    fn merge_orders_by_partition_then_offset() {
        let (outs, merged) = stage_with(4);
        assert_eq!(merged.rows(), 100);
        let ids: Vec<u32> = outs.iter().map(|o| o.partition).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // Partition slices appear in order; within each, ts (== produce
        // order here) ascends.
        let mut row = 0;
        for o in &outs {
            let ts = merged.i64s("ts").unwrap();
            let slice = &ts[row..row + o.records];
            assert!(slice.windows(2).all(|w| w[0] < w[1]));
            row += o.records;
        }
    }

    #[test]
    fn meta_aggregates_partitions_records_watermark() {
        let (outs, _) = stage_with(2);
        let meta = epoch_meta(7, &outs);
        assert_eq!(meta.epoch, 7);
        assert_eq!(meta.partitions, 4);
        assert_eq!(meta.records, 100);
        assert_eq!(meta.watermark_ms, 99);
        let empty = epoch_meta(0, &[]);
        assert_eq!(empty.records, 0);
        assert_eq!(empty.watermark_ms, i64::MIN);
    }

    #[test]
    fn meta_equality_ignores_wall_clock_timings() {
        let (outs, _) = stage_with(2);
        let mut a = epoch_meta(3, &outs);
        let b = epoch_meta(3, &outs);
        a.timings.transform_ns = 1_234_567;
        assert_eq!(a, b, "timings must not participate in equality");
        if oda_obs::enabled() {
            assert!(b.timings.fetch_ns > 0, "fetch was timed");
            assert!(b.timings.decode_ns > 0, "decode was timed");
        } else {
            assert_eq!(b.timings.fetch_ns, 0);
        }
        assert_eq!(b.timings.sink_ns, 0, "serial tail not run here");
    }

    #[test]
    fn meta_debug_shows_timings_eq_stays_blind() {
        let (outs, _) = stage_with(1);
        let mut a = epoch_meta(5, &outs);
        a.timings.transform_ns = 42;
        a.timings.sink_ns = 7;
        let dbg = format!("{a:?}");
        assert!(
            dbg.contains("timings")
                && dbg.contains("transform_ns: 42")
                && dbg.contains("sink_ns: 7"),
            "Debug must surface EpochTimings: {dbg}"
        );
        let b = epoch_meta(5, &outs);
        assert_eq!(a, b, "Eq must stay timing-blind");
    }

    #[test]
    fn error_is_deterministically_lowest_partition() {
        // A decoder that fails only for partition slices containing a
        // marker value; with the marker in two partitions, the reported
        // error must always be the lower partition's, regardless of
        // worker scheduling.
        let b = Broker::new();
        b.create_topic("t", 4, RetentionPolicy::unbounded())
            .unwrap();
        for i in 0..40u64 {
            let v = if i == 13 || i == 26 { "bad" } else { "1.0" };
            b.produce("t", i as i64, None, Bytes::from(v)).unwrap();
        }
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let parts: Vec<(u32, u64)> = c.assignment().iter().map(|&p| (p, 0)).collect();
        let d: Decoder = Box::new(|records| {
            for r in records {
                if r.value.as_ref() == b"bad" {
                    return Err(PipelineError::Decode(format!("bad at offset {}", r.offset)));
                }
            }
            Frame::new(vec![(
                "v".into(),
                ColumnData::F64(vec![1.0; records.len()].into()),
            )])
        });
        let errs: Vec<String> = (0..6)
            .map(|_| {
                partition_stage(&c, &parts, 1_000, 4, &d, None)
                    .unwrap_err()
                    .to_string()
            })
            .collect();
        assert!(
            errs.iter().all(|e| e == &errs[0]),
            "error not stable: {errs:?}"
        );
    }

    /// Decode calls of one stage run: (thread, records) per call.
    fn decode_threads(
        b: Arc<Broker>,
        workers: usize,
    ) -> (Vec<(std::thread::ThreadId, usize)>, usize) {
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let parts: Vec<(u32, u64)> = c.assignment().iter().map(|&p| (p, 0)).collect();
        let calls = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&calls);
        let inner = decoder();
        let d: Decoder = Box::new(move |records| {
            let call = (std::thread::current().id(), records.len());
            seen.lock().unwrap().push(call);
            inner(records)
        });
        let outs = partition_stage(&c, &parts, 1_000, workers, &d, None).unwrap();
        assert_eq!(outs.len(), parts.len());
        let calls = calls.lock().unwrap().clone();
        (calls, parts.len())
    }

    #[test]
    fn decode_spawns_only_when_two_slices_hold_records() {
        let here = std::thread::current().id();
        // Nothing to read, and one busy partition (keyed records all
        // land on one): every slice is still decoded, on this thread.
        let empty = broker(4, 0);
        let one = broker(4, 0);
        for i in 0..10 {
            one.produce("t", i, Some(Bytes::from("k")), Bytes::from("1.5"))
                .unwrap();
        }
        for b in [empty, one] {
            let (calls, partitions) = decode_threads(b, 4);
            assert_eq!(calls.len(), partitions, "every partition decodes");
            assert!(calls.iter().all(|&(t, _)| t == here), "{calls:?}");
        }
        // Records on every partition: decoded by the workers.
        let (calls, partitions) = decode_threads(broker(4, 100), 2);
        assert_eq!(calls.len(), partitions);
        assert!(calls.iter().all(|&(t, n)| t != here && n > 0), "{calls:?}");
    }

    #[test]
    fn partition_map_applies_per_partition() {
        let b = broker(2, 20);
        let c = Consumer::subscribe(b, "g", "t").unwrap();
        let parts: Vec<(u32, u64)> = c.assignment().iter().map(|&p| (p, 0)).collect();
        let d = decoder();
        let map: PartitionMap = Box::new(|f: Frame| {
            let doubled: Vec<f64> = f.f64s("v")?.iter().map(|v| v * 2.0).collect();
            let ts = f.i64s("ts")?.to_vec();
            Frame::new(vec![
                ("v".into(), ColumnData::F64(doubled.into())),
                ("ts".into(), ColumnData::I64(ts.into())),
            ])
        });
        let plain =
            merge_partition_outputs(&partition_stage(&c, &parts, 100, 2, &d, None).unwrap())
                .unwrap();
        let mapped =
            merge_partition_outputs(&partition_stage(&c, &parts, 100, 2, &d, Some(&map)).unwrap())
                .unwrap();
        let a = plain.f64s("v").unwrap();
        let b2 = mapped.f64s("v").unwrap();
        assert_eq!(a.len(), b2.len());
        for (x, y) in a.iter().zip(b2) {
            assert_eq!(x * 2.0, *y);
        }
    }
}
