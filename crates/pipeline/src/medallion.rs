//! Bronze → Silver → Gold: the ODA refinement stages (§V-A).
//!
//! * **Bronze**: raw long-format observations, one row per sensor sample.
//! * **Silver**: window-aggregated (default 15 s), pivoted wide per
//!   (window, node), joined with job-allocation context.
//! * **Gold**: analysis-specific reductions (per-job energy profiles,
//!   report tables, ML features).
//!
//! Both execution modes the paper discusses are provided: *batch*
//! (a [`Query`] re-run over Bronze) and *streaming* (a stateful
//! transform precomputing Silver incrementally — the §VI-B design
//! decision that "amortizes the cost of refining datasets").
//!
//! Every kernel on the streaming write path makes one pass over its rows
//! and writes its output once. One Bronze column builder serves both
//! [`bronze_frame`] and [`observation_decoder`]; the decoder writes each
//! broker record's bytes straight into the six columns, with the
//! catalog's sensor dictionary built once per decoder. The quality
//! filter computes its mask in one pass over two columns, and the
//! Silver fold finds each row's state key from where the previous row's
//! landed.

use crate::error::PipelineError;
use crate::expr::Expr;
use crate::frame::Frame;
use crate::logical::Query;
use crate::ops::{Agg, AggSpec};
use crate::state::{CellState, KeyHint, KeyId, StateStore};
use crate::streaming::{Decoder, PartitionMap, Transform};
use crate::window::window_start;
use oda_faults::{FaultPoint, FaultSite};
use oda_storage::colfile::ColumnData;
use oda_storage::intern::StringInterner;
use oda_telemetry::jobs::Job;
use oda_telemetry::record::{Device, Observation, Quality};
use oda_telemetry::sensors::SensorCatalog;
use std::collections::HashMap;
use std::sync::Arc;

/// Default Silver aggregation window (the paper's "e.g., every 15
/// seconds").
pub const SILVER_WINDOW_MS: i64 = 15_000;

/// Render a device as a short stable string ("node", "gpu3", ...).
pub fn device_label(d: Device) -> String {
    match d {
        Device::Node => "node".to_string(),
        Device::Cpu(i) => format!("cpu{i}"),
        Device::Gpu(i) => format!("gpu{i}"),
        Device::Nic(i) => format!("nic{i}"),
        Device::Psu(i) => format!("psu{i}"),
        Device::CoolingLoop(i) => format!("loop{i}"),
        Device::Facility => "facility".to_string(),
    }
}

/// The catalog's sensor names as a Bronze `sensor` dictionary, built
/// once per decoder and shared (one `Arc`) by every frame that sees no
/// sensor outside the catalog.
struct SensorDict {
    /// Catalog names, interned in id order.
    names: StringInterner,
    /// Catalog id -> dictionary code. Ids are dense (`get(id)` indexes
    /// specs by position), so this is a direct table.
    known: Vec<u32>,
    /// `names` as a column dictionary.
    dict: Arc<Vec<String>>,
}

impl SensorDict {
    fn new(catalog: &SensorCatalog) -> SensorDict {
        let mut names = StringInterner::new();
        let known = catalog
            .specs()
            .iter()
            .map(|s| names.intern(&s.name))
            .collect();
        let dict = Arc::new(names.entries().to_vec());
        SensorDict { names, known, dict }
    }
}

/// One Bronze frame's six columns, written a row at a time straight
/// from decoded observations. The per-row cost is six pushes and two
/// table reads: devices are labeled once per distinct device, through a
/// table indexed by [`Device::code`], and sensors resolve through the
/// catalog's prebuilt dictionary (a sensor outside it is named `s{id}`
/// and appended in first-appearance order).
struct BronzeColumns<'a> {
    sensors: &'a SensorDict,
    ts: Vec<i64>,
    node: Vec<i64>,
    device: Vec<u32>,
    sensor: Vec<u32>,
    value: Vec<f64>,
    quality: Vec<i64>,
    /// Device labels in first-appearance order.
    device_labels: Vec<String>,
    /// [`Device::code`] -> label code, `u32::MAX` until seen.
    device_code: Vec<u32>,
    /// Sensor ids outside the catalog -> their code.
    unknown: HashMap<u16, u32>,
    /// Names appended after the catalog's, in code order.
    added: Vec<String>,
}

/// One past the largest [`Device::code`] (`Facility`, 0x600).
const DEVICE_CODES: usize = 0x601;

impl<'a> BronzeColumns<'a> {
    fn with_capacity(sensors: &'a SensorDict, rows: usize) -> BronzeColumns<'a> {
        BronzeColumns {
            sensors,
            ts: Vec::with_capacity(rows),
            node: Vec::with_capacity(rows),
            device: Vec::with_capacity(rows),
            sensor: Vec::with_capacity(rows),
            value: Vec::with_capacity(rows),
            quality: Vec::with_capacity(rows),
            device_labels: Vec::new(),
            device_code: vec![u32::MAX; DEVICE_CODES],
            unknown: HashMap::new(),
            added: Vec::new(),
        }
    }

    fn push(&mut self, o: &Observation) {
        self.ts.push(o.ts_ms);
        self.node.push(i64::from(o.component.node));
        let slot = &mut self.device_code[usize::from(o.component.device.code())];
        if *slot == u32::MAX {
            *slot = self.device_labels.len() as u32;
            self.device_labels.push(device_label(o.component.device));
        }
        self.device.push(*slot);
        let sensor = match self.sensors.known.get(usize::from(o.sensor)) {
            Some(&code) => code,
            None => self.unknown_sensor(o.sensor),
        };
        self.sensor.push(sensor);
        self.value.push(o.value);
        self.quality.push(match o.quality {
            Quality::Good => 0,
            Quality::Missing => 1,
            Quality::Suspect => 2,
        });
    }

    /// Code of a sensor id the catalog lacks, named `s{id}` — as if
    /// interned after the catalog's names.
    #[cold]
    fn unknown_sensor(&mut self, id: u16) -> u32 {
        let (sensors, added) = (self.sensors, &mut self.added);
        *self.unknown.entry(id).or_insert_with(|| {
            let name = format!("s{id}");
            sensors.names.lookup(&name).unwrap_or_else(|| {
                added.push(name);
                (sensors.names.len() + added.len() - 1) as u32
            })
        })
    }

    fn finish(self) -> Frame {
        let sensor_dict = if self.added.is_empty() {
            Arc::clone(&self.sensors.dict)
        } else {
            let mut dict = self.sensors.dict.as_ref().clone();
            dict.extend(self.added);
            Arc::new(dict)
        };
        Frame::new(vec![
            ("ts_ms".into(), ColumnData::I64(self.ts.into())),
            ("node".into(), ColumnData::I64(self.node.into())),
            (
                "device".into(),
                ColumnData::dict(self.device_labels, self.device),
            ),
            (
                "sensor".into(),
                ColumnData::Dict {
                    dict: sensor_dict,
                    codes: self.sensor.into(),
                },
            ),
            ("value".into(), ColumnData::F64(self.value.into())),
            ("quality".into(), ColumnData::I64(self.quality.into())),
        ])
        .expect("equal-length columns by construction")
    }
}

/// Build a Bronze frame from observations: columns `ts_ms` (I64),
/// `node` (I64), `device` (Dict), `sensor` (Dict), `value` (F64),
/// `quality` (I64 code: 0 good, 1 missing, 2 suspect).
///
/// The categorical columns are dictionary-encoded at the source: the
/// sensor dictionary is the catalog's names in id order (unused entries
/// are dropped at colfile write time) and devices are labeled once per
/// distinct device, so no `String` is allocated per observation.
pub fn bronze_frame(obs: &[Observation], catalog: &SensorCatalog) -> Frame {
    let sensors = SensorDict::new(catalog);
    let mut columns = BronzeColumns::with_capacity(&sensors, obs.len());
    for o in obs {
        columns.push(o);
    }
    columns.finish()
}

fn bad_batch() -> PipelineError {
    PipelineError::Decode("bad observation batch".into())
}

/// Decoder for broker records whose payloads are
/// [`Observation::encode_batch`] frames. Each record's bytes decode
/// straight into the Bronze columns, sized up front from the validated
/// batch counts, with no intermediate `Vec<Observation>`; the frame
/// equals [`bronze_frame`] over the decoded batches.
pub fn observation_decoder(catalog: SensorCatalog) -> Decoder {
    let sensors = SensorDict::new(&catalog);
    Box::new(move |records| {
        let batches = records
            .iter()
            .map(|r| Observation::batch(&r.value).ok_or_else(bad_batch))
            .collect::<Result<Vec<_>, _>>()?;
        let rows = batches.iter().map(ExactSizeIterator::len).sum();
        let mut columns = BronzeColumns::with_capacity(&sensors, rows);
        for batch in batches {
            for o in batch {
                columns.push(&o.ok_or_else(bad_batch)?);
            }
        }
        Ok(columns.finish())
    })
}

/// [`observation_decoder`] with sensor-dropout injection: each decoded
/// observation consults `faults` at the [`FaultSite::SensorRead`] site
/// (ctx = index within its batch) and is silently dropped when a
/// [`oda_faults::FaultKind::SensorDropout`] fires — modeling telemetry
/// that never arrived. Pair with
/// [`streaming_silver_transform_gap_marked`] so downstream consumers
/// see explicit gap rows instead of silently-thinner aggregates.
pub fn observation_decoder_with_faults(
    catalog: SensorCatalog,
    faults: Arc<dyn FaultPoint>,
) -> Decoder {
    let sensors = SensorDict::new(&catalog);
    Box::new(move |records| {
        let mut columns = BronzeColumns::with_capacity(&sensors, 0);
        for r in records {
            // The whole batch decodes before its first fault draw, so a
            // malformed batch draws nothing.
            let batch = Observation::decode_batch(&r.value).ok_or_else(bad_batch)?;
            for (i, o) in batch.iter().enumerate() {
                if faults.check(FaultSite::SensorRead, i as u64).is_none() {
                    columns.push(o);
                }
            }
        }
        Ok(columns.finish())
    })
}

/// The Fig. 4-b quality filter as a stateless per-partition stage:
/// drops rows whose `quality` is not Good (0) or whose `value` is NaN.
/// The mask is one pass over the two columns. Row-local, so it runs
/// inside the parallel partition workers (via
/// `StreamingQueryBuilder::map_partitions`) with output identical to
/// filtering the merged frame.
pub fn quality_filter_map() -> PartitionMap {
    Box::new(|frame: Frame| {
        let quality = frame.i64s("quality")?;
        let value = frame.f64s("value")?;
        let mask: Vec<bool> = quality
            .iter()
            .zip(value)
            .map(|(&q, v)| q == 0 && !v.is_nan())
            .collect();
        Ok(frame.filter_mask(&mask))
    })
}

/// Job allocation context: one row per (job, node), with columns
/// `node` (I64), `job` (I64), `archetype` (Dict), `program` (I64),
/// `user` (I64), `project` (Dict), and the allocation bounds
/// `job_start_ms` / `job_end_ms` (I64) used for the temporal join.
pub fn job_context_frame(jobs: &[Job]) -> Frame {
    let mut node = Vec::new();
    let mut job = Vec::new();
    let mut archetype = Vec::new();
    let mut program = Vec::new();
    let mut user = Vec::new();
    let mut project = Vec::new();
    let mut start = Vec::new();
    let mut end = Vec::new();
    let mut archetypes = StringInterner::new();
    let mut projects = StringInterner::new();
    for j in jobs {
        for &n in &j.nodes {
            node.push(i64::from(n));
            job.push(j.id as i64);
            archetype.push(archetypes.intern(j.archetype.label()));
            program.push(i64::from(j.program));
            user.push(i64::from(j.user));
            project.push(projects.intern(&j.project));
            start.push(j.start_ms);
            end.push(j.end_ms);
        }
    }
    Frame::new(vec![
        ("node".into(), ColumnData::I64(node.into())),
        ("job".into(), ColumnData::I64(job.into())),
        (
            "archetype".into(),
            ColumnData::dict(archetypes.into_dict(), archetype),
        ),
        ("program".into(), ColumnData::I64(program.into())),
        ("user".into(), ColumnData::I64(user.into())),
        (
            "project".into(),
            ColumnData::dict(projects.into_dict(), project),
        ),
        ("job_start_ms".into(), ColumnData::I64(start.into())),
        ("job_end_ms".into(), ColumnData::I64(end.into())),
    ])
    .expect("equal-length columns by construction")
}

/// The batch Bronze→Silver query of Fig. 4-b over `bronze`: quality
/// filter → window → group-by mean → pivot sensors wide → join job
/// context on node, then restrict to windows inside the job's
/// allocation interval (a node is reused by many jobs over time; joining
/// on node alone would attribute every window to every job that ever
/// held the node).
pub fn bronze_to_silver(bronze: Frame, window_ms: i64, job_ctx: Frame) -> Query {
    Query::scan(bronze)
        .filter(
            Expr::col("quality")
                .eq_(Expr::LitI(0))
                .and(Expr::col("value").is_nan().not()),
        )
        .window("ts_ms", window_ms)
        .group_by(
            &["window", "node", "sensor"],
            &[AggSpec::new("value", Agg::Mean, "value")],
        )
        .pivot(&["window", "node"], "sensor", "value", Agg::Mean)
        .join(job_ctx, &["node"])
        .filter(
            Expr::col("window")
                .ge(Expr::col("job_start_ms"))
                .and(Expr::col("window").lt(Expr::col("job_end_ms"))),
        )
}

/// One Silver output row: a closed cell, or (`None`) the gap marker
/// for a key that was silent in a swept window.
type SilverRow = (i64, KeyId, Option<CellState>);

/// Fold one merged Bronze frame into `state`'s per-(window, node,
/// sensor) cells, in row order, and advance its watermark (kept in the
/// state, so it survives recovery). Returns the close horizon (cells of
/// windows starting before it are final) and the earliest window a row
/// landed in (`i64::MAX` when none did).
///
/// A sensor name is interned once per entry of the frame's dictionary,
/// and a window start is computed once per run of equal timestamps. A
/// row finds its key from where the previous row's landed (see
/// [`StateStore::key_id`]): nothing per row allocates or reads a string.
fn fold(
    frame: &Frame,
    state: &mut StateStore,
    window_ms: i64,
    lateness_ms: i64,
) -> Result<(i64, i64), PipelineError> {
    if window_ms <= 0 {
        return Err(PipelineError::InvalidQuery(format!(
            "window width must be positive, got {window_ms} ms"
        )));
    }
    let ts = frame.i64s("ts_ms")?;
    let node = frame.i64s("node")?;
    let (dict, codes) = frame.cat("sensor")?.to_dict();
    let value = frame.f64s("value")?;
    let quality = frame.i64s("quality")?;
    // This frame's dictionary code -> the store's sensor code.
    let mut sensor_of: Vec<Option<u32>> = vec![None; dict.len()];
    let mut max_ts = state.wm_ms;
    let mut first_window = i64::MAX;
    // The last good row's timestamp and its window start.
    let mut last: Option<(i64, i64)> = None;
    let mut hint = KeyHint::default();
    for i in 0..frame.rows() {
        max_ts = max_ts.max(ts[i]);
        if quality[i] != 0 || value[i].is_nan() {
            continue;
        }
        let window = match last {
            Some((t, window)) if t == ts[i] => window,
            _ => {
                // A timestamp with no window start in range is skipped,
                // as a bad reading is.
                let Some(window) = window_start(ts[i], window_ms) else {
                    continue;
                };
                first_window = first_window.min(window);
                last = Some((ts[i], window));
                window
            }
        };
        let code = codes[i] as usize;
        let sensor = *sensor_of[code].get_or_insert_with(|| state.sensor_code(&dict[code]));
        let id = state.key_id(node[i], sensor, &mut hint);
        state.cell_at(window, id).push(value[i]);
    }
    state.wm_ms = max_ts;
    // A window [w, w+width) is closed when watermark >= w + width.
    let watermark = max_ts.saturating_sub(lateness_ms);
    Ok((watermark.saturating_sub(window_ms - 1), first_window))
}

/// The seven Silver columns for `rows`, in row order. Gap markers carry
/// NaN statistics and a zero count.
fn columns(state: &StateStore, rows: &[SilverRow]) -> Vec<(String, ColumnData)> {
    let mut w_col = Vec::with_capacity(rows.len());
    let mut n_col = Vec::with_capacity(rows.len());
    let mut s_col = Vec::with_capacity(rows.len());
    let mut mean_col = Vec::with_capacity(rows.len());
    let mut min_col = Vec::with_capacity(rows.len());
    let mut max_col = Vec::with_capacity(rows.len());
    let mut c_col = Vec::with_capacity(rows.len());
    // This frame's dictionary, in first-appearance order, by the store's
    // sensor code.
    let mut out_sensors = StringInterner::new();
    let mut out_code: Vec<Option<u32>> = Vec::new();
    for &(window, key, cell) in rows {
        let (node, sensor) = state.key(key);
        let at = sensor as usize;
        if out_code.len() <= at {
            out_code.resize(at + 1, None);
        }
        let code =
            *out_code[at].get_or_insert_with(|| out_sensors.intern(state.sensor_name(sensor)));
        w_col.push(window);
        n_col.push(node);
        s_col.push(code);
        mean_col.push(cell.map_or(f64::NAN, |c| c.mean()));
        min_col.push(cell.map_or(f64::NAN, |c| c.min));
        max_col.push(cell.map_or(f64::NAN, |c| c.max));
        c_col.push(cell.map_or(0, |c| c.count as i64));
    }
    vec![
        ("window".into(), ColumnData::I64(w_col.into())),
        ("node".into(), ColumnData::I64(n_col.into())),
        (
            "sensor".into(),
            ColumnData::dict(out_sensors.into_dict(), s_col),
        ),
        ("mean".into(), ColumnData::F64(mean_col.into())),
        ("min".into(), ColumnData::F64(min_col.into())),
        ("max".into(), ColumnData::F64(max_col.into())),
        ("count".into(), ColumnData::I64(c_col.into())),
    ]
}

/// Streaming Bronze→Silver transform: folds observations into
/// per-(window, node, sensor) accumulators and emits rows for windows
/// the watermark has closed, ordered by window, then by the node's
/// decimal text (so node `10` sorts before node `2`), then by sensor
/// name. Output columns: `window` (I64), `node` (I64), `sensor` (Dict),
/// `mean`/`min`/`max` (F64), `count` (I64).
///
/// The event-time watermark survives recovery because it is kept in the
/// checkpointed state. A row whose window start is not an `i64` (a
/// timestamp within one window of `i64::MIN`) is skipped, as a bad
/// reading is, and a non-positive `window_ms` fails every call with
/// [`PipelineError::InvalidQuery`].
pub fn streaming_silver_transform(window_ms: i64, lateness_ms: i64) -> Transform {
    Box::new(move |frame: Frame, state: &mut StateStore| {
        let (horizon, _) = fold(&frame, state, window_ms, lateness_ms)?;
        let rows: Vec<SilverRow> = state
            .drain_closed(horizon)
            .into_iter()
            .map(|(window, key, cell)| (window, key, Some(cell)))
            .collect();
        Frame::new(columns(state, &rows))
    })
}

/// Gap-aware variant of [`streaming_silver_transform`]: degrades
/// gracefully under sensor dropout instead of silently thinning output.
///
/// The roster is the state's key table: every (node, sensor) key ever
/// observed, checkpointed with the cells, so it survives recovery. Once
/// a window in which any key reported closes, every key gets exactly one
/// row for it: a normal aggregate row (`gap` = 0) if samples arrived, or
/// a *gap marker* row (`gap` = 1, `count` = 0, NaN statistics) if the
/// key went dark — downstream Gold jobs can then distinguish "sensor
/// read zero" from "sensor unheard". A window in which no key reported
/// gets no rows, so a reading far ahead of the rest costs nothing for
/// the windows it skips. The sweep starts at the first window this state
/// saw, and its cursor is checkpointed too. Output columns: those of
/// [`streaming_silver_transform`] plus `gap` (I64).
pub fn streaming_silver_transform_gap_marked(window_ms: i64, lateness_ms: i64) -> Transform {
    Box::new(move |frame: Frame, state: &mut StateStore| {
        let (horizon, first_window) = fold(&frame, state, window_ms, lateness_ms)?;
        if state.gap_next.is_none() && (0..i64::MAX).contains(&first_window) {
            state.gap_next = Some(first_window);
        }
        let last_closed = window_start(horizon.saturating_sub(1), window_ms);
        // Drained by window, then in key order: the order rows go out in.
        let mut cells = state.drain_closed(horizon).into_iter().peekable();
        let mut rows: Vec<SilverRow> = Vec::new();
        let swept = last_closed.filter(|&w| w >= 0);
        if let (Some(from), Some(last_closed)) = (state.gap_next, swept) {
            // Cells of windows before the cursor emit as they are.
            while let Some((window, key, cell)) = cells.next_if(|&(w, _, _)| w < from) {
                rows.push((window, key, Some(cell)));
            }
            // Then one row per key for each window a cell closed in: real
            // or gap marker. The cursor passes over the other windows.
            while let Some(&(window, _, _)) = cells.peek() {
                for &key in state.keys_in_order() {
                    let cell = cells.next_if(|&(w, k, _)| (w, k) == (window, key));
                    rows.push((window, key, cell.map(|(_, _, cell)| cell)));
                }
            }
            state.gap_next = Some(from.max(last_closed.saturating_add(window_ms)));
        }
        rows.extend(cells.map(|(window, key, cell)| (window, key, Some(cell))));
        let gaps: Vec<i64> = rows.iter().map(|r| i64::from(r.2.is_none())).collect();
        let mut columns = columns(state, &rows);
        columns.push(("gap".into(), ColumnData::I64(gaps.into())));
        Frame::new(columns)
    })
}

/// Silver→Gold: per-job power/energy summary. Input must be a Silver
/// frame containing `node_power_w` and `job` columns; output has one
/// row per job with mean/peak power, windows observed, and energy (kWh,
/// assuming one row per `window_ms` per node).
pub fn silver_to_gold_job_energy(silver: &Frame, window_ms: i64) -> Result<Frame, PipelineError> {
    let g = crate::ops::group_by(
        silver,
        &["job"],
        &[
            AggSpec::new("node_power_w", Agg::Mean, "mean_node_w"),
            AggSpec::new("node_power_w", Agg::Max, "peak_node_w"),
            AggSpec::new("node_power_w", Agg::Sum, "node_window_w"),
            AggSpec::new("node_power_w", Agg::Count, "samples"),
        ],
    )?;
    // Energy: sum over (node, window) of P * window duration.
    let sums = g.f64s("node_window_w")?;
    let kwh: Vec<f64> = sums
        .iter()
        .map(|s| s * (window_ms as f64 / 1_000.0) / 3.6e6)
        .collect();
    let mut out = g.clone();
    out.push_column("energy_kwh", ColumnData::F64(kwh.into()))?;
    out.select(&["job", "mean_node_w", "peak_node_w", "samples", "energy_kwh"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointStore;
    use crate::streaming::{MemorySink, StreamingQuery};
    use bytes::Bytes;
    use oda_stream::{Broker, Consumer, RetentionPolicy};
    use oda_telemetry::record::Component;
    use oda_telemetry::system::SystemModel;
    use oda_telemetry::TelemetryGenerator;

    fn tiny_catalog() -> SensorCatalog {
        SensorCatalog::for_system(&SystemModel::tiny())
    }

    fn obs(ts: i64, node: u32, sensor: u16, value: f64) -> Observation {
        Observation {
            ts_ms: ts,
            sensor,
            component: Component::node(node),
            value,
            quality: Quality::Good,
        }
    }

    #[test]
    fn bronze_frame_shape() {
        let cat = tiny_catalog();
        let rows = vec![obs(0, 1, 0, 500.0), obs(1_000, 2, 1, 21.0)];
        let f = bronze_frame(&rows, &cat);
        assert_eq!(f.rows(), 2);
        let sensors = f.cat("sensor").unwrap();
        assert_eq!(sensors.get(0), "node_power_w");
        assert_eq!(f.i64s("node").unwrap(), &[1, 2]);
        // Categorical columns are dictionary-encoded at the source.
        assert!(f.dict("sensor").is_ok());
        assert!(f.dict("device").is_ok());
    }

    /// The Bronze builder that interned the catalog per call and probed
    /// a `HashMap<Device, u32>` per row, kept as the oracle for the
    /// column builder.
    fn reference_bronze_frame(obs: &[Observation], catalog: &SensorCatalog) -> Frame {
        let mut ts = Vec::with_capacity(obs.len());
        let mut node = Vec::with_capacity(obs.len());
        let mut device = Vec::with_capacity(obs.len());
        let mut sensor = Vec::with_capacity(obs.len());
        let mut value = Vec::with_capacity(obs.len());
        let mut quality = Vec::with_capacity(obs.len());
        let mut sensors = StringInterner::new();
        let known: Vec<u32> = catalog
            .specs()
            .iter()
            .map(|s| sensors.intern(&s.name))
            .collect();
        let mut unknown: HashMap<u16, u32> = HashMap::new();
        let mut devices = StringInterner::new();
        let mut device_code: HashMap<Device, u32> = HashMap::new();
        for o in obs {
            ts.push(o.ts_ms);
            node.push(i64::from(o.component.node));
            device.push(
                *device_code
                    .entry(o.component.device)
                    .or_insert_with(|| devices.intern(&device_label(o.component.device))),
            );
            sensor.push(match known.get(usize::from(o.sensor)) {
                Some(&code) => code,
                None => *unknown
                    .entry(o.sensor)
                    .or_insert_with(|| sensors.intern(&format!("s{}", o.sensor))),
            });
            value.push(o.value);
            quality.push(match o.quality {
                Quality::Good => 0i64,
                Quality::Missing => 1,
                Quality::Suspect => 2,
            });
        }
        Frame::new(vec![
            ("ts_ms".into(), ColumnData::I64(ts.into())),
            ("node".into(), ColumnData::I64(node.into())),
            (
                "device".into(),
                ColumnData::dict(devices.into_dict(), device),
            ),
            (
                "sensor".into(),
                ColumnData::dict(sensors.into_dict(), sensor),
            ),
            ("value".into(), ColumnData::F64(value.into())),
            ("quality".into(), ColumnData::I64(quality.into())),
        ])
        .expect("equal-length columns by construction")
    }

    fn record(payload: Vec<u8>) -> oda_stream::Record {
        oda_stream::Record {
            offset: 0,
            ts_ms: 0,
            key: None,
            value: Bytes::from(payload),
        }
    }

    /// An observation over every `Device` variant, sensor ids in and
    /// past the catalog, all three qualities and any value.
    fn any_observation() -> impl proptest::prelude::Strategy<Value = Observation> {
        use proptest::prelude::*;
        (
            any::<i64>(),
            (any::<bool>(), any::<u16>()),
            (0u32..4, any::<u32>()),
            (0u8..7, any::<u8>()),
            any::<f64>(),
            0u8..3,
        )
            .prop_map(|(ts_ms, (near, id), (nodes, n), (kind, i), value, q)| {
                let device = match kind {
                    0 => Device::Node,
                    1 => Device::Cpu(i),
                    2 => Device::Gpu(i % 8),
                    3 => Device::Nic(i),
                    4 => Device::Psu(i),
                    5 => Device::CoolingLoop(i),
                    _ => Device::Facility,
                };
                Observation {
                    ts_ms,
                    // Mostly catalog ids, the rest up to a few past it
                    // or anywhere.
                    sensor: if near { id % 40 } else { id },
                    component: Component {
                        node: if nodes == 0 { n } else { n % 4 },
                        device,
                    },
                    value,
                    quality: [Quality::Good, Quality::Missing, Quality::Suspect][usize::from(q)],
                }
            })
    }

    proptest::proptest! {
        /// Decoding records straight into columns builds the frame the
        /// old builder made from the decoded batches: same values, same
        /// dictionaries in the same order. So does `bronze_frame`. The
        /// quality filter agrees with its expression form on it.
        #[test]
        fn decoder_matches_reference_builder(
            batches in proptest::collection::vec(
                proptest::collection::vec(any_observation(), 0..30),
                0..5,
            ),
        ) {
            let cat = tiny_catalog();
            let records: Vec<_> = batches
                .iter()
                .map(|b| record(Observation::encode_batch(b)))
                .collect();
            let all: Vec<Observation> = records
                .iter()
                .flat_map(|r| Observation::decode_batch(&r.value).unwrap())
                .collect();
            let want = reference_bronze_frame(&all, &cat).layout();
            let got = observation_decoder(cat.clone())(&records).unwrap();
            proptest::prop_assert_eq!(got.layout(), want);
            proptest::prop_assert_eq!(bronze_frame(&all, &cat).layout(), want);
            // The one-pass quality mask keeps the rows the expression did.
            let mask = Expr::col("quality")
                .eq_(Expr::LitI(0))
                .and(Expr::col("value").is_nan().not())
                .eval_mask(&got)
                .unwrap();
            proptest::prop_assert_eq!(
                quality_filter_map()(got.clone()).unwrap().layout(),
                got.filter_mask(&mask).layout()
            );
        }
    }

    /// A record whose count claims more observations than its bytes
    /// hold is a decode error, never an allocation of that count.
    #[test]
    fn decoder_rejects_forged_counts() {
        let decode = observation_decoder(tiny_catalog());
        let honest = Observation::encode_batch(&[obs(0, 1, 0, 1.0), obs(0, 2, 1, 2.0)]);
        for forged in [u32::MAX, 3] {
            let mut bad = honest.clone();
            bad[..4].copy_from_slice(&forged.to_le_bytes());
            let records = [record(honest.clone()), record(bad)];
            assert!(
                matches!(decode(&records), Err(PipelineError::Decode(_))),
                "count {forged}"
            );
        }
        // An unknown device code in an otherwise honest batch.
        let mut bad = honest.clone();
        bad[4 + 14..4 + 16].copy_from_slice(&0x0700u16.to_le_bytes());
        assert!(matches!(
            decode(&[record(bad)]),
            Err(PipelineError::Decode(_))
        ));
        assert_eq!(decode(&[record(honest)]).unwrap().rows(), 2);
    }

    #[test]
    fn batch_silver_pipeline_end_to_end() {
        let cat = tiny_catalog();
        // 2 nodes x 2 sensors x 30 seconds of 1 Hz data.
        let mut rows = Vec::new();
        for t in 0..30i64 {
            for n in [0u32, 1] {
                rows.push(obs(t * 1_000, n, 0, 500.0 + n as f64 * 100.0)); // node_power_w
                rows.push(obs(t * 1_000, n, 1, 21.0)); // node_inlet_temp_c
            }
        }
        let bronze = bronze_frame(&rows, &cat);
        let jobs = vec![Job {
            id: 9,
            user: 3,
            project: "PRJ001".into(),
            program: 0,
            archetype: oda_telemetry::ApplicationArchetype::Hpl,
            nodes: vec![0, 1],
            submit_ms: 0,
            start_ms: 0,
            end_ms: 60_000,
            phase: 0.0,
        }];
        let silver = bronze_to_silver(bronze, SILVER_WINDOW_MS, job_context_frame(&jobs))
            .execute()
            .unwrap();
        // 2 windows x 2 nodes.
        assert_eq!(silver.rows(), 4);
        assert!(silver.index_of("node_power_w").is_ok());
        assert!(silver.index_of("node_inlet_temp_c").is_ok());
        assert_eq!(silver.i64s("job").unwrap(), &[9, 9, 9, 9]);
        // Gold: one row for job 9.
        let gold = silver_to_gold_job_energy(&silver, SILVER_WINDOW_MS).unwrap();
        assert_eq!(gold.rows(), 1);
        assert_eq!(gold.i64s("job").unwrap()[0], 9);
        let mean = gold.f64s("mean_node_w").unwrap()[0];
        assert!((mean - 550.0).abs() < 1.0, "mean node power {mean}");
        assert!(gold.f64s("energy_kwh").unwrap()[0] > 0.0);
    }

    #[test]
    fn batch_silver_join_is_time_aware() {
        // Two sequential jobs on the same node: each window must be
        // attributed to exactly the job whose allocation covers it.
        let cat = tiny_catalog();
        let mut rows = Vec::new();
        for t in 0..30i64 {
            rows.push(obs(t * 1_000, 0, 0, 500.0));
        }
        let mk_job = |id: u64, start: i64, end: i64| Job {
            id,
            user: 0,
            project: "PRJ000".into(),
            program: 0,
            archetype: oda_telemetry::ApplicationArchetype::Debug,
            nodes: vec![0],
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.0,
        };
        let jobs = vec![mk_job(1, 0, 15_000), mk_job(2, 15_000, 30_000)];
        let silver = bronze_to_silver(
            bronze_frame(&rows, &cat),
            SILVER_WINDOW_MS,
            job_context_frame(&jobs),
        )
        .execute()
        .unwrap();
        // 2 windows x 1 node, one job each — NOT 4 rows.
        assert_eq!(silver.rows(), 2, "node reuse must not duplicate rows");
        let windows = silver.i64s("window").unwrap();
        let job_ids = silver.i64s("job").unwrap();
        for i in 0..2 {
            let expect = if windows[i] == 0 { 1 } else { 2 };
            assert_eq!(job_ids[i], expect, "window {} misattributed", windows[i]);
        }
    }

    #[test]
    fn streaming_silver_emits_closed_windows_only() {
        let mut transform = streaming_silver_transform(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // First batch: 0..20s — window [0,15s) closes (watermark 19s >= 15s).
        let batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        let out1 = transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        assert_eq!(out1.rows(), 1);
        assert_eq!(out1.i64s("window").unwrap(), &[0]);
        assert_eq!(out1.i64s("count").unwrap(), &[15]);
        // Second batch: 20..35s — window [15,30) closes.
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 200.0)).collect();
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.i64s("window").unwrap(), &[15_000]);
        // Mean mixes the 100s (t=15..20) and 200s (t=20..30).
        let mean = out2.f64s("mean").unwrap()[0];
        assert!((mean - (5.0 * 100.0 + 10.0 * 200.0) / 15.0).abs() < 1e-9);
    }

    #[test]
    fn streaming_silver_respects_lateness() {
        let mut transform = streaming_silver_transform(15_000, 10_000);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // Events to 24s; watermark = 14s; window 0 NOT closed.
        let batch: Vec<Observation> = (0..25).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
        assert_eq!(out.rows(), 0, "lateness must hold window 0 open");
        // More events to 26s; watermark 16s; window 0 closes with the
        // late event (t=14.5s equivalent none here) included.
        let batch2: Vec<Observation> = vec![obs(26_000, 0, 0, 1.0)];
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.i64s("window").unwrap(), &[0]);
        assert_eq!(out2.i64s("count").unwrap(), &[15]);
    }

    #[test]
    fn window_closes_exactly_when_the_watermark_reaches_its_end() {
        // Window [0, 15 s) with 5 s lateness closes once an event at
        // 20 s lifts the watermark to 15 s, and not one millisecond
        // earlier.
        let mut transform = streaming_silver_transform(15_000, 5_000);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        let mut batch: Vec<Observation> = (0..15).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        batch.push(obs(19_999, 0, 0, 1.0));
        let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
        assert_eq!(out.rows(), 0, "watermark 14 999 ms must hold window 0 open");
        let out = transform(bronze_frame(&[obs(20_000, 0, 0, 1.0)], &cat), &mut state).unwrap();
        assert_eq!(out.i64s("window").unwrap(), &[0]);
        assert_eq!(out.i64s("count").unwrap(), &[15]);
    }

    #[test]
    fn gap_marked_silver_emits_markers_for_silent_sensors() {
        let mut transform = streaming_silver_transform_gap_marked(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        // Window 0: both sensors report. Sensor 1 then goes dark.
        let mut batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        batch1.extend((0..15).map(|t| obs(t * 1_000, 0, 1, 20.0)));
        let out1 = transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        assert_eq!(out1.rows(), 2, "window 0, both sensors, no gaps");
        assert!(out1.i64s("gap").unwrap().iter().all(|&g| g == 0));
        // Window [15s, 30s) closes with only sensor 0 reporting.
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 100.0)).collect();
        let out2 = transform(bronze_frame(&batch2, &cat), &mut state).unwrap();
        assert_eq!(out2.rows(), 2, "one real row + one gap marker");
        let sensors = out2.cat("sensor").unwrap();
        let gaps = out2.i64s("gap").unwrap();
        let counts = out2.i64s("count").unwrap();
        let means = out2.f64s("mean").unwrap();
        for i in 0..2 {
            if sensors.get(i) == "node_inlet_temp_c" {
                assert_eq!(gaps[i], 1, "dark sensor must be gap-marked");
                assert_eq!(counts[i], 0);
                assert!(means[i].is_nan());
            } else {
                assert_eq!(gaps[i], 0);
                assert_eq!(counts[i], 15);
                assert_eq!(means[i], 100.0);
            }
        }
    }

    #[test]
    fn a_timestamp_without_a_window_start_is_skipped() {
        // No 15 s window starting at or after i64::MIN holds i64::MIN:
        // the row is dropped, as a bad reading is, and opens no cell.
        let cat = tiny_catalog();
        for gap_marked in [false, true] {
            let mut transform = if gap_marked {
                streaming_silver_transform_gap_marked(15_000, 0)
            } else {
                streaming_silver_transform(15_000, 0)
            };
            let mut state = StateStore::new();
            let mut batch: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
            batch.insert(3, obs(i64::MIN, 0, 0, 9.0));
            let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
            assert_eq!(out.i64s("window").unwrap(), &[0]);
            assert_eq!(out.i64s("count").unwrap(), &[15]);
            assert_eq!(state.len(), 1, "only window 15 s stays open");
            assert_eq!(state.gap_next, gap_marked.then_some(15_000));
        }
        // A width that gives no timestamp a window is refused outright.
        let frame = bronze_frame(&[obs(0, 0, 0, 1.0)], &cat);
        let refused = streaming_silver_transform(0, 0)(frame, &mut StateStore::new());
        assert!(matches!(refused, Err(PipelineError::InvalidQuery(_))));
    }

    #[test]
    fn gap_sweep_skips_windows_in_which_no_cell_closed() {
        // Two keys report in window 0, one in window 15 s; then one
        // reading lands far ahead. Window 15 s closes with a real row
        // and a marker, and the windows skipped cost no rows at all,
        // up to the last window an i64 can start.
        let cat = tiny_catalog();
        for ahead in [100_000 * 15_000, i64::MAX] {
            let mut transform = streaming_silver_transform_gap_marked(15_000, 0);
            let mut state = StateStore::new();
            let mut batch: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
            batch.extend((0..15).map(|t| obs(t * 1_000, 0, 1, 2.0)));
            let out = transform(bronze_frame(&batch, &cat), &mut state).unwrap();
            assert_eq!(out.rows(), 2);
            let out = transform(bronze_frame(&[obs(ahead, 0, 1, 3.0)], &cat), &mut state).unwrap();
            assert_eq!(
                out.i64s("window").unwrap(),
                &[15_000, 15_000],
                "ahead {ahead}"
            );
            assert_eq!(out.i64s("gap").unwrap(), &[1, 0]);
            assert_eq!(out.i64s("count").unwrap(), &[0, 5]);
            assert_eq!(state.len(), 1, "the reading ahead stays open");
            assert_eq!(state.gap_next, window_start(ahead, 15_000));
        }
    }

    #[test]
    fn gap_roster_survives_checkpoint_roundtrip() {
        let mut transform = streaming_silver_transform_gap_marked(15_000, 0);
        let cat = tiny_catalog();
        let mut state = StateStore::new();
        let mut batch1: Vec<Observation> = (0..20).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        batch1.extend((0..15).map(|t| obs(t * 1_000, 0, 1, 2.0)));
        transform(bronze_frame(&batch1, &cat), &mut state).unwrap();
        // Crash: restore state from its snapshot, keep going.
        let mut restored = StateStore::restore(&state.snapshot()).unwrap();
        let batch2: Vec<Observation> = (20..35).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let out = transform(bronze_frame(&batch2, &cat), &mut restored).unwrap();
        let gaps = out.i64s("gap").unwrap();
        assert_eq!(
            gaps.iter().filter(|&&g| g == 1).count(),
            1,
            "roster (and thus gap detection) must survive recovery"
        );
    }

    #[test]
    fn silver_rows_are_ordered_by_window_then_key_bytes() {
        // Nodes 2, 10 and 100 arrive in numeric order; Silver must come
        // out in state-key byte order ("10␟…" < "100␟…" < "2␟…", and
        // "…inlet_temp_c" < "…power_w" within a node), window-major, and
        // the sensor dictionary in first-appearance order.
        let cat = tiny_catalog();
        let mut batch = Vec::new();
        for t in [0, 15_000, 30_000] {
            for n in [2u32, 10, 100] {
                batch.push(obs(t, n, 0, 1.0)); // node_power_w
                batch.push(obs(t, n, 1, 2.0)); // node_inlet_temp_c
            }
        }
        for gap_marked in [false, true] {
            let mut transform = if gap_marked {
                streaming_silver_transform_gap_marked(15_000, 0)
            } else {
                streaming_silver_transform(15_000, 0)
            };
            let out = transform(bronze_frame(&batch, &cat), &mut StateStore::new()).unwrap();
            let sensors = out.cat("sensor").unwrap();
            let rows: Vec<(i64, i64, &str)> = (0..out.rows())
                .map(|i| {
                    let (w, n) = (out.i64s("window").unwrap()[i], out.i64s("node").unwrap()[i]);
                    (w, n, sensors.get(i))
                })
                .collect();
            let mut want = Vec::new();
            for w in [0, 15_000] {
                for n in [10, 100, 2] {
                    want.push((w, n, "node_inlet_temp_c"));
                    want.push((w, n, "node_power_w"));
                }
            }
            assert_eq!(rows, want, "gap_marked={gap_marked}");
            let (dict, _) = sensors.to_dict();
            assert_eq!(dict.as_ref(), ["node_inlet_temp_c", "node_power_w"]);
        }
    }

    #[test]
    fn silver_transform_survives_a_different_store() {
        // A transform keeps nothing between calls outside its store, so
        // one handed a store that numbers keys differently labels every
        // row by that store.
        let cat = tiny_catalog();
        let mut transform = streaming_silver_transform(15_000, 0);
        let first = vec![obs(0, 1, 0, 1.0), obs(0, 2, 0, 2.0), obs(20_000, 1, 0, 1.0)];
        transform(bronze_frame(&first, &cat), &mut StateStore::new()).unwrap();
        let second = vec![obs(0, 2, 0, 5.0), obs(0, 1, 0, 7.0), obs(20_000, 1, 0, 1.0)];
        let out = transform(bronze_frame(&second, &cat), &mut StateStore::new()).unwrap();
        assert_eq!(out.i64s("node").unwrap(), &[1, 2]);
        assert_eq!(out.f64s("mean").unwrap(), &[7.0, 5.0]);
    }

    /// Disorder-shaped traffic: ticks arrive permuted, some late (inside
    /// the lateness allowance, so two windows stay open) and some too
    /// late (their window was already emitted, so the cell is re-created
    /// and emitted again), with bad readings mixed in.
    fn disorder_broker() -> Arc<Broker> {
        let broker = Broker::new();
        broker
            .create_topic("bronze", 2, RetentionPolicy::unbounded())
            .unwrap();
        let arrival: Vec<i64> = (0..120)
            .map(|t| match t % 10 {
                3 => t - 25, // late
                7 => t - 70, // too late
                _ => t,
            })
            .filter(|t| *t >= 0)
            .collect();
        for (i, t) in arrival.into_iter().enumerate() {
            let mut batch = Vec::new();
            for n in [2u32, 10, 100] {
                batch.push(obs(t * 1_000, n, 0, 100.0 + t as f64 / 3.0));
                batch.push(Observation {
                    quality: if (t + i64::from(n)) % 3 == 0 {
                        Quality::Suspect
                    } else {
                        Quality::Good
                    },
                    ..obs(t * 1_000, n, 1, if t % 11 == 0 { f64::NAN } else { 20.5 })
                });
            }
            let payload = Observation::encode_batch(&batch);
            let key = Bytes::from(format!("shard-{}", i % 3));
            broker
                .produce("bronze", t * 1_000, Some(key), Bytes::from(payload))
                .unwrap();
        }
        broker
    }

    #[test]
    fn restart_at_every_epoch_boundary_reproduces_silver_bytes() {
        use crate::frame_io::frame_to_colfile;
        let cat = tiny_catalog();
        let broker = disorder_broker();
        let query = |group: &str, cps: &CheckpointStore, gap_marked: bool| {
            StreamingQuery::builder()
                .source(Consumer::subscribe(broker.clone(), group, "bronze").unwrap())
                .decoder(observation_decoder(cat.clone()))
                .transform(if gap_marked {
                    streaming_silver_transform_gap_marked(20_000, 30_000)
                } else {
                    streaming_silver_transform(20_000, 30_000)
                })
                .checkpoints(cps.clone())
                .max_records(7)
                .workers(2)
                .build()
                .unwrap()
        };
        let silver_bytes = |sink: &MemorySink| -> Vec<Vec<u8>> {
            sink.frames()
                .into_iter()
                .map(|f| frame_to_colfile(f).unwrap())
                .collect()
        };
        // fnv1a of the uninterrupted run's concatenated colfile bytes,
        // plain and gap-marked: pins row order and sensor dictionaries
        // across commits, not just run against run.
        for (gap_marked, digest) in [
            (false, 0x2e92_3842_0656_f2e6),
            (true, 0x5a1c_efe1_bff0_08a9),
        ] {
            let mut uninterrupted = MemorySink::new();
            let cps = CheckpointStore::new();
            let epochs = query(&format!("straight-{gap_marked}"), &cps, gap_marked)
                .run_to_completion(&mut uninterrupted)
                .unwrap();
            assert!(epochs > 10, "the run must have epochs to restart at");
            let want = silver_bytes(&uninterrupted);
            assert_eq!(
                oda_obs::fnv1a(&want.concat()),
                digest,
                "Silver bytes moved, gap_marked={gap_marked}"
            );
            let all = uninterrupted.concat().unwrap();
            let sensors = all.cat("sensor").unwrap();
            let cells: std::collections::BTreeSet<(i64, i64, &str)> = (0..all.rows())
                .map(|i| {
                    let (w, n) = (all.i64s("window").unwrap()[i], all.i64s("node").unwrap()[i]);
                    (w, n, sensors.get(i))
                })
                .collect();
            assert!(
                cells.len() < all.rows(),
                "too-late records must re-emit a window"
            );
            // One run that is torn down and rebuilt from its checkpoint
            // after every single epoch.
            let mut restarted = MemorySink::new();
            let cps = CheckpointStore::new();
            let mut max_live = 0;
            loop {
                let mut q = query(&format!("restarted-{gap_marked}"), &cps, gap_marked);
                let consumed = q.run_once(&mut restarted).unwrap();
                max_live = max_live.max(q.state().len());
                if consumed == 0 {
                    break;
                }
            }
            assert!(max_live > 6, "6 keys: more cells means two open windows");
            assert_eq!(cps.len(), epochs);
            assert_eq!(silver_bytes(&restarted), want, "gap_marked={gap_marked}");
        }
    }

    #[test]
    fn dropout_decoder_degrades_instead_of_erroring() {
        use oda_faults::{FaultPlan, FaultSpec};
        let cat = tiny_catalog();
        let obs_batch: Vec<Observation> = (0..200).map(|t| obs(t * 1_000, 0, 0, 1.0)).collect();
        let payload = Observation::encode_batch(&obs_batch);
        let record = oda_stream::Record {
            offset: 0,
            ts_ms: 0,
            key: None,
            value: Bytes::from(payload),
        };
        let plan = Arc::new(FaultPlan::new(
            5,
            FaultSpec {
                sensor_dropout: 0.3,
                ..FaultSpec::default()
            },
        ));
        let decode = observation_decoder_with_faults(cat.clone(), plan.clone());
        let frame = decode(std::slice::from_ref(&record)).unwrap();
        assert!(frame.rows() < 200, "some observations must drop");
        assert!(frame.rows() > 100, "most observations must survive");
        let dropped = plan.injected().len();
        assert_eq!(200 - frame.rows(), dropped);
        // Zero-rate plan drops nothing.
        let silent = Arc::new(FaultPlan::new(5, FaultSpec::default()));
        let decode2 = observation_decoder_with_faults(cat, silent);
        assert_eq!(decode2(&[record]).unwrap().rows(), 200);
    }

    #[test]
    fn quality_filter_map_drops_bad_rows() {
        let cat = tiny_catalog();
        let mut rows = vec![obs(0, 1, 0, 500.0), obs(1_000, 2, 1, f64::NAN)];
        rows.push(Observation {
            quality: Quality::Suspect,
            ..obs(2_000, 3, 0, 510.0)
        });
        let frame = bronze_frame(&rows, &cat);
        let filtered = quality_filter_map()(frame).unwrap();
        assert_eq!(filtered.rows(), 1, "NaN and Suspect rows must drop");
        assert_eq!(filtered.i64s("node").unwrap(), &[1]);
    }

    #[test]
    fn full_broker_to_silver_streaming_query() {
        // Telemetry generator -> broker -> streaming silver -> sink.
        let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 42);
        let broker = Broker::new();
        broker
            .create_topic("bronze", 2, RetentionPolicy::unbounded())
            .unwrap();
        for _ in 0..60 {
            let batch = generator.next_batch();
            let payload = Observation::encode_batch(&batch.observations);
            broker
                .produce(
                    "bronze",
                    batch.ts_ms,
                    Some(Bytes::from("all")),
                    Bytes::from(payload),
                )
                .unwrap();
        }
        let consumer = Consumer::subscribe(broker, "silver", "bronze").unwrap();
        let mut q = StreamingQuery::builder()
            .source(consumer)
            .decoder(observation_decoder(generator.catalog().clone()))
            .transform(streaming_silver_transform(15_000, 0))
            .checkpoints(CheckpointStore::new())
            .max_records(5)
            .workers(2)
            .build()
            .unwrap();
        let mut sink = MemorySink::new();
        q.run_to_completion(&mut sink).unwrap();
        let silver = sink.concat().unwrap();
        assert!(silver.rows() > 0, "no silver rows emitted");
        // Every emitted window start is 15s-aligned and each cell has at
        // most 15 one-second samples.
        for (&w, &c) in silver
            .i64s("window")
            .unwrap()
            .iter()
            .zip(silver.i64s("count").unwrap())
        {
            assert_eq!(w % 15_000, 0);
            assert!(c <= 15, "window cell with {c} samples");
        }
        // node_power_w means are physically plausible for the tiny system.
        let sensors = silver.cat("sensor").unwrap();
        let means = silver.f64s("mean").unwrap();
        let mut checked = 0;
        for (i, &mean) in means.iter().enumerate() {
            if sensors.get(i) == "node_power_w" {
                assert!(mean > 300.0 && mean < 2_500.0, "power {mean}");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }
}
