//! `query_mix`: the read path alone. Set-up builds an OCEAN dataset of
//! Silver parts (indexed on `sensor`, several row groups per part), a
//! Bronze part, and a populated LAKE; the timed loop is one client
//! issuing a fixed rotation of planned queries and analytics reports.
//! Stream and the streaming executor do no work here.

use crate::gen::{self, power_series, SplitMix64, POWER_SENSOR, SERIES_PREFIX};
use crate::text;
use crate::trace::{span, Tracer};
use bytes::Bytes;
use oda_analytics::dashboard::UaDashboard;
use oda_analytics::lva::{scan_bronze_for_summaries, ProfileSummary};
use oda_analytics::rats::RatsReport;
use oda_pipeline::frame_io::frame_to_colfile;
use oda_pipeline::medallion::bronze_frame;
use oda_pipeline::ops::{Agg, AggSpec};
use oda_pipeline::{ExecContext, ExecStats, Expr, Frame, Query};
use oda_storage::colfile::TableWriter;
use oda_storage::lake::Point;
use oda_storage::{Lake, Ocean, TableFile};
use oda_telemetry::events::Event;
use oda_telemetry::{ApplicationArchetype, Job, Observation, SystemModel};
use std::sync::Arc;

const BUCKET: &str = "silver";
const WINDOW_MS: i64 = 15_000;
/// Span of the synthetic job history behind RATS and the dashboard.
const FLEET_SPAN_MS: i64 = 30 * 86_400_000;

/// Size of the dataset and of one rotation.
#[derive(Debug, Clone)]
pub struct Shape {
    pub cabinets: u32,
    pub ticks: usize,
    pub parts: usize,
    pub groups_per_part: usize,
    /// Bronze rows behind the aggregate and the LVA scan.
    pub agg_rows: usize,
    pub lva_rows: usize,
    /// Synthetic job history behind the RATS report.
    pub fleet_jobs: usize,
    /// Queries of each class in one rotation.
    pub points: usize,
    pub ranges: usize,
    pub rats: usize,
    pub dashboards: usize,
}

impl Shape {
    pub fn standard(smoke: bool) -> Shape {
        Shape {
            cabinets: if smoke { 1 } else { 4 },
            ticks: if smoke { 60 } else { 240 },
            parts: 8,
            groups_per_part: 6,
            agg_rows: if smoke { 10_000 } else { 200_000 },
            lva_rows: if smoke { 10_000 } else { 100_000 },
            fleet_jobs: if smoke { 500 } else { 20_000 },
            points: 6,
            ranges: 2,
            rats: 2,
            dashboards: 2,
        }
    }

    pub fn queries_per_rotation(&self) -> usize {
        // One aggregate and one LVA scan beside the counted classes.
        self.points + self.ranges + self.rats + self.dashboards + 2
    }
}

/// The six query classes of the rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Point,
    Range,
    Agg,
    Lva,
    Rats,
    Dashboard,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::Range,
        Class::Agg,
        Class::Lva,
        Class::Rats,
        Class::Dashboard,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Range => "range",
            Class::Agg => "agg",
            Class::Lva => "lva",
            Class::Rats => "rats",
            Class::Dashboard => "dashboard",
        }
    }
}

/// One query of the rotation: its class and which of the class's fixed
/// parameterisations it uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub class: Class,
    pub variant: usize,
}

/// What a query returned, reduced to bytes that must equal the naive
/// execution's.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub bytes: Vec<u8>,
    pub stats: ExecStats,
}

fn add_stats(into: &mut ExecStats, s: &ExecStats) {
    into.groups_total += s.groups_total;
    into.chunks_read += s.chunks_read;
    into.chunks_pruned += s.chunks_pruned;
    into.index_hits += s.index_hits;
    into.rows_scanned += s.rows_scanned;
    into.rows_out += s.rows_out;
}

/// A synthetic job history: `n` jobs cycling users, programs and node
/// ranges over `span_ms`, shifted by the seed.
fn job_fleet(seed: u64, n: usize, nodes: u32, span_ms: i64) -> Vec<Job> {
    let mut rng = SplitMix64::new(seed ^ 0x000f_1ee7);
    (0..n as u64)
        .map(|i| {
            let start = (i as i64 * span_ms) / n as i64;
            let width = rng.range(1, 9) as u32;
            let first = rng.range(0, u64::from(nodes)) as u32;
            let user = rng.range(0, 400) as u32;
            Job {
                id: 1_000_000 + i,
                user,
                project: format!("PRJ{:03}", user % 60),
                program: (user % 8) as u8,
                archetype: ApplicationArchetype::ALL[(i % 6) as usize],
                nodes: (0..width).map(|k| (first + k) % nodes).collect(),
                submit_ms: start,
                start_ms: start,
                end_ms: start + span_ms / 20 + rng.range(0, 600_000) as i64,
                phase: rng.unit(),
            }
        })
        .collect()
}

/// Everything the rotation reads, and the answers it must give.
pub struct Dataset {
    pub shape: Shape,
    pub system: SystemModel,
    ocean: Arc<Ocean>,
    part_keys: Vec<String>,
    /// The Silver parts, opened once and kept hot for point lookups.
    tables: Vec<Arc<TableFile>>,
    bronze_table: Arc<TableFile>,
    lva_bronze: Frame,
    pub lake: Arc<Lake>,
    jobs: Vec<Job>,
    fleet: Vec<Job>,
    events: Vec<Event>,
    sensors: Vec<String>,
    t_end_ms: i64,
    pub observations: usize,
    pub stored_bytes: u64,
    pub silver_rows: usize,
    expected: Vec<(Op, Vec<u8>)>,
}

fn bronze_of(obs: &[Observation], telemetry: &gen::Telemetry) -> Frame {
    let catalog = oda_telemetry::SensorCatalog::for_system(&telemetry.system);
    bronze_frame(obs, &catalog)
}

impl Dataset {
    /// Generate telemetry, refine it to Silver with the batch plan, and
    /// lay it out as the OCEAN dataset + LAKE the rotation queries.
    pub fn build(seed: u64, shape: Shape) -> Result<Dataset, String> {
        let telemetry = gen::telemetry(seed, shape.cabinets, shape.ticks);
        let all: Vec<Observation> = telemetry
            .batches
            .iter()
            .flat_map(|b| b.observations.iter().copied())
            .collect();
        let bronze = bronze_of(&all, &telemetry);
        let silver = Query::scan(bronze)
            .filter(
                Expr::col("quality")
                    .eq_(Expr::LitI(0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .window("ts_ms", WINDOW_MS)
            .group_by(
                &["window", "node", "sensor"],
                &[
                    AggSpec::new("value", Agg::Mean, "mean"),
                    AggSpec::new("value", Agg::Min, "min"),
                    AggSpec::new("value", Agg::Max, "max"),
                    AggSpec::new("value", Agg::Count, "count"),
                ],
            )
            .sort_by_i64("window")
            .execute()
            .map_err(text)?;

        // Silver parts: consecutive time slices, several row groups each,
        // so chunk statistics prune time ranges and the sensor index
        // prunes categories.
        let ocean = Ocean::new();
        ocean.create_bucket(BUCKET);
        let rows = silver.rows();
        let groups = shape.parts * shape.groups_per_part;
        let per_group = rows.div_ceil(groups).max(1);
        let mut part_keys = Vec::new();
        let mut tables = Vec::new();
        let mut stored_bytes = 0;
        for part in 0..shape.parts {
            let mut writer = TableWriter::new(silver.schema());
            writer.index_column("sensor").map_err(text)?;
            let mut wrote = false;
            for g in 0..shape.groups_per_part {
                let lo = (part * shape.groups_per_part + g) * per_group;
                if lo >= rows {
                    break;
                }
                let len = per_group.min(rows - lo);
                let cols: Vec<_> = silver.columns().iter().map(|c| c.slice(lo, len)).collect();
                writer.write_row_group(&cols).map_err(text)?;
                wrote = true;
            }
            if !wrote {
                break;
            }
            let bytes = writer.finish();
            stored_bytes += bytes.len() as u64;
            let key = format!("datasets/silver/part-{part:06}.ocf");
            ocean
                .put(BUCKET, &key, Bytes::from(bytes.clone()))
                .map_err(text)?;
            tables.push(Arc::new(TableFile::open(bytes).map_err(text)?));
            part_keys.push(key);
        }

        // LAKE: one power series per node, one-minute segments.
        let lake = Arc::new(Lake::with_layout(60_000, 30 * 86_400_000));
        let power = {
            let mask = Expr::col("sensor")
                .eq_(Expr::LitS(POWER_SENSOR.into()))
                .eval_mask(&silver)
                .map_err(text)?;
            silver.filter_mask(&mask)
        };
        let nodes = telemetry.system.node_count();
        let mut per_node: Vec<Vec<Point>> = vec![Vec::new(); nodes as usize];
        let windows = power.i64s("window").map_err(text)?;
        let means = power.f64s("mean").map_err(text)?;
        for ((&ts_ms, &node), &value) in windows
            .iter()
            .zip(power.i64s("node").map_err(text)?)
            .zip(means)
        {
            per_node[node as usize].push(Point { ts_ms, value });
        }
        for (node, points) in per_node.iter().enumerate() {
            lake.insert_batch(&power_series(node), points);
        }

        let agg_bronze = bronze_of(&all[..shape.agg_rows.min(all.len())], &telemetry);
        let bronze_table =
            Arc::new(TableFile::open(frame_to_colfile(&agg_bronze).map_err(text)?).map_err(text)?);
        let lva_bronze = bronze_of(&all[..shape.lva_rows.min(all.len())], &telemetry);

        let mut sensors: Vec<String> = silver
            .cat("sensor")
            .map_err(text)?
            .to_dict()
            .0
            .iter()
            .cloned()
            .collect();
        sensors.sort();
        let t_end_ms = shape.ticks as i64 * 1_000;
        let fleet = job_fleet(seed, shape.fleet_jobs, nodes, FLEET_SPAN_MS);
        let mut dataset = Dataset {
            system: telemetry.system.clone(),
            ocean,
            part_keys,
            tables,
            bronze_table,
            lva_bronze,
            lake,
            jobs: telemetry.jobs.clone(),
            fleet,
            events: telemetry.events.clone(),
            sensors,
            t_end_ms,
            observations: telemetry.observations,
            stored_bytes,
            silver_rows: rows,
            expected: Vec::new(),
            shape,
        };
        // The answers, from the un-optimised plans, once.
        let mut expected = Vec::new();
        for op in dataset.rotation() {
            if !expected.iter().any(|(seen, _)| *seen == op) {
                expected.push((op, dataset.answer(op, false, &None)?.bytes));
            }
        }
        dataset.expected = expected;
        Ok(dataset)
    }

    /// The fixed rotation: every class spread evenly over the rotation,
    /// so cheap lookups run between the heavy reports; variants cycle
    /// within a class.
    pub fn rotation(&self) -> Vec<Op> {
        let s = &self.shape;
        let mut slots: Vec<(f64, Op)> = Vec::with_capacity(s.queries_per_rotation());
        for (class, count) in [
            (Class::Point, s.points),
            (Class::Range, s.ranges),
            (Class::Agg, 1),
            (Class::Lva, 1),
            (Class::Rats, s.rats),
            (Class::Dashboard, s.dashboards),
        ] {
            for variant in 0..count {
                let at = (variant as f64 + 0.5) / count as f64;
                slots.push((at, Op { class, variant }));
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.class.cmp(&b.1.class)));
        slots.into_iter().map(|(_, op)| op).collect()
    }

    fn point_query(&self, table: &Arc<TableFile>, variant: usize) -> Query {
        let sensor = &self.sensors[variant % self.sensors.len()];
        let node = (variant as i64 * 37) % i64::from(self.system.node_count());
        Query::scan_table(Arc::clone(table))
            .filter(
                Expr::col("sensor")
                    .eq_(Expr::LitS(sensor.clone()))
                    .and(Expr::col("node").eq_(Expr::LitI(node))),
            )
            .select(&["window", "mean", "count"])
    }

    fn range_bounds(&self, variant: usize) -> (i64, i64) {
        let slices = (self.t_end_ms / 30_000).max(1);
        let t0 = (variant as i64 * 5 % slices) * 30_000;
        (t0, t0 + 60_000)
    }

    fn range_query(&self, table: Arc<TableFile>, variant: usize) -> Query {
        let (t0, t1) = self.range_bounds(variant);
        Query::scan_table(table)
            .filter(
                Expr::col("window")
                    .ge(Expr::LitI(t0))
                    .and(Expr::col("window").lt(Expr::LitI(t1)))
                    .and(Expr::col("sensor").eq_(Expr::LitS(POWER_SENSOR.into()))),
            )
            .select(&["window", "node", "mean"])
    }

    /// The Fig. 4-b core up to `stages` (1 filter+window, 2 +group-by,
    /// 3 +pivot); the rotation runs all three.
    pub fn agg_query(&self, stages: usize) -> Query {
        let mut q = Query::scan_table(Arc::clone(&self.bronze_table))
            .filter(
                Expr::col("quality")
                    .eq_(Expr::LitI(0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .window("ts_ms", WINDOW_MS);
        if stages >= 2 {
            q = q.group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "value")],
            );
        }
        if stages >= 3 {
            q = q.pivot(&["window", "node"], "sensor", "value", Agg::Mean);
        }
        q
    }

    pub fn agg_rows(&self) -> usize {
        self.bronze_table.num_rows()
    }

    /// Run a planned query; with `optimized` off the plan executes as
    /// built (naive full scan, filter above), which is the oracle.
    fn execute(
        &self,
        q: Query,
        optimized: bool,
        tracer: &Option<Arc<Tracer>>,
        stats: &mut ExecStats,
    ) -> Result<Frame, String> {
        let plan = q.into_plan();
        let plan = if optimized {
            let _g = span(tracer, "planner.optimize");
            plan.optimize()
        } else {
            plan
        };
        let _g = span(tracer, "planner.execute");
        let (frame, s) = plan
            .execute_with(&ExecContext::named("odabench"))
            .map_err(text)?;
        add_stats(stats, &s);
        Ok(frame)
    }

    /// Answer one query of the rotation.
    pub fn answer(
        &self,
        op: Op,
        optimized: bool,
        tracer: &Option<Arc<Tracer>>,
    ) -> Result<Answer, String> {
        let mut stats = ExecStats::default();
        let bytes = match op.class {
            Class::Point => {
                let mut frames = Vec::with_capacity(self.tables.len());
                for table in &self.tables {
                    let q = self.point_query(table, op.variant);
                    frames.push(self.execute(q, optimized, tracer, &mut stats)?);
                }
                let _g = span(tracer, "pipeline.concat");
                frame_to_bytes(&Frame::concat(&frames).map_err(text)?)?
            }
            Class::Range => {
                // Cold read: every part is fetched from OCEAN and its
                // footer parsed before the pruned scan.
                let mut frames = Vec::with_capacity(self.part_keys.len());
                for key in &self.part_keys {
                    let table = {
                        let _g = span(tracer, "storage.open");
                        let bytes = self.ocean.get(BUCKET, key).map_err(text)?;
                        Arc::new(TableFile::open(bytes.to_vec()).map_err(text)?)
                    };
                    let q = self.range_query(table, op.variant);
                    frames.push(self.execute(q, optimized, tracer, &mut stats)?);
                }
                let mut bytes = frame_to_bytes(&Frame::concat(&frames).map_err(text)?)?;
                let (t0, t1) = self.range_bounds(op.variant);
                let node = (op.variant * 53) % self.system.node_count() as usize;
                let points = {
                    let _g = span(tracer, "storage.lake_plan");
                    self.lake
                        .plan(t0, t1)
                        .series(&power_series(node))
                        .downsample(30_000)
                        .points()
                };
                for p in points {
                    bytes.extend_from_slice(&p.ts_ms.to_le_bytes());
                    bytes.extend_from_slice(&p.value.to_bits().to_le_bytes());
                }
                bytes
            }
            Class::Agg => {
                let frame = self.execute(self.agg_query(3), optimized, tracer, &mut stats)?;
                frame_to_bytes(&frame)?
            }
            Class::Lva => {
                let _g = span(tracer, "analytics.lva_scan");
                let summaries = scan_bronze_for_summaries(
                    &self.lva_bronze,
                    &self.jobs,
                    WINDOW_MS,
                    0,
                    self.t_end_ms,
                )
                .map_err(text)?;
                summaries_to_bytes(summaries)
            }
            Class::Rats => {
                let _g = span(tracer, "analytics.rats_compile");
                let report = RatsReport::compile(&self.fleet, &self.system, &[]);
                serde_json::to_vec(&report).map_err(text)?
            }
            Class::Dashboard => {
                let _g = span(tracer, "analytics.dashboard_compile");
                dashboard_bytes(
                    &self.fleet,
                    &self.events,
                    Arc::clone(&self.lake),
                    op.variant,
                    FLEET_SPAN_MS,
                )
            }
        };
        Ok(Answer { bytes, stats })
    }

    /// Whether `answer` is byte-equal to the naive execution's.
    pub fn is_expected(&self, op: Op, answer: &Answer) -> bool {
        self.expected
            .iter()
            .find(|(seen, _)| *seen == op)
            .is_some_and(|(_, bytes)| *bytes == answer.bytes)
    }

    /// Decode every column chunk of the first Silver part; returns the
    /// chunk count.
    pub fn decode_part(&self) -> Result<u64, String> {
        let table = &self.tables[0];
        let mut chunks = 0;
        for g in 0..table.row_group_count() {
            chunks += table.read_row_group(g).map_err(text)?.len() as u64;
        }
        Ok(chunks)
    }
}

fn frame_to_bytes(frame: &Frame) -> Result<Vec<u8>, String> {
    frame_to_colfile(frame).map_err(text)
}

fn summaries_to_bytes(mut summaries: Vec<ProfileSummary>) -> Vec<u8> {
    summaries.sort_by_key(|s| s.job_id);
    serde_json::to_vec(&summaries).expect("summaries serialize")
}

/// The user-assistance dashboard: compile the indexes, then diagnose one
/// user's jobs over the whole span (per-node LAKE aggregates). Reused by
/// `live_ops` as the dashboard query issued beside ingest.
pub fn dashboard_bytes(
    jobs: &[Job],
    events: &[Event],
    lake: Arc<Lake>,
    variant: usize,
    t_end_ms: i64,
) -> Vec<u8> {
    let dashboard = UaDashboard::compile_with_prefix(jobs, events, lake, SERIES_PREFIX);
    let user = jobs.get(variant % jobs.len().max(1)).map_or(0, |j| j.user);
    let ticket = dashboard.diagnose(user, 0, t_end_ms);
    let mut power: Vec<(u64, u64)> = ticket
        .mean_power_w
        .iter()
        .map(|(&job, &w)| (job, w.to_bits()))
        .collect();
    power.sort_unstable();
    let mut bytes = Vec::new();
    for job in &ticket.jobs {
        bytes.extend_from_slice(&job.job_id.to_le_bytes());
    }
    bytes.extend_from_slice(&(ticket.node_events.len() as u64).to_le_bytes());
    for (job, watts) in power {
        bytes.extend_from_slice(&job.to_le_bytes());
        bytes.extend_from_slice(&watts.to_le_bytes());
    }
    bytes
}
