//! The four workloads: how each is set up, measured, checked and turned
//! into the metrics `BENCHMARK.json` names.

use crate::ingest::{self, Inputs};
use crate::query::{self, Class, Dataset};
use crate::report::Detail;
use crate::stats::{cpu_seconds, median, peak_rss_mb, percentile};
use crate::trace::{self, layer_of, NameTotal, SpanRec, Tracer};
use crate::{live, Metric, RunConfig, RunOutput, Tally};
use oda_telemetry::record::OBS_RAW_BYTES;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = ["ingest_steady", "ingest_disorder", "query_mix", "live_ops"];

/// End-to-end metrics: what the people the system serves feel. Every
/// workload reports every one of them; what the unit of work and the
/// latency are on each workload is spelled out in `README.md`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("stored_bytes_per_obs", "B/obs"),
    ("cpu_us_per_unit", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, and the end-to-end figures under
/// their workload-specific names. A metric that does not apply to a
/// workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 80] = [
    ("ingest.obs_per_s", "1/s"),
    ("ingest.tb_per_day_equiv", "TB/day"),
    ("ingest.stored_bytes_per_obs", "B/obs"),
    ("ingest.chunk_p50_ms", "ms"),
    ("ingest.chunk_p95_ms", "ms"),
    ("query.ops_per_s", "1/s"),
    ("query.point_p50_ms", "ms"),
    ("query.range_p50_ms", "ms"),
    ("query.agg_p50_ms", "ms"),
    ("query.lva_p50_ms", "ms"),
    ("query.rats_p50_ms", "ms"),
    ("query.dashboard_p50_ms", "ms"),
    ("query.p95_ms", "ms"),
    ("live.freshness_p50_ms", "ms"),
    ("live.freshness_p95_ms", "ms"),
    ("live.scrape_p50_ms", "ms"),
    ("live.scrape_p95_ms", "ms"),
    ("live.query_p50_ms", "ms"),
    ("core.publish_ns_per_obs", "ns"),
    ("stream.produce_ns_per_record", "ns"),
    ("stream.produce_mb_per_s", "MB/s"),
    ("stream.fetch_ns_per_record", "ns"),
    ("stream.partition_skew", "ratio"),
    ("pipeline.decode_ns_per_obs", "ns"),
    ("pipeline.filter_ns_per_row", "ns"),
    ("pipeline.filter_selectivity", "ratio"),
    ("pipeline.transform_ns_per_row", "ns"),
    ("pipeline.silver_rows_out", "count"),
    ("pipeline.late_silver_rows", "count"),
    ("pipeline.state_keys", "count"),
    ("pipeline.checkpoint_ns_per_epoch", "ns"),
    ("pipeline.checkpoint_bytes", "B"),
    ("pipeline.epoch_self_ns", "ns"),
    ("pipeline.gold_ns_per_silver_row", "ns"),
    ("pipeline.w1_obs_per_s", "1/s"),
    ("storage.encode_ns_per_row", "ns"),
    ("storage.encode_mb_per_s", "MB/s"),
    ("storage.compress_ratio", "ratio"),
    ("storage.ocean_put_ns_per_mb", "ns/MB"),
    ("storage.lake_insert_ns_per_point", "ns"),
    ("storage.tier_ns_per_epoch", "ns"),
    ("storage.bytes_copied", "B"),
    ("storage.buffers_shared", "count"),
    ("storage.open_ns", "ns"),
    ("storage.decode_ns_per_chunk", "ns"),
    ("storage.lake_plan_ns_per_point", "ns"),
    ("planner.optimize_ns", "ns"),
    ("planner.point.chunks_read", "count"),
    ("planner.point.chunks_pruned", "count"),
    ("planner.point.index_hits", "count"),
    ("planner.point.rows_scanned_per_row_out", "ratio"),
    ("planner.range.chunks_read", "count"),
    ("planner.range.chunks_pruned", "count"),
    ("planner.range.index_hits", "count"),
    ("planner.range.rows_scanned_per_row_out", "ratio"),
    ("planner.agg.chunks_read", "count"),
    ("planner.agg.chunks_pruned", "count"),
    ("planner.agg.index_hits", "count"),
    ("planner.agg.rows_scanned_per_row_out", "ratio"),
    ("pipeline.groupby_ns_per_row", "ns"),
    ("pipeline.pivot_ns_per_row", "ns"),
    ("analytics.lva_scan_ns", "ns"),
    ("analytics.rats_compile_ns", "ns"),
    ("analytics.dashboard_compile_ns", "ns"),
    ("obs.render_ns", "ns"),
    ("obs.render_bytes", "B"),
    ("obs.snapshot_ns", "ns"),
    ("obs.health_observe_ns", "ns"),
    ("serve.route_ns", "ns"),
    ("serve.http_overhead_ns", "ns"),
    ("serve.scrape_p99_ms", "ms"),
    ("serve.shed_503", "count"),
    ("live.generator_lateness_p95_ms", "ms"),
    ("live.backlog_records_end", "count"),
    ("live.offered_obs_per_s", "1/s"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.bench_self_pct", "%"),
    ("trace.idle_pct", "%"),
];

/// Set-up is repeated and its median reported, so that a single slow
/// allocation or page-in does not decide whether set-up "got slower".
const SETUPS: usize = 3;
/// A timed section is never shorter than this many passes.
const MIN_PASSES: usize = 3;

type Values = BTreeMap<&'static str, f64>;

/// The metrics of `table`, in its order; a metric the workload did not
/// set reads `missing`.
fn metrics_from(
    table: &[(&'static str, &'static str)],
    values: &Values,
    missing: f64,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(missing),
        })
        .collect()
}

/// The untraced share of a run: all of it, or the first half when a
/// traced pass follows.
fn untraced_seconds(cfg: &RunConfig) -> f64 {
    if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    }
}

/// The seven end-to-end metrics, from what each workload binds them to.
fn end_to_end_values(
    setup_s: &[f64],
    throughput_per_s: f64,
    latency_ms: &[f64],
    stored_bytes_per_obs: f64,
    cpu_us_per_unit: f64,
) -> Values {
    Values::from([
        ("setup_s", median(setup_s)),
        ("throughput_per_s", throughput_per_s),
        ("latency_p50_ms", median(latency_ms)),
        ("latency_p95_ms", percentile(latency_ms, 95.0)),
        ("stored_bytes_per_obs", stored_bytes_per_obs),
        ("cpu_us_per_unit", cpu_us_per_unit),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Build the inputs `SETUPS` times, keep the last, report each time.
fn repeated_setup<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// Run `pass` until `seconds` have been measured and at least
/// `MIN_PASSES` passes made.
fn timed_passes<P>(
    seconds: f64,
    mut pass: impl FnMut(usize) -> Result<P, String>,
) -> Result<Vec<P>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(pass(passes.len())?);
    }
    Ok(passes)
}

fn self_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.self_ns as f64)
}

fn total_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

/// Mean duration of the spans called `name`.
fn mean_ns(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| per(t.total_ns as f64, t.count as f64))
}

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Pass id of the traced pass; layer probes that follow it use 1.
const TRACED_PASS: u32 = 0;

/// The ledger of a traced pass: per-name totals into the report, the
/// Chrome trace onto disk, and the validity numbers — how much of the
/// pass's busy time the layer spans explain, and what is left to the
/// harness or to waiting. `overhead_pct` is the traced pass against the
/// untraced median, in whatever the workload's passes are limited by.
fn ledger(
    cfg: &RunConfig,
    spans: &[SpanRec],
    overhead_pct: f64,
    values: &mut Values,
    detail: &mut Detail,
) -> BTreeMap<&'static str, NameTotal> {
    let totals = trace::totals(spans, TRACED_PASS);
    detail.layer_table(&totals);
    write_trace_file(&cfg.workload, spans, detail);
    values.insert("trace.overhead_pct", overhead_pct);
    let selfs = trace::self_times(spans);
    let root = spans
        .iter()
        .position(|s| s.pass == TRACED_PASS && s.name == "bench.pass");
    let Some(root) = root else {
        detail.note("finding: the traced pass recorded no bench.pass span".into());
        return totals;
    };
    let wall = (spans[root].end_ns - spans[root].start_ns) as f64;
    let under_root = |mut i: usize| loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut bench = 0.0;
    let mut idle = 0.0;
    let mut count = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.pass != TRACED_PASS {
            continue;
        }
        count += 1;
        if !under_root(i) {
            continue;
        }
        if s.name == "bench.idle" {
            idle += selfs[i] as f64;
        } else if layer_of(s.name) == "bench" {
            bench += selfs[i] as f64;
        }
    }
    let busy = wall - idle;
    let coverage = 100.0 * per(busy - bench, busy);
    values.insert("trace.coverage_pct", coverage);
    values.insert("trace.bench_self_pct", 100.0 * per(bench, busy));
    values.insert("trace.idle_pct", 100.0 * per(idle, wall));
    values.insert("trace.spans", count as f64);
    if coverage < 90.0 {
        detail.note(format!(
            "finding: layer spans explain {coverage:.1} % of the traced pass; {:.1} ms is harness glue",
            bench / 1e6
        ));
    }
    totals
}

// ---------------------------------------------------------------------
// ingest_steady / ingest_disorder
// ---------------------------------------------------------------------

fn ingest_layer_values(
    inputs: &Inputs,
    pass: &ingest::Pass,
    totals: &BTreeMap<&'static str, NameTotal>,
    buffers: (u64, u64),
    values: &mut Values,
) {
    let obs = inputs.observations as f64;
    let epochs = pass.sums.epochs as f64;
    let encode_ns = self_ns(totals, "storage.encode");
    values.insert(
        "core.publish_ns_per_obs",
        per(total_ns(totals, "core.publish"), obs),
    );
    let produced = totals.get("stream.produce").map_or(0.0, |t| t.count as f64);
    let produce_ns = total_ns(totals, "stream.produce");
    values.insert("stream.produce_ns_per_record", per(produce_ns, produced));
    if produced > 0.0 {
        values.insert(
            "stream.produce_mb_per_s",
            per(pass.produced_bytes as f64 / 1e6, produce_ns / 1e9),
        );
    }
    values.insert(
        "stream.fetch_ns_per_record",
        per(pass.sums.fetch_ns as f64, pass.sums.records as f64),
    );
    values.insert("stream.partition_skew", pass.partition_skew);
    values.insert(
        "pipeline.decode_ns_per_obs",
        per(self_ns(totals, "pipeline.decode"), pass.decoded_rows as f64),
    );
    values.insert(
        "pipeline.filter_ns_per_row",
        per(self_ns(totals, "pipeline.filter"), pass.decoded_rows as f64),
    );
    values.insert(
        "pipeline.filter_selectivity",
        per(pass.filter_rows_out as f64, pass.decoded_rows as f64),
    );
    values.insert(
        "pipeline.transform_ns_per_row",
        per(
            self_ns(totals, "pipeline.transform"),
            pass.filter_rows_out as f64,
        ),
    );
    values.insert("pipeline.silver_rows_out", pass.transform_rows_out as f64);
    values.insert(
        "pipeline.late_silver_rows",
        pass.late_silver_rows.unwrap_or(0) as f64,
    );
    values.insert("pipeline.state_keys", pass.sums.state_keys_max as f64);
    values.insert(
        "pipeline.checkpoint_ns_per_epoch",
        per(pass.sums.checkpoint_ns as f64, epochs),
    );
    values.insert(
        "pipeline.checkpoint_bytes",
        pass.sums.checkpoint_bytes as f64,
    );
    values.insert(
        "pipeline.epoch_self_ns",
        per(self_ns(totals, "pipeline.epoch"), epochs),
    );
    values.insert(
        "pipeline.gold_ns_per_silver_row",
        per(
            total_ns(totals, "pipeline.gold"),
            pass.sink.silver_rows as f64,
        ),
    );
    let stored_rows = (pass.sink.silver_rows + pass.sink.gold_rows) as f64;
    values.insert("storage.encode_ns_per_row", per(encode_ns, stored_rows));
    values.insert(
        "storage.encode_mb_per_s",
        per(pass.sink.raw_bytes as f64 / 1e6, encode_ns / 1e9),
    );
    values.insert(
        "storage.compress_ratio",
        per(pass.sink.raw_bytes as f64, pass.sink.encoded_bytes as f64),
    );
    values.insert(
        "storage.ocean_put_ns_per_mb",
        per(
            self_ns(totals, "storage.ocean_put"),
            pass.sink.encoded_bytes as f64 / 1e6,
        ),
    );
    values.insert(
        "storage.lake_insert_ns_per_point",
        per(
            self_ns(totals, "storage.lake_insert"),
            pass.sink.lake_points as f64,
        ),
    );
    values.insert(
        "storage.tier_ns_per_epoch",
        per(self_ns(totals, "storage.tier"), epochs),
    );
    values.insert("storage.bytes_copied", buffers.0 as f64);
    values.insert("storage.buffers_shared", buffers.1 as f64);
}

fn buffer_delta(before: (u64, u64)) -> (u64, u64) {
    let after = oda_storage::buffer_stats();
    (after.0 - before.0, after.1 - before.1)
}

/// Write the spans as Chrome `trace_event` JSON under `target/odabench/`
/// of the working directory and name the file in the report.
fn write_trace_file(workload: &str, spans: &[SpanRec], detail: &mut Detail) {
    let dir = std::path::Path::new("target").join("odabench");
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
    match written {
        Ok(()) => detail.text("chrome_trace", &path.display().to_string()),
        Err(e) => detail.note(format!("chrome trace not written: {e}")),
    }
}

fn ingest_workload(cfg: &RunConfig, shape: ingest::Shape) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let (inputs, setup_s) = repeated_setup(|| {
        let inputs = Inputs::generate(cfg.seed, shape.clone());
        ingest::warm_up(&inputs)?;
        Ok(inputs)
    })?;
    let obs = inputs.observations as f64;

    // The timed section: identical passes on fresh systems, spans off.
    let cpu0 = cpu_seconds();
    let passes = timed_passes(untraced_seconds(cfg), |i| {
        ingest::run_pass(&inputs, 2, None, i == 0, &mut tally)
    })?;
    let cpu_s = cpu_seconds() - cpu0;
    let first = &passes[0].stored;
    for (i, p) in passes.iter().enumerate().skip(1) {
        tally.check(p.stored == *first, || {
            format!("pass {i} stored different Silver/Gold bytes than pass 0")
        });
    }
    // The same job single-threaded: the baseline, and the proof that the
    // worker count is invisible in what is stored.
    let w1 = ingest::run_pass(&inputs, 1, None, false, &mut tally)?;
    tally.check(w1.stored == *first, || {
        "workers = 1 stored different Silver/Gold bytes than workers = 2".into()
    });

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let rates: Vec<f64> = walls.iter().map(|w| obs / w).collect();
    let chunk_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.chunk_ms.iter().copied())
        .collect();
    let stored_per_obs = first.bytes as f64 / obs;
    let tb_per_day = median(&rates) * OBS_RAW_BYTES as f64 * 86_400.0 / 1e12;
    let mut detail = Detail::new(cfg, passes.len());
    detail.samples("throughput_per_s", "1/s", &rates);
    detail.samples("latency_ms", "ms", &chunk_ms);
    detail.samples("setup_s", "s", &setup_s);
    detail.number("observations_per_pass", obs);
    detail.number("tb_per_day_equiv", tb_per_day);
    detail.text("paper_tb_per_day", "4.2-4.5");
    detail.number("w1_obs_per_s", obs / w1.wall_s);

    let values = if cfg.trace {
        let mut values = Values::from([
            ("ingest.obs_per_s", median(&rates)),
            ("ingest.tb_per_day_equiv", tb_per_day),
            ("ingest.stored_bytes_per_obs", stored_per_obs),
            ("ingest.chunk_p50_ms", median(&chunk_ms)),
            ("ingest.chunk_p95_ms", percentile(&chunk_ms, 95.0)),
            ("pipeline.w1_obs_per_s", obs / w1.wall_s),
        ]);
        let tracer = Tracer::new();
        let buffers0 = oda_storage::buffer_stats();
        let traced = ingest::run_pass(&inputs, 2, Some(Arc::clone(&tracer)), true, &mut tally)?;
        let buffers = buffer_delta(buffers0);
        tally.check(traced.stored == *first, || {
            "the traced pass stored different bytes than the untraced ones".into()
        });
        let overhead = 100.0 * (per(traced.wall_s, median(&walls)) - 1.0);
        let totals = ledger(cfg, &tracer.spans(), overhead, &mut values, &mut detail);
        ingest_layer_values(&inputs, &traced, &totals, buffers, &mut values);
        values
    } else {
        end_to_end_values(
            &setup_s,
            median(&rates),
            &chunk_ms,
            stored_per_obs,
            cpu_s * 1e6 / (obs * passes.len() as f64),
        )
    };
    finish(cfg, tally, values, detail)
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

/// One rotation's latencies, ms.
struct Rotation {
    wall_ms: f64,
    per_op: Vec<(query::Op, f64)>,
}

fn run_rotation(
    dataset: &Dataset,
    rotation: &[query::Op],
    tracer: &Option<Arc<Tracer>>,
    stats: &mut BTreeMap<Class, oda_pipeline::ExecStats>,
    tally: &mut Tally,
) -> Result<Rotation, String> {
    let _pass = trace::span(tracer, "bench.pass");
    let mut per_op = Vec::with_capacity(rotation.len());
    let mut wall_ms = 0.0;
    for &op in rotation {
        tally.attempted += 1;
        let t = Instant::now();
        let answer = dataset.answer(op, true, tracer);
        let took = t.elapsed().as_secs_f64() * 1e3;
        let answer = match answer {
            Ok(a) => a,
            Err(e) => {
                tally.fail(format!("{}: {e}", op.class.label()));
                return Err(e);
            }
        };
        // Checked outside the op's own time.
        let _check = trace::span(tracer, "bench.check");
        if !dataset.is_expected(op, &answer) {
            tally.fail(format!(
                "{} #{} differs from the naive full-scan execution",
                op.class.label(),
                op.variant
            ));
        }
        stats.insert(op.class, answer.stats);
        wall_ms += took;
        per_op.push((op, took));
    }
    Ok(Rotation { wall_ms, per_op })
}

/// `ExecStats` of the last query of a class, under the table's names.
const PLANNER: [(Class, [&str; 4]); 3] = [
    (
        Class::Point,
        [
            "planner.point.chunks_read",
            "planner.point.chunks_pruned",
            "planner.point.index_hits",
            "planner.point.rows_scanned_per_row_out",
        ],
    ),
    (
        Class::Range,
        [
            "planner.range.chunks_read",
            "planner.range.chunks_pruned",
            "planner.range.index_hits",
            "planner.range.rows_scanned_per_row_out",
        ],
    ),
    (
        Class::Agg,
        [
            "planner.agg.chunks_read",
            "planner.agg.chunks_pruned",
            "planner.agg.index_hits",
            "planner.agg.rows_scanned_per_row_out",
        ],
    ),
];

fn query_layer_values(
    totals: &BTreeMap<&'static str, NameTotal>,
    stats: &BTreeMap<Class, oda_pipeline::ExecStats>,
    values: &mut Values,
) {
    for (class, names) in PLANNER {
        let Some(s) = stats.get(&class) else { continue };
        values.insert(names[0], s.chunks_read as f64);
        values.insert(names[1], s.chunks_pruned as f64);
        values.insert(names[2], s.index_hits as f64);
        values.insert(names[3], per(s.rows_scanned as f64, s.rows_out as f64));
    }
    for (metric, span) in [
        ("planner.optimize_ns", "planner.optimize"),
        ("storage.open_ns", "storage.open"),
        ("analytics.lva_scan_ns", "analytics.lva_scan"),
        ("analytics.rats_compile_ns", "analytics.rats_compile"),
        (
            "analytics.dashboard_compile_ns",
            "analytics.dashboard_compile",
        ),
    ] {
        values.insert(metric, mean_ns(totals, span));
    }
    // A range query's LAKE read returns two 30 s buckets.
    values.insert(
        "storage.lake_plan_ns_per_point",
        mean_ns(totals, "storage.lake_plan") / 2.0,
    );
}

/// Layer probes outside the rotation, on the traced run only: the
/// aggregate plan's timed prefixes, and a plain decode of one part.
fn query_probes(
    dataset: &Dataset,
    tracer: &Arc<Tracer>,
    values: &mut Values,
) -> Result<(), String> {
    tracer.set_pass(TRACED_PASS + 1);
    let tracer = Some(Arc::clone(tracer));
    let mut prefix_ns = [0.0f64; 3];
    for (stages, slot) in prefix_ns.iter_mut().enumerate() {
        let _g = trace::span(&tracer, "bench.probe");
        let t = Instant::now();
        std::hint::black_box(
            dataset
                .agg_query(stages + 1)
                .execute()
                .map_err(crate::text)?,
        );
        *slot = t.elapsed().as_nanos() as f64;
    }
    let rows = dataset.agg_rows() as f64;
    values.insert(
        "pipeline.groupby_ns_per_row",
        per(prefix_ns[1] - prefix_ns[0], rows),
    );
    values.insert(
        "pipeline.pivot_ns_per_row",
        per(prefix_ns[2] - prefix_ns[1], rows),
    );
    let t = Instant::now();
    let chunks = {
        let _g = trace::span(&tracer, "storage.decode");
        dataset.decode_part()?
    };
    values.insert(
        "storage.decode_ns_per_chunk",
        per(t.elapsed().as_nanos() as f64, chunks as f64),
    );
    Ok(())
}

fn query_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let mut stats = BTreeMap::new();
    let (dataset, setup_s) = repeated_setup(|| {
        let dataset = Dataset::build(cfg.seed, query::Shape::standard(cfg.smoke))?;
        // Warm-up: one rotation, so lazy set-up and caches are paid for
        // before the clock starts.
        run_rotation(
            &dataset,
            &dataset.rotation(),
            &None,
            &mut stats,
            &mut Tally::default(),
        )?;
        Ok(dataset)
    })?;
    let rotation = dataset.rotation();

    let cpu0 = cpu_seconds();
    let rotations = timed_passes(untraced_seconds(cfg), |_| {
        run_rotation(&dataset, &rotation, &None, &mut stats, &mut tally)
    })?;
    let cpu_s = cpu_seconds() - cpu0;

    let queries = (rotations.len() * rotation.len()) as f64;
    let rotation_ms: Vec<f64> = rotations.iter().map(|r| r.wall_ms).collect();
    let busy_s = rotation_ms.iter().sum::<f64>() / 1e3;
    let all_ms: Vec<f64> = rotations
        .iter()
        .flat_map(|r| r.per_op.iter().map(|&(_, ms)| ms))
        .collect();
    let class_ms = |class: Class| -> Vec<f64> {
        rotations
            .iter()
            .flat_map(|r| r.per_op.iter())
            .filter(|(op, _)| op.class == class)
            .map(|&(_, ms)| ms)
            .collect()
    };
    let mut detail = Detail::new(cfg, rotations.len());
    detail.samples("rotation_ms", "ms", &rotation_ms);
    detail.samples("query_ms", "ms", &all_ms);
    detail.samples("setup_s", "s", &setup_s);
    detail.number("queries_per_rotation", rotation.len() as f64);
    detail.number("dataset_silver_rows", dataset.silver_rows as f64);
    for class in Class::ALL {
        detail.samples(class.label(), "ms", &class_ms(class));
    }

    let values = if cfg.trace {
        let mut values = Values::from([
            ("query.ops_per_s", queries / busy_s),
            ("query.point_p50_ms", median(&class_ms(Class::Point))),
            ("query.range_p50_ms", median(&class_ms(Class::Range))),
            ("query.agg_p50_ms", median(&class_ms(Class::Agg))),
            ("query.lva_p50_ms", median(&class_ms(Class::Lva))),
            ("query.rats_p50_ms", median(&class_ms(Class::Rats))),
            (
                "query.dashboard_p50_ms",
                median(&class_ms(Class::Dashboard)),
            ),
            ("query.p95_ms", percentile(&all_ms, 95.0)),
        ]);
        let tracer = Tracer::new();
        let buffers0 = oda_storage::buffer_stats();
        let traced = run_rotation(
            &dataset,
            &rotation,
            &Some(Arc::clone(&tracer)),
            &mut stats,
            &mut tally,
        )?;
        let buffers = buffer_delta(buffers0);
        values.insert("storage.bytes_copied", buffers.0 as f64);
        values.insert("storage.buffers_shared", buffers.1 as f64);
        query_probes(&dataset, &tracer, &mut values)?;
        // Query time against query time: the answer checks sit outside
        // both the traced and the untraced figure.
        let overhead = 100.0 * (per(traced.wall_ms, median(&rotation_ms)) - 1.0);
        let totals = ledger(cfg, &tracer.spans(), overhead, &mut values, &mut detail);
        query_layer_values(&totals, &stats, &mut values);
        values
    } else {
        end_to_end_values(
            &setup_s,
            queries / busy_s,
            &all_ms,
            dataset.stored_bytes as f64 / dataset.observations as f64,
            cpu_s * 1e6 / queries,
        )
    };
    finish(cfg, tally, values, detail)
}

// ---------------------------------------------------------------------
// live_ops
// ---------------------------------------------------------------------

fn live_workload(cfg: &RunConfig) -> Result<RunOutput, String> {
    let mut tally = Tally::default();
    let (inputs, setup_s) = repeated_setup(|| {
        let inputs = Inputs::generate(cfg.seed, live::shape(cfg.smoke));
        ingest::warm_up(&inputs)?;
        Ok(inputs)
    })?;

    let cpu0 = cpu_seconds();
    let passes = timed_passes(untraced_seconds(cfg), |_| {
        live::run_pass(&inputs, None, &mut tally)
    })?;
    let cpu_s = cpu_seconds() - cpu0;

    let pooled = |f: fn(&live::Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let freshness = pooled(|p| &p.freshness_ms);
    let scrapes = pooled(|p| &p.client.scrape_ms);
    let queries = pooled(|p| &p.client.query_ms);
    let mut lateness = pooled(|p| &p.tick_lateness_ms);
    lateness.extend(pooled(|p| &p.client.lateness_ms));
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.observations as f64 / p.wall_s)
        .collect();
    let observations: usize = passes.iter().map(|p| p.observations).sum();
    let stored: u64 = passes.iter().map(|p| p.stored_bytes).sum();
    let backlog = passes.iter().map(|p| p.backlog_end).max().unwrap_or(0);
    let shed: u64 = passes.iter().map(|p| p.client.shed_503).sum();
    // A backlog left at the end of a pass means the fixed rate was not
    // sustained and every latency above is a lower bound.
    tally.check(backlog == 0, || {
        format!("{backlog} records were still unread when a pass ended")
    });

    let mut detail = Detail::new(cfg, passes.len());
    detail.samples("freshness_ms", "ms", &freshness);
    detail.samples("scrape_ms", "ms", &scrapes);
    detail.samples("query_ms", "ms", &queries);
    detail.samples("generator_lateness_ms", "ms", &lateness);
    detail.samples("throughput_per_s", "1/s", &rates);
    detail.samples("setup_s", "s", &setup_s);
    detail.number("ticks_per_s", live::TICKS_PER_S);
    detail.number("requests_per_s", live::REQUESTS_PER_S);
    detail.number("backlog_records_end", backlog as f64);

    let stored_per_obs = stored as f64 / observations as f64;
    let values = if cfg.trace {
        let mut values = Values::from([
            ("live.freshness_p50_ms", median(&freshness)),
            ("live.freshness_p95_ms", percentile(&freshness, 95.0)),
            ("live.scrape_p50_ms", median(&scrapes)),
            ("live.scrape_p95_ms", percentile(&scrapes, 95.0)),
            ("serve.scrape_p99_ms", percentile(&scrapes, 99.0)),
            ("live.query_p50_ms", median(&queries)),
            ("serve.shed_503", shed as f64),
            (
                "live.generator_lateness_p95_ms",
                percentile(&lateness, 95.0),
            ),
            ("live.backlog_records_end", backlog as f64),
            ("live.offered_obs_per_s", median(&rates)),
            ("ingest.stored_bytes_per_obs", stored_per_obs),
        ]);
        let tracer = Tracer::new();
        let traced = live::run_pass(&inputs, Some(Arc::clone(&tracer)), &mut tally)?;
        // An open-loop pass lasts as long as its schedule whatever the
        // spans cost; the overhead shows in the CPU it burns instead.
        let untraced_cpu = cpu_s / passes.len() as f64;
        let overhead = 100.0 * (per(traced.cpu_s, untraced_cpu) - 1.0);
        let totals = ledger(cfg, &tracer.spans(), overhead, &mut values, &mut detail);
        let epochs = traced.epochs as f64;
        values.extend([
            (
                "obs.health_observe_ns",
                mean_ns(&totals, "obs.health_observe"),
            ),
            ("obs.render_ns", median(&traced.client.render_ns)),
            ("obs.render_bytes", traced.client.render_bytes as f64),
            ("obs.snapshot_ns", median(&traced.client.snapshot_ns)),
            ("serve.route_ns", median(&traced.client.route_ns)),
            (
                "serve.http_overhead_ns",
                (median(&traced.client.scrape_ms) * 1e6 - median(&traced.client.route_ns)).max(0.0),
            ),
            (
                "analytics.dashboard_compile_ns",
                mean_ns(&totals, "analytics.dashboard_compile"),
            ),
            (
                "core.publish_ns_per_obs",
                per(
                    total_ns(&totals, "core.publish"),
                    traced.observations as f64,
                ),
            ),
            (
                "pipeline.epoch_self_ns",
                per(self_ns(&totals, "pipeline.epoch"), epochs),
            ),
            (
                "pipeline.checkpoint_ns_per_epoch",
                per(total_ns(&totals, "pipeline.checkpoint"), epochs),
            ),
        ]);
        values
    } else {
        end_to_end_values(
            &setup_s,
            median(&rates),
            &freshness,
            stored_per_obs,
            cpu_s * 1e6 / observations as f64,
        )
    };
    finish(cfg, tally, values, detail)
}

fn finish(
    cfg: &RunConfig,
    tally: Tally,
    values: Values,
    mut detail: Detail,
) -> Result<RunOutput, String> {
    let metrics = if cfg.trace {
        metrics_from(&PER_LAYER, &values, 0.0)
    } else {
        metrics_from(&END_TO_END, &values, f64::NAN)
    };
    for note in &tally.notes {
        detail.note(format!("failed: {note}"));
    }
    detail.number(
        "error_ratio",
        per(tally.failed as f64, tally.attempted as f64),
    );
    Ok(RunOutput {
        tally,
        metrics,
        detail: detail.into_value(),
    })
}

/// Run one workload as `cfg` describes.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    match cfg.workload.as_str() {
        "ingest_steady" => ingest_workload(cfg, ingest::Shape::steady(cfg.smoke)),
        "ingest_disorder" => ingest_workload(cfg, ingest::Shape::disorder(cfg.smoke)),
        "query_mix" => query_workload(cfg),
        "live_ops" => live_workload(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
