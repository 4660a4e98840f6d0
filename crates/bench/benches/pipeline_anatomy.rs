//! Experiment F4b (paper Fig. 4-b): the anatomy of an ODA pipeline.
//!
//! Times each SQL clause of the Bronze→Silver plan separately on the
//! same 1M-row Bronze batch. The paper's claim to reproduce: the
//! GROUP BY (window) + PIVOT + JOIN block dominates cost — "a series of
//! group-by aggregations, pivots, and joins that necessitate
//! considerable I/O ... to achieve a more compact Silver stage" —
//! while WHERE/SELECT are comparatively free.

use criterion::{criterion_group, criterion_main, Criterion};
use oda_bench::{bronze_with_rows, job_fleet};
use oda_pipeline::expr::Expr;
use oda_pipeline::logical::Query;
use oda_pipeline::medallion::job_context_frame;
use oda_pipeline::ops::{group_by, pivot, Agg, AggSpec};
use oda_pipeline::window::assign_window;
use std::hint::black_box;

const ROWS: usize = 1_000_000;

fn bench_clauses(c: &mut Criterion) {
    let bronze = bronze_with_rows(11, ROWS);
    let jobs = job_fleet(50, 20, 8, 3_600_000);
    let ctx = job_context_frame(&jobs);

    // Pre-compute each stage's input so stages are timed in isolation.
    let mask = Expr::col("quality")
        .eq_(Expr::LitI(0))
        .and(Expr::col("value").is_nan().not())
        .eval_mask(&bronze)
        .unwrap();
    let filtered = bronze.filter_mask(&mask);
    let windowed = assign_window(&filtered, "ts_ms", 15_000).unwrap();
    let grouped = group_by(
        &windowed,
        &["window", "node", "sensor"],
        &[AggSpec::new("value", Agg::Mean, "value")],
    )
    .unwrap();
    let pivoted = pivot(&grouped, &["window", "node"], "sensor", "value", Agg::Mean).unwrap();

    let mut group = c.benchmark_group("f4b_clause");
    group.sample_size(10);
    group.bench_function("where", |b| {
        b.iter(|| {
            let mask = Expr::col("quality")
                .eq_(Expr::LitI(0))
                .and(Expr::col("value").is_nan().not())
                .eval_mask(&bronze)
                .unwrap();
            black_box(bronze.filter_mask(&mask))
        })
    });
    group.bench_function("window", |b| {
        b.iter(|| black_box(assign_window(&filtered, "ts_ms", 15_000).unwrap()))
    });
    group.bench_function("group_by", |b| {
        b.iter(|| {
            black_box(
                group_by(
                    &windowed,
                    &["window", "node", "sensor"],
                    &[AggSpec::new("value", Agg::Mean, "value")],
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("pivot", |b| {
        b.iter(|| {
            black_box(pivot(&grouped, &["window", "node"], "sensor", "value", Agg::Mean).unwrap())
        })
    });
    group.bench_function("join", |b| {
        b.iter(|| black_box(oda_pipeline::ops::join_inner(&pivoted, &ctx, &["node"]).unwrap()))
    });
    group.bench_function("select", |b| {
        b.iter(|| black_box(pivoted.select(&["window", "node", "node_power_w"]).unwrap()))
    });
    group.finish();

    // The composed query, with the per-clause report printed once.
    let query = |bronze: oda_pipeline::Frame| {
        Query::scan(bronze)
            .filter(
                Expr::col("quality")
                    .eq_(Expr::LitI(0))
                    .and(Expr::col("value").is_nan().not()),
            )
            .window("ts_ms", 15_000)
            .group_by(
                &["window", "node", "sensor"],
                &[AggSpec::new("value", Agg::Mean, "value")],
            )
            .pivot(&["window", "node"], "sensor", "value", Agg::Mean)
            .join(ctx.clone(), &["node"])
    };
    let (_, timings) = query(bronze.clone()).execute_timed().unwrap();
    println!("\n=== F4b: clause cost breakdown ({ROWS} bronze rows) ===");
    let total: f64 = timings.iter().map(|t| t.seconds).sum();
    for t in &timings {
        println!(
            "  {:<9} {:>9.1} ms ({:>4.1}%) -> {:>8} rows",
            t.stage,
            t.seconds * 1e3,
            t.seconds / total * 100.0,
            t.rows_out
        );
    }
    let heavy: f64 = timings
        .iter()
        .filter(|t| matches!(t.stage.as_str(), "GROUP BY" | "PIVOT" | "JOIN"))
        .map(|t| t.seconds)
        .sum();
    println!(
        "  group-by+pivot+join share: {:.1}% (paper: these dominate Bronze->Silver)\n",
        heavy / total * 100.0
    );

    let mut group = c.benchmark_group("f4b_full_plan");
    group.sample_size(10);
    group.bench_function("bronze_to_silver_1M", |b| {
        b.iter(|| black_box(query(bronze.clone()).execute().unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_clauses);
criterion_main!(benches);
