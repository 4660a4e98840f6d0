//! Experiment F5 (paper Fig. 5): tiered services and retention.
//!
//! Benchmarks the byte-level machinery behind the tier architecture —
//! columnar+compressed OCEAN writes vs naive row serialization, GLACIER
//! archive/recall, and the lifecycle manager at scale — and prints the
//! compression ratios that justify the tiering ("significant data
//! compression and minimal I/O footprint").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oda_bench::tiny_observations;
use oda_storage::colfile::{ColumnData, ColumnType, TableFile, TableSchema};
use oda_storage::tiering::{DataClass, Tier, TierManager};
use oda_storage::Glacier;
use std::hint::black_box;

fn columns_of(obs: &[oda_telemetry::record::Observation]) -> Vec<ColumnData> {
    vec![
        ColumnData::I64(obs.iter().map(|o| o.ts_ms).collect()),
        ColumnData::I64(obs.iter().map(|o| i64::from(o.component.node)).collect()),
        ColumnData::I64(obs.iter().map(|o| i64::from(o.sensor)).collect()),
        ColumnData::F64(obs.iter().map(|o| o.value).collect()),
    ]
}

fn schema() -> TableSchema {
    TableSchema::new(&[
        ("ts_ms", ColumnType::I64),
        ("node", ColumnType::I64),
        ("sensor", ColumnType::I64),
        ("value", ColumnType::F64),
    ])
}

fn bench_formats(c: &mut Criterion) {
    let (_, obs) = tiny_observations(31, 2_000);
    let cols = columns_of(&obs);
    let rows = obs.len();

    // Print the ratio table once.
    let mut w = TableFile::writer(schema());
    w.write_row_group(&cols).unwrap();
    let colfile_bytes = w.finish().len();
    let row_json: usize = obs
        .iter()
        .map(|o| {
            format!(
                "{{\"ts\":{},\"node\":{},\"sensor\":{},\"value\":{}}}",
                o.ts_ms, o.component.node, o.sensor, o.value
            )
            .len()
        })
        .sum();
    let wire = oda_telemetry::record::Observation::encode_batch(&obs).len();
    println!("\n=== F5: storage formats for {rows} observations ===");
    println!("  row JSON        {:>10} bytes (1.0x)", row_json);
    println!(
        "  binary wire     {:>10} bytes ({:.1}x)",
        wire,
        row_json as f64 / wire as f64
    );
    println!(
        "  OCEAN colfile   {:>10} bytes ({:.1}x)\n",
        colfile_bytes,
        row_json as f64 / colfile_bytes as f64
    );

    let mut group = c.benchmark_group("f5_format");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("colfile_write", |b| {
        b.iter(|| {
            let mut w = TableFile::writer(schema());
            w.write_row_group(&cols).unwrap();
            black_box(w.finish().len())
        })
    });
    group.bench_function("row_json_write", |b| {
        b.iter(|| {
            let total: usize = obs
                .iter()
                .map(|o| {
                    format!(
                        "{{\"ts\":{},\"node\":{},\"sensor\":{},\"value\":{}}}",
                        o.ts_ms, o.component.node, o.sensor, o.value
                    )
                    .len()
                })
                .sum();
            black_box(total)
        })
    });
    let mut w = TableFile::writer(schema());
    w.write_row_group(&cols).unwrap();
    let bytes = w.finish();
    group.bench_function("colfile_read", |b| {
        b.iter(|| {
            let f = TableFile::open(bytes.clone()).unwrap();
            black_box(f.read_row_group(0).unwrap())
        })
    });
    group.finish();
}

fn bench_glacier(c: &mut Criterion) {
    let (_, obs) = tiny_observations(33, 2_000);
    let wire = oda_telemetry::record::Observation::encode_batch(&obs);
    let mut group = c.benchmark_group("f5_glacier");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("archive", |b| {
        let mut i = 0u64;
        let glacier = Glacier::new();
        b.iter(|| {
            i += 1;
            glacier.archive(&format!("a{i}"), &wire).unwrap();
        })
    });
    let glacier = Glacier::new();
    glacier.archive("x", &wire).unwrap();
    group.bench_function("recall", |b| {
        b.iter(|| black_box(glacier.recall("x").unwrap().0.len()))
    });
    group.finish();
}

fn bench_lifecycle(c: &mut Criterion) {
    const DAY: i64 = 86_400_000;
    let mut group = c.benchmark_group("f5_lifecycle");
    group.bench_function("advance_10k_artifacts", |b| {
        b.iter_batched(
            || {
                let mut mgr = TierManager::new();
                for i in 0..10_000i64 {
                    let class = DataClass::ALL[(i % 3) as usize];
                    let tier = Tier::ALL[(i % 3) as usize]; // hot tiers only
                    mgr.register(&format!("a{i}"), class, tier, 1_000_000, i % 40 * DAY);
                }
                mgr
            },
            |mut mgr| black_box(mgr.advance(45 * DAY).len()),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_formats, bench_glacier, bench_lifecycle);
criterion_main!(benches);
