//! Fig. 5: tiered data services with class-specific retention.
//!
//! Runs real bytes through the tiers — Bronze observations into STREAM,
//! Silver frames into OCEAN's columnar datasets, raw days frozen into
//! GLACIER — and then fast-forwards 60 simulated days of lifecycle to
//! show the retention shape the paper draws: hot tiers hold days to
//! weeks, OCEAN holds compressed years, GLACIER holds everything.
//!
//! Run with: `cargo run --release --example tiered_day`

use oda::storage::colfile::{ColumnData, ColumnType, TableSchema};
use oda::storage::ocean::OceanDataset;
use oda::storage::tiering::{LifecycleAction, Tier, TierManager};
use oda::storage::{DataClass, Glacier, Ocean};
use oda::telemetry::record::Observation;
use oda::telemetry::{SystemModel, TelemetryGenerator};

const DAY_MS: i64 = 86_400_000;

fn main() {
    // Generate one "day" of raw telemetry (compressed to 10 simulated
    // minutes so the example stays fast; rates scale linearly).
    let mut generator = TelemetryGenerator::new(SystemModel::tiny(), 5);
    let mut bronze_bytes = 0u64;
    let mut all_obs = Vec::new();
    for _ in 0..600 {
        let batch = generator.next_batch();
        bronze_bytes += Observation::encode_batch(&batch.observations).len() as u64;
        all_obs.extend(batch.observations);
    }
    println!(
        "bronze generated: {} observations, {:.2} MiB wire format",
        all_obs.len(),
        bronze_bytes as f64 / (1024.0 * 1024.0)
    );

    // Silver: columnar OCEAN dataset (real compression at work).
    let ocean = Ocean::new();
    let schema = TableSchema::new(&[
        ("ts_ms", ColumnType::I64),
        ("node", ColumnType::I64),
        ("sensor", ColumnType::Str),
        ("value", ColumnType::F64),
    ]);
    let catalog = generator.catalog();
    let ds = OceanDataset::create(ocean.clone(), "silver", "tiny-power", schema).expect("dataset");
    for chunk in all_obs.chunks(50_000) {
        let cols = vec![
            ColumnData::I64(chunk.iter().map(|o| o.ts_ms).collect()),
            ColumnData::I64(chunk.iter().map(|o| i64::from(o.component.node)).collect()),
            ColumnData::Str(
                chunk
                    .iter()
                    .map(|o| {
                        catalog
                            .get(o.sensor)
                            .map(|s| s.name.clone())
                            .unwrap_or_default()
                    })
                    .collect(),
            ),
            ColumnData::F64(chunk.iter().map(|o| o.value).collect()),
        ];
        ds.append(&cols).expect("append");
    }
    let ocean_bytes = ds.byte_size() as u64;
    println!(
        "OCEAN columnar dataset: {} parts, {:.2} MiB ({:.1}x smaller than bronze wire)",
        ds.parts().len(),
        ocean_bytes as f64 / (1024.0 * 1024.0),
        bronze_bytes as f64 / ocean_bytes as f64
    );

    // GLACIER: freeze the raw day.
    let glacier = Glacier::new();
    let raw_day = Observation::encode_batch(&all_obs);
    glacier
        .archive("bronze-day-000", &raw_day)
        .expect("archive");
    let (_, recall_latency) = glacier.recall("bronze-day-000").expect("recall");
    println!(
        "GLACIER: stored {:.2} MiB (from {:.2} MiB), recall latency {:.0} s\n",
        glacier.stored_bytes() as f64 / (1024.0 * 1024.0),
        glacier.original_bytes() as f64 / (1024.0 * 1024.0),
        recall_latency
    );

    // Lifecycle over 60 days: register a day's artifacts every day and
    // advance the manager; print the per-tier holdings curve.
    println!("=== 60-day lifecycle (bytes held per tier, GB) ===");
    println!(
        "{:>4} {:>10} {:>10} {:>10} {:>10}  actions",
        "day", "STREAM", "LAKE", "OCEAN", "GLACIER"
    );
    let mut mgr = TierManager::new();
    let day_bronze = 4_400_000_000_000u64 / 365; // facility-scale day, scaled down
    let day_silver = day_bronze / 12;
    let day_gold = day_silver / 50;
    for day in 0..60i64 {
        let now = day * DAY_MS;
        mgr.register(
            &format!("bronze-{day:03}"),
            DataClass::Bronze,
            Tier::Stream,
            day_bronze,
            now,
        );
        mgr.register(
            &format!("bronze-ocean-{day:03}"),
            DataClass::Bronze,
            Tier::Ocean,
            day_bronze / 3,
            now,
        );
        mgr.register(
            &format!("silver-{day:03}"),
            DataClass::Silver,
            Tier::Lake,
            day_silver,
            now,
        );
        mgr.register(
            &format!("silver-ocean-{day:03}"),
            DataClass::Silver,
            Tier::Ocean,
            day_silver,
            now,
        );
        mgr.register(
            &format!("gold-{day:03}"),
            DataClass::Gold,
            Tier::Ocean,
            day_gold,
            now,
        );
        let actions = mgr.advance(now);
        if day % 5 == 0 {
            let held = mgr.bytes_by_tier();
            let expired = actions
                .iter()
                .filter(|a| matches!(a, LifecycleAction::Expired { .. }))
                .count();
            let archived = actions
                .iter()
                .filter(|a| matches!(a, LifecycleAction::Archived { .. }))
                .count();
            println!(
                "{day:>4} {:>10.1} {:>10.1} {:>10.1} {:>10.1}  ({expired} expired, {archived} archived)",
                held[&Tier::Stream] as f64 / 1e9,
                held[&Tier::Lake] as f64 / 1e9,
                held[&Tier::Ocean] as f64 / 1e9,
                held[&Tier::Glacier] as f64 / 1e9,
            );
        }
    }
    let held = mgr.bytes_by_tier();
    println!(
        "\nshape check: STREAM plateaus at ~2 days of bronze ({:.1} GB),",
        held[&Tier::Stream] as f64 / 1e9
    );
    println!("OCEAN grows with refined data, GLACIER accumulates frozen bronze forever.");
}
