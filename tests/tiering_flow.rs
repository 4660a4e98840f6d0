//! Tier integration: real bytes through STREAM → OCEAN → GLACIER with
//! the Fig. 5 retention classes, plus twin validation against facility
//! telemetry.

use oda::core::config::FacilityConfig;
use oda::core::facility::Facility;
use oda::storage::colfile::{ColumnData, ColumnType, TableSchema};
use oda::storage::ocean::OceanDataset;
use oda::storage::tiering::{retention_ms, Tier};
use oda::storage::DataClass;
use oda::telemetry::record::Observation;
use oda::twin::replay::replay;

fn collect(seed: u64, ticks: usize) -> (Facility, Vec<Observation>) {
    let mut config = FacilityConfig::tiny(seed);
    config.tick_ms = 15_000;
    config.workload.duration_scale = 0.25;
    let mut facility = Facility::build(config);
    let mut all = Vec::new();
    for _ in 0..ticks {
        facility.tick();
    }
    // Re-consume bronze from the broker (transport exercised).
    let mut c =
        oda::stream::Consumer::subscribe(facility.broker(), "tiering", "tiny.bronze").unwrap();
    loop {
        let recs = c.poll(1_000).unwrap();
        if recs.is_empty() {
            break;
        }
        for r in recs {
            all.extend(Observation::decode_batch(&r.value).unwrap());
        }
    }
    (facility, all)
}

#[test]
fn bronze_to_ocean_to_glacier_roundtrip() {
    let (facility, observations) = collect(61, 240);
    assert!(!observations.is_empty());
    let wire = Observation::encode_batch(&observations);

    // Silver into OCEAN (columnar, compressed).
    let schema = TableSchema::new(&[
        ("ts_ms", ColumnType::I64),
        ("node", ColumnType::I64),
        ("sensor", ColumnType::I64),
        ("value", ColumnType::F64),
    ]);
    let ds = OceanDataset::create(facility.ocean(), "silver", "day-0", schema).unwrap();
    ds.append(&[
        ColumnData::I64(observations.iter().map(|o| o.ts_ms).collect()),
        ColumnData::I64(
            observations
                .iter()
                .map(|o| i64::from(o.component.node))
                .collect(),
        ),
        ColumnData::I64(observations.iter().map(|o| i64::from(o.sensor)).collect()),
        ColumnData::F64(observations.iter().map(|o| o.value).collect()),
    ])
    .unwrap();
    assert_eq!(ds.num_rows().unwrap(), observations.len());
    // Columnar + compression beats the wire format substantially.
    assert!(
        ds.byte_size() * 3 < wire.len(),
        "ocean {} vs wire {}",
        ds.byte_size(),
        wire.len()
    );
    // Range scan with pushdown returns plausible data.
    let hits = ds.scan_range("ts_ms", 0.0, 300_000.0).unwrap();
    assert!(!hits.is_empty());

    // Freeze raw into GLACIER; recall restores exactly.
    facility.glacier().archive("bronze-day-0", &wire).unwrap();
    let (restored, latency) = facility.glacier().recall("bronze-day-0").unwrap();
    assert_eq!(restored, wire);
    assert!(latency > 0.0);
    assert!(facility.glacier().stored_bytes() < wire.len());
}

#[test]
fn retention_classes_are_ordered_hot_to_cold() {
    // Every class lives strictly longer in colder tiers (Fig. 5's shape),
    // and refined data outlives raw in every hot tier.
    for class in DataClass::ALL {
        let stream = retention_ms(Tier::Stream, class).unwrap();
        let lake = retention_ms(Tier::Lake, class).unwrap();
        let ocean = retention_ms(Tier::Ocean, class).unwrap();
        assert!(stream <= lake && lake < ocean, "{class:?}");
        assert!(retention_ms(Tier::Glacier, class).is_none());
    }
    for tier in [Tier::Stream, Tier::Lake] {
        let bronze = retention_ms(tier, DataClass::Bronze).unwrap();
        let silver = retention_ms(tier, DataClass::Silver).unwrap();
        assert!(bronze <= silver, "{tier:?}: raw must not outlive refined");
    }
}

#[test]
fn twin_validates_against_facility_telemetry() {
    // Fig. 11 against the *facility's* measured substation series (noise
    // and dropout included), not a synthetic stand-in.
    let (facility, observations) = collect(67, 480);
    let system = facility.systems()[0].clone();
    let catalog = oda::telemetry::SensorCatalog::for_system(&system);
    let substation_id = catalog
        .sensor_id("substation_power_w")
        .expect("catalog defines substation power");
    let measured: Vec<(i64, f64)> = observations
        .iter()
        .filter(|o| o.sensor == substation_id && !o.value.is_nan())
        .map(|o| (o.ts_ms, o.value))
        .collect();
    assert!(measured.len() > 100, "need a substation series");
    let jobs = facility.jobs(0).to_vec();
    let report = replay(&system, &jobs, &measured);
    assert!(
        report.power_mape < 0.10,
        "twin MAPE {:.3} exceeds the 10% band (jobs: {})",
        report.power_mape,
        jobs.len()
    );
    assert!(report.power_correlation > 0.5 || jobs.is_empty());
}
