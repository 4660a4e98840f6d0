//! Data-exploration campaigns (§VI).
//!
//! "We initiate 'data exploration campaigns' focused on breaking new
//! ground into a set of datasets related to an operational topic" —
//! first build the data dictionary, then stand up the upstream
//! Bronze→Silver pipeline, then promote the stream's maturity so
//! downstream areas can rely on it.

use crate::error::OdaError;
use crate::facility::Facility;
use crate::ingest::topics;
use oda_govern::dictionary::{DataDictionary, DictionaryEntry};
use oda_govern::maturity::{Area, Generation, Maturity, MaturityMatrix, StreamRow};
use oda_pipeline::checkpoint::CheckpointStore;
use oda_pipeline::medallion::{observation_decoder, streaming_silver_transform};
use oda_pipeline::streaming::{MemorySink, StreamingQuery};
use oda_stream::Consumer;
use oda_telemetry::sensors::DataSource;

/// Result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Stream explored.
    pub stream: StreamRow,
    /// Dictionary entries written.
    pub dictionary_entries: usize,
    /// Silver rows produced while validating the pipeline.
    pub silver_rows: usize,
    /// Maturity reached for the sponsoring area.
    pub reached: Maturity,
}

/// Map a Fig. 3 stream row to the sensor-catalog source family.
fn source_of(stream: StreamRow) -> Option<DataSource> {
    match stream {
        StreamRow::PerfCounters => Some(DataSource::PerfCounters),
        StreamRow::ResourceUtil => Some(DataSource::ResourceUtil),
        StreamRow::PowerTemp => Some(DataSource::PowerTemp),
        StreamRow::StorageClient => Some(DataSource::StorageClient),
        StreamRow::InterconnectClient => Some(DataSource::InterconnectClient),
        StreamRow::StorageSystem => Some(DataSource::StorageSystem),
        StreamRow::Interconnect => Some(DataSource::Interconnect),
        StreamRow::SyslogEvents => Some(DataSource::SyslogEvents),
        StreamRow::ResourceManager => Some(DataSource::ResourceManager),
        StreamRow::Facility => Some(DataSource::Facility),
        StreamRow::Crm => None,
    }
}

/// Run a campaign on `facility` system 0 for `stream`, sponsored by
/// `area`: dictionary → pipeline → promotion to L3.
pub fn run_campaign(
    facility: &mut Facility,
    stream: StreamRow,
    area: Area,
    dictionary: &mut DataDictionary,
    matrix: &mut MaturityMatrix,
) -> Result<CampaignReport, OdaError> {
    let system = facility.systems()[0].clone();
    let catalog = oda_telemetry::SensorCatalog::for_system(&system);

    // Phase 1 (§VI-A): the data dictionary, from the sensor catalog —
    // in production this is the costly vendor-interaction step.
    let mut entries = 0;
    if let Some(source) = source_of(stream) {
        for spec in catalog.by_source(source) {
            dictionary.upsert(
                stream,
                DictionaryEntry {
                    name: spec.name.clone(),
                    sample_rate: Some(format!("{} ms period", spec.period_ms)),
                    failure_rate: Some(format!("{:.2}% dropout", spec.dropout * 100.0)),
                    location: Some(format!("{:?}", spec.attachment)),
                    meaning: Some(format!("{:?} reading of {}", spec.kind, spec.name)),
                    vendor_reference: Some("synthetic catalog v1".into()),
                },
            );
            entries += 1;
        }
    }

    // Phase 2 (§VI-B): stand up the upstream Silver pipeline and verify
    // it produces refined rows from live data.
    facility.run(40);
    let (bronze, _, _) = topics(&system.name);
    let consumer = Consumer::subscribe(facility.broker(), "campaign", &bronze)?;
    let mut query = StreamingQuery::builder()
        .source(consumer)
        .decoder(observation_decoder(catalog))
        .transform(streaming_silver_transform(15_000, 0))
        .checkpoints(CheckpointStore::new())
        .build()?;
    let mut sink = MemorySink::new();
    query.run_to_completion(&mut sink)?;
    let silver_rows = sink.total_rows();

    // Phase 3: promote maturity for the sponsoring area, one gated step
    // at a time, up to L3 (pipeline developed).
    matrix.register(stream, area);
    let mut reached = matrix.get(stream, area).expect("registered").compass;
    while reached < Maturity::L3 {
        match matrix.promote(stream, area, Generation::Compass, dictionary) {
            Ok(next) => reached = next,
            Err(_) => break,
        }
    }
    Ok(CampaignReport {
        stream,
        dictionary_entries: entries,
        silver_rows,
        reached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FacilityConfig;

    #[test]
    fn campaign_reaches_l3_with_dictionary() {
        let mut facility = Facility::build(FacilityConfig::tiny(11));
        let mut dict = DataDictionary::new();
        let mut matrix = MaturityMatrix::new();
        let report = run_campaign(
            &mut facility,
            StreamRow::PowerTemp,
            Area::RnD,
            &mut dict,
            &mut matrix,
        )
        .unwrap();
        assert!(report.dictionary_entries >= 6, "power/temp catalog is rich");
        assert!(report.silver_rows > 0, "pipeline must produce silver");
        assert_eq!(report.reached, Maturity::L3);
        assert!(dict.is_complete(StreamRow::PowerTemp));
    }

    #[test]
    fn crm_campaign_stalls_without_dictionary() {
        // CRM has no sensor catalog — the dictionary stays empty and the
        // maturity gate holds the stream at L2.
        let mut facility = Facility::build(FacilityConfig::tiny(12));
        let mut dict = DataDictionary::new();
        let mut matrix = MaturityMatrix::new();
        let report = run_campaign(
            &mut facility,
            StreamRow::Crm,
            Area::UserAssist,
            &mut dict,
            &mut matrix,
        )
        .unwrap();
        assert_eq!(report.dictionary_entries, 0);
        assert_eq!(report.reached, Maturity::L2, "gate must hold at L2");
    }
}
