//! The data dictionary exploration campaigns build first (§VI-A).
//!
//! "These data exploration campaigns first focus on building a data
//! dictionary that has qualitative information about the dataset such
//! as sample rate, failure rates, logical and physical sensor location,
//! and their meaning." An entry is *complete* when every one of those
//! fields is filled — completeness gates maturity promotion to L3.

use crate::maturity::StreamRow;
use std::collections::BTreeMap;

/// One sensor's dictionary entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DictionaryEntry {
    /// Sensor/stream name.
    pub name: String,
    /// Sampling rate description ("1 Hz out-of-band").
    pub sample_rate: Option<String>,
    /// Observed loss/failure rate description.
    pub failure_rate: Option<String>,
    /// Logical and physical location ("node cold plate outlet").
    pub location: Option<String>,
    /// Meaning with respect to the underlying process.
    pub meaning: Option<String>,
    /// Authoritative vendor contact / document.
    pub vendor_reference: Option<String>,
}

impl DictionaryEntry {
    /// Complete when every qualitative field is present.
    pub fn is_complete(&self) -> bool {
        self.sample_rate.is_some()
            && self.failure_rate.is_some()
            && self.location.is_some()
            && self.meaning.is_some()
            && self.vendor_reference.is_some()
    }
}

/// Dictionary grouped by stream row.
#[derive(Debug, Clone, Default)]
pub struct DataDictionary {
    entries: BTreeMap<StreamRow, Vec<DictionaryEntry>>,
}

impl DataDictionary {
    /// Empty dictionary.
    pub fn new() -> DataDictionary {
        DataDictionary::default()
    }

    /// Add or replace an entry under a stream.
    pub fn upsert(&mut self, row: StreamRow, entry: DictionaryEntry) {
        let list = self.entries.entry(row).or_default();
        if let Some(existing) = list.iter_mut().find(|e| e.name == entry.name) {
            *existing = entry;
        } else {
            list.push(entry);
        }
    }

    /// Entries under a stream.
    pub fn entries(&self, row: StreamRow) -> &[DictionaryEntry] {
        self.entries.get(&row).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A stream is dictionary-complete when it has at least one entry
    /// and every entry is complete.
    pub fn is_complete(&self, row: StreamRow) -> bool {
        let entries = self.entries(row);
        !entries.is_empty() && entries.iter().all(DictionaryEntry::is_complete)
    }

    /// Convenience for tests/examples: mark a stream complete with one
    /// fully-filled synthetic entry.
    pub fn complete_stream(&mut self, row: StreamRow) {
        self.upsert(
            row,
            DictionaryEntry {
                name: format!("{}-primary", row.label()),
                sample_rate: Some("1 Hz".into()),
                failure_rate: Some("0.2% sample loss".into()),
                location: Some("per-node out-of-band".into()),
                meaning: Some("primary signal of the stream".into()),
                vendor_reference: Some("vendor doc rev A".into()),
            },
        );
    }

    /// Fraction of streams (of the 11 Fig. 3 rows) that are complete —
    /// the "data coverage" number.
    pub fn coverage(&self) -> f64 {
        let complete = StreamRow::ALL
            .iter()
            .filter(|&&r| self.is_complete(r))
            .count();
        complete as f64 / StreamRow::ALL.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_completeness_requires_all_fields() {
        let mut e = DictionaryEntry {
            name: "node_power_w".into(),
            ..Default::default()
        };
        assert!(!e.is_complete());
        e.sample_rate = Some("1 Hz".into());
        e.failure_rate = Some("0.2%".into());
        e.location = Some("node".into());
        e.meaning = Some("total node input power".into());
        assert!(!e.is_complete(), "vendor reference still missing");
        e.vendor_reference = Some("BMC spec 4.2".into());
        assert!(e.is_complete());
    }

    #[test]
    fn stream_completeness_needs_every_entry_complete() {
        let mut d = DataDictionary::new();
        assert!(
            !d.is_complete(StreamRow::PowerTemp),
            "empty stream incomplete"
        );
        d.complete_stream(StreamRow::PowerTemp);
        assert!(d.is_complete(StreamRow::PowerTemp));
        // Adding an incomplete entry breaks completeness.
        d.upsert(
            StreamRow::PowerTemp,
            DictionaryEntry {
                name: "gpu_power_w".into(),
                ..Default::default()
            },
        );
        assert!(!d.is_complete(StreamRow::PowerTemp));
    }

    #[test]
    fn upsert_replaces_by_name() {
        let mut d = DataDictionary::new();
        d.upsert(
            StreamRow::Facility,
            DictionaryEntry {
                name: "x".into(),
                ..Default::default()
            },
        );
        d.upsert(
            StreamRow::Facility,
            DictionaryEntry {
                name: "x".into(),
                meaning: Some("better".into()),
                ..Default::default()
            },
        );
        assert_eq!(d.entries(StreamRow::Facility).len(), 1);
        assert_eq!(
            d.entries(StreamRow::Facility)[0].meaning.as_deref(),
            Some("better")
        );
    }

    #[test]
    fn coverage_counts_complete_rows() {
        let mut d = DataDictionary::new();
        assert_eq!(d.coverage(), 0.0);
        d.complete_stream(StreamRow::PowerTemp);
        d.complete_stream(StreamRow::Facility);
        assert!((d.coverage() - 2.0 / 11.0).abs() < 1e-12);
    }
}
