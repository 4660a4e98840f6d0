//! Frame ↔ storage interop: persist frames as OCEAN colfiles and read
//! them back — the route Silver/Gold artifacts take into the tiers.

use crate::error::PipelineError;
use crate::frame::Frame;
use oda_storage::colfile::{TableFile, TableWriter};
use oda_storage::ocean::OceanDataset;

/// Serialize a frame into a standalone colfile.
pub fn frame_to_colfile(frame: &Frame) -> Result<Vec<u8>, PipelineError> {
    let mut writer = TableWriter::new(frame.schema());
    if !frame.is_empty() {
        writer.write_row_group(frame.columns())?;
    }
    Ok(writer.finish())
}

/// Deterministic content digest of a frame: FNV-1a over its colfile
/// serialization. The colfile encoding is canonical (no timestamps,
/// no padding entropy), so two byte-identical frames always share a
/// digest, across runs and worker counts — which is what lets lineage
/// nodes name Bronze/Silver/Gold frames by content.
pub fn frame_digest(frame: &Frame) -> Result<u64, PipelineError> {
    Ok(oda_obs::fnv1a(&frame_to_colfile(frame)?))
}

/// Parse a colfile back into a frame (all row groups concatenated).
pub fn colfile_to_frame(bytes: Vec<u8>) -> Result<Frame, PipelineError> {
    let file = TableFile::open(bytes)?;
    let schema = file.schema().clone();
    let mut frames = Vec::with_capacity(file.row_group_count());
    for g in 0..file.row_group_count() {
        let cols = file.read_row_group(g)?;
        let named = schema
            .columns
            .iter()
            .map(|(n, _)| n.clone())
            .zip(cols)
            .collect();
        frames.push(Frame::new(named)?);
    }
    if frames.is_empty() {
        return Ok(Frame::empty(&schema));
    }
    Frame::concat(&frames)
}

/// Append a frame to an OCEAN dataset as a new part.
pub fn append_frame(dataset: &OceanDataset, frame: &Frame) -> Result<String, PipelineError> {
    Ok(dataset.append(frame.columns())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_storage::colfile::ColumnData;
    use oda_storage::ocean::Ocean;

    fn sample() -> Frame {
        Frame::new(vec![
            ("ts".into(), ColumnData::I64((0..1_000).collect())),
            (
                "v".into(),
                ColumnData::F64((0..1_000).map(|i| i as f64 * 0.5).collect()),
            ),
            (
                "tag".into(),
                ColumnData::Str((0..1_000).map(|i| format!("t{}", i % 5)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn colfile_roundtrip_preserves_frame() {
        let f = sample();
        let bytes = frame_to_colfile(&f).unwrap();
        let back = colfile_to_frame(bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn frame_digest_is_content_addressed() {
        let f = sample();
        assert_eq!(frame_digest(&f).unwrap(), frame_digest(&f.clone()).unwrap());
        let mut mask = vec![true; 1_000];
        mask[999] = false;
        let other = f.filter_mask(&mask);
        assert_ne!(
            frame_digest(&f).unwrap(),
            frame_digest(&other).unwrap(),
            "dropping a row must change the digest"
        );
    }

    #[test]
    fn empty_frame_roundtrip() {
        let f = sample().filter_mask(&[false; 1_000]);
        let bytes = frame_to_colfile(&f).unwrap();
        let back = colfile_to_frame(bytes).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.schema(), f.schema());
    }

    #[test]
    fn ocean_dataset_roundtrip_across_parts() {
        let ocean = Ocean::new();
        let f = sample();
        let ds = OceanDataset::create(ocean, "b", "frames", f.schema()).unwrap();
        append_frame(&ds, &f).unwrap();
        let second = append_frame(&ds, &f).unwrap();
        assert_eq!(ds.parts().len(), 2);
        assert_eq!(ds.num_rows().unwrap(), 2_000);
        let part = ds.open_part(&second).unwrap();
        assert_eq!(part.read_row_group(0).unwrap(), f.columns());
    }

    #[test]
    fn schema_mismatch_rejected_on_append() {
        let ocean = Ocean::new();
        let f = sample();
        let ds = OceanDataset::create(ocean, "b", "frames", f.schema()).unwrap();
        let other = Frame::new(vec![("x".into(), ColumnData::I64(vec![1].into()))]).unwrap();
        assert!(append_frame(&ds, &other).is_err());
    }
}
