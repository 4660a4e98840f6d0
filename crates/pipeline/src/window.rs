//! Tumbling time windows.
//!
//! The paper's Silver stage aggregates long-format data "over designated
//! time intervals (e.g., every 15 seconds) to reconcile differences in
//! sample rates" (§V-A). [`assign_window`] adds a window-start column;
//! the streaming Silver transform floors event times with the same
//! [`window_start`] and keeps its event-time watermark in checkpointed
//! state ([`crate::medallion::streaming_silver_transform`]).

use crate::error::PipelineError;
use crate::frame::Frame;
use oda_storage::colfile::ColumnData;

/// Start of the tumbling window containing `ts_ms`, or `None` when that
/// start is not an `i64` (a timestamp within one window of `i64::MIN`)
/// or the width is not positive.
pub fn window_start(ts_ms: i64, width_ms: i64) -> Option<i64> {
    if width_ms <= 0 {
        return None;
    }
    ts_ms.div_euclid(width_ms).checked_mul(width_ms)
}

/// Add a `window` column: the tumbling-window start of `ts_col`.
pub fn assign_window(frame: &Frame, ts_col: &str, width_ms: i64) -> Result<Frame, PipelineError> {
    assign_window_as(frame, ts_col, width_ms, "window")
}

/// Add a named tumbling-window column (for re-windowing frames that
/// already carry a `window` column, e.g. hourly roll-ups of Silver).
pub fn assign_window_as(
    frame: &Frame,
    ts_col: &str,
    width_ms: i64,
    out_col: &str,
) -> Result<Frame, PipelineError> {
    if width_ms <= 0 {
        return Err(PipelineError::InvalidQuery(format!(
            "window width must be positive, got {width_ms} ms"
        )));
    }
    let ts = frame.i64s(ts_col)?;
    // Rows of one tick share a timestamp: divide only when it changes.
    let mut last = None;
    let windows: Vec<i64> = ts
        .iter()
        .map(|&t| match last {
            Some((prev, w)) if prev == t => Ok(w),
            _ => {
                let w = window_start(t, width_ms).ok_or_else(|| {
                    PipelineError::InvalidQuery(format!(
                        "timestamp {t} has no {width_ms} ms window start in range"
                    ))
                })?;
                last = Some((t, w));
                Ok(w)
            }
        })
        .collect::<Result<_, PipelineError>>()?;
    let mut out = frame.clone();
    out.push_column(out_col, ColumnData::I64(windows.into()))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_start_floors() {
        assert_eq!(window_start(0, 15_000), Some(0));
        assert_eq!(window_start(14_999, 15_000), Some(0));
        assert_eq!(window_start(15_000, 15_000), Some(15_000));
        assert_eq!(window_start(-1, 15_000), Some(-15_000));
    }

    #[test]
    fn window_start_refuses_starts_below_i64_min() {
        let floor = (i64::MIN.div_euclid(15_000) + 1) * 15_000;
        assert_eq!(window_start(floor, 15_000), Some(floor));
        assert_eq!(window_start(floor - 1, 15_000), None);
        assert_eq!(window_start(i64::MIN, 15_000), None);
        assert_eq!(window_start(i64::MAX, 15_000).map(|w| w % 15_000), Some(0));
        assert_eq!(window_start(i64::MIN, 1), Some(i64::MIN));
        assert_eq!(window_start(7, 0), None);
        // The plan's Window clause reports such a row as an error.
        let f = Frame::new(vec![(
            "ts".into(),
            ColumnData::I64(vec![0, i64::MIN].into()),
        )])
        .unwrap();
        assert!(matches!(
            assign_window(&f, "ts", 15_000),
            Err(PipelineError::InvalidQuery(_))
        ));
    }

    #[test]
    fn assign_window_adds_column() {
        let f = Frame::new(vec![(
            "ts".into(),
            ColumnData::I64(vec![0, 7_000, 15_000, 31_000].into()),
        )])
        .unwrap();
        let w = assign_window(&f, "ts", 15_000).unwrap();
        assert_eq!(w.i64s("window").unwrap(), &[0, 0, 15_000, 30_000]);
    }
}
