//! Reliability analytics (Table I: "Reliability projection and
//! prediction"; §IX-B's released GPU failure dataset).
//!
//! Derives fleet reliability indicators from the event stream: per-kind
//! event rates, mean time between failures, and the node "repeat
//! offender" distribution that drives proactive hardware replacement.

use oda_telemetry::events::{Event, EventKind};
use std::collections::HashMap;

/// Fleet reliability summary over an observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Observation window length in hours.
    pub window_hours: f64,
    /// Nodes in the fleet.
    pub fleet_nodes: u32,
    /// Events per kind.
    pub counts: Vec<(String, u64)>,
    /// Mean time between node-failure events, fleet-wide (hours; NaN if
    /// fewer than two failures).
    pub node_mtbf_hours: f64,
    /// GPU error events (Xid + double-bit ECC) per thousand GPU-hours.
    pub gpu_errors_per_khour: f64,
    /// Nodes with more than one error-grade event ("repeat offenders").
    pub repeat_offenders: Vec<(u32, u64)>,
}

/// Compile the report from an event history.
pub fn reliability_report(
    events: &[Event],
    fleet_nodes: u32,
    gpus_per_node: u8,
    window_ms: i64,
) -> ReliabilityReport {
    let window_hours = window_ms as f64 / 3_600_000.0;
    let mut counts: HashMap<EventKind, u64> = HashMap::new();
    let mut failure_times: Vec<i64> = Vec::new();
    let mut per_node_errors: HashMap<u32, u64> = HashMap::new();
    let mut gpu_errors = 0u64;
    for e in events {
        *counts.entry(e.kind).or_insert(0) += 1;
        match e.kind {
            EventKind::NodeFail => failure_times.push(e.ts_ms),
            EventKind::GpuXid | EventKind::EccDbe => gpu_errors += 1,
            _ => {}
        }
        if matches!(
            e.kind,
            EventKind::NodeFail | EventKind::GpuXid | EventKind::EccDbe
        ) {
            if let Some(n) = e.node {
                *per_node_errors.entry(n).or_insert(0) += 1;
            }
        }
    }
    failure_times.sort_unstable();
    let node_mtbf_hours = if failure_times.len() >= 2 {
        let span = (failure_times[failure_times.len() - 1] - failure_times[0]) as f64;
        span / 3_600_000.0 / (failure_times.len() - 1) as f64
    } else {
        f64::NAN
    };
    let gpu_hours = f64::from(fleet_nodes) * f64::from(gpus_per_node) * window_hours;
    let mut repeat_offenders: Vec<(u32, u64)> = per_node_errors
        .into_iter()
        .filter(|&(_, c)| c > 1)
        .collect();
    repeat_offenders.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
    let mut count_rows: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(k, c)| (k.label().to_string(), c))
        .collect();
    count_rows.sort();
    ReliabilityReport {
        window_hours,
        fleet_nodes,
        counts: count_rows,
        node_mtbf_hours,
        gpu_errors_per_khour: gpu_errors as f64 / (gpu_hours / 1_000.0).max(1e-9),
        repeat_offenders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::events::Severity;

    fn ev(ts: i64, node: u32, kind: EventKind) -> Event {
        Event {
            ts_ms: ts,
            kind,
            severity: Severity::Error,
            node: Some(node),
            user: None,
            message: String::new(),
        }
    }

    #[test]
    fn mtbf_from_failure_spacing() {
        // Failures every 10 hours.
        let events: Vec<Event> = (0..5)
            .map(|i| ev(i * 36_000_000, i as u32, EventKind::NodeFail))
            .collect();
        let r = reliability_report(&events, 100, 4, 5 * 36_000_000);
        assert!((r.node_mtbf_hours - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mtbf_nan_with_few_failures() {
        let r = reliability_report(&[ev(0, 1, EventKind::NodeFail)], 10, 4, 3_600_000);
        assert!(r.node_mtbf_hours.is_nan());
    }

    #[test]
    fn gpu_error_rate_normalized_by_gpu_hours() {
        // 8 GPU errors over 1000 nodes x 4 GPUs x 2 hours = 8000 GPU-h.
        let events: Vec<Event> = (0..8).map(|i| ev(i, i as u32, EventKind::GpuXid)).collect();
        let r = reliability_report(&events, 1_000, 4, 7_200_000);
        assert!((r.gpu_errors_per_khour - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeat_offenders_ranked() {
        let events = vec![
            ev(0, 7, EventKind::GpuXid),
            ev(1, 7, EventKind::GpuXid),
            ev(2, 7, EventKind::EccDbe),
            ev(3, 9, EventKind::GpuXid),
            ev(4, 9, EventKind::GpuXid),
            ev(5, 3, EventKind::GpuXid), // single event: not an offender
        ];
        let r = reliability_report(&events, 16, 4, 3_600_000);
        assert_eq!(r.repeat_offenders, vec![(7, 3), (9, 2)]);
    }

    #[test]
    fn counts_cover_all_kinds_present() {
        let events = vec![
            ev(0, 1, EventKind::FsTimeout),
            ev(1, 2, EventKind::FsTimeout),
            ev(2, 3, EventKind::LinkFlap),
        ];
        let r = reliability_report(&events, 8, 2, 3_600_000);
        assert!(r.counts.contains(&("fs-timeout".to_string(), 2)));
        assert!(r.counts.contains(&("link-flap".to_string(), 1)));
    }
}
