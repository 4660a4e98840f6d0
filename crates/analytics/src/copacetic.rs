//! Copacetic: real-time security event correlation (§VII-B).
//!
//! "It detects when certain specific combinations of network
//! availability, system state, and user behavior occur and informs
//! administrative teams" — fed by the ODA event stream rather than a
//! batch SIEM. The rule reproduced here: a burst of failed
//! authentications followed by a success from the same user within a
//! follow window (credential stuffing / brute force success), plus a
//! node-instability rule correlating link flaps with node failures.

use oda_telemetry::events::{Event, EventKind};
use std::collections::{HashMap, VecDeque};

/// A raised alert.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityAlert {
    /// Alert time (ms): the triggering event's timestamp.
    pub ts_ms: i64,
    /// Rule identifier.
    pub rule: String,
    /// Affected user, when user-scoped.
    pub user: Option<u32>,
    /// Affected node, when node-scoped.
    pub node: Option<u32>,
    /// Human-readable detail.
    pub detail: String,
}

/// Streaming correlator with bounded per-user memory.
pub struct Copacetic {
    /// Failures within this window count toward a burst.
    pub burst_window_ms: i64,
    /// Minimum failures to arm the rule.
    pub burst_threshold: usize,
    /// A success within this window after an armed burst alerts.
    pub follow_window_ms: i64,
    /// user -> recent failure timestamps.
    fail_history: HashMap<u32, VecDeque<i64>>,
    /// node -> recent link-flap timestamps (for the instability rule).
    flap_history: HashMap<u32, VecDeque<i64>>,
}

impl Copacetic {
    /// Default tuning: 5 failures in 2 minutes armed for 5 minutes.
    pub fn new() -> Copacetic {
        Copacetic {
            burst_window_ms: 120_000,
            burst_threshold: 5,
            follow_window_ms: 300_000,
            fail_history: HashMap::new(),
            flap_history: HashMap::new(),
        }
    }

    fn trim(history: &mut VecDeque<i64>, now: i64, window: i64) {
        while history.front().is_some_and(|&t| now - t > window) {
            history.pop_front();
        }
    }

    /// Feed events (in time order); returns alerts raised.
    pub fn ingest(&mut self, events: &[Event]) -> Vec<SecurityAlert> {
        let mut alerts = Vec::new();
        for e in events {
            match e.kind {
                EventKind::AuthFail => {
                    if let Some(user) = e.user {
                        let h = self.fail_history.entry(user).or_default();
                        h.push_back(e.ts_ms);
                        // Keep both windows' worth of history.
                        Self::trim(h, e.ts_ms, self.burst_window_ms + self.follow_window_ms);
                    }
                }
                EventKind::LoginSuccess => {
                    if let Some(user) = e.user {
                        if let Some(h) = self.fail_history.get_mut(&user) {
                            // Burst = threshold failures inside burst_window,
                            // ending within follow_window of this success.
                            let recent: Vec<i64> = h
                                .iter()
                                .copied()
                                .filter(|&t| e.ts_ms - t <= self.follow_window_ms)
                                .collect();
                            let bursty = recent
                                .windows(self.burst_threshold)
                                .any(|w| w[w.len() - 1] - w[0] <= self.burst_window_ms);
                            if bursty {
                                alerts.push(SecurityAlert {
                                    ts_ms: e.ts_ms,
                                    rule: "auth-burst-then-success".into(),
                                    user: Some(user),
                                    node: None,
                                    detail: format!(
                                        "user {user}: {} failures then success",
                                        recent.len()
                                    ),
                                });
                                h.clear();
                            }
                        }
                    }
                }
                EventKind::LinkFlap => {
                    if let Some(node) = e.node {
                        let h = self.flap_history.entry(node).or_default();
                        h.push_back(e.ts_ms);
                        Self::trim(h, e.ts_ms, 600_000);
                    }
                }
                EventKind::NodeFail => {
                    if let Some(node) = e.node {
                        let flaps = self
                            .flap_history
                            .get(&node)
                            .map(|h| h.iter().filter(|&&t| e.ts_ms - t <= 600_000).count())
                            .unwrap_or(0);
                        if flaps >= 2 {
                            alerts.push(SecurityAlert {
                                ts_ms: e.ts_ms,
                                rule: "flapping-then-node-fail".into(),
                                user: None,
                                node: Some(node),
                                detail: format!("node {node}: {flaps} link flaps then failure"),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        alerts
    }
}

impl Default for Copacetic {
    fn default() -> Self {
        Copacetic::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::events::Severity;

    fn auth(ts: i64, user: u32, ok: bool) -> Event {
        let kind = if ok {
            EventKind::LoginSuccess
        } else {
            EventKind::AuthFail
        };
        Event {
            ts_ms: ts,
            kind,
            severity: kind.severity(),
            node: None,
            user: Some(user),
            message: String::new(),
        }
    }

    fn node_event(ts: i64, node: u32, kind: EventKind) -> Event {
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
    fn burst_then_success_alerts() {
        let mut c = Copacetic::new();
        let mut events: Vec<Event> = (0..6).map(|i| auth(i * 10_000, 3, false)).collect();
        events.push(auth(70_000, 3, true));
        let alerts = c.ingest(&events);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "auth-burst-then-success");
        assert_eq!(alerts[0].user, Some(3));
    }

    #[test]
    fn slow_failures_do_not_alert() {
        let mut c = Copacetic::new();
        // 6 failures spread over an hour: never 5 within 2 minutes.
        let mut events: Vec<Event> = (0..6).map(|i| auth(i * 600_000, 3, false)).collect();
        events.push(auth(3_700_000, 3, true));
        assert!(c.ingest(&events).is_empty());
    }

    #[test]
    fn success_without_failures_is_benign() {
        let mut c = Copacetic::new();
        let events: Vec<Event> = (0..10).map(|i| auth(i * 1_000, 1, true)).collect();
        assert!(c.ingest(&events).is_empty());
    }

    #[test]
    fn users_do_not_cross_contaminate() {
        let mut c = Copacetic::new();
        let mut events: Vec<Event> = (0..6).map(|i| auth(i * 10_000, 1, false)).collect();
        events.push(auth(70_000, 2, true)); // different user succeeds
        assert!(c.ingest(&events).is_empty());
    }

    #[test]
    fn stale_burst_does_not_alert() {
        let mut c = Copacetic::new();
        let mut events: Vec<Event> = (0..6).map(|i| auth(i * 10_000, 3, false)).collect();
        // Success 20 minutes later: outside follow window.
        events.push(auth(1_260_000, 3, true));
        assert!(c.ingest(&events).is_empty());
    }

    #[test]
    fn incremental_ingest_matches_batch() {
        let mut batch = Copacetic::new();
        let mut incremental = Copacetic::new();
        let mut events: Vec<Event> = (0..6).map(|i| auth(i * 10_000, 3, false)).collect();
        events.push(auth(70_000, 3, true));
        let batch_alerts = batch.ingest(&events);
        let mut inc_alerts = Vec::new();
        for e in &events {
            inc_alerts.extend(incremental.ingest(std::slice::from_ref(e)));
        }
        assert_eq!(batch_alerts, inc_alerts);
    }

    #[test]
    fn flapping_node_failure_alerts() {
        let mut c = Copacetic::new();
        let events = vec![
            node_event(0, 9, EventKind::LinkFlap),
            node_event(60_000, 9, EventKind::LinkFlap),
            node_event(120_000, 9, EventKind::NodeFail),
        ];
        let alerts = c.ingest(&events);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "flapping-then-node-fail");
        assert_eq!(alerts[0].node, Some(9));
        // A clean node failure does not alert.
        let mut c = Copacetic::new();
        assert!(c
            .ingest(&[node_event(0, 9, EventKind::NodeFail)])
            .is_empty());
    }
}
