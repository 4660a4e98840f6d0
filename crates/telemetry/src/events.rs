//! Syslog-style event streams.
//!
//! Events power the user-assistance dashboard (correlating node failures
//! with job complaints) and the Copacetic security correlator (auth
//! bursts). Base rates are Poisson; security incidents can be injected
//! as correlated sequences.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Event category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// A compute node dropped out of the machine.
    NodeFail,
    /// GPU driver error (Xid-style).
    GpuXid,
    /// GPU memory double-bit ECC error.
    EccDbe,
    /// Parallel-filesystem client RPC timeout.
    FsTimeout,
    /// Interconnect link flap.
    LinkFlap,
    /// Failed authentication attempt on a login node.
    AuthFail,
    /// Successful login.
    LoginSuccess,
    /// System service restarted.
    ServiceRestart,
}

impl EventKind {
    /// All kinds.
    pub const ALL: [EventKind; 8] = [
        EventKind::NodeFail,
        EventKind::GpuXid,
        EventKind::EccDbe,
        EventKind::FsTimeout,
        EventKind::LinkFlap,
        EventKind::AuthFail,
        EventKind::LoginSuccess,
        EventKind::ServiceRestart,
    ];

    /// Mean occurrences per node (or per facility for login events) per day.
    fn daily_rate_per_node(self) -> f64 {
        match self {
            EventKind::NodeFail => 0.002,
            EventKind::GpuXid => 0.02,
            EventKind::EccDbe => 0.004,
            EventKind::FsTimeout => 0.05,
            EventKind::LinkFlap => 0.01,
            // Login-node events scale with users, handled facility-wide.
            EventKind::AuthFail => 0.0,
            EventKind::LoginSuccess => 0.0,
            EventKind::ServiceRestart => 0.005,
        }
    }

    /// Severity assigned at generation.
    pub fn severity(self) -> Severity {
        match self {
            EventKind::NodeFail | EventKind::EccDbe => Severity::Critical,
            EventKind::GpuXid | EventKind::FsTimeout | EventKind::LinkFlap => Severity::Error,
            EventKind::AuthFail => Severity::Warning,
            EventKind::LoginSuccess | EventKind::ServiceRestart => Severity::Info,
        }
    }

    /// Short label for dashboards.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::NodeFail => "node-fail",
            EventKind::GpuXid => "gpu-xid",
            EventKind::EccDbe => "ecc-dbe",
            EventKind::FsTimeout => "fs-timeout",
            EventKind::LinkFlap => "link-flap",
            EventKind::AuthFail => "auth-fail",
            EventKind::LoginSuccess => "login-ok",
            EventKind::ServiceRestart => "svc-restart",
        }
    }
}

/// Syslog severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational.
    Info,
    /// Warning.
    Warning,
    /// Error.
    Error,
    /// Critical.
    Critical,
}

/// One event record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Occurrence time (ms).
    pub ts_ms: i64,
    /// Category.
    pub kind: EventKind,
    /// Severity.
    pub severity: Severity,
    /// Affected node, when node-scoped.
    pub node: Option<u32>,
    /// Acting user, for auth events.
    pub user: Option<u32>,
    /// Free-text message (what a real syslog line would carry).
    pub message: String,
}

/// A scripted security incident: a burst of failed authentications
/// followed by a success — the pattern Copacetic must flag.
#[derive(Debug, Clone)]
pub struct Incident {
    /// When the burst begins (ms).
    pub start_ms: i64,
    /// Attacking/compromised user id.
    pub user: u32,
    /// Number of failed attempts in the burst.
    pub failures: u32,
}

/// Poisson event generator with incident injection.
#[derive(Debug)]
pub struct EventGenerator {
    rng: StdRng,
    nodes: u32,
    users: u32,
    /// Facility-wide successful logins per day.
    logins_per_day: f64,
    /// Facility-wide benign auth failures per day.
    auth_fails_per_day: f64,
    incidents: Vec<Incident>,
}

impl EventGenerator {
    /// Create a generator for a system with `nodes` nodes and `users` users.
    pub fn new(nodes: u32, users: u32, seed: u64) -> Self {
        EventGenerator {
            rng: StdRng::seed_from_u64(seed),
            nodes,
            users,
            logins_per_day: f64::from(users) * 4.0,
            auth_fails_per_day: f64::from(users) * 0.3,
            incidents: Vec::new(),
        }
    }

    /// Schedule a security incident.
    pub fn inject_incident(&mut self, incident: Incident) {
        self.incidents.push(incident);
    }

    fn poisson_count(&mut self, mean: f64) -> u32 {
        // Inverse-CDF sampling; means here are tiny (<< 1 per tick).
        if mean <= 0.0 {
            return 0;
        }
        let mut count = 0;
        let mut p = (-mean).exp();
        let mut cdf = p;
        let u: f64 = self.rng.random();
        while u > cdf && count < 1_000 {
            count += 1;
            p *= mean / f64::from(count);
            cdf += p;
        }
        count
    }

    /// Generate the events of the window `[now_ms - dt_ms, now_ms)`.
    pub fn tick(&mut self, now_ms: i64, dt_ms: i64) -> Vec<Event> {
        let mut out = Vec::new();
        let day_frac = dt_ms as f64 / 86_400_000.0;
        for kind in EventKind::ALL {
            let mean = kind.daily_rate_per_node() * f64::from(self.nodes) * day_frac;
            for _ in 0..self.poisson_count(mean) {
                let node = self.rng.random_range(0..self.nodes);
                out.push(Event {
                    ts_ms: now_ms - self.rng.random_range(0..dt_ms.max(1)),
                    kind,
                    severity: kind.severity(),
                    node: Some(node),
                    user: None,
                    message: format!("{} on node {}", kind.label(), node),
                });
            }
        }
        // Facility-wide auth activity.
        for (kind, per_day) in [
            (EventKind::LoginSuccess, self.logins_per_day),
            (EventKind::AuthFail, self.auth_fails_per_day),
        ] {
            let mean = per_day * day_frac;
            for _ in 0..self.poisson_count(mean) {
                let user = self.rng.random_range(0..self.users);
                out.push(Event {
                    ts_ms: now_ms - self.rng.random_range(0..dt_ms.max(1)),
                    kind,
                    severity: kind.severity(),
                    node: None,
                    user: Some(user),
                    message: format!("{} user {}", kind.label(), user),
                });
            }
        }
        // Scripted incidents: burst of failures then one success, spread
        // over two minutes from the incident start.
        let mut fired = Vec::new();
        for (i, inc) in self.incidents.iter().enumerate() {
            if inc.start_ms >= now_ms - dt_ms && inc.start_ms < now_ms {
                for k in 0..inc.failures {
                    out.push(Event {
                        ts_ms: inc.start_ms
                            + i64::from(k) * 120_000 / i64::from(inc.failures.max(1)),
                        kind: EventKind::AuthFail,
                        severity: Severity::Warning,
                        node: None,
                        user: Some(inc.user),
                        message: format!("auth-fail user {} (burst)", inc.user),
                    });
                }
                out.push(Event {
                    ts_ms: inc.start_ms + 150_000,
                    kind: EventKind::LoginSuccess,
                    severity: Severity::Info,
                    node: None,
                    user: Some(inc.user),
                    message: format!("login-ok user {} (post-burst)", inc.user),
                });
                fired.push(i);
            }
        }
        for i in fired.into_iter().rev() {
            self.incidents.remove(i);
        }
        out.sort_by_key(|e| e.ts_ms);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut g = EventGenerator::new(1_000, 200, seed);
            let mut all = Vec::new();
            for t in 1..=60 {
                all.extend(g.tick(t * 60_000, 60_000));
            }
            all
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn rates_scale_with_nodes() {
        let count = |nodes| {
            let mut g = EventGenerator::new(nodes, 10, 1);
            let mut n = 0;
            for t in 1..=1_440 {
                n += g
                    .tick(t * 60_000, 60_000)
                    .iter()
                    .filter(|e| e.node.is_some())
                    .count();
            }
            n
        };
        let small = count(1_000);
        let big = count(20_000);
        assert!(big > 5 * small, "big {big} small {small}");
    }

    #[test]
    fn incident_fires_exactly_once() {
        let mut g = EventGenerator::new(10, 10, 2);
        g.inject_incident(Incident {
            start_ms: 90_000,
            user: 3,
            failures: 8,
        });
        let mut bursts = 0;
        for t in 1..=10 {
            let evs = g.tick(t * 60_000, 60_000);
            bursts += evs
                .iter()
                .filter(|e| e.kind == EventKind::AuthFail && e.message.contains("burst"))
                .count();
        }
        assert_eq!(bursts, 8);
    }

    #[test]
    fn incident_followed_by_success() {
        let mut g = EventGenerator::new(10, 10, 2);
        g.inject_incident(Incident {
            start_ms: 30_000,
            user: 7,
            failures: 5,
        });
        let evs = g.tick(60_000, 60_000);
        let success = evs
            .iter()
            .find(|e| e.kind == EventKind::LoginSuccess && e.user == Some(7))
            .expect("success event");
        let last_fail = evs
            .iter()
            .filter(|e| e.kind == EventKind::AuthFail && e.user == Some(7))
            .map(|e| e.ts_ms)
            .max()
            .expect("failures");
        assert!(success.ts_ms > last_fail);
    }

    #[test]
    fn events_sorted_by_time() {
        let mut g = EventGenerator::new(5_000, 500, 9);
        let evs = g.tick(3_600_000, 3_600_000);
        assert!(evs.windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms));
    }

    /// The broker's event record, byte for byte: `publish_batch` writes
    /// exactly this JSON, and a format change must change this string.
    #[test]
    fn event_record_bytes_are_pinned() {
        let e = Event {
            ts_ms: 1_700_000_000_123,
            kind: EventKind::AuthFail,
            severity: Severity::Warning,
            node: None,
            user: Some(42),
            message: "sshd: auth failure for \"u42\"".to_string(),
        };
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(
            json,
            r#"{"ts_ms":1700000000123,"kind":"AuthFail","severity":"Warning","node":null,"user":42,"message":"sshd: auth failure for \"u42\""}"#
        );
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
