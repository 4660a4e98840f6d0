//! User Assistance dashboard (Fig. 6).
//!
//! "These dashboards compile data from various sources, including
//! compute, storage, and system logs, all integrated with job node
//! allocation details ... This type of compilation replaces the old
//! method of manually checking different systems" (§VII-B).
//!
//! [`UaDashboard`] is the compiled view: events indexed by node, jobs
//! indexed by user, and per-node telemetry in the LAKE. `diagnose` joins
//! them in one call. [`diagnose_manually`] is the "old method" baseline:
//! unindexed linear scans per source, one source at a time.

use oda_storage::lake::Lake;
use oda_telemetry::events::{Event, Severity};
use oda_telemetry::jobs::Job;
use std::collections::HashMap;
use std::sync::Arc;

/// Everything the support engineer needs for one ticket.
#[derive(Debug, Clone)]
pub struct TicketContext {
    /// The user's jobs overlapping the ticket window.
    pub jobs: Vec<TicketJob>,
    /// Error/critical events on the nodes of those jobs.
    pub node_events: Vec<String>,
    /// Per-job mean node power over the window (anomalously low power
    /// often means a hung application).
    pub mean_power_w: HashMap<u64, f64>,
}

/// One job row in the ticket context.
#[derive(Debug, Clone)]
pub struct TicketJob {
    /// Job id.
    pub job_id: u64,
    /// Node count.
    pub nodes: usize,
    /// Start (ms).
    pub start_ms: i64,
    /// End (ms).
    pub end_ms: i64,
    /// Archetype label.
    pub archetype: String,
}

/// The compiled, indexed dashboard.
///
/// It borrows the job history and the event stream it was compiled from
/// (`'a`): the indexes hold `&Job` / `&Event`, so compiling copies no job
/// or event, and the slices must outlive the dashboard.
pub struct UaDashboard<'a> {
    jobs_by_user: HashMap<u32, Vec<&'a Job>>,
    events_by_node: HashMap<u32, Vec<&'a Event>>,
    lake: Arc<Lake>,
    /// Prefix of LAKE series names ("tiny/" when the facility namespaces
    /// series by system).
    series_prefix: String,
}

impl<'a> UaDashboard<'a> {
    /// Compile the dashboard from job history, the event stream, and
    /// the LAKE handle holding per-node telemetry series
    /// (`node{N}/node_power_w`).
    pub fn compile(jobs: &'a [Job], events: &'a [Event], lake: Arc<Lake>) -> UaDashboard<'a> {
        Self::compile_with_prefix(jobs, events, lake, "")
    }

    /// Compile with a LAKE series-name prefix (facilities namespace
    /// series as `"<system>/node<N>/<sensor>"`).
    pub fn compile_with_prefix(
        jobs: &'a [Job],
        events: &'a [Event],
        lake: Arc<Lake>,
        series_prefix: &str,
    ) -> UaDashboard<'a> {
        let mut jobs_by_user: HashMap<u32, Vec<&'a Job>> = HashMap::new();
        for j in jobs {
            jobs_by_user.entry(j.user).or_default().push(j);
        }
        let mut events_by_node: HashMap<u32, Vec<&'a Event>> = HashMap::new();
        for e in events {
            if let Some(n) = e.node {
                events_by_node.entry(n).or_default().push(e);
            }
        }
        UaDashboard {
            jobs_by_user,
            events_by_node,
            lake,
            series_prefix: series_prefix.to_string(),
        }
    }

    /// One-call ticket diagnosis: the Fig. 6 experience.
    pub fn diagnose(&self, user: u32, t0: i64, t1: i64) -> TicketContext {
        let jobs: Vec<&Job> = self
            .jobs_by_user
            .get(&user)
            .map(|js| {
                js.iter()
                    .copied()
                    .filter(|j| j.start_ms < t1 && j.end_ms > t0)
                    .collect()
            })
            .unwrap_or_default();
        let mut node_events = Vec::new();
        let mut mean_power_w = HashMap::new();
        for j in &jobs {
            let mut power_sum = 0.0;
            let mut power_n = 0usize;
            for &n in &j.nodes {
                if let Some(events) = self.events_by_node.get(&n) {
                    for e in events {
                        if e.ts_ms >= t0 && e.ts_ms < t1 && e.severity >= Severity::Error {
                            node_events.push(format!("job {}: {}", j.id, e.message));
                        }
                    }
                }
                if let Some((_, mean, _, _)) = self
                    .lake
                    .plan(t0, t1)
                    .series(&format!("{}node{n}/node_power_w", self.series_prefix))
                    .aggregate()
                {
                    power_sum += mean;
                    power_n += 1;
                }
            }
            if power_n > 0 {
                mean_power_w.insert(j.id, power_sum / power_n as f64);
            }
        }
        TicketContext {
            jobs: jobs
                .iter()
                .map(|j| TicketJob {
                    job_id: j.id,
                    nodes: j.nodes.len(),
                    start_ms: j.start_ms,
                    end_ms: j.end_ms,
                    archetype: j.archetype.label().to_string(),
                })
                .collect(),
            node_events,
            mean_power_w,
        }
    }
}

/// The "old method" baseline: answer the same ticket by linear scans of
/// each raw source, without the compiled indexes. Returns the same
/// context (the content is identical — only the work differs).
pub fn diagnose_manually(
    jobs: &[Job],
    events: &[Event],
    lake: &Lake,
    series_prefix: &str,
    user: u32,
    t0: i64,
    t1: i64,
) -> TicketContext {
    // Source 1: scan the full job log for the user.
    let user_jobs: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.user == user && j.start_ms < t1 && j.end_ms > t0)
        .collect();
    // Source 2: scan the full event log per job node.
    let mut node_events = Vec::new();
    for j in &user_jobs {
        for e in events {
            if let Some(n) = e.node {
                if j.nodes.contains(&n)
                    && e.ts_ms >= t0
                    && e.ts_ms < t1
                    && e.severity >= Severity::Error
                {
                    node_events.push(format!("job {}: {}", j.id, e.message));
                }
            }
        }
    }
    // Source 3: query telemetry per node, one series at a time.
    let mut mean_power_w = HashMap::new();
    for j in &user_jobs {
        let mut sum = 0.0;
        let mut n_ok = 0usize;
        for &n in &j.nodes {
            if let Some((_, mean, _, _)) = lake
                .plan(t0, t1)
                .series(&format!("{series_prefix}node{n}/node_power_w"))
                .aggregate()
            {
                sum += mean;
                n_ok += 1;
            }
        }
        if n_ok > 0 {
            mean_power_w.insert(j.id, sum / n_ok as f64);
        }
    }
    TicketContext {
        jobs: user_jobs
            .iter()
            .map(|j| TicketJob {
                job_id: j.id,
                nodes: j.nodes.len(),
                start_ms: j.start_ms,
                end_ms: j.end_ms,
                archetype: j.archetype.label().to_string(),
            })
            .collect(),
        node_events,
        mean_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oda_telemetry::events::EventKind;
    use oda_telemetry::jobs::ApplicationArchetype;

    fn job(id: u64, user: u32, nodes: Vec<u32>, start: i64, end: i64) -> Job {
        Job {
            id,
            user,
            project: "PRJ000".into(),
            program: 0,
            archetype: ApplicationArchetype::ClimateSim,
            nodes,
            submit_ms: start,
            start_ms: start,
            end_ms: end,
            phase: 0.0,
        }
    }

    fn event(node: u32, ts: i64, kind: EventKind) -> Event {
        Event {
            ts_ms: ts,
            kind,
            severity: kind.severity(),
            node: Some(node),
            user: None,
            message: format!("{} on node {node}", kind.label()),
        }
    }

    fn setup() -> (Vec<Job>, Vec<Event>, Arc<Lake>) {
        let jobs = vec![
            job(1, 7, vec![0, 1], 0, 100_000),
            job(2, 7, vec![2], 200_000, 300_000),
            job(3, 8, vec![3], 0, 100_000),
        ];
        let events = vec![
            event(0, 50_000, EventKind::GpuXid),
            event(3, 50_000, EventKind::NodeFail),
            event(0, 50_000, EventKind::LoginSuccess), // info: filtered out
        ];
        let lake = Arc::new(Lake::new());
        for n in 0..4u32 {
            for t in 0..10 {
                lake.insert(
                    &format!("node{n}/node_power_w"),
                    t * 10_000,
                    500.0 + n as f64,
                );
            }
        }
        (jobs, events, lake)
    }

    #[test]
    fn diagnose_joins_all_sources() {
        let (jobs, events, lake) = setup();
        let dash = UaDashboard::compile(&jobs, &events, lake);
        let ctx = dash.diagnose(7, 0, 100_000);
        assert_eq!(ctx.jobs.len(), 1, "only job 1 overlaps the window");
        assert_eq!(ctx.jobs[0].job_id, 1);
        assert_eq!(
            ctx.node_events.len(),
            1,
            "one error-grade event on job nodes"
        );
        assert!(ctx.node_events[0].contains("gpu-xid"));
        let p = ctx.mean_power_w[&1];
        assert!((p - 500.5).abs() < 1e-9, "mean of nodes 0,1: {p}");
    }

    #[test]
    fn diagnose_scopes_to_user_and_window() {
        let (jobs, events, lake) = setup();
        let dash = UaDashboard::compile(&jobs, &events, lake);
        // User 8's job has the node-fail.
        let ctx = dash.diagnose(8, 0, 100_000);
        assert_eq!(ctx.jobs.len(), 1);
        assert!(ctx.node_events[0].contains("node-fail"));
        // Unknown user: empty.
        let ctx = dash.diagnose(99, 0, 100_000);
        assert!(ctx.jobs.is_empty());
        // Window excluding everything: empty.
        let ctx = dash.diagnose(7, 500_000, 600_000);
        assert!(ctx.jobs.is_empty());
    }

    #[test]
    fn manual_baseline_produces_identical_answer() {
        let (jobs, events, lake) = setup();
        let dash = UaDashboard::compile(&jobs, &events, lake.clone());
        for (user, t0, t1) in [(7, 0, 100_000), (8, 0, 100_000), (7, 150_000, 400_000)] {
            let fast = dash.diagnose(user, t0, t1);
            let slow = diagnose_manually(&jobs, &events, &lake, "", user, t0, t1);
            assert_eq!(
                fast.jobs.iter().map(|j| j.job_id).collect::<Vec<_>>(),
                slow.jobs.iter().map(|j| j.job_id).collect::<Vec<_>>()
            );
            let mut fe = fast.node_events.clone();
            let mut se = slow.node_events.clone();
            fe.sort();
            se.sort();
            assert_eq!(fe, se);
            assert_eq!(fast.mean_power_w, slow.mean_power_w);
        }
    }

    /// The compiled dashboard against the manual scans over a generated
    /// fleet: 6 000 jobs of 40 users on 256 nodes, events on job nodes
    /// (and a few elsewhere), tickets across 12 windows of one day.
    #[test]
    fn compiled_matches_manual_at_fleet_scale() {
        const NODES: u64 = 256;
        const USERS: u64 = 40;
        const SPAN: i64 = 86_400_000;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let jobs: Vec<Job> = (0..6_000u64)
            .map(|id| {
                let start = next(SPAN as u64) as i64;
                let end = start + 60_000 + next(4 * 3_600_000) as i64;
                let first = next(NODES);
                let nodes = (0..1 + next(8))
                    .map(|k| ((first + k) % NODES) as u32)
                    .collect();
                job(id, next(USERS) as u32, nodes, start, end)
            })
            .collect();
        let events: Vec<Event> = (0..8_000)
            .map(|i| {
                let kind = EventKind::ALL[next(EventKind::ALL.len() as u64) as usize];
                if i % 50 == 0 {
                    return event(next(NODES) as u32, next(SPAN as u64) as i64, kind);
                }
                let j = &jobs[next(jobs.len() as u64) as usize];
                let node = j.nodes[next(j.nodes.len() as u64) as usize];
                let ts = j.start_ms + next((j.end_ms - j.start_ms) as u64) as i64;
                event(node, ts, kind)
            })
            .collect();
        let lake = Arc::new(Lake::new());
        for n in 0..NODES {
            for t in (0..SPAN).step_by(600_000) {
                lake.insert(
                    &format!("node{n}/node_power_w"),
                    t,
                    400.0 + next(4_000) as f64 / 10.0,
                );
            }
        }

        let dash = UaDashboard::compile(&jobs, &events, Arc::clone(&lake));
        let (mut tickets, mut users) = (0, std::collections::BTreeSet::new());
        for w in 0..12i64 {
            let (t0, t1) = (w * 7_200_000, w * 7_200_000 + 3 * 3_600_000);
            for _ in 0..4 {
                let user = next(USERS) as u32;
                users.insert(user);
                let fast = dash.diagnose(user, t0, t1);
                let slow = diagnose_manually(&jobs, &events, &lake, "", user, t0, t1);
                let ids = |c: &TicketContext| c.jobs.iter().map(|j| j.job_id).collect::<Vec<_>>();
                assert_eq!(ids(&fast), ids(&slow), "user {user}, window {w}");
                let (mut fe, mut se) = (fast.node_events, slow.node_events);
                fe.sort();
                se.sort();
                assert_eq!(fe, se, "user {user}, window {w}");
                assert_eq!(fast.mean_power_w, slow.mean_power_w);
                tickets += usize::from(!fast.jobs.is_empty() && !fe.is_empty());
            }
        }
        assert!(users.len() >= 10, "{} users", users.len());
        assert!(tickets >= 10, "only {tickets} tickets had jobs and events");
    }
}
