//! Operational incident log — the governance end of the detection loop.
//!
//! When an online detector fires (`oda-analytics`), the facility's
//! closed-loop response is: replay the disturbance window in the
//! digital twin, then record an incident here, optionally attaching a
//! data-release request when the evidence needs to leave the facility
//! (e.g. a vendor RMA with sensor traces). Incidents are append-only
//! and deterministic: ids are sequential, no wall-clock is recorded —
//! time comes from the telemetry that raised the incident.

use crate::advisory::{DataRuc, ReleaseRequest, RequestState};

/// Lifecycle of an incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentStatus {
    /// Raised by a detector, not yet reviewed.
    Open,
    /// Twin replay / operator review attached evidence.
    UnderInvestigation,
    /// Closed with a disposition note.
    Resolved {
        /// What the investigation concluded.
        disposition: String,
    },
}

/// One operational incident raised from the alert stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Sequential incident id.
    pub id: u64,
    /// Scenario or subsystem the incident is about ("cooling-excursion",
    /// "node-7/node_inlet_temp_c", ...).
    pub subject: String,
    /// Detector that raised it ("zscore", "health-skew", ...).
    pub detector: String,
    /// Alert severity label at raise time.
    pub severity: String,
    /// Event-time window (ms) of the first triggering alert.
    pub window_ms: i64,
    /// Number of alerts folded into this incident.
    pub alert_count: usize,
    /// Evidence notes, in attachment order (twin replay summaries,
    /// operator annotations).
    pub evidence: Vec<String>,
    /// Release request id, when evidence was submitted to the DataRUC.
    pub release_request: Option<u64>,
    /// Current lifecycle state.
    pub status: IncidentStatus,
}

/// Append-only incident log with a deterministic id sequence.
#[derive(Debug, Default)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
}

impl IncidentLog {
    /// Empty log.
    pub fn new() -> IncidentLog {
        IncidentLog::default()
    }

    /// Raise a new incident from the alert stream; returns its id.
    pub fn raise(
        &mut self,
        subject: &str,
        detector: &str,
        severity: &str,
        window_ms: i64,
        alert_count: usize,
    ) -> u64 {
        let id = self.incidents.len() as u64;
        self.incidents.push(Incident {
            id,
            subject: subject.to_string(),
            detector: detector.to_string(),
            severity: severity.to_string(),
            window_ms,
            alert_count,
            evidence: Vec::new(),
            release_request: None,
            status: IncidentStatus::Open,
        });
        id
    }

    /// Attach an evidence note (twin replay summary, annotation) and
    /// move the incident to `UnderInvestigation` if it was open.
    /// Returns false for unknown or resolved incidents.
    pub fn attach_evidence(&mut self, id: u64, note: &str) -> bool {
        let Some(incident) = self.incidents.get_mut(id as usize) else {
            return false;
        };
        if matches!(incident.status, IncidentStatus::Resolved { .. }) {
            return false;
        }
        incident.evidence.push(note.to_string());
        incident.status = IncidentStatus::UnderInvestigation;
        true
    }

    /// Submit the incident's evidence to the advisory workflow and
    /// drive the review to completion. Records the request id on the
    /// incident and returns the terminal [`RequestState`].
    pub fn request_release(
        &mut self,
        id: u64,
        ruc: &mut DataRuc,
        request: ReleaseRequest,
    ) -> Option<RequestState> {
        let incident = self.incidents.get_mut(id as usize)?;
        let req_id = ruc.submit(request);
        incident.release_request = Some(req_id);
        ruc.review_to_completion(req_id)
    }

    /// Close an incident with a disposition. Returns false for unknown
    /// ids or incidents with no attached evidence — an incident cannot
    /// be resolved without an investigation trail.
    pub fn resolve(&mut self, id: u64, disposition: &str) -> bool {
        let Some(incident) = self.incidents.get_mut(id as usize) else {
            return false;
        };
        if incident.evidence.is_empty() {
            return false;
        }
        incident.status = IncidentStatus::Resolved {
            disposition: disposition.to_string(),
        };
        true
    }

    /// All incidents, in raise order.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Look up one incident.
    pub fn get(&self, id: u64) -> Option<&Incident> {
        self.incidents.get(id as usize)
    }

    /// Incidents still open or under investigation.
    pub fn open(&self) -> impl Iterator<Item = &Incident> {
        self.incidents
            .iter()
            .filter(|i| !matches!(i.status, IncidentStatus::Resolved { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incident_lifecycle_raise_investigate_resolve() {
        let mut log = IncidentLog::new();
        let id = log.raise("cooling-excursion", "ewma", "warning", 4_500_000, 12);
        assert_eq!(log.get(id).unwrap().status, IncidentStatus::Open);
        assert_eq!(log.open().count(), 1);

        assert!(log.attach_evidence(id, "twin replay: MAPE 3.2%, return 33.1C"));
        assert_eq!(
            log.get(id).unwrap().status,
            IncidentStatus::UnderInvestigation
        );

        assert!(log.resolve(id, "CDU setpoint operator error"));
        assert!(matches!(
            log.get(id).unwrap().status,
            IncidentStatus::Resolved { .. }
        ));
        assert_eq!(log.open().count(), 0);
        // Resolved incidents reject further evidence.
        assert!(!log.attach_evidence(id, "late note"));
    }

    #[test]
    fn resolution_requires_evidence() {
        let mut log = IncidentLog::new();
        let id = log.raise("firmware-skew", "health-skew", "warning", 3_600_000, 4);
        assert!(!log.resolve(id, "nope"), "resolved without evidence");
        assert!(log.attach_evidence(id, "nodes 0-1 inlet +5% vs fleet"));
        assert!(log.resolve(id, "firmware rollback on cabinet 0"));
    }

    #[test]
    fn release_request_flows_through_the_advisory_chain() {
        let mut log = IncidentLog::new();
        let mut ruc = DataRuc::new();
        let id = log.raise("power-cap", "zscore", "warning", 4_500_000, 7);
        log.attach_evidence(id, "substation drop matches cap window");
        let state = log
            .request_release(
                id,
                &mut ruc,
                ReleaseRequest::internal("ops", "alerts-power-cap", "vendor RMA evidence"),
            )
            .unwrap();
        assert_eq!(state, RequestState::Approved);
        let req_id = log.get(id).unwrap().release_request.unwrap();
        assert_eq!(ruc.state(req_id), Some(&RequestState::Approved));
        // Full audit trail exists for the release.
        assert_eq!(ruc.audit_log().len(), 5);
    }

    #[test]
    fn ids_are_sequential_and_stable() {
        let mut log = IncidentLog::new();
        let a = log.raise("s1", "d", "info", 0, 1);
        let b = log.raise("s2", "d", "info", 15_000, 2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(log.incidents().len(), 2);
        assert!(!log.attach_evidence(99, "unknown id"));
    }
}
