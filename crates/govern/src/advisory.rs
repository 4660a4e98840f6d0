//! The advisory chain (Table II) and DataRUC release workflow (Fig. 12).
//!
//! Every data-usage request passes Data Owner → Cyber Security → Legal
//! → IRB → Management, in order; a rejection terminates the chain. For
//! external releases the cyber stage requires a sanitization pass
//! before approval. Every decision is recorded in an audit log — the
//! paper's finding is that this gate *accelerates* empowerment by
//! making release safe and repeatable.

/// The Table II reviewers, in review order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AdvisoryStage {
    /// Considers purpose and interpretations that could harm operations.
    DataOwner,
    /// Prevents leakage of PII or identifying information.
    CyberSecurity,
    /// Contractual and regulatory review.
    Legal,
    /// Human-subjects protection review.
    Irb,
    /// Organizational alignment with the facility mission.
    Management,
}

impl AdvisoryStage {
    /// The chain in order.
    pub const CHAIN: [AdvisoryStage; 5] = [
        AdvisoryStage::DataOwner,
        AdvisoryStage::CyberSecurity,
        AdvisoryStage::Legal,
        AdvisoryStage::Irb,
        AdvisoryStage::Management,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AdvisoryStage::DataOwner => "data-owner",
            AdvisoryStage::CyberSecurity => "cyber-security",
            AdvisoryStage::Legal => "legal",
            AdvisoryStage::Irb => "IRB",
            AdvisoryStage::Management => "management",
        }
    }
}

/// A request to use or release data.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseRequest {
    /// Request id (assigned at submit).
    pub id: u64,
    /// Requesting staff member.
    pub requester: String,
    /// Dataset name.
    pub dataset: String,
    /// Stated purpose (empty purposes are rejected by the data owner).
    pub purpose: String,
    /// External release (publication / collaboration) vs internal use.
    pub external: bool,
    /// Whether the dataset embeds PII or identifying information.
    pub contains_pii: bool,
    /// Whether sanitization/anonymization has been applied.
    pub sanitized: bool,
    /// Whether the data is export-controlled.
    pub export_controlled: bool,
    /// Whether human subjects are involved.
    pub human_subjects: bool,
    /// IRB protocol number, when human subjects are involved.
    pub irb_protocol: Option<String>,
    /// Whether the stated use aligns with the facility mission.
    pub mission_aligned: bool,
}

impl ReleaseRequest {
    /// A well-formed internal request for `dataset`.
    pub fn internal(requester: &str, dataset: &str, purpose: &str) -> ReleaseRequest {
        ReleaseRequest {
            id: 0,
            requester: requester.into(),
            dataset: dataset.into(),
            purpose: purpose.into(),
            external: false,
            contains_pii: false,
            sanitized: false,
            export_controlled: false,
            human_subjects: false,
            irb_protocol: None,
            mission_aligned: true,
        }
    }

    /// A well-formed external release request.
    pub fn external(requester: &str, dataset: &str, purpose: &str) -> ReleaseRequest {
        ReleaseRequest {
            external: true,
            ..ReleaseRequest::internal(requester, dataset, purpose)
        }
    }
}

/// One reviewer's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// Proceed to the next stage.
    Approve,
    /// Terminate the chain.
    Reject(String),
    /// Cyber-security hold: sanitize, then resubmit to this stage.
    RequireSanitization,
}

/// Current state of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestState {
    /// Waiting at a stage.
    UnderReview(AdvisoryStage),
    /// Fully approved; access may be granted.
    Approved,
    /// Rejected at a stage.
    Rejected {
        /// Stage that rejected.
        stage: AdvisoryStage,
        /// Stated reason.
        reason: String,
    },
}

/// Audit-log line.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// Request id.
    pub request: u64,
    /// Reviewing stage.
    pub stage: AdvisoryStage,
    /// Outcome.
    pub decision: Decision,
}

/// The data resource usage committee: submits and reviews requests.
#[derive(Debug, Default)]
pub struct DataRuc {
    requests: Vec<(ReleaseRequest, RequestState)>,
    audit: Vec<AuditRecord>,
}

impl DataRuc {
    /// Empty committee.
    pub fn new() -> DataRuc {
        DataRuc::default()
    }

    /// Submit a request; returns its id.
    pub fn submit(&mut self, mut request: ReleaseRequest) -> u64 {
        let id = self.requests.len() as u64;
        request.id = id;
        self.requests
            .push((request, RequestState::UnderReview(AdvisoryStage::DataOwner)));
        id
    }

    /// Current state of a request.
    pub fn state(&self, id: u64) -> Option<&RequestState> {
        self.requests.get(id as usize).map(|(_, s)| s)
    }

    /// The audit log.
    pub fn audit_log(&self) -> &[AuditRecord] {
        &self.audit
    }

    /// Rule-based decision of one stage for one request.
    fn decide(stage: AdvisoryStage, req: &ReleaseRequest) -> Decision {
        match stage {
            AdvisoryStage::DataOwner => {
                if req.purpose.trim().is_empty() {
                    Decision::Reject("no stated purpose".into())
                } else {
                    Decision::Approve
                }
            }
            AdvisoryStage::CyberSecurity => {
                if req.external && req.contains_pii && !req.sanitized {
                    Decision::RequireSanitization
                } else {
                    Decision::Approve
                }
            }
            AdvisoryStage::Legal => {
                if req.export_controlled {
                    Decision::Reject("export controlled".into())
                } else {
                    Decision::Approve
                }
            }
            AdvisoryStage::Irb => {
                if req.human_subjects && req.irb_protocol.is_none() {
                    Decision::Reject("human subjects without IRB protocol".into())
                } else {
                    Decision::Approve
                }
            }
            AdvisoryStage::Management => {
                if req.mission_aligned {
                    Decision::Approve
                } else {
                    Decision::Reject("not aligned with facility mission".into())
                }
            }
        }
    }

    /// Run one review step; returns the new state. No-op on settled
    /// requests.
    pub fn review_step(&mut self, id: u64) -> Option<RequestState> {
        let (req, state) = self.requests.get_mut(id as usize)?;
        let RequestState::UnderReview(stage) = *state else {
            return Some(state.clone());
        };
        let decision = Self::decide(stage, req);
        self.audit.push(AuditRecord {
            request: id,
            stage,
            decision: decision.clone(),
        });
        *state = match decision {
            Decision::Approve => {
                let idx = AdvisoryStage::CHAIN
                    .iter()
                    .position(|&s| s == stage)
                    .expect("in chain");
                match AdvisoryStage::CHAIN.get(idx + 1) {
                    Some(&next) => RequestState::UnderReview(next),
                    None => RequestState::Approved,
                }
            }
            Decision::Reject(reason) => RequestState::Rejected { stage, reason },
            Decision::RequireSanitization => RequestState::UnderReview(stage),
        };
        Some(state.clone())
    }

    /// Mark a request's dataset as sanitized (after running the
    /// [`crate::sanitize::Sanitizer`]) and continue review.
    pub fn mark_sanitized(&mut self, id: u64) {
        if let Some((req, _)) = self.requests.get_mut(id as usize) {
            req.sanitized = true;
        }
    }

    /// Drive a request to a terminal state; returns it.
    pub fn review_to_completion(&mut self, id: u64) -> Option<RequestState> {
        for _ in 0..32 {
            match self.review_step(id)? {
                RequestState::UnderReview(AdvisoryStage::CyberSecurity) => {
                    // A sanitization hold parks the request; the caller
                    // must sanitize. Detect the hold via the audit log.
                    if matches!(
                        self.audit.last(),
                        Some(AuditRecord {
                            decision: Decision::RequireSanitization,
                            ..
                        })
                    ) {
                        return self.state(id).cloned();
                    }
                }
                s @ (RequestState::Approved | RequestState::Rejected { .. }) => return Some(s),
                RequestState::UnderReview(_) => {}
            }
        }
        self.state(id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_internal_request_passes_all_stages() {
        let mut ruc = DataRuc::new();
        let id = ruc.submit(ReleaseRequest::internal(
            "alice",
            "power-2024",
            "energy study",
        ));
        let state = ruc.review_to_completion(id).unwrap();
        assert_eq!(state, RequestState::Approved);
        // Exactly one audit record per stage, in order.
        let stages: Vec<AdvisoryStage> = ruc.audit_log().iter().map(|a| a.stage).collect();
        assert_eq!(stages, AdvisoryStage::CHAIN.to_vec());
    }

    #[test]
    fn missing_purpose_rejected_at_data_owner() {
        let mut ruc = DataRuc::new();
        let id = ruc.submit(ReleaseRequest::internal("bob", "d", "  "));
        let state = ruc.review_to_completion(id).unwrap();
        assert!(matches!(
            state,
            RequestState::Rejected {
                stage: AdvisoryStage::DataOwner,
                ..
            }
        ));
        assert_eq!(ruc.audit_log().len(), 1, "chain terminated early");
    }

    #[test]
    fn external_pii_requires_sanitization_then_passes() {
        let mut ruc = DataRuc::new();
        let mut req = ReleaseRequest::external("carol", "job-logs", "publication");
        req.contains_pii = true;
        let id = ruc.submit(req);
        // Chain parks at cyber security.
        let state = ruc.review_to_completion(id).unwrap();
        assert_eq!(
            state,
            RequestState::UnderReview(AdvisoryStage::CyberSecurity)
        );
        assert!(ruc
            .audit_log()
            .iter()
            .any(|a| a.decision == Decision::RequireSanitization));
        // Sanitize and resume: approved.
        ruc.mark_sanitized(id);
        let state = ruc.review_to_completion(id).unwrap();
        assert_eq!(state, RequestState::Approved);
    }

    #[test]
    fn export_control_rejected_at_legal() {
        let mut ruc = DataRuc::new();
        let mut req = ReleaseRequest::external("dave", "traces", "collab");
        req.export_controlled = true;
        let id = ruc.submit(req);
        let state = ruc.review_to_completion(id).unwrap();
        assert!(matches!(
            state,
            RequestState::Rejected {
                stage: AdvisoryStage::Legal,
                ..
            }
        ));
    }

    #[test]
    fn human_subjects_need_irb_protocol() {
        let mut ruc = DataRuc::new();
        let mut req = ReleaseRequest::internal("erin", "ua-tickets", "support study");
        req.human_subjects = true;
        let id = ruc.submit(req.clone());
        assert!(matches!(
            ruc.review_to_completion(id).unwrap(),
            RequestState::Rejected {
                stage: AdvisoryStage::Irb,
                ..
            }
        ));
        // With a protocol it passes.
        req.irb_protocol = Some("IRB-2024-117".into());
        let id2 = ruc.submit(req);
        assert_eq!(
            ruc.review_to_completion(id2).unwrap(),
            RequestState::Approved
        );
    }

    #[test]
    fn misaligned_request_rejected_at_management() {
        let mut ruc = DataRuc::new();
        let mut req = ReleaseRequest::internal("frank", "d", "side project");
        req.mission_aligned = false;
        let id = ruc.submit(req);
        assert!(matches!(
            ruc.review_to_completion(id).unwrap(),
            RequestState::Rejected {
                stage: AdvisoryStage::Management,
                ..
            }
        ));
    }

    #[test]
    fn audit_log_is_complete_and_ordered() {
        let mut ruc = DataRuc::new();
        let a = ruc.submit(ReleaseRequest::internal("a", "d1", "p"));
        let b = ruc.submit(ReleaseRequest::internal("b", "d2", "p"));
        ruc.review_to_completion(a);
        ruc.review_to_completion(b);
        assert_eq!(ruc.audit_log().len(), 10);
        assert!(ruc.audit_log()[..5].iter().all(|r| r.request == a));
        assert!(ruc.audit_log()[5..].iter().all(|r| r.request == b));
    }
}
