//! Access grants and tracking (§IX-B).
//!
//! "Access to the data is provided and tracked via various channels
//! suitable for the projects in a fine-grained manner" — grants are
//! per (project, channel, dataset), conditional on an approved request,
//! and every access is logged.

use std::collections::BTreeSet;

/// A data-service channel (Fig. 5 tiers as access channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Streaming subscription.
    Stream,
    /// Online database queries.
    Lake,
    /// Object-store dataset reads.
    Ocean,
    /// Released file exports for external collaborations.
    Export,
}

/// One access-log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessRecord {
    /// Project performing the access.
    pub project: String,
    /// Channel used.
    pub channel: Channel,
    /// Dataset touched.
    pub dataset: String,
    /// Whether the access was allowed.
    pub allowed: bool,
}

/// Grant registry plus audit trail.
#[derive(Debug, Default)]
pub struct AccessControl {
    grants: BTreeSet<(String, Channel, String)>,
    log: Vec<AccessRecord>,
}

impl AccessControl {
    /// Empty registry.
    pub fn new() -> AccessControl {
        AccessControl::default()
    }

    /// Grant `(project, channel, dataset)` after request approval.
    pub fn grant(&mut self, project: &str, channel: Channel, dataset: &str) {
        self.grants
            .insert((project.into(), channel, dataset.into()));
    }

    /// Check-and-log an access attempt.
    pub fn access(&mut self, project: &str, channel: Channel, dataset: &str) -> bool {
        let allowed = self
            .grants
            .contains(&(project.to_string(), channel, dataset.to_string()));
        self.log.push(AccessRecord {
            project: project.into(),
            channel,
            dataset: dataset.into(),
            allowed,
        });
        allowed
    }

    /// The access log.
    pub fn log(&self) -> &[AccessRecord] {
        &self.log
    }

    /// Grants held by one project.
    pub fn grants_of(&self, project: &str) -> Vec<(Channel, String)> {
        self.grants
            .iter()
            .filter(|(p, _, _)| p == project)
            .map(|(_, c, d)| (*c, d.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_allows_access_per_channel() {
        let mut ac = AccessControl::new();
        ac.grant("PRJ001", Channel::Lake, "power-2024");
        assert!(ac.access("PRJ001", Channel::Lake, "power-2024"));
        // Different channel: denied (fine-grained).
        assert!(!ac.access("PRJ001", Channel::Ocean, "power-2024"));
        // Different project: denied.
        assert!(!ac.access("PRJ002", Channel::Lake, "power-2024"));
    }

    #[test]
    fn every_attempt_is_logged() {
        let mut ac = AccessControl::new();
        ac.grant("P", Channel::Stream, "d");
        ac.access("P", Channel::Stream, "d");
        ac.access("Q", Channel::Stream, "d");
        assert_eq!(ac.log().len(), 2);
        assert!(ac.log()[0].allowed);
        assert!(!ac.log()[1].allowed);
    }

    #[test]
    fn grants_of_lists_only_that_project() {
        let mut ac = AccessControl::new();
        ac.grant("P", Channel::Lake, "a");
        ac.grant("P", Channel::Ocean, "b");
        ac.grant("Q", Channel::Lake, "c");
        let grants = ac.grants_of("P");
        assert_eq!(grants.len(), 2);
        assert!(grants.contains(&(Channel::Ocean, "b".to_string())));
    }
}
