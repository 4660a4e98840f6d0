//! The Table I registry: areas of operational data usage.

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageEntry {
    /// Organizational division ("System Management", ...).
    pub division: &'static str,
    /// Area within the division.
    pub area: &'static str,
    /// What the area uses operational data for.
    pub usage: &'static str,
}

/// The full Table I catalog.
pub fn usage_catalog() -> Vec<UsageEntry> {
    vec![
        UsageEntry {
            division: "System Management",
            area: "System Administration",
            usage: "System performance, stability and reliability ensurance: compute, interconnect, storage",
        },
        UsageEntry {
            division: "System Management",
            area: "Facility Management",
            usage: "Reliable and energy efficient power and cooling supply system design and operations",
        },
        UsageEntry {
            division: "System Management",
            area: "Cyber Security",
            usage: "Detection, diagnosis and prevention of security issues",
        },
        UsageEntry {
            division: "Operations",
            area: "User Assistance",
            usage: "Diagnostics for swift troubleshooting and solutions",
        },
        UsageEntry {
            division: "Administrative",
            area: "Program Management",
            usage: "Resource allocation, coordination, and reporting to sponsors",
        },
        UsageEntry {
            division: "Administrative",
            area: "Job Scheduling",
            usage: "Job execution priority adjustment based on program needs and user requests",
        },
        UsageEntry {
            division: "Procurement",
            area: "System Design",
            usage: "Technology integration, tuning, testing, and projection for future systems",
        },
        UsageEntry {
            division: "R&D / Cross Cutting Thrust Areas",
            area: "Performance",
            usage: "Performance optimization, tuning",
        },
        UsageEntry {
            division: "R&D / Cross Cutting Thrust Areas",
            area: "Reliability",
            usage: "Reliability projection and prediction",
        },
        UsageEntry {
            division: "R&D / Cross Cutting Thrust Areas",
            area: "Applications",
            usage: "Runtime performance monitoring and optimization, tuning, energy efficiency",
        },
        UsageEntry {
            division: "R&D / Cross Cutting Thrust Areas",
            area: "Energy Efficiency",
            usage: "Energy usage optimization from various layers of an HPC data center",
        },
    ]
}

/// Render Table I as text.
pub fn render_catalog() -> String {
    let mut out = String::new();
    let mut division = "";
    for e in usage_catalog() {
        if e.division != division {
            division = e.division;
            out.push_str(&format!("== {division} ==\n"));
        }
        out.push_str(&format!("  {:<22} {}\n", e.area, e.usage));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_divisions() {
        let cat = usage_catalog();
        let divisions: std::collections::BTreeSet<_> = cat.iter().map(|e| e.division).collect();
        assert_eq!(divisions.len(), 5);
        assert_eq!(cat.len(), 11);
    }

    #[test]
    fn render_includes_every_area() {
        let text = render_catalog();
        for e in usage_catalog() {
            assert!(text.contains(e.area), "missing {}", e.area);
        }
    }
}
