//! L0–L5 data-readiness maturity (Fig. 2) and the area x source matrix
//! (Fig. 3).
//!
//! A data stream matures from *identified* (L0) through *collected*,
//! *explored*, *pipelined*, *operational*, to *sustained* (L5).
//! Promotion is gated: one level at a time, and reaching L3 requires a
//! complete data-dictionary entry (§VI-A's exploration-campaign
//! precondition). [`MaturityMatrix::paper_seed`] encodes Fig. 3
//! cell-for-cell for the two generations (Mountain, Compass).

use crate::dictionary::DataDictionary;
use std::collections::BTreeMap;

/// Data-usage readiness level (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Maturity {
    /// Use case identified; collection planned.
    L0,
    /// Raw data collected and landed.
    L1,
    /// Explored: quality, meaning, and value understood.
    L2,
    /// Refinement pipeline developed (Bronze to Silver in production).
    L3,
    /// In operational use (dashboards, reports, alerts).
    L4,
    /// Sustained: institutionalized across system generations.
    L5,
}

impl Maturity {
    /// All levels in order.
    pub const ALL: [Maturity; 6] = [
        Maturity::L0,
        Maturity::L1,
        Maturity::L2,
        Maturity::L3,
        Maturity::L4,
        Maturity::L5,
    ];

    /// Numeric level.
    pub fn level(self) -> u8 {
        match self {
            Maturity::L0 => 0,
            Maturity::L1 => 1,
            Maturity::L2 => 2,
            Maturity::L3 => 3,
            Maturity::L4 => 4,
            Maturity::L5 => 5,
        }
    }

    /// The next level up, if any.
    pub fn next(self) -> Option<Maturity> {
        Maturity::ALL.get(usize::from(self.level()) + 1).copied()
    }

    /// Short label ("L3").
    pub fn label(self) -> String {
        format!("L{}", self.level())
    }
}

/// Organizational areas — the X axis of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Area {
    /// System management.
    SystemMgmt,
    /// User assistance.
    UserAssist,
    /// Facility management.
    FacilityMgmt,
    /// Cyber security.
    CyberSec,
    /// Applications.
    Apps,
    /// Program management.
    ProgramMgmt,
    /// Procurement.
    Procurement,
    /// Research & development.
    RnD,
}

impl Area {
    /// All areas in Fig. 3 order.
    pub const ALL: [Area; 8] = [
        Area::SystemMgmt,
        Area::UserAssist,
        Area::FacilityMgmt,
        Area::CyberSec,
        Area::Apps,
        Area::ProgramMgmt,
        Area::Procurement,
        Area::RnD,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Area::SystemMgmt => "sys-mgmt",
            Area::UserAssist => "user-assist",
            Area::FacilityMgmt => "facility",
            Area::CyberSec => "cyber",
            Area::Apps => "apps",
            Area::ProgramMgmt => "program",
            Area::Procurement => "procure",
            Area::RnD => "r&d",
        }
    }
}

/// Data-stream rows — the Y axis of Fig. 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StreamRow {
    /// Compute-node hardware performance counters.
    PerfCounters,
    /// Compute-node resource utilization.
    ResourceUtil,
    /// Compute-node power & temperature.
    PowerTemp,
    /// Parallel-filesystem client counters.
    StorageClient,
    /// Interconnect client counters.
    InterconnectClient,
    /// Storage-system telemetry.
    StorageSystem,
    /// Interconnect fabric telemetry.
    Interconnect,
    /// Syslog & events.
    SyslogEvents,
    /// Resource-manager logs.
    ResourceManager,
    /// Customer-relationship data (tickets, accounts).
    Crm,
    /// Facility power & cooling telemetry.
    Facility,
}

impl StreamRow {
    /// All rows in Fig. 3 order.
    pub const ALL: [StreamRow; 11] = [
        StreamRow::PerfCounters,
        StreamRow::ResourceUtil,
        StreamRow::PowerTemp,
        StreamRow::StorageClient,
        StreamRow::InterconnectClient,
        StreamRow::StorageSystem,
        StreamRow::Interconnect,
        StreamRow::SyslogEvents,
        StreamRow::ResourceManager,
        StreamRow::Crm,
        StreamRow::Facility,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            StreamRow::PerfCounters => "perf-counters",
            StreamRow::ResourceUtil => "resource-util",
            StreamRow::PowerTemp => "power-temp",
            StreamRow::StorageClient => "storage-client",
            StreamRow::InterconnectClient => "interconn-client",
            StreamRow::StorageSystem => "storage-system",
            StreamRow::Interconnect => "interconnect",
            StreamRow::SyslogEvents => "syslog-events",
            StreamRow::ResourceManager => "resource-mgr",
            StreamRow::Crm => "crm",
            StreamRow::Facility => "facility",
        }
    }

    /// The owning area responsible for producing this stream (the
    /// boldface outlines of Fig. 3).
    pub fn owner(self) -> Area {
        match self {
            StreamRow::PerfCounters
            | StreamRow::ResourceUtil
            | StreamRow::PowerTemp
            | StreamRow::StorageClient
            | StreamRow::InterconnectClient
            | StreamRow::StorageSystem
            | StreamRow::Interconnect
            | StreamRow::SyslogEvents
            | StreamRow::ResourceManager => Area::SystemMgmt,
            StreamRow::Crm => Area::ProgramMgmt,
            StreamRow::Facility => Area::FacilityMgmt,
        }
    }
}

/// One cell: maturity on each of the two tracked generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Maturity on the Mountain (prior) generation.
    pub mountain: Maturity,
    /// Maturity on the Compass (current) generation.
    pub compass: Maturity,
}

/// The full Fig. 3 matrix plus promotion rules.
#[derive(Debug, Clone, Default)]
pub struct MaturityMatrix {
    cells: BTreeMap<(StreamRow, Area), Cell>,
}

/// Which system generation a promotion applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// The prior system.
    Mountain,
    /// The current system.
    Compass,
}

impl MaturityMatrix {
    /// Empty matrix.
    pub fn new() -> MaturityMatrix {
        MaturityMatrix::default()
    }

    /// Seed with Fig. 3's published cells.
    pub fn paper_seed() -> MaturityMatrix {
        use Area::*;
        use Maturity::*;
        use StreamRow::*;
        let mut m = MaturityMatrix::new();
        let mut set = |row, area, a, b| {
            m.cells.insert(
                (row, area),
                Cell {
                    mountain: a,
                    compass: b,
                },
            );
        };
        set(PerfCounters, Apps, L0, L0);
        set(PerfCounters, Procurement, L0, L0);
        set(PerfCounters, RnD, L0, L0);
        set(ResourceUtil, UserAssist, L0, L0);
        set(ResourceUtil, Apps, L0, L1);
        set(ResourceUtil, ProgramMgmt, L5, L5);
        set(ResourceUtil, Procurement, L2, L1);
        set(ResourceUtil, RnD, L0, L1);
        set(PowerTemp, SystemMgmt, L1, L1);
        set(PowerTemp, UserAssist, L0, L3);
        set(PowerTemp, FacilityMgmt, L4, L4);
        set(PowerTemp, Apps, L2, L2);
        set(PowerTemp, Procurement, L1, L1);
        set(PowerTemp, RnD, L5, L3);
        set(StorageClient, SystemMgmt, L1, L1);
        set(StorageClient, UserAssist, L5, L5);
        set(StorageClient, Apps, L0, L1);
        set(StorageClient, Procurement, L2, L1);
        set(StorageClient, RnD, L5, L1);
        set(InterconnectClient, SystemMgmt, L1, L1);
        set(InterconnectClient, UserAssist, L5, L5);
        set(InterconnectClient, Apps, L0, L1);
        set(InterconnectClient, Procurement, L2, L0);
        set(InterconnectClient, RnD, L0, L1);
        set(StorageSystem, SystemMgmt, L4, L2);
        set(StorageSystem, Procurement, L2, L0);
        set(StorageSystem, RnD, L0, L0);
        set(Interconnect, SystemMgmt, L0, L0);
        set(Interconnect, UserAssist, L0, L0);
        set(Interconnect, Procurement, L2, L1);
        set(Interconnect, RnD, L0, L0);
        set(SyslogEvents, SystemMgmt, L5, L5);
        set(SyslogEvents, UserAssist, L5, L5);
        set(SyslogEvents, FacilityMgmt, L4, L1);
        set(SyslogEvents, CyberSec, L5, L4);
        set(SyslogEvents, Procurement, L4, L2);
        set(SyslogEvents, RnD, L4, L1);
        set(ResourceManager, SystemMgmt, L5, L5);
        set(ResourceManager, UserAssist, L5, L5);
        set(ResourceManager, CyberSec, L5, L4);
        set(ResourceManager, ProgramMgmt, L5, L5);
        set(ResourceManager, Procurement, L5, L4);
        set(ResourceManager, RnD, L5, L3);
        set(Crm, UserAssist, L5, L5);
        set(Crm, ProgramMgmt, L5, L5);
        set(Crm, Procurement, L1, L1);
        set(Facility, FacilityMgmt, L5, L4);
        set(Facility, Procurement, L5, L5);
        set(Facility, RnD, L4, L3);
        m
    }

    /// Read one cell.
    pub fn get(&self, row: StreamRow, area: Area) -> Option<Cell> {
        self.cells.get(&(row, area)).copied()
    }

    /// Register a new (row, area) use case at L0/L0.
    pub fn register(&mut self, row: StreamRow, area: Area) {
        self.cells.entry((row, area)).or_insert(Cell {
            mountain: Maturity::L0,
            compass: Maturity::L0,
        });
    }

    /// Promote a cell by one level on one generation.
    ///
    /// Gate: reaching L3 (pipeline developed) requires a complete data
    /// dictionary entry for the stream — the §VI-A precondition.
    pub fn promote(
        &mut self,
        row: StreamRow,
        area: Area,
        generation: Generation,
        dictionary: &DataDictionary,
    ) -> Result<Maturity, String> {
        let cell = self
            .cells
            .get_mut(&(row, area))
            .ok_or_else(|| format!("({row:?}, {area:?}) not registered"))?;
        let current = match generation {
            Generation::Mountain => cell.mountain,
            Generation::Compass => cell.compass,
        };
        let next = current.next().ok_or_else(|| "already at L5".to_string())?;
        if next >= Maturity::L3 && !dictionary.is_complete(row) {
            return Err(format!(
                "promotion to {} requires a complete data dictionary for {}",
                next.label(),
                row.label()
            ));
        }
        match generation {
            Generation::Mountain => cell.mountain = next,
            Generation::Compass => cell.compass = next,
        }
        Ok(next)
    }

    /// Mean maturity level per generation — the coverage number §VI's
    /// lessons-learned worries about.
    pub fn mean_levels(&self) -> (f64, f64) {
        let n = self.cells.len().max(1) as f64;
        let (ms, cs) = self.cells.values().fold((0u32, 0u32), |(m, c), cell| {
            (
                m + u32::from(cell.mountain.level()),
                c + u32::from(cell.compass.level()),
            )
        });
        (f64::from(ms) / n, f64::from(cs) / n)
    }

    /// Render the matrix as text (rows x areas, "L4/L3" cells).
    pub fn render(&self) -> String {
        let mut out = String::from(&format!("{:<17}", ""));
        for a in Area::ALL {
            out.push_str(&format!("{:>12}", a.label()));
        }
        out.push('\n');
        for row in StreamRow::ALL {
            out.push_str(&format!("{:<17}", row.label()));
            for a in Area::ALL {
                match self.get(row, a) {
                    Some(c) => out.push_str(&format!(
                        "{:>12}",
                        format!("{}/{}", c.mountain.label(), c.compass.label())
                    )),
                    None => out.push_str(&format!("{:>12}", ".")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Number of populated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when no cells are populated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_seed_matches_published_cells() {
        let m = MaturityMatrix::paper_seed();
        // Spot checks against Fig. 3.
        let c = m.get(StreamRow::PowerTemp, Area::RnD).unwrap();
        assert_eq!((c.mountain, c.compass), (Maturity::L5, Maturity::L3));
        let c = m.get(StreamRow::SyslogEvents, Area::CyberSec).unwrap();
        assert_eq!((c.mountain, c.compass), (Maturity::L5, Maturity::L4));
        let c = m.get(StreamRow::PerfCounters, Area::RnD).unwrap();
        assert_eq!((c.mountain, c.compass), (Maturity::L0, Maturity::L0));
        assert!(m.get(StreamRow::PerfCounters, Area::CyberSec).is_none());
        assert_eq!(m.len(), 49);
    }

    #[test]
    fn newer_system_lags_in_maturity() {
        // The paper's observation: Compass (newer) cells lag Mountain in
        // several rows because readiness takes time.
        let (mountain, compass) = MaturityMatrix::paper_seed().mean_levels();
        assert!(
            mountain > compass,
            "mountain {mountain} vs compass {compass}"
        );
    }

    #[test]
    fn promotion_is_one_step_and_gated() {
        let mut m = MaturityMatrix::new();
        m.register(StreamRow::PowerTemp, Area::RnD);
        let empty_dict = DataDictionary::new();
        // L0 -> L1 -> L2 ungated.
        assert_eq!(
            m.promote(
                StreamRow::PowerTemp,
                Area::RnD,
                Generation::Compass,
                &empty_dict
            ),
            Ok(Maturity::L1)
        );
        assert_eq!(
            m.promote(
                StreamRow::PowerTemp,
                Area::RnD,
                Generation::Compass,
                &empty_dict
            ),
            Ok(Maturity::L2)
        );
        // L2 -> L3 requires the dictionary.
        assert!(m
            .promote(
                StreamRow::PowerTemp,
                Area::RnD,
                Generation::Compass,
                &empty_dict
            )
            .is_err());
        let mut dict = DataDictionary::new();
        dict.complete_stream(StreamRow::PowerTemp);
        assert_eq!(
            m.promote(StreamRow::PowerTemp, Area::RnD, Generation::Compass, &dict),
            Ok(Maturity::L3)
        );
        // Mountain generation untouched.
        assert_eq!(
            m.get(StreamRow::PowerTemp, Area::RnD).unwrap().mountain,
            Maturity::L0
        );
    }

    #[test]
    fn cannot_promote_past_l5() {
        let mut m = MaturityMatrix::paper_seed();
        let mut dict = DataDictionary::new();
        dict.complete_stream(StreamRow::ResourceManager);
        let err = m
            .promote(
                StreamRow::ResourceManager,
                Area::SystemMgmt,
                Generation::Compass,
                &dict,
            )
            .unwrap_err();
        assert!(err.contains("L5"));
    }

    #[test]
    fn owners_match_paper_structure() {
        assert_eq!(StreamRow::Facility.owner(), Area::FacilityMgmt);
        assert_eq!(StreamRow::Crm.owner(), Area::ProgramMgmt);
        assert_eq!(StreamRow::PowerTemp.owner(), Area::SystemMgmt);
    }

    #[test]
    fn render_contains_all_rows() {
        let text = MaturityMatrix::paper_seed().render();
        for row in StreamRow::ALL {
            assert!(text.contains(row.label()));
        }
        assert!(text.contains("L5/L3"));
    }
}
