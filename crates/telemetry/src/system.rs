//! System topology models.
//!
//! Two reference models mirror the paper's anonymized generations in
//! Fig. 3: **Mountain** (Summit-like) and **Compass** (Frontier-like).
//! A small `tiny` model keeps tests fast.

/// Static description of one supercomputer generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemModel {
    /// Human-readable system name ("mountain", "compass", ...).
    pub name: String,
    /// Number of cabinets (racks).
    pub cabinets: u32,
    /// Compute nodes per cabinet.
    pub nodes_per_cabinet: u32,
    /// CPU sockets per node.
    pub cpus_per_node: u8,
    /// GPU devices per node (GCDs on dual-die parts).
    pub gpus_per_node: u8,
    /// Idle power draw of one node in watts (all components at rest).
    pub node_idle_watts: f64,
    /// Peak power draw of one node in watts (all components flat out).
    pub node_peak_watts: f64,
    /// GPU share of the node's dynamic (peak - idle) power range.
    pub gpu_dynamic_share: f64,
    /// Nominal facility-side peak power in megawatts, used by the twin.
    pub peak_mw: f64,
    /// Whether the system is liquid cooled (drives the twin's cooling
    /// model and the cabinet cooling-loop sensors).
    pub liquid_cooled: bool,
}

impl SystemModel {
    /// Summit-like generation: 4,608 nodes (256 cabinets x 18), 2 CPUs +
    /// 6 GPUs per node, ~13 MW peak.
    pub fn mountain() -> Self {
        SystemModel {
            name: "mountain".to_string(),
            cabinets: 256,
            nodes_per_cabinet: 18,
            cpus_per_node: 2,
            gpus_per_node: 6,
            node_idle_watts: 750.0,
            node_peak_watts: 2_700.0,
            gpu_dynamic_share: 0.75,
            peak_mw: 13.0,
            liquid_cooled: true,
        }
    }

    /// Frontier-like generation: 9,408 nodes (74 cabinets x ~128), 1 CPU
    /// + 8 GPU dies per node, ~29 MW peak.
    pub fn compass() -> Self {
        SystemModel {
            name: "compass".to_string(),
            cabinets: 74,
            nodes_per_cabinet: 128,
            cpus_per_node: 1,
            gpus_per_node: 8,
            node_idle_watts: 900.0,
            node_peak_watts: 3_400.0,
            gpu_dynamic_share: 0.85,
            peak_mw: 29.0,
            liquid_cooled: true,
        }
    }

    /// Small model for tests: 2 cabinets x 4 nodes.
    pub fn tiny() -> Self {
        SystemModel {
            name: "tiny".to_string(),
            cabinets: 2,
            nodes_per_cabinet: 4,
            cpus_per_node: 1,
            gpus_per_node: 2,
            node_idle_watts: 500.0,
            node_peak_watts: 2_000.0,
            gpu_dynamic_share: 0.8,
            peak_mw: 0.016,
            liquid_cooled: true,
        }
    }

    /// Total compute node count.
    pub fn node_count(&self) -> u32 {
        self.cabinets * self.nodes_per_cabinet
    }

    /// Cabinet index that a global node index belongs to.
    pub fn cabinet_of(&self, node: u32) -> u32 {
        node / self.nodes_per_cabinet
    }

    /// Peak dynamic power range of one node in watts.
    pub fn node_dynamic_watts(&self) -> f64 {
        self.node_peak_watts - self.node_idle_watts
    }

    /// Number of GPU devices in the whole system.
    pub fn gpu_count(&self) -> u64 {
        u64::from(self.node_count()) * u64::from(self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mountain_matches_summit_scale() {
        let m = SystemModel::mountain();
        assert_eq!(m.node_count(), 4_608);
        assert_eq!(m.gpu_count(), 27_648);
    }

    #[test]
    fn compass_matches_frontier_scale() {
        let c = SystemModel::compass();
        assert_eq!(c.node_count(), 9_472);
        assert_eq!(c.gpus_per_node, 8);
        assert!(c.node_count() > SystemModel::mountain().node_count());
    }

    #[test]
    fn cabinet_of_partitions_nodes() {
        let s = SystemModel::tiny();
        assert_eq!(s.cabinet_of(0), 0);
        assert_eq!(s.cabinet_of(3), 0);
        assert_eq!(s.cabinet_of(4), 1);
        assert_eq!(s.cabinet_of(7), 1);
    }

    #[test]
    fn dynamic_power_positive() {
        for s in [
            SystemModel::mountain(),
            SystemModel::compass(),
            SystemModel::tiny(),
        ] {
            assert!(s.node_dynamic_watts() > 0.0, "{}", s.name);
        }
    }
}
