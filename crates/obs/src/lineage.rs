//! End-to-end data lineage: a deterministic provenance graph.
//!
//! The paper's operational pain is provenance at TB/day scale: *which
//! Bronze batch produced this Gold row, and which tier holds it now?*
//! This module records that as a small labeled graph — [`LineageNode`]s
//! for offset ranges, frame digests, objects, series, and tier
//! placements; edges for the relations between them (`decode`,
//! `transform`, `reduce`, `persist`, `archive`).
//!
//! Node identity is the FNV-1a hash of the node's canonical label, so
//! two components that independently describe the same artifact (the
//! pipeline recording a Silver frame digest, an example re-digesting
//! the sink's frame) converge on the same node without coordination.
//! Everything is replay-stable: digests are hashes of colfile bytes,
//! offsets come from the broker's deterministic assignment, and the
//! graph is stored in B-tree collections so iteration order is fixed.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use crate::trace::fnv1a;

/// Stable identifier of a lineage node: FNV-1a of its canonical label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineageNodeId(pub u64);

/// One vertex in the provenance graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LineageNode {
    /// A half-open offset range `[start, end)` of one topic partition —
    /// the raw STREAM provenance of an epoch.
    OffsetRange {
        /// Source topic.
        topic: String,
        /// Partition id.
        partition: u64,
        /// First offset consumed (inclusive).
        start: u64,
        /// Position after the range (exclusive).
        end: u64,
    },
    /// A medallion frame, identified by the digest of its colfile bytes.
    Frame {
        /// Medallion stage (`bronze`, `silver`, `gold`).
        stage: String,
        /// Epoch that produced the frame.
        epoch: u64,
        /// FNV-1a digest of the frame's colfile serialization.
        digest: u64,
        /// Row count (auxiliary; not part of identity input beyond the
        /// label it renders into).
        rows: u64,
    },
    /// A derived cross-epoch artifact (e.g. a Gold reduction over many
    /// Silver epochs), identified by name + digest.
    Derived {
        /// Artifact name.
        name: String,
        /// FNV-1a digest of the artifact's colfile serialization.
        digest: u64,
        /// Row count.
        rows: u64,
    },
    /// An object in OCEAN (bucket + key).
    Object {
        /// Bucket name.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// A LAKE time series.
    Series {
        /// Series key.
        name: String,
    },
    /// A tier-manager artifact placement (artifact resides in tier).
    Placement {
        /// Artifact name as registered with the tier manager.
        artifact: String,
        /// Tier label (`STREAM`, `LAKE`, `OCEAN`, `GLACIER`).
        tier: String,
    },
    /// One node's replica of a topic partition on the broker. Every
    /// non-empty fetch links the serving replica to the offset range it
    /// produced (`serve-isr` when in-sync, `serve-stale` otherwise), so
    /// provenance can prove no refined byte came from a stale read.
    Replica {
        /// Topic of the partition.
        topic: String,
        /// Partition id.
        partition: u64,
        /// Node holding the replica.
        node: u64,
    },
}

impl LineageNode {
    /// Canonical label — the string hashed into [`LineageNode::id`] and
    /// shown by lineage displays.
    pub fn label(&self) -> String {
        match self {
            LineageNode::OffsetRange {
                topic,
                partition,
                start,
                end,
            } => format!("offsets:{topic}/{partition}@[{start},{end})"),
            LineageNode::Frame {
                stage,
                epoch,
                digest,
                rows,
            } => format!("frame:{stage}/e{epoch}#{digest:016x}({rows}r)"),
            LineageNode::Derived { name, digest, rows } => {
                format!("derived:{name}#{digest:016x}({rows}r)")
            }
            LineageNode::Object { bucket, key } => format!("object:{bucket}/{key}"),
            LineageNode::Series { name } => format!("series:{name}"),
            LineageNode::Placement { artifact, tier } => {
                format!("placement:{artifact}@{tier}")
            }
            LineageNode::Replica {
                topic,
                partition,
                node,
            } => format!("replica:{topic}/{partition}@n{node}"),
        }
    }

    /// Stable node identity (FNV-1a of [`Self::label`]).
    pub fn id(&self) -> LineageNodeId {
        LineageNodeId(fnv1a(self.label().as_bytes()))
    }

    /// The frame/artifact digest, for digest-keyed lookups.
    pub fn digest(&self) -> Option<u64> {
        match self {
            LineageNode::Frame { digest, .. } | LineageNode::Derived { digest, .. } => {
                Some(*digest)
            }
            _ => None,
        }
    }
}

#[derive(Debug, Default)]
struct Graph {
    nodes: BTreeMap<LineageNodeId, LineageNode>,
    /// `(from, to, relation)` triples; `BTreeSet` gives dedup + fixed order.
    edges: BTreeSet<(LineageNodeId, LineageNodeId, String)>,
}

/// The shared, mutable lineage store. Cheap to clone (`Arc`-backed);
/// recording is a no-op when collection is compiled out.
#[derive(Debug, Clone, Default)]
pub struct Lineage {
    inner: Arc<Mutex<Graph>>,
}

impl Lineage {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a node without any edge (e.g. an initial tier placement).
    pub fn touch(&self, node: LineageNode) {
        if !crate::enabled() {
            return;
        }
        let mut g = self.inner.lock().unwrap();
        g.nodes.insert(node.id(), node);
    }

    /// Record the edge `from --relation--> to`, inserting both nodes.
    /// Duplicate links are idempotent.
    pub fn link(&self, from: LineageNode, to: LineageNode, relation: &str) {
        if !crate::enabled() {
            return;
        }
        let (fid, tid) = (from.id(), to.id());
        let mut g = self.inner.lock().unwrap();
        g.nodes.insert(fid, from);
        g.nodes.insert(tid, to);
        g.edges.insert((fid, tid, relation.to_string()));
    }

    /// Number of edges recorded.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().edges.len()
    }

    /// True when no edges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An immutable query snapshot of the current graph.
    pub fn query(&self) -> LineageQuery {
        let g = self.inner.lock().unwrap();
        LineageQuery {
            nodes: g.nodes.clone(),
            edges: g.edges.iter().cloned().collect(),
        }
    }
}

/// An immutable snapshot of the lineage graph with traversal helpers.
#[derive(Debug, Clone)]
pub struct LineageQuery {
    nodes: BTreeMap<LineageNodeId, LineageNode>,
    edges: Vec<(LineageNodeId, LineageNodeId, String)>,
}

impl LineageQuery {
    /// All nodes, in stable id order.
    pub fn nodes(&self) -> impl Iterator<Item = (&LineageNodeId, &LineageNode)> {
        self.nodes.iter()
    }

    /// All `(from, to, relation)` edges, in stable order.
    pub fn edges(&self) -> &[(LineageNodeId, LineageNodeId, String)] {
        &self.edges
    }

    /// Look up one node by id.
    pub fn node(&self, id: LineageNodeId) -> Option<&LineageNode> {
        self.nodes.get(&id)
    }

    /// Find the frame/derived node carrying `digest`, if recorded.
    pub fn find_digest(&self, digest: u64) -> Option<LineageNodeId> {
        self.nodes
            .iter()
            .find(|(_, n)| n.digest() == Some(digest))
            .map(|(id, _)| *id)
    }

    /// Edges pointing *into* `id` (its direct provenance), with relations.
    pub fn edges_into(&self, id: LineageNodeId) -> Vec<(&LineageNode, &str)> {
        self.edges
            .iter()
            .filter(|(_, to, _)| *to == id)
            .filter_map(|(from, _, rel)| self.nodes.get(from).map(|n| (n, rel.as_str())))
            .collect()
    }

    /// Every ancestor of `id` (transitive provenance), BFS order with
    /// depth (1 = direct parent). Deterministic: each frontier is
    /// expanded in stable edge order and revisits are suppressed.
    pub fn ancestors_of(&self, id: LineageNodeId) -> Vec<(u32, LineageNodeId, &LineageNode)> {
        self.walk(id, Direction::Up)
    }

    /// Every ancestor of the frame/derived node carrying `digest`.
    /// Empty when the digest was never recorded.
    pub fn ancestors_of_digest(&self, digest: u64) -> Vec<(u32, LineageNodeId, &LineageNode)> {
        self.find_digest(digest)
            .map(|id| self.ancestors_of(id))
            .unwrap_or_default()
    }

    /// Every descendant of `id` (everything derived from it), BFS order
    /// with depth.
    pub fn descendants_of(&self, id: LineageNodeId) -> Vec<(u32, LineageNodeId, &LineageNode)> {
        self.walk(id, Direction::Down)
    }

    /// Did every STREAM read feeding the artifact with `digest` come
    /// from an in-sync replica?
    ///
    /// Walks the artifact's ancestry, and for each
    /// [`LineageNode::OffsetRange`] ancestor inspects the replica edges
    /// into it: a `serve-stale` edge (a fetch served by a replica that
    /// was out of the in-sync set) fails the check. Vacuously true when
    /// no replica served any ancestor (single-node broker provenance),
    /// and false when the digest was never recorded — absent provenance
    /// cannot prove cleanliness.
    pub fn served_only_by_isr(&self, digest: u64) -> bool {
        let Some(id) = self.find_digest(digest) else {
            return false;
        };
        let mut ranges: Vec<LineageNodeId> = self
            .ancestors_of(id)
            .into_iter()
            .filter(|(_, _, n)| matches!(n, LineageNode::OffsetRange { .. }))
            .map(|(_, rid, _)| rid)
            .collect();
        ranges.push(id);
        ranges.iter().all(|&rid| {
            self.edges_into(rid).iter().all(|(from, rel)| {
                !matches!(from, LineageNode::Replica { .. }) || *rel != "serve-stale"
            })
        })
    }

    fn walk(
        &self,
        start: LineageNodeId,
        dir: Direction,
    ) -> Vec<(u32, LineageNodeId, &LineageNode)> {
        let mut seen: BTreeSet<LineageNodeId> = BTreeSet::new();
        seen.insert(start);
        let mut frontier = vec![start];
        let mut out = Vec::new();
        let mut depth = 0u32;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for node in frontier {
                for (from, to, _) in &self.edges {
                    let hop = match dir {
                        Direction::Up if *to == node => *from,
                        Direction::Down if *from == node => *to,
                        _ => continue,
                    };
                    if seen.insert(hop) {
                        if let Some(n) = self.nodes.get(&hop) {
                            out.push((depth, hop, n));
                        }
                        next.push(hop);
                    }
                }
            }
            frontier = next;
        }
        out
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Up,
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offsets(p: u64) -> LineageNode {
        LineageNode::OffsetRange {
            topic: "bronze".into(),
            partition: p,
            start: 0,
            end: 10,
        }
    }

    fn frame(stage: &str, digest: u64) -> LineageNode {
        LineageNode::Frame {
            stage: stage.into(),
            epoch: 0,
            digest,
            rows: 10,
        }
    }

    #[test]
    fn node_ids_hash_canonical_labels() {
        let n = offsets(1);
        assert_eq!(n.label(), "offsets:bronze/1@[0,10)");
        assert_eq!(n.id(), LineageNodeId(fnv1a(n.label().as_bytes())));
        assert_ne!(offsets(1).id(), offsets(2).id());
    }

    #[test]
    fn ancestors_and_descendants_traverse_transitively() {
        let l = Lineage::new();
        l.link(offsets(0), frame("bronze", 0xb), "decode");
        l.link(offsets(1), frame("bronze", 0xb), "decode");
        l.link(frame("bronze", 0xb), frame("silver", 0x5), "transform");
        l.link(
            frame("silver", 0x5),
            LineageNode::Object {
                bucket: "warm".into(),
                key: "part-000000.ocf".into(),
            },
            "persist",
        );
        if !crate::enabled() {
            assert!(l.is_empty());
            return;
        }
        let q = l.query();
        let silver = q.find_digest(0x5).expect("silver digest recorded");
        let anc = q.ancestors_of(silver);
        // bronze at depth 1, both offset ranges at depth 2.
        assert_eq!(anc.len(), 3);
        assert_eq!(anc[0].0, 1);
        assert!(matches!(anc[0].2, LineageNode::Frame { stage, .. } if stage == "bronze"));
        assert!(anc[1..]
            .iter()
            .all(|(d, _, n)| *d == 2 && matches!(n, LineageNode::OffsetRange { .. })));
        let desc = q.descendants_of(offsets(0).id());
        assert_eq!(desc.len(), 3, "bronze, silver, object");
        assert!(matches!(desc[2].2, LineageNode::Object { .. }));
        // Idempotent links: re-linking adds nothing.
        l.link(offsets(0), frame("bronze", 0xb), "decode");
        assert_eq!(l.query().edges().len(), q.edges().len());
    }

    fn replica(node: u64) -> LineageNode {
        LineageNode::Replica {
            topic: "bronze".into(),
            partition: 0,
            node,
        }
    }

    #[test]
    fn served_only_by_isr_flags_stale_reads() {
        let l = Lineage::new();
        l.link(replica(0), offsets(0), "serve-isr");
        l.link(offsets(0), frame("bronze", 0xb), "decode");
        l.link(frame("bronze", 0xb), frame("gold", 0x601d), "reduce");
        if !crate::enabled() {
            assert!(!l.query().served_only_by_isr(0x601d));
            return;
        }
        assert_eq!(replica(2).label(), "replica:bronze/0@n2");
        let clean = l.query();
        assert!(clean.served_only_by_isr(0x601d));
        // Unknown digests can't be proven clean.
        assert!(!clean.served_only_by_isr(0xdead));
        // A stale read anywhere in the ancestry poisons the artifact.
        l.link(replica(2), offsets(0), "serve-stale");
        assert!(!l.query().served_only_by_isr(0x601d));
    }
}
