//! Golden fixture for cluster partition placement.
//!
//! [`Broker::placement`] is a pure function of `(topic, partition,
//! nodes, replication)`; this test pins its output for small clusters
//! so any change to the placement hash, ring order, or replication
//! clamp is caught as a golden drift rather than a silent reshuffle
//! (which would break byte-identity of replayed pipelines).
//!
//! On mismatch the actual table is written to
//! `target/cluster-assignment-actual.json` so CI can upload it as an
//! artifact for diffing against `tests/golden/cluster_assignment.json`.

mod common;

use oda::stream::Broker;
use std::fmt::Write as _;

const TOPIC: &str = "bronze";
const PARTITIONS: u32 = 8;
const REPLICATION: u32 = 3;
const NODE_COUNTS: [u32; 3] = [1, 3, 5];

/// Render the assignment tables as deterministic, hand-ordered JSON.
fn render_assignment() -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"topic\": \"{TOPIC}\",");
    let _ = writeln!(out, "  \"partitions\": {PARTITIONS},");
    let _ = writeln!(out, "  \"replication\": {REPLICATION},");
    out.push_str("  \"clusters\": [\n");
    for (i, &nodes) in NODE_COUNTS.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"nodes\": {nodes},");
        out.push_str("      \"assignment\": [\n");
        for p in 0..PARTITIONS {
            let set = Broker::placement(TOPIC, p, nodes, REPLICATION);
            let followers: Vec<String> = set[1..].iter().map(u32::to_string).collect();
            let _ = write!(
                out,
                "        {{\"partition\": {p}, \"leader\": {}, \"followers\": [{}]}}",
                set[0],
                followers.join(", ")
            );
            out.push_str(if p + 1 < PARTITIONS { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if i + 1 < NODE_COUNTS.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[test]
fn placement_matches_golden_assignment() {
    common::assert_golden(
        "cluster_assignment.json",
        "cluster-assignment-actual.json",
        &render_assignment(),
    );
}

#[test]
fn live_clusters_agree_with_the_golden_table() {
    // The pure function is the golden source; a real cluster must seed
    // its leaders and replica sets from exactly that table.
    for &nodes in &NODE_COUNTS {
        let c = Broker::replicated(nodes, REPLICATION);
        c.create_topic(TOPIC, PARTITIONS, oda::stream::RetentionPolicy::unbounded())
            .unwrap();
        for p in 0..PARTITIONS {
            let want = Broker::placement(TOPIC, p, nodes, REPLICATION);
            assert_eq!(c.replicas(TOPIC, p).unwrap(), want, "n={nodes} p={p}");
            assert_eq!(c.leader(TOPIC, p).unwrap(), want[0], "n={nodes} p={p}");
        }
    }
}

#[test]
fn assignment_spreads_leaders_across_nodes() {
    // With 8 partitions on 5 nodes the FNV placement must not collapse
    // onto a single leader (a regression guard for the hash input
    // format, which includes the partition index).
    let leaders: std::collections::BTreeSet<u32> = (0..PARTITIONS)
        .map(|p| Broker::placement(TOPIC, p, 5, REPLICATION)[0])
        .collect();
    assert!(
        leaders.len() > 1,
        "all partitions led by node {leaders:?} — hash input degenerate"
    );
}
