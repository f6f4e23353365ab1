//! Arena-vs-BTree oracle equivalence for the CDS construction.
//!
//! The arena refactor replaced node-id-keyed `BTreeMap`/`BTreeSet` state
//! in the CDS protocol and the centralized connector election with
//! sorted-vec containers (`VecMap`/`VecSet`), and gave the connector
//! election a per-dominator dominatee index instead of its stage-3
//! `0..n` scan. The modules under `oracle/` are verbatim pre-refactor
//! copies of `protocol.rs` and `connector.rs`; these tests pin the live
//! code against them — identical roles, backbone edges, and per-node /
//! per-kind message counts — on random deployments and ranks.

#[path = "oracle/protocol.rs"]
#[allow(dead_code)]
#[expect(
    clippy::unreachable,
    reason = "verbatim pre-refactor copy: keeps the live protocol's impossible-state arms"
)]
mod oracle_protocol;

#[path = "oracle/connector.rs"]
#[allow(dead_code)]
mod oracle_connector;

use geospan_cds::{cluster, find_connectors, protocol, ClusterRank};
use geospan_graph::gen::{uniform_points, UnitDiskBuilder};
use geospan_graph::Graph;
use proptest::prelude::*;

fn deployment() -> impl Strategy<Value = Graph> {
    (8usize..60, 25.0f64..60.0, any::<u64>()).prop_map(|(n, radius, seed)| {
        let pts = uniform_points(n, 120.0, seed);
        UnitDiskBuilder::new(radius).build(&pts)
    })
}

fn rank() -> impl Strategy<Value = u8> {
    0u8..3
}

fn make_rank(kind: u8, g: &Graph, seed: u64) -> ClusterRank {
    match kind {
        0 => ClusterRank::LowestId,
        1 => ClusterRank::HighestDegree,
        _ => {
            let mut s = seed | 1;
            ClusterRank::Weight(
                (0..g.node_count())
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s % 1000
                    })
                    .collect(),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cds_protocol_matches_btree_oracle(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let (new, new_stats) = protocol::run_cds(&g, &r).expect("arena protocol converges");
        let (old, old_stats) = oracle_protocol::run_cds(&g, &r).expect("oracle protocol converges");
        prop_assert!(oracle_protocol::same_structure(&new, &old));
        prop_assert_eq!(new.roles, old.roles);
        prop_assert_eq!(new_stats, old_stats);
    }

    #[test]
    fn connector_election_matches_btree_oracle(g in deployment(), kind in rank(), seed in any::<u64>()) {
        let r = make_rank(kind, &g, seed);
        let c = cluster(&g, &r);
        let new = find_connectors(&g, &c);
        let old = oracle_connector::find_connectors(&g, &c);
        prop_assert_eq!(new.connectors, old.connectors);
        prop_assert_eq!(new.edges, old.edges);
    }
}
