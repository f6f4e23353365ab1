//! The distributed CDS protocol: clustering + Algorithm 1 as real
//! message passing.
//!
//! Runs on [`geospan_sim`] in five phases:
//!
//! | phase | step | messages |
//! |-------|------|----------|
//! | 0 | learn neighbor ranks | `Hello` |
//! | 1 | MIS election ("smallest rank among white neighbors") | `IamDominator`, `IamDominatee` |
//! | 2 | connector candidacies for 2-hop and 3-hop dominator pairs | `TryConnector` |
//! | 3 | stage-1/2 winners announce; dominatees of the far dominator respond | `IamConnector`, `TryConnector` |
//! | 4 | stage-3 winners announce | `IamConnector` |
//!
//! Each message is a 1-hop broadcast; per-node totals are bounded by a
//! constant (Lemma 3 of the paper) and are measured, not assumed. The
//! final structure is identical to the centralized reference
//! ([`crate::build_cds`]) — enforced by tests.

use std::collections::{BTreeMap, BTreeSet};

use geospan_graph::collections::{VecMap, VecSet};
use geospan_graph::Graph;
use geospan_sim::{
    Context, FaultPlan, FaultReport, MessageKind, MessageStats, Network, Protocol,
    QuiescenceTimeout, ReliabilityConfig,
};

use crate::{assemble, CdsGraphs, ClusterRank, Clustering, ConnectorResult};

/// Messages of the CDS formation protocol (the paper's primitives).
#[derive(Debug, Clone, PartialEq)]
pub enum CdsMsg {
    /// Rank announcement (the paper assumes 1-hop identifiers are known;
    /// this is the broadcast that establishes it).
    Hello {
        /// The sender's election key (smaller = preferred).
        key: (i64, usize),
    },
    /// "I am a cluster-head."
    IamDominator,
    /// "I am a dominatee of `dominator`" — broadcast once per adjacent
    /// dominator (at most five times, by Lemma 1).
    IamDominatee {
        /// The dominator being acknowledged.
        dominator: usize,
    },
    /// Candidacy to connect dominators `u` and `v` (stage 1: common
    /// dominatee; stage 2: first hop of a 3-hop path; stage 3: second
    /// hop).
    TryConnector {
        /// First dominator of the pair.
        u: usize,
        /// The candidate (the sender).
        w: usize,
        /// Second dominator of the pair.
        v: usize,
        /// Election stage (1, 2 or 3).
        stage: u8,
    },
    /// Election victory announcement.
    IamConnector {
        /// First dominator of the pair.
        u: usize,
        /// The winner (the sender).
        w: usize,
        /// Second dominator of the pair.
        v: usize,
        /// Election stage (1, 2 or 3).
        stage: u8,
    },
}

impl MessageKind for CdsMsg {
    fn kind(&self) -> &'static str {
        match self {
            CdsMsg::Hello { .. } => "Hello",
            CdsMsg::IamDominator => "IamDominator",
            CdsMsg::IamDominatee { .. } => "IamDominatee",
            CdsMsg::TryConnector { .. } => "TryConnector",
            CdsMsg::IamConnector { .. } => "IamConnector",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    White,
    Dominator,
    Dominatee,
}

/// Per-node state of the CDS protocol.
#[derive(Debug)]
pub struct CdsNode {
    id: usize,
    key: (i64, usize),
    status: Status,
    /// Neighbor ranks from `Hello`. Sorted-vec map: ascending-by-id
    /// iteration, exactly like the `BTreeMap` it replaced.
    nbr_keys: VecMap<(i64, usize)>,
    /// Neighbors confirmed as dominatees.
    nbr_dominatee: VecSet,
    /// Adjacent dominators.
    dominators: VecSet,
    /// Dominators heard of via neighboring dominatees (raw; filtered
    /// against `dominators` when candidacies are formed).
    heard_dominators: VecSet,
    /// Dominators already acknowledged with `IamDominatee`.
    announced: VecSet,
    /// Candidacies this node entered: `(u, v, stage)`. Election-keyed
    /// (not node-id-keyed), and phase 3/4 broadcasts iterate it in key
    /// order — load-bearing for the pinned message traces, so `BTree*`
    /// stays here and for the two maps below.
    my_tries: BTreeSet<(usize, usize, u8)>,
    /// Candidacy announcements heard, keyed by election.
    try_heard: BTreeMap<(usize, usize, u8), VecSet>,
    /// Stage-2 winners heard per ordered pair `(u, v)`.
    stage2_winners: BTreeMap<(usize, usize), VecSet>,
    /// Whether this node elected itself a connector.
    is_connector: bool,
    /// Backbone edges this node is responsible for.
    edges: BTreeSet<(usize, usize)>,
}

impl CdsNode {
    fn new(id: usize, key: (i64, usize)) -> Self {
        CdsNode {
            id,
            key,
            status: Status::White,
            nbr_keys: VecMap::new(),
            nbr_dominatee: VecSet::new(),
            dominators: VecSet::new(),
            heard_dominators: VecSet::new(),
            announced: VecSet::new(),
            my_tries: BTreeSet::new(),
            try_heard: BTreeMap::new(),
            stage2_winners: BTreeMap::new(),
            is_connector: false,
            edges: BTreeSet::new(),
        }
    }

    /// White node election rule: declare when every better-ranked
    /// neighbor is a confirmed dominatee.
    fn maybe_declare_dominator(&mut self, ctx: &mut Context<'_, CdsMsg>) {
        if self.status != Status::White {
            return;
        }
        let blocked = self
            .nbr_keys
            .iter()
            .any(|(nbr, &k)| k < self.key && !self.nbr_dominatee.contains(nbr));
        if !blocked {
            self.status = Status::Dominator;
            ctx.broadcast(CdsMsg::IamDominator);
        }
    }

    fn add_edge(&mut self, a: usize, b: usize) {
        self.edges.insert((a.min(b), a.max(b)));
    }

    /// Did this node win the election `(u, v, stage)`? (Smallest id among
    /// itself and the heard candidates, which are exactly its neighbors
    /// in the same election.)
    fn wins(&self, key: (usize, usize, u8)) -> bool {
        self.try_heard
            .get(&key)
            .is_none_or(|heard| heard.iter().all(|w| w > self.id))
    }
}

impl Protocol for CdsNode {
    type Message = CdsMsg;

    fn on_phase(&mut self, ctx: &mut Context<'_, CdsMsg>, phase: usize) {
        // Phases 5–9 are the *recovery epilogue*, run only by the
        // fault-injected construction ([`run_cds_faulty`]): after the
        // optimistic phases 0–4 ran under message loss and crashes, the
        // surviving dominators re-beacon (5), orphaned nodes re-attach or
        // promote themselves (6), and the connector election is re-run
        // from a clean slate (7–9 repeat the logic of 2–4).
        let phase = match phase {
            5 => {
                self.my_tries.clear();
                self.try_heard.clear();
                self.stage2_winners.clear();
                self.edges.clear();
                self.is_connector = false;
                if self.status == Status::Dominator {
                    ctx.broadcast(CdsMsg::IamDominator);
                } else {
                    self.dominators.clear();
                    self.heard_dominators.clear();
                    self.announced.clear();
                    self.nbr_dominatee.clear();
                }
                return;
            }
            6 => {
                // Anyone left unattached — a white node that never
                // settled, or a dominatee whose every dominator died —
                // promotes itself. Adjacent self-promotions are safe:
                // `ICDS` is induced on backbone nodes, so the edge
                // between two adjacent dominators appears automatically.
                if self.status != Status::Dominator && self.dominators.is_empty() {
                    self.status = Status::Dominator;
                    ctx.broadcast(CdsMsg::IamDominator);
                }
                return;
            }
            p @ 7..=9 => p - 5, // re-run the election phases 2–4
            p => p,
        };
        match phase {
            0 => ctx.broadcast(CdsMsg::Hello { key: self.key }),
            1 => self.maybe_declare_dominator(ctx),
            2 => {
                if self.status != Status::Dominatee {
                    return;
                }
                // Stage 1: a candidate for every pair of own dominators.
                let ds: Vec<usize> = self.dominators.iter().collect();
                for (i, &u) in ds.iter().enumerate() {
                    for &v in &ds[i + 1..] {
                        self.my_tries.insert((u, v, 1));
                        ctx.broadcast(CdsMsg::TryConnector {
                            u,
                            w: self.id,
                            v,
                            stage: 1,
                        });
                    }
                }
                // Stage 2: own dominator toward each 2-hop dominator.
                for &u in &ds {
                    for v in &self.heard_dominators {
                        if v != u && !self.dominators.contains(v) {
                            self.my_tries.insert((u, v, 2));
                            ctx.broadcast(CdsMsg::TryConnector {
                                u,
                                w: self.id,
                                v,
                                stage: 2,
                            });
                        }
                    }
                }
            }
            3 => {
                let tries: Vec<(usize, usize, u8)> = self.my_tries.iter().copied().collect();
                for key @ (u, v, stage) in tries {
                    if stage == 3 || !self.wins(key) {
                        continue;
                    }
                    self.is_connector = true;
                    match stage {
                        1 => {
                            self.add_edge(u, self.id);
                            self.add_edge(self.id, v);
                        }
                        2 => self.add_edge(u, self.id),
                        #[expect(
                            clippy::unreachable,
                            reason = "stage 3 keys are filtered out two lines above; stages are only ever 1-3"
                        )]
                        _ => unreachable!(),
                    }
                    ctx.broadcast(CdsMsg::IamConnector {
                        u,
                        w: self.id,
                        v,
                        stage,
                    });
                }
            }
            4 => {
                let tries: Vec<(usize, usize, u8)> = self.my_tries.iter().copied().collect();
                for key @ (u, v, stage) in tries {
                    if stage != 3 || !self.wins(key) {
                        continue;
                    }
                    self.is_connector = true;
                    self.add_edge(self.id, v);
                    let w = self.stage2_winners[&(u, v)]
                        .first()
                        .expect("stage-3 candidacy implies a heard stage-2 winner");
                    self.add_edge(self.id, w);
                    ctx.broadcast(CdsMsg::IamConnector {
                        u,
                        w: self.id,
                        v,
                        stage,
                    });
                }
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, CdsMsg>, from: usize, msg: &CdsMsg) {
        match msg {
            CdsMsg::Hello { key } => {
                self.nbr_keys.insert(from, *key);
            }
            CdsMsg::IamDominator => {
                self.dominators.insert(from);
                if self.status == Status::White {
                    self.status = Status::Dominatee;
                }
                if self.status == Status::Dominatee && self.announced.insert(from) {
                    ctx.broadcast(CdsMsg::IamDominatee { dominator: from });
                }
            }
            CdsMsg::IamDominatee { dominator } => {
                self.nbr_dominatee.insert(from);
                self.heard_dominators.insert(*dominator);
                self.maybe_declare_dominator(ctx);
            }
            CdsMsg::TryConnector { u, w, v, stage } => {
                self.try_heard
                    .entry((*u, *v, *stage))
                    .or_default()
                    .insert(*w);
            }
            CdsMsg::IamConnector { u, w, v, stage } => {
                if *stage == 2 {
                    self.stage2_winners.entry((*u, *v)).or_default().insert(*w);
                    // Step 7: dominatees of v respond with a stage-3
                    // candidacy.
                    if self.status == Status::Dominatee
                        && self.dominators.contains(*v)
                        && self.my_tries.insert((*u, *v, 3))
                    {
                        ctx.broadcast(CdsMsg::TryConnector {
                            u: *u,
                            w: self.id,
                            v: *v,
                            stage: 3,
                        });
                    }
                }
            }
        }
    }
}

/// Runs the distributed CDS construction and assembles the graph family.
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge (protocol
/// bug, not an input condition).
///
/// # Panics
/// Panics if a `Weight` rank does not cover all nodes.
pub fn run_cds(
    udg: &Graph,
    rank: &ClusterRank,
) -> Result<(CdsGraphs, MessageStats), QuiescenceTimeout> {
    run_cds_inner(udg, rank, None)
}

/// Runs the distributed CDS construction under **asynchronous** delivery:
/// every broadcast is delayed by a deterministic pseudo-random number of
/// rounds in `1..=max_delay`.
///
/// The protocol's decisions are timing-independent (a node acts only on
/// facts that can no longer change), so the constructed structure is
/// identical to the synchronous run — a property the tests enforce and
/// the paper asserts for its clustering ("this protocol can also be
/// implemented using asynchronous communications").
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge.
///
/// # Panics
/// Panics if `max_delay == 0` or a `Weight` rank does not cover all
/// nodes.
pub fn run_cds_jittered(
    udg: &Graph,
    rank: &ClusterRank,
    max_delay: usize,
    seed: u64,
) -> Result<(CdsGraphs, MessageStats), QuiescenceTimeout> {
    run_cds_inner(udg, rank, Some((max_delay, seed)))
}

fn run_cds_inner(
    udg: &Graph,
    rank: &ClusterRank,
    jitter: Option<(usize, u64)>,
) -> Result<(CdsGraphs, MessageStats), QuiescenceTimeout> {
    let mut net = Network::new(udg, |id| CdsNode::new(id, rank.key(udg, id)));
    let mut budget = udg.node_count() + 16;
    if let Some((max_delay, seed)) = jitter {
        net = net.with_jitter(max_delay, seed);
        budget *= max_delay;
    }
    net.run_phases(5, budget)?;
    let (nodes, stats) = net.into_parts();
    Ok((harvest(udg, &nodes, &VecSet::new(), false), stats))
}

/// Runs the CDS construction under injected faults, with the link-layer
/// ack/retransmit scheme and the five-phase self-healing epilogue
/// (dominator beacons, orphan re-attachment / self-promotion, connector
/// re-election).
///
/// A [`FaultPlan::is_zero`] plan takes the exact code path of
/// [`run_cds`] — no reliability layer, no recovery phases — so the
/// output (structure *and* message statistics) is bit-identical.
///
/// Crashed nodes are excluded from the assembled structure: they keep
/// their vertex slot but hold no role, edges, or dominator links.
///
/// # Errors
/// Returns [`QuiescenceTimeout`] if a phase fails to converge within the
/// (reliability-extended) round budget.
///
/// # Panics
/// Panics if a `Weight` rank does not cover all nodes.
pub fn run_cds_faulty(
    udg: &Graph,
    rank: &ClusterRank,
    plan: &FaultPlan,
    reliability: ReliabilityConfig,
) -> Result<(CdsGraphs, MessageStats, FaultReport), QuiescenceTimeout> {
    if plan.is_zero() {
        let (graphs, stats) = run_cds(udg, rank)?;
        return Ok((graphs, stats, FaultReport::default()));
    }
    let mut net = Network::new(udg, |id| CdsNode::new(id, rank.key(udg, id)))
        .with_faults(plan.clone())
        .with_reliability(reliability);
    let per_hop = (reliability.max_retries as usize + 2) * (reliability.ack_timeout + 1);
    let budget = (udg.node_count() + 16) * per_hop;
    net.run_phases(10, budget)?;
    let report = net.fault_report();
    let (nodes, stats) = net.into_parts();
    let crashed: VecSet = report.crashed.iter().copied().collect();
    Ok((harvest(udg, &nodes, &crashed, true), stats, report))
}

/// Collects the per-node protocol outcomes into the graph family.
///
/// `lenient` is the fault-injected mode: crashed nodes are skipped
/// entirely, dangling references to them are filtered out, and a node
/// still white (possible only if it crashed mid-election — but kept as a
/// safety net) becomes a standalone dominator instead of panicking.
fn harvest(udg: &Graph, nodes: &[CdsNode], crashed: &VecSet, lenient: bool) -> CdsGraphs {
    let n = udg.node_count();
    let mut dominators = Vec::new();
    let mut is_dominator = vec![false; n];
    let mut dominators_of = vec![Vec::new(); n];
    let mut connectors = Vec::new();
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for node in nodes {
        if crashed.contains(node.id) {
            continue;
        }
        match node.status {
            Status::Dominator => {
                dominators.push(node.id);
                is_dominator[node.id] = true;
            }
            Status::Dominatee => {
                dominators_of[node.id] = node.dominators.iter().collect();
                if node.is_connector {
                    connectors.push(node.id);
                }
            }
            Status::White if lenient => {
                dominators.push(node.id);
                is_dominator[node.id] = true;
            }
            #[expect(
                clippy::unreachable,
                reason = "the clustering phase colors every node before extraction; lenient mode above absorbs injected faults"
            )]
            Status::White => unreachable!("clustering leaves no white nodes"),
        }
        edges.extend(
            node.edges
                .iter()
                .filter(|(a, b)| !crashed.contains(*a) && !crashed.contains(*b)),
        );
    }
    if lenient {
        // Drop references to dominators that died (or were demoted by a
        // crash) after being heard.
        for list in &mut dominators_of {
            list.retain(|d| is_dominator[*d]);
        }
        edges.retain(|&(a, b)| udg.has_edge(a, b));
    }
    let clustering = Clustering {
        dominators,
        is_dominator,
        dominators_of,
    };
    let result = ConnectorResult {
        connectors,
        edges: edges.into_iter().collect(),
    };
    assemble(udg, &clustering, &result)
}

/// Equality of two backbone families, for tests and validation: roles,
/// dominator/connector sets, and all four edge sets.
pub fn same_structure(a: &CdsGraphs, b: &CdsGraphs) -> bool {
    a.roles == b.roles
        && a.dominators == b.dominators
        && a.connectors == b.connectors
        && a.dominators_of == b.dominators_of
        && a.cds == b.cds
        && a.cds_prime == b.cds_prime
        && a.icds == b.icds
        && a.icds_prime == b.icds_prime
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_cds, Role};
    use geospan_graph::gen::connected_unit_disk;

    #[test]
    fn distributed_matches_centralized() {
        for seed in 0..6 {
            let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 13 + 1);
            for rank in [ClusterRank::LowestId, ClusterRank::HighestDegree] {
                let central = build_cds(&udg, &rank);
                let (dist, _stats) = run_cds(&udg, &rank).expect("protocol converges");
                assert!(
                    same_structure(&central, &dist),
                    "seed {seed}, rank {rank:?}: structures differ"
                );
            }
        }
    }

    #[test]
    fn asynchronous_delivery_changes_nothing() {
        // The election decisions are timing-independent, so arbitrary
        // bounded per-message delays must yield the identical backbone.
        for seed in 0..4 {
            let (_pts, udg, _s) = connected_unit_disk(50, 150.0, 45.0, seed * 31 + 7);
            let sync = build_cds(&udg, &ClusterRank::LowestId);
            for delay_seed in 0..3 {
                let (jittered, _stats) =
                    run_cds_jittered(&udg, &ClusterRank::LowestId, 5, delay_seed * 997 + 1)
                        .expect("protocol converges under jitter");
                assert!(
                    same_structure(&sync, &jittered),
                    "seed {seed}, delay seed {delay_seed}: async run diverged"
                );
            }
        }
    }

    #[test]
    fn per_node_message_cost_is_bounded() {
        // The paper's Lemma 3: constant messages per node. The constant is
        // generous here; the experiments measure the actual values.
        for seed in 0..4 {
            let (_pts, udg, _s) = connected_unit_disk(80, 150.0, 40.0, seed * 29 + 5);
            let (_g, stats) = run_cds(&udg, &ClusterRank::LowestId).unwrap();
            assert!(
                stats.max_sent() <= 120,
                "seed {seed}: a node sent {} messages",
                stats.max_sent()
            );
        }
    }

    #[test]
    fn message_kind_accounting() {
        let (_pts, udg, _s) = connected_unit_disk(50, 150.0, 50.0, 3);
        let (g, stats) = run_cds(&udg, &ClusterRank::LowestId).unwrap();
        let kinds = stats.per_kind();
        assert_eq!(kinds["Hello"], 50);
        assert_eq!(kinds["IamDominator"], g.dominators.len());
        // Each dominatee announces once per adjacent dominator.
        let expected: usize = g.dominators_of.iter().map(Vec::len).sum();
        assert_eq!(kinds["IamDominatee"], expected);
    }

    #[test]
    fn zero_fault_plan_matches_plain_run_exactly() {
        let (_pts, udg, _s) = connected_unit_disk(50, 150.0, 45.0, 9);
        let (plain, plain_stats) = run_cds(&udg, &ClusterRank::LowestId).unwrap();
        let (faulty, faulty_stats, report) = run_cds_faulty(
            &udg,
            &ClusterRank::LowestId,
            &FaultPlan::none(),
            ReliabilityConfig::default(),
        )
        .unwrap();
        assert!(same_structure(&plain, &faulty));
        assert_eq!(
            plain_stats, faulty_stats,
            "message counts must be bit-identical"
        );
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn recovery_survives_loss_and_crashes() {
        use geospan_graph::paths::bfs_hops;
        for seed in 0..4 {
            let (_pts, udg, _s) = connected_unit_disk(60, 150.0, 45.0, seed * 37 + 11);
            let plan = FaultPlan::new(seed)
                .with_loss(0.15)
                .with_crash((seed as usize * 7 + 3) % 60, 4);
            let rel = ReliabilityConfig {
                max_retries: 8,
                ack_timeout: 2,
            };
            let (g, stats, report) =
                run_cds_faulty(&udg, &ClusterRank::LowestId, &plan, rel).unwrap();
            assert!(report.dropped > 0, "seed {seed}: loss was injected");
            assert!(stats.per_kind().contains_key("ack"));
            let crashed: std::collections::BTreeSet<usize> =
                report.crashed.iter().copied().collect();
            // Every surviving node is covered: dominator, or has one.
            for v in 0..udg.node_count() {
                if crashed.contains(&v) {
                    continue;
                }
                assert!(
                    g.roles[v] == Role::Dominator || !g.dominators_of[v].is_empty(),
                    "seed {seed}: node {v} uncovered after recovery"
                );
            }
            // The surviving backbone connects every surviving UDG
            // component: any two alive nodes connected in the alive UDG
            // are connected in alive ICDS'.
            let alive_udg = udg.filter_edges(|u, v| !crashed.contains(&u) && !crashed.contains(&v));
            let alive_prime = g
                .icds_prime
                .filter_edges(|u, v| !crashed.contains(&u) && !crashed.contains(&v));
            for comp in alive_udg.components() {
                let inside: Vec<usize> = comp
                    .iter()
                    .copied()
                    .filter(|v| !crashed.contains(v))
                    .collect();
                if inside.len() < 2 {
                    continue;
                }
                let hops = bfs_hops(&alive_prime, inside[0]);
                for &v in &inside[1..] {
                    assert!(
                        hops[v].is_some(),
                        "seed {seed}: {v} cut off from {} in repaired backbone",
                        inside[0]
                    );
                }
            }
        }
    }

    #[test]
    fn five_phase_chain() {
        // A 4-chain exercises stages 2 and 3 (3-hop dominator pair).
        use geospan_graph::{Graph, Point};
        let udg = Graph::with_edges(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(3.0, 0.0),
            ],
            [(0, 1), (1, 2), (2, 3)],
        );
        let rank = ClusterRank::Weight(vec![10, 0, 0, 10]);
        let central = build_cds(&udg, &rank);
        let (dist, stats) = run_cds(&udg, &rank).unwrap();
        assert!(same_structure(&central, &dist));
        assert_eq!(dist.connectors, vec![1, 2]);
        assert!(stats.per_kind().contains_key("TryConnector"));
        assert!(stats.per_kind().contains_key("IamConnector"));
    }
}
