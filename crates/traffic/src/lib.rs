//! A deterministic discrete-event traffic engine for spanner backbones.
//!
//! The backbone `LDel(ICDS)` of Wang & Li (ICDCS 2002) exists to *route
//! traffic*: its hop- and length-spanner bounds only matter for packets
//! actually forwarded over it. This crate serves sustained packet
//! workloads over the topologies the workspace constructs and measures
//! what the static stretch tables cannot — delivery under load,
//! queueing latency, congestion drops, and how faults interact with
//! forwarding decisions made hop by hop.
//!
//! The engine is event-driven rather than round-synchronous:
//!
//! * each tick executes in canonical phases (arrivals → retries →
//!   service completions → merge of forwarded packets), every
//!   tie-break keyed on schedule- or node-local coordinates — so runs
//!   are bit-reproducible *and* independent of how the field is
//!   partitioned, which lets the [`shard`] subsystem execute shards in
//!   parallel ([`TrafficConfig::shards`]) with bit-identical output;
//! * each node owns a finite-capacity transmit queue scheduled by a
//!   pluggable [`QueueDiscipline`] — FIFO, priority by remaining
//!   distance, or per-destination deficit round robin — and a radio
//!   that serves one packet per [`TrafficConfig::service_time`] ticks,
//!   so contention and queue drops emerge from load;
//! * an optional link-layer retransmit scheme (the same
//!   [`ReliabilityConfig`](geospan_sim::ReliabilityConfig) as the round
//!   simulator) retries lost transmissions per hop with exponential
//!   backoff, the retries competing with fresh traffic for queue
//!   slots;
//! * an optional congestion-adaptive overload layer: sender-queue
//!   watermarks ([`OverloadConfig`](geospan_sim::OverloadConfig), read
//!   through a hysteresis [`PressureGauge`]) shed retries and inflate
//!   backoff when a sender's own queue saturates, and a deterministic
//!   token-bucket [`AdmissionPolicy`] paces injection at sources —
//!   both purely node-local rules, so determinism is preserved;
//! * forwarding decisions are the *single-hop* [`Decision`] API of
//!   `geospan_core::routing` (greedy, GPSR, dominating-set backbone
//!   routing), invoked per transmission, so routing state travels with
//!   the packet exactly as it would in a deployed network;
//! * a seeded [`FaultPlan`] drops deliveries, severs partitions, and
//!   crashes nodes mid-flow using the same per-event hash rolls as the
//!   round simulator in `geospan-sim`.
//!
//! # Example
//!
//! ```
//! use geospan_graph::gen::connected_unit_disk;
//! use geospan_sim::FaultPlan;
//! use geospan_topology::gabriel;
//! use geospan_traffic::{run, Forwarding, TrafficConfig, Workload};
//!
//! let (_pts, udg, _s) = connected_unit_disk(40, 120.0, 45.0, 3);
//! let gg = gabriel(&udg);
//! let arrivals = Workload::uniform(0.2, 200).generate(udg.node_count(), 7);
//! let outcome = run(
//!     &Forwarding::Gpsr(&gg),
//!     &udg,
//!     &arrivals,
//!     &FaultPlan::none(),
//!     &TrafficConfig::default(),
//! );
//! assert_eq!(outcome.report.offered, arrivals.len());
//! assert!(outcome.report.delivery_ratio() > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use geospan_core::routing::{
    backbone_forward, gpsr_forward, greedy_forward, BackboneSession, Decision, GpsrState,
};
use geospan_core::Backbone;
use geospan_graph::Graph;

pub mod churn;
mod engine;
mod queue;
mod report;
pub mod shard;
mod workload;

pub use churn::{
    run_churn, ChurnEngine, ChurnOutcome, ChurnReport, RepairStrategy, WindowDelivery,
};
pub use engine::{run, AdmissionPolicy, TrafficConfig, TrafficOutcome};
pub use queue::{
    DeficitRoundRobin, Discipline, Fifo, NearestFirst, Pressure, PressureGauge, QueueDiscipline,
    QueuedPacket,
};
pub use report::{DropCause, DropCounts, PacketOutcome, PacketRecord, TrafficReport};
pub use shard::{RunStats, ShardMap, ShardedEngine};
pub use workload::{Arrival, Workload, WorkloadKind};

/// The forwarding scheme a traffic run drives, bound to the topology it
/// routes over.
///
/// All variants share the UDG's vertex set; the engine charges hop
/// lengths from the embedded positions.
pub enum Forwarding<'a> {
    /// Greedy geographic forwarding over the given graph.
    Greedy(&'a Graph),
    /// GPSR (greedy + perimeter recovery) over the given **planar**
    /// graph.
    Gpsr(&'a Graph),
    /// The paper's dominating-set-based routing: ingress to a dominator,
    /// GPSR across `LDel(ICDS)`, egress to the destination.
    Backbone {
        /// The constructed backbone.
        backbone: &'a Backbone,
        /// The unit disk graph the backbone dominates.
        udg: &'a Graph,
    },
}

impl Forwarding<'_> {
    /// A short label for reports and CSV rows.
    pub fn label(&self) -> &'static str {
        match self {
            Forwarding::Greedy(_) => "greedy",
            Forwarding::Gpsr(_) => "gpsr",
            Forwarding::Backbone { .. } => "backbone",
        }
    }

    /// Fresh per-packet routing state.
    fn new_session(&self) -> Session {
        match self {
            Forwarding::Greedy(_) => Session::Stateless,
            Forwarding::Gpsr(_) => Session::Gpsr(GpsrState::new()),
            Forwarding::Backbone { .. } => Session::Backbone(BackboneSession::new()),
        }
    }

    /// One forwarding decision for a packet held by `u` toward `dst`.
    fn decide(&self, session: &mut Session, u: usize, dst: usize) -> Decision {
        match (self, session) {
            (Forwarding::Greedy(g), Session::Stateless) => greedy_forward(g, u, dst),
            (Forwarding::Gpsr(g), Session::Gpsr(state)) => gpsr_forward(g, state, u, dst),
            (Forwarding::Backbone { backbone, udg }, Session::Backbone(state)) => {
                backbone_forward(backbone, udg, state, u, dst)
            }
            #[expect(
                clippy::unreachable,
                reason = "sessions are created by new_session on the same Forwarding value; the pairing is structural"
            )]
            _ => unreachable!("session type always matches the forwarding scheme"),
        }
    }
}

/// Per-packet routing state, created by [`Forwarding::new_session`].
#[derive(Debug, Clone)]
enum Session {
    Stateless,
    Gpsr(GpsrState),
    Backbone(BackboneSession),
}
