//! `serve_uniform` and `serve_hotspot`: packet traffic over the
//! centralized backbone, served by the single-shard traffic engine.

use std::collections::BTreeSet;

use geospan_core::routing::backbone_route;
use geospan_core::{Backbone, BackboneBuilder, BackboneConfig};
use geospan_graph::paths::DistanceOracle;
use geospan_graph::Graph;
use geospan_sim::{FaultPlan, OverloadConfig, ReliabilityConfig};
use geospan_traffic::{
    AdmissionPolicy, Arrival, Forwarding, PacketOutcome, RunStats, ShardedEngine, TrafficConfig,
    TrafficOutcome, Workload,
};

use crate::builds::{connected_deployment, table1_side, RADIUS};
use crate::host::Digest;
use crate::metrics::Recorder;
use crate::{instance_seed, timed, Run, Timings};

/// One serving workload's fixed parameters.
struct Spec {
    n: usize,
    workload: Workload,
    loss: f64,
    admission: AdmissionPolicy,
    /// Independent deployments served per run (see `README.md`).
    instances: usize,
}

/// Seed offsets keeping the arrival and fault streams apart from the
/// deployment seed.
pub(crate) const ARRIVAL_SEED: u64 = 0x6172_7269_7665;
const FAULT_SEED: u64 = 0x5a70_ca7e;

/// The engine settings both serving workloads share: 5–10% loss handled
/// by three link-layer retries, watermarks for 16-slot queues, one shard.
fn engine_config(admission: AdmissionPolicy) -> TrafficConfig {
    TrafficConfig {
        queue_capacity: 16,
        reliability: Some(ReliabilityConfig {
            max_retries: 3,
            ack_timeout: 2,
        }),
        overload: Some(OverloadConfig::for_capacity(16)),
        admission,
        shards: 1,
        ..TrafficConfig::default()
    }
}

/// `serve_uniform`: n = 2000, uniform traffic at 10 packets per tick.
pub(crate) fn uniform(run: &mut Run) {
    let (n, duration) = if run.opts.quick {
        (200, 200)
    } else {
        (2_000, 10_000)
    };
    serve(
        run,
        Spec {
            n,
            workload: Workload::uniform(10.0, duration),
            loss: 0.05,
            admission: AdmissionPolicy::Open,
            instances: 1,
        },
    );
}

/// `serve_hotspot`: n = 500, 70% of 8 packets per tick to node 0, behind
/// a per-source token bucket.
pub(crate) fn hotspot(run: &mut Run) {
    let (n, duration) = if run.opts.quick {
        (100, 500)
    } else {
        (500, 30_000)
    };
    serve(
        run,
        Spec {
            n,
            workload: Workload::hotspot(0, 0.7, 8.0, duration),
            loss: 0.1,
            admission: AdmissionPolicy::TokenBucket {
                ticks_per_token: 100,
                burst: 2,
            },
            // Delivery depends on where the single sink lands: with 8
            // deployments per run goodput still spread 16% over five
            // seeds, with 24 it spreads 8%.
            instances: 24,
        },
    );
}

/// One deployment's inputs.
struct Instance {
    udg: Graph,
    backbone: Backbone,
    arrivals: Vec<Arrival>,
    faults: FaultPlan,
}

impl Instance {
    fn forwarding(&self) -> Forwarding<'_> {
        Forwarding::Backbone {
            backbone: &self.backbone,
            udg: &self.udg,
        }
    }

    fn serve(&self, engine: &ShardedEngine, cfg: &TrafficConfig) -> (TrafficOutcome, RunStats) {
        engine.run_with_stats(
            &self.forwarding(),
            &self.udg,
            &self.arrivals,
            &self.faults,
            cfg,
        )
    }
}

/// Builds one deployment: a connected Table I UDG, its centralized
/// backbone, the arrivals and the loss plan, all from `seed`.
fn instance(rec: &mut Recorder, spec: &Spec, seed: u64) -> Result<(Instance, u64), String> {
    let (_pts, udg, used) = connected_deployment(rec, spec.n, table1_side(spec.n), seed);
    let backbone = BackboneBuilder::new(BackboneConfig::new(RADIUS))
        .build(&udg)
        .map_err(|e| e.to_string())?;
    let arrivals = spec.workload.generate(spec.n, seed ^ ARRIVAL_SEED);
    let faults = FaultPlan::new(seed ^ FAULT_SEED).with_loss(spec.loss);
    Ok((
        Instance {
            udg,
            backbone,
            arrivals,
            faults,
        },
        used,
    ))
}

fn serve(run: &mut Run, spec: Spec) {
    let seed = run.opts.seed;
    let cfg = engine_config(spec.admission);
    let k = spec.instances;
    run.param("n", spec.n);
    run.param("side", table1_side(spec.n));
    run.param("radius", RADIUS);
    run.param("instances", k);
    run.param("traffic", format!("{:?}", spec.workload));
    run.param("loss", spec.loss);
    run.param("engine", format!("{cfg:?}"));
    run.param("forwarding", "backbone");

    let inputs = run.setup(|rec| {
        (0..k)
            .map(|i| instance(rec, &spec, instance_seed(seed, i)))
            .collect::<Result<Vec<_>, String>>()
    });
    let inputs: Vec<Instance> = match inputs {
        Ok(v) => {
            let used: Vec<String> = v.iter().map(|(_, s)| s.to_string()).collect();
            run.param("deployment_seeds", used.join(" "));
            v.into_iter().map(|(inst, _)| inst).collect()
        }
        Err(e) => {
            run.check(false, || format!("backbone set-up failed: {e}"));
            return;
        }
    };
    let mut d = Digest::default();
    for a in inputs.iter().flat_map(|inst| &inst.arrivals) {
        d.word(a.time).word(a.src as u64).word(a.dst as u64);
    }
    run.param("input_digest", format!("{:016x}", d.finish()));
    run.param(
        "offered",
        inputs.iter().map(|inst| inst.arrivals.len()).sum::<usize>(),
    );

    let one_shard = ShardedEngine::new(1);
    // Per instance: the first outcome's digest and delivered count.
    let mut first: Vec<Option<(u64, usize)>> = vec![None; k];
    let verify = |run: &mut Run, first: &mut Option<(u64, usize)>, out: &TrafficOutcome| {
        check_ledger(run, out);
        let digest = outcome_digest(out);
        match first {
            Some((d, _)) => run.check(*d == digest, || {
                "traffic outcome differs between repetitions".into()
            }),
            None => *first = Some((digest, out.report.delivered)),
        }
    };

    let mut untraced = Timings::new(k);
    run.cycle_untraced(k, |run, i| {
        let ((out, stats), secs) = timed(|| inputs[i].serve(&one_shard, &cfg));
        run.attempt();
        untraced.push(i, secs);
        if i == 0 && first[0].is_none() {
            run.param("engine_threads", stats.threads);
            record_report(&mut run.rec, &out, &stats);
        }
        verify(run, &mut first[i], &out);
    });
    let delivered: usize = first.iter().flatten().map(|(_, d)| d).sum();
    if let Some(t) = run.record_run_s(&untraced) {
        run.rec
            .set("goodput_pps", delivered as f64 / (t * k as f64));
    }

    let sharded = ShardedEngine::new(2).with_threads(2);
    if !run.opts.trace {
        let (out, _) = inputs[0].serve(&sharded, &cfg);
        let digest = outcome_digest(&out);
        run.check(first[0].is_some_and(|(d, _)| d == digest), || {
            "traffic outcome differs at 2 shards".to_string()
        });
        return;
    }

    let mut traced = Timings::new(k);
    run.cycle_traced(k, |run, i| {
        let inst = &inputs[i];
        let tr = run.tracer.as_mut().expect("traced run");
        let ((out, stats), run_s) = tr.time("traffic.run", || inst.serve(&one_shard, &cfg));
        let (rows, oracle_s) = tr.time("graph.paths.oracle", || replay_oracle(&inst.udg, &out));
        run.attempt();
        traced.push(i, run_s);
        let engine_s = run_s - oracle_s;
        let rec = &mut run.rec;
        rec.sample("trace.run_s", run_s);
        rec.sample("graph.paths.oracle_s", oracle_s);
        if i == 0 {
            rec.set("graph.paths.oracle_rows", rows as f64);
        }
        rec.sample("traffic.engine_s", engine_s);
        rec.sample("traffic.events_per_s", stats.events as f64 / engine_s);
        verify(run, &mut first[i], &out);
    });
    crate::record_overhead(&mut run.rec, &traced, &untraced);

    // Once per run, on instance 0: the routing decisions alone, and the
    // 2-shard engine.
    let inst = &inputs[0];
    let tr = run.tracer.as_mut().expect("traced run");
    let (hops, route_s) = tr.time("core.routing", || {
        replay_routes(&inst.backbone, &inst.udg, &inst.arrivals)
    });
    let ((out2, stats2), sharded_s) = tr.time("traffic.sharded2", || inst.serve(&sharded, &cfg));
    run.param("sharded2_threads", stats2.threads);
    let digest2 = outcome_digest(&out2);
    let identical = first[0].is_some_and(|(d, _)| d == digest2);
    run.check(identical, || {
        "traffic outcome differs at 2 shards".to_string()
    });
    let rec = &mut run.rec;
    rec.set("core.routing.hop_us", route_s * 1e6 / hops.max(1) as f64);
    rec.set("traffic.sharded2_s", sharded_s);
    rec.set("traffic.sharded2_identical", f64::from(u8::from(identical)));
    rec.set("traffic.boundary_messages", stats2.boundary_messages as f64);
    rec.set("traffic.idle_shard_rounds", stats2.idle_shard_rounds as f64);
}

/// Checks `offered == delivered + drops + refused`.
pub(crate) fn check_ledger(run: &mut Run, out: &TrafficOutcome) {
    let r = &out.report;
    run.check(
        r.offered == r.delivered + r.drops.total() + r.refused,
        || {
            format!(
                "ledger: offered {} != delivered {} + drops {} + refused {}",
                r.offered,
                r.delivered,
                r.drops.total(),
                r.refused
            )
        },
    );
}

/// Digest of a whole outcome: the report and every packet record. Two
/// runs agree on it exactly when their outcomes are identical (up to a
/// 64-bit collision).
pub(crate) fn outcome_digest(out: &TrafficOutcome) -> u64 {
    let mut d = Digest::default();
    d.text(&format!("{:?}", out.report));
    for p in &out.packets {
        let outcome = match p.outcome {
            PacketOutcome::Delivered => 0,
            PacketOutcome::Refused => 1,
            PacketOutcome::Dropped(cause) => 2 + cause as u64,
        };
        d.word(p.src as u64)
            .word(p.dst as u64)
            .word(p.spawn)
            .word(p.finish);
        d.word(u64::from(p.hops))
            .word(u64::from(p.retries))
            .word(p.length.to_bits());
        d.word(outcome).word(p.path.len() as u64);
        for &v in &p.path {
            d.word(v as u64);
        }
    }
    d.finish()
}

/// The report's figures, shared with the churn workload.
pub(crate) fn record_report(rec: &mut Recorder, out: &TrafficOutcome, stats: &RunStats) {
    let r = &out.report;
    let offered = r.offered.max(1) as f64;
    rec.set("failed_share", (r.offered - r.delivered) as f64 / offered);
    rec.set("latency_p50_ticks", r.latency_p50 as f64);
    rec.set("latency_p99_ticks", r.latency_p99 as f64);
    rec.set("latency_samples", r.delivered as f64);
    rec.set("traffic.events", stats.events as f64);
    rec.set("traffic.offered", r.offered as f64);
    rec.set("traffic.delivered", r.delivered as f64);
    rec.set("traffic.refused", r.refused as f64);
    rec.set("traffic.drops.stuck", r.drops.stuck as f64);
    rec.set("traffic.drops.queue_full", r.drops.queue_full as f64);
    rec.set("traffic.drops.link_loss", r.drops.link_loss as f64);
    rec.set("traffic.drops.node_crash", r.drops.node_crash as f64);
    rec.set("traffic.drops.hop_limit", r.drops.hop_limit as f64);
    rec.set("traffic.drops.retry_shed", r.drops.retry_shed as f64);
    rec.set("traffic.drops.node_departed", r.drops.node_departed as f64);
    rec.set("traffic.retransmissions", r.retransmissions as f64);
    let hops: u64 = out.packets.iter().map(|p| u64::from(p.hops)).sum();
    rec.set(
        "traffic.tx_per_delivered",
        (hops + r.retransmissions as u64) as f64 / r.delivered.max(1) as f64,
    );
    rec.set("traffic.queue_peak_max", r.queue_peak_max as f64);
}

/// Repeats the stretch baseline's oracle calls over the delivered
/// packets, exactly as the engine's report makes them; returns the rows
/// computed (one BFS and one Dijkstra row per distinct source).
fn replay_oracle(udg: &Graph, out: &TrafficOutcome) -> usize {
    let mut oracle = DistanceOracle::new(udg);
    let mut sources = BTreeSet::new();
    for p in out
        .packets
        .iter()
        .filter(|p| p.delivered() && p.src != p.dst)
    {
        std::hint::black_box((oracle.hops(p.src, p.dst), oracle.length(p.src, p.dst)));
        sources.insert(p.src);
    }
    2 * sources.len()
}

/// Routes every distinct `(src, dst)` pair once with `backbone_route`;
/// returns the hops taken.
fn replay_routes(backbone: &Backbone, udg: &Graph, arrivals: &[Arrival]) -> usize {
    let pairs: BTreeSet<(usize, usize)> = arrivals.iter().map(|a| (a.src, a.dst)).collect();
    pairs
        .into_iter()
        .map(|(s, d)| backbone_route(backbone, udg, s, d, 10_000).hops())
        .sum()
}
