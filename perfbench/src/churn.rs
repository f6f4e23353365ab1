//! `churn_repair`: balanced join/leave/move churn repaired locally by
//! `MobileBackbone` while uniform traffic is served over it.

use std::collections::BTreeSet;

use geospan_core::maintenance::{MaintenanceAction, MobileBackbone};
use geospan_core::{verify, BackboneBuilder, BackboneConfig, BackboneError};
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_graph::{Graph, Point};
use geospan_sim::{ChurnEvent, ChurnMix, ChurnPlan, FaultPlan};
use geospan_traffic::{
    Arrival, ChurnEngine, ChurnOutcome, RepairStrategy, TrafficConfig, Workload,
};

use crate::builds::{connected_deployment, table1_side, RADIUS};
use crate::host::Digest;
use crate::metrics::percentile;
use crate::serve::{check_ledger, outcome_digest, record_report, ARRIVAL_SEED};
use crate::trace::Tracer;
use crate::{instance_seed, timed, Run, Timings};

/// Seed offset keeping the churn plan apart from the deployment seed.
const PLAN_SEED: u64 = 0x6368_7572_6e21;

/// One scenario's inputs.
struct Inputs {
    points: Vec<Point>,
    udg: Graph,
    plan: ChurnPlan,
    arrivals: Vec<Arrival>,
}

/// Independent scenarios per run: one scenario's cost varies by ~12%
/// with its seed (how many events need a repair), so a run averages six.
const INSTANCES: usize = 6;

/// `churn_repair`: n = 400, 100 balanced churn events, uniform traffic
/// at 2 packets per tick, local repair.
pub(crate) fn repair(run: &mut Run) {
    let (n, events, horizon, k) = if run.opts.quick {
        (60, 15, 300, 2)
    } else {
        (400, 100, 2_000, INSTANCES)
    };
    let seed = run.opts.seed;
    let side = table1_side(n);
    let traffic = Workload::uniform(2.0, horizon);
    let cfg = TrafficConfig::default();
    run.param("n", n);
    run.param("side", side);
    run.param("radius", RADIUS);
    run.param("instances", k);
    run.param("events", events);
    run.param("horizon_ticks", horizon);
    run.param("mix", "ChurnMix::balanced()");
    run.param("traffic", format!("{traffic:?}"));
    run.param("engine", format!("{cfg:?}"));
    run.param("strategy", "RepairStrategy::LocalRepair");

    let inputs: Vec<Inputs> = run.setup(|rec| {
        (0..k)
            .map(|i| {
                let seed = instance_seed(seed, i);
                let (points, udg, _) = connected_deployment(rec, n, side, seed);
                let plan = ChurnPlan::generate(
                    seed ^ PLAN_SEED,
                    n,
                    side,
                    events,
                    horizon,
                    ChurnMix::balanced(),
                );
                let arrivals = traffic.generate(plan.universe(), seed ^ ARRIVAL_SEED);
                Inputs {
                    points,
                    udg,
                    plan,
                    arrivals,
                }
            })
            .collect()
    });
    let mut d = Digest::default();
    for inst in &inputs {
        for e in inst.plan.events() {
            d.word(e.tick).word(e.event.node() as u64);
        }
        for a in &inst.arrivals {
            d.word(a.time).word(a.src as u64).word(a.dst as u64);
        }
    }
    run.param("input_digest", format!("{:016x}", d.finish()));
    run.param(
        "offered",
        inputs.iter().map(|i| i.arrivals.len()).sum::<usize>(),
    );

    let engine = ChurnEngine::new(1);
    let faults = FaultPlan::none();
    let churn_once = |inst: &Inputs| {
        engine.run(
            &inst.points,
            RADIUS,
            &inst.plan,
            &inst.arrivals,
            &faults,
            &cfg,
            RepairStrategy::LocalRepair,
        )
    };

    // Per instance: the first outcome's digest and delivered count.
    let mut first: Vec<Option<(u64, usize)>> = vec![None; k];
    let verify_outcome = |run: &mut Run, first: &mut Option<(u64, usize)>, out: &ChurnOutcome| {
        check_ledger(run, &out.traffic);
        let mut d = Digest::default();
        d.word(outcome_digest(&out.traffic));
        d.text(&format!("{:?} {:?}", out.churn, out.stats));
        let digest = d.finish();
        match first {
            Some((f, _)) => run.check(*f == digest, || {
                "churn outcome differs between repetitions".into()
            }),
            None => *first = Some((digest, out.traffic.report.delivered)),
        }
    };

    let mut untraced = Timings::new(k);
    run.cycle_untraced(k, |run, i| {
        let (res, secs) = timed(|| churn_once(&inputs[i]));
        run.attempt();
        match res {
            Ok(out) => {
                untraced.push(i, secs);
                if i == 0 && first[0].is_none() {
                    record_churn(run, &out);
                }
                verify_outcome(run, &mut first[i], &out);
            }
            Err(e) => run.check(false, || format!("churn run failed: {e}")),
        }
    });
    let delivered: usize = first.iter().flatten().map(|(_, d)| d).sum();
    if let Some(t) = run.record_run_s(&untraced) {
        run.rec
            .set("goodput_pps", delivered as f64 / (t * k as f64));
    }
    if !run.opts.trace {
        return;
    }

    let mut traced = Timings::new(k);
    let mut event_ms = Vec::new();
    let mut last_mobile = None;
    run.cycle_traced(k, |run, i| {
        let inst = &inputs[i];
        let tr = run.tracer.as_mut().expect("traced run");
        let (res, run_s) = tr.time("traffic.churn", || churn_once(inst));
        let replay = tr.enter("core.maintenance");
        let replayed = replay_maintenance(tr, inst, &mut event_ms);
        tr.exit(replay);
        run.attempt();
        let (
            Ok(out),
            Ok(Replay {
                mobile,
                tally,
                events_s,
            }),
        ) = (res, replayed)
        else {
            run.check(false, || "traced churn run or replay failed".to_string());
            return;
        };
        let c = &out.churn;
        run.check((c.kept, c.local_repairs, c.full_rebuilds) == tally, || {
            format!("maintenance replay {tally:?} disagrees with the churn report")
        });
        traced.push(i, run_s);
        run.rec.sample("trace.run_s", run_s);
        run.rec.sample("traffic.churn_engine_s", run_s - events_s);
        verify_outcome(run, &mut first[i], &out);
        if i == 0 {
            last_mobile = Some(mobile);
        }
    });
    crate::record_overhead(&mut run.rec, &traced, &untraced);
    if !event_ms.is_empty() {
        run.rec
            .set("core.maintenance.event_ms_p50", percentile(&event_ms, 0.5));
        run.rec
            .set("core.maintenance.event_ms_p90", percentile(&event_ms, 0.9));
    }

    // Once per run, on instance 0: what one repair's self-check and a
    // from-scratch build of the same population cost.
    let tr = run.tracer.as_mut().expect("traced run");
    if let Some(mobile) = &last_mobile {
        let (_, verify_s) = tr.time("core.verify", || {
            verify(mobile.backbone(), mobile.udg(), RADIUS)
        });
        let (_, stretch_s) = tr.time("graph.stretch", || {
            stretch_factors(
                mobile.udg(),
                mobile.backbone().ldel_icds_prime(),
                StretchOptions {
                    min_euclidean_separation: RADIUS,
                },
            )
        });
        run.rec.set("core.verify_s", verify_s);
        run.rec.set("graph.stretch_s", stretch_s);
    }
    let tr = run.tracer.as_mut().expect("traced run");
    let (built, build_s) = tr.time("core.build", || {
        BackboneBuilder::new(BackboneConfig::new(RADIUS)).build(&inputs[0].udg)
    });
    run.check(built.is_ok(), || {
        "from-scratch build of the churn population failed".into()
    });
    run.rec.set("core.build_s", build_s);
}

/// Records the maintenance ledger and traffic figures of one outcome.
fn record_churn(run: &mut Run, out: &ChurnOutcome) {
    let c = &out.churn;
    let applied = (c.joins + c.leaves + c.moves).max(1);
    run.param("engine_threads", out.stats.threads);
    let rec = &mut run.rec;
    rec.set(
        "repair_cost_per_event",
        c.repair_cost as f64 / applied as f64,
    );
    rec.set("core.maintenance.events", applied as f64);
    rec.set("core.maintenance.kept", c.kept as f64);
    rec.set("core.maintenance.local_repairs", c.local_repairs as f64);
    rec.set("core.maintenance.full_rebuilds", c.full_rebuilds as f64);
    record_report(rec, &out.traffic, &out.stats);
}

/// What replaying one scenario's churn plan produced.
struct Replay {
    /// The backbone after the last event.
    mobile: MobileBackbone,
    /// Events that were kept, repaired locally, and rebuilt.
    tally: (usize, usize, usize),
    /// Summed wall time of the event calls.
    events_s: f64,
}

/// Replays the plan's events through `MobileBackbone` exactly as the
/// churn engine applies them, one span per event.
fn replay_maintenance(
    tr: &mut Tracer,
    inputs: &Inputs,
    event_ms: &mut Vec<f64>,
) -> Result<Replay, BackboneError> {
    let plan = &inputs.plan;
    let initial = inputs.points.len();
    let mut home = inputs.points.clone();
    home.extend((initial..plan.universe()).filter_map(|v| plan.join_position(v)));
    let joiners: BTreeSet<usize> = (initial..plan.universe()).collect();
    let (mobile, _) = tr.time("core.maintenance.init", || {
        MobileBackbone::with_departed(home, BackboneConfig::new(RADIUS), joiners)
    });
    let mut mobile = mobile?;
    mobile.set_local_repair(true);
    let mut tally = (0, 0, 0);
    let mut total = 0.0;
    for timed_event in plan.events() {
        let id = tr.enter("core.maintenance.event");
        let report = match timed_event.event {
            ChurnEvent::Leave { node } => mobile.remove_node(node),
            ChurnEvent::Join { node, position } => mobile.rejoin_node(node, position),
            ChurnEvent::Move { node, to } => {
                let mut points = mobile.points().to_vec();
                points[node] = to;
                mobile.update_positions(points)
            }
        };
        let secs = tr.exit(id);
        total += secs;
        event_ms.push(secs * 1e3);
        match report?.action {
            MaintenanceAction::Kept => tally.0 += 1,
            MaintenanceAction::LocalRepair { .. } => tally.1 += 1,
            MaintenanceAction::FullRebuild { .. } => tally.2 += 1,
        }
    }
    Ok(Replay {
        mobile,
        tally,
        events_s: total,
    })
}
