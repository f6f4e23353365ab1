//! The metric catalogue and the per-run recorder.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's whole vocabulary:
//! an untraced run prints exactly the end-to-end set, a traced run exactly
//! the per-layer set, in table order. `BENCHMARK.json` lists the same
//! names and units; the contract test keeps the two in step.

use std::collections::BTreeMap;

/// One catalogue entry: name, unit, and whether higher is better.
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `true` when a larger value is an improvement.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics every workload reports with tracing off. Each is non-zero on
/// every workload by construction.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("run_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("goodput_pps", "1/s"),
];

/// Metrics of the traced run. A metric outside the workloads that
/// exercise its layer reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-scoped user-facing figures (zero on other workloads, so
    // they cannot carry an end-to-end bound).
    lower("failed_share", "fraction"),
    lower("latency_p50_ticks", "ticks"),
    lower("latency_p99_ticks", "ticks"),
    higher("latency_samples", "count"),
    lower("msgs_per_node_avg", "msgs"),
    lower("msgs_per_node_max", "msgs"),
    lower("repair_cost_per_event", "node-updates"),
    // The traced run itself.
    lower("trace.run_s", "s"),
    lower("trace.overhead_s", "s"),
    // graph
    lower("graph.udg_build_s", "s"),
    lower("graph.paths.oracle_s", "s"),
    lower("graph.paths.oracle_rows", "count"),
    lower("graph.stretch_s", "s"),
    // cds
    lower("cds.cluster_s", "s"),
    lower("cds.connectors_s", "s"),
    lower("cds.assemble_s", "s"),
    lower("cds.protocol_s", "s"),
    lower("cds.dominators", "count"),
    lower("cds.connectors", "count"),
    lower("cds.msgs.Hello", "msgs"),
    lower("cds.msgs.IamDominator", "msgs"),
    lower("cds.msgs.IamDominatee", "msgs"),
    lower("cds.msgs.TryConnector", "msgs"),
    lower("cds.msgs.IamConnector", "msgs"),
    // topology
    lower("topology.ldel1_s", "s"),
    lower("topology.planarize_s", "s"),
    lower("topology.distributed_s", "s"),
    lower("topology.ldel_edges", "count"),
    lower("topology.triangles", "count"),
    lower("topology.msgs.Hello", "msgs"),
    lower("topology.msgs.Proposal", "msgs"),
    lower("topology.msgs.Accept", "msgs"),
    lower("topology.msgs.Reject", "msgs"),
    lower("topology.msgs.Triangles", "msgs"),
    lower("topology.msgs.Survivors", "msgs"),
    // sim
    lower("sim.msgs_total", "msgs"),
    higher("sim.msgs_per_s", "1/s"),
    // core
    lower("core.build_other_s", "s"),
    lower("core.build_s", "s"),
    lower("core.verify_s", "s"),
    lower("core.routing.hop_us", "us"),
    lower("core.maintenance.event_ms_p50", "ms"),
    lower("core.maintenance.event_ms_p90", "ms"),
    higher("core.maintenance.events", "count"),
    higher("core.maintenance.kept", "count"),
    lower("core.maintenance.local_repairs", "count"),
    lower("core.maintenance.full_rebuilds", "count"),
    // traffic
    lower("traffic.engine_s", "s"),
    lower("traffic.churn_engine_s", "s"),
    lower("traffic.events", "count"),
    higher("traffic.events_per_s", "1/s"),
    higher("traffic.offered", "count"),
    higher("traffic.delivered", "count"),
    lower("traffic.refused", "count"),
    lower("traffic.drops.stuck", "count"),
    lower("traffic.drops.queue_full", "count"),
    lower("traffic.drops.link_loss", "count"),
    lower("traffic.drops.node_crash", "count"),
    lower("traffic.drops.hop_limit", "count"),
    lower("traffic.drops.retry_shed", "count"),
    lower("traffic.drops.node_departed", "count"),
    lower("traffic.retransmissions", "count"),
    lower("traffic.tx_per_delivered", "ratio"),
    lower("traffic.queue_peak_max", "count"),
    lower("traffic.sharded2_s", "s"),
    higher("traffic.sharded2_identical", "flag"),
    lower("traffic.boundary_messages", "count"),
    lower("traffic.idle_shard_rounds", "count"),
];

/// Looks a metric up in either catalogue.
pub(crate) fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Collects a run's values: single values by [`Recorder::set`], repeated
/// samples by [`Recorder::sample`] (reported as their median).
#[derive(Debug, Default)]
pub struct Recorder {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// Sets a metric's value, replacing any earlier one.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the catalogue");
        self.values.insert(name, value);
    }

    /// Adds one sample of a repeated measurement.
    ///
    /// # Panics
    /// Panics on a name missing from the catalogue (a benchmark bug).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the catalogue");
        self.samples.entry(name).or_default().push(value);
    }

    /// The metric's value: an explicit [`Recorder::set`] wins over the
    /// median of its samples.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .get(name)
            .copied()
            .or_else(|| self.samples.get(name).map(|s| median(s)))
    }

    /// The catalogue's values in order: `(name, value, unit)`. Per-layer
    /// metrics the workload did not record read 0; a missing end-to-end
    /// metric is returned as `None` so the caller can fail the run.
    pub fn render(&self, traced: bool) -> Vec<(&'static str, Option<f64>, &'static str)> {
        let table = if traced { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|d| {
                let v = self.get(d.name);
                let v = if traced { Some(v.unwrap_or(0.0)) } else { v };
                (d.name, v, d.unit)
            })
            .collect()
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `(0, 1]` of a non-empty sample.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
