//! The geospan benchmark: five workloads over the paper's pipeline,
//! traffic serving and churn repair, timed from outside the library.
//!
//! Each workload generates its inputs from a seed, sets up several times
//! (reporting the median set-up time), repeats its public operation for
//! the run's time budget with tracing off, and checks every output. A
//! traced run (`trace = true`) repeats the operation inside spans and
//! replays its stages one public call at a time to attribute the time
//! to the workspace's crates. See `README.md` for the workload table and
//! the per-layer to end-to-end metric map.

mod builds;
mod churn;
pub mod host;
pub mod metrics;
mod serve;
pub mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use metrics::Recorder;
use trace::Tracer;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Centralized `BackboneBuilder` at n = 10⁵.
    BuildCentral,
    /// Message-passing `BackboneBuilder` at n = 10⁴.
    BuildDistributed,
    /// Uniform traffic below saturation over the backbone, n = 2000.
    ServeUniform,
    /// Hotspot traffic with admission and overload control, n = 500.
    ServeHotspot,
    /// Local churn repair under live traffic, n = 400.
    ChurnRepair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 5] = [
        Workload::BuildCentral,
        Workload::BuildDistributed,
        Workload::ServeUniform,
        Workload::ServeHotspot,
        Workload::ChurnRepair,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BuildCentral => "build_central",
            Workload::BuildDistributed => "build_distributed",
            Workload::ServeUniform => "serve_uniform",
            Workload::ServeHotspot => "serve_hotspot",
            Workload::ChurnRepair => "churn_repair",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Time budget for the repeated operation, in seconds.
    pub seconds: f64,
    /// Record spans and print the per-layer metrics.
    pub trace: bool,
    /// Small inputs for the benchmark's own tests.
    pub quick: bool,
}

/// Set-up runs at least this many times per run, and on until
/// [`SETUP_SECONDS`] have passed (at most [`SETUP_MAX_REPS`] times); the
/// median is reported.
pub(crate) const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
pub(crate) const SETUP_SECONDS: f64 = 1.0;
/// See [`SETUP_MIN_REPS`].
pub(crate) const SETUP_MAX_REPS: usize = 25;

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metric values collected.
    pub recorder: Recorder,
    /// Workload parameters, echoed next to the numbers.
    pub params: Vec<(&'static str, String)>,
    /// Timed repetitions of the workload's operation.
    pub attempted: u64,
    /// Failed output checks, one message each.
    pub failures: Vec<String>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Operations counted as failed: all of them once any check failed.
    pub fn failed(&self) -> u64 {
        if self.failures.is_empty() {
            0
        } else {
            self.attempted.max(1)
        }
    }
}

/// The state a workload fills in while it runs.
#[derive(Debug)]
pub(crate) struct Run {
    /// Settings of this invocation.
    pub opts: Options,
    /// Metric values.
    pub rec: Recorder,
    /// Present on traced runs.
    pub tracer: Option<Tracer>,
    params: Vec<(&'static str, String)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Run {
    fn new(opts: Options) -> Run {
        Run {
            tracer: opts.trace.then(Tracer::default),
            opts,
            rec: Recorder::default(),
            params: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Echoes a workload parameter in the result's description line.
    pub fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    /// Records an output check; a failure fails the whole run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts one timed repetition of the workload's operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Runs `f` repeatedly (see [`SETUP_MIN_REPS`]), records the median
    /// wall time as `setup_s`, and keeps the last result.
    pub fn setup<T>(&mut self, mut f: impl FnMut(&mut Recorder) -> T) -> T {
        let start = Instant::now();
        let mut last = None;
        let mut reps = 0;
        while reps < SETUP_MIN_REPS
            || (reps < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            drop(last.take());
            let (out, secs) = timed(|| f(&mut self.rec));
            self.rec.sample("setup_s", secs);
            last = Some(out);
            reps += 1;
        }
        self.param("setup_reps", reps);
        last.expect("SETUP_MIN_REPS is positive")
    }

    /// Times the operation untraced, round-robin over `k` instances. An
    /// untraced run spends the whole budget and times every instance at
    /// least once and instance 0 twice; a traced run spends a third of
    /// it here, only to measure the tracing overhead.
    pub fn cycle_untraced(&mut self, k: usize, mut op: impl FnMut(&mut Run, usize)) {
        let (budget, min_reps) = if self.opts.trace {
            (self.opts.seconds / 3.0, 1)
        } else {
            (self.opts.seconds, k + 1)
        };
        cycle(budget, k, min_reps, |i| op(self, i));
    }

    /// Records the untraced timings: `run_s` is the mean over instances
    /// of each instance's median, echoed per instance. Returns `run_s`.
    pub fn record_run_s(&mut self, t: &Timings) -> Option<f64> {
        let medians: Vec<String> = t
            .medians()
            .iter()
            .map(|m| m.map_or("-".to_string(), |m| format!("{m:.4}")))
            .collect();
        self.param("instance_run_s", medians.join(" "));
        let run_s = t.mean_of_medians()?;
        self.rec.set("run_s", run_s);
        Some(run_s)
    }

    /// Times the operation inside spans for the remaining two thirds of
    /// a traced run's budget, round-robin over `k` instances.
    pub fn cycle_traced(&mut self, k: usize, mut op: impl FnMut(&mut Run, usize)) {
        cycle(self.opts.seconds * 2.0 / 3.0, k, 1, |i| op(self, i));
    }
}

/// The seed of instance `i` of a run: the run seed itself for instance
/// 0, a fixed scramble of it for the others.
pub(crate) fn instance_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs `op` round-robin over `k` instances (`op` gets the instance
/// index) until `budget` seconds have passed and at least `min_reps`
/// repetitions were made.
pub(crate) fn cycle(budget: f64, k: usize, min_reps: usize, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut r = 0;
    while r < min_reps || start.elapsed().as_secs_f64() < budget {
        op(r % k);
        r += 1;
    }
}

/// Operation times of a run, kept per instance.
#[derive(Debug, Clone)]
pub(crate) struct Timings {
    per_instance: Vec<Vec<f64>>,
}

impl Timings {
    /// No samples yet for `k` instances.
    pub fn new(k: usize) -> Timings {
        Timings {
            per_instance: vec![Vec::new(); k],
        }
    }

    /// Records one operation time of instance `i`.
    pub fn push(&mut self, i: usize, secs: f64) {
        self.per_instance[i].push(secs);
    }

    /// Each instance's median, `None` for an instance never timed.
    pub fn medians(&self) -> Vec<Option<f64>> {
        self.per_instance
            .iter()
            .map(|s| (!s.is_empty()).then(|| metrics::median(s)))
            .collect()
    }

    /// The mean over instances of each instance's median; `None` unless
    /// every instance was timed.
    pub fn mean_of_medians(&self) -> Option<f64> {
        let m: Option<Vec<f64>> = self.medians().into_iter().collect();
        m.map(|m| m.iter().sum::<f64>() / m.len() as f64)
    }
}

/// Records `trace.overhead_s`: over the instances timed both ways, the
/// mean of (median traced − median untraced) operation time.
pub(crate) fn record_overhead(rec: &mut Recorder, traced: &Timings, untraced: &Timings) {
    let diffs: Vec<f64> = traced
        .medians()
        .into_iter()
        .zip(untraced.medians())
        .filter_map(|(t, u)| Some(t? - u?))
        .collect();
    if !diffs.is_empty() {
        rec.set(
            "trace.overhead_s",
            diffs.iter().sum::<f64>() / diffs.len() as f64,
        );
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Runs one workload end to end.
pub fn run(opts: &Options) -> Outcome {
    let mut run = Run::new(opts.clone());
    run.param("workload", opts.workload.name());
    run.param("seed", opts.seed);
    run.param("seconds", opts.seconds);
    run.param("quick", opts.quick);
    match opts.workload {
        Workload::BuildCentral => builds::central(&mut run),
        Workload::BuildDistributed => builds::distributed(&mut run),
        Workload::ServeUniform => serve::uniform(&mut run),
        Workload::ServeHotspot => serve::hotspot(&mut run),
        Workload::ChurnRepair => churn::repair(&mut run),
    }
    if let Some(mb) = host::peak_rss_mb() {
        run.rec.set("peak_rss_mb", mb);
    }
    let mut outcome = Outcome {
        recorder: run.rec,
        params: run.params,
        attempted: run.attempted,
        failures: run.failures,
        tracer: run.tracer,
    };
    if outcome.attempted == 0 {
        outcome.failures.push("no operation was timed".to_string());
    }
    let rendered = outcome.recorder.render(opts.trace);
    for (name, value, _) in rendered {
        match value {
            None => outcome
                .failures
                .push(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => outcome.failures.push(format!("metric {name} = {v}")),
            Some(v) if !opts.trace && v <= 0.0 => outcome
                .failures
                .push(format!("end-to-end metric {name} = {v} is not positive")),
            Some(_) => {}
        }
    }
    outcome
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (non-finite values become 0; the run has
/// already failed on them).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The description line: host, threads, toolchain, commit, parameters.
pub fn describe(outcome: &Outcome, commit: &str) -> String {
    let mut out = String::from("{\"describe\": {");
    let _ = write!(
        out,
        "\"nproc\": {}, \"rayon_threads\": {}, \"rustc\": {}, \"commit\": {}",
        host::nproc(),
        host::rayon_threads(),
        json_str(host::rustc_version()),
        json_str(commit)
    );
    for (k, v) in &outcome.params {
        let _ = write!(out, ", {}: {}", json_str(k), json_str(v));
    }
    let _ = write!(out, ", \"failures\": [");
    for (i, f) in outcome.failures.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&json_str(f));
    }
    out.push_str("]}}");
    out
}

/// The result line: whether every check passed, the operation counts,
/// and each metric with its unit.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failures.is_empty(),
        outcome.attempted,
        outcome.failed()
    );
    for (i, (name, value, unit)) in outcome.recorder.render(traced).into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value.unwrap_or(0.0)),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}
