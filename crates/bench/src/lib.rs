//! Experiment harness regenerating the evaluation of Wang & Li
//! (ICDCS 2002).
//!
//! Each table/figure of the paper has a binary in `src/bin` that drives
//! the functions here (see `EXPERIMENTS.md` at the repository root for
//! the experiment ↔ binary index). This library holds the shared pieces:
//! scenario configuration, instance generation, the construction of the
//! paper's ten topologies, the measured statistics, and plain-text /
//! CSV output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod scale;
pub mod traffic;

use std::fmt::Write as _;

use geospan_cds::build_cds;
use geospan_core::{BackboneBuilder, BackboneConfig, ClusterRank};
use geospan_graph::gen::{connected_unit_disk, UnitDiskBuilder};
use geospan_graph::stats::degree_stats;
use geospan_graph::stretch::{stretch_factors, StretchOptions, StretchReport};
use geospan_graph::{Graph, Point};
use geospan_topology::{gabriel, ldel, relative_neighborhood};
use rayon::prelude::*;
use serde::Serialize;

/// An experiment scenario: the deployment parameters of the paper's
/// simulations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scenario {
    /// Number of nodes.
    pub n: usize,
    /// Side of the square deployment region.
    pub side: f64,
    /// Transmission radius.
    pub radius: f64,
    /// Number of connected instances to aggregate over.
    pub trials: usize,
    /// Base RNG seed (instances use consecutive accepted seeds).
    pub seed: u64,
}

impl Scenario {
    /// The paper's Table I configuration: `n = 100` nodes in a 200 × 200
    /// square with transmission radius 60 (see DESIGN.md for the region
    /// calibration).
    pub fn table1() -> Self {
        Scenario {
            n: 100,
            side: 200.0,
            radius: 60.0,
            trials: 20,
            seed: 1,
        }
    }

    /// Generates the connected instances of this scenario.
    pub fn instances(&self) -> Vec<(Vec<Point>, Graph)> {
        let mut out = Vec::with_capacity(self.trials);
        let mut seed = self.seed;
        for _ in 0..self.trials {
            let (pts, udg, used) = connected_unit_disk(self.n, self.side, self.radius, seed);
            seed = used + 1;
            out.push((pts, udg));
        }
        out
    }
}

/// Whether a topology spans all nodes (stretch factors are meaningful)
/// or only the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Span {
    /// Spans every node: measure stretch against the UDG.
    AllNodes,
    /// Backbone only: degree/edge statistics, no stretch.
    BackboneOnly,
    /// The base graph itself.
    Base,
}

/// One named topology derived from a deployment.
pub struct NamedTopology {
    /// Row label, matching the paper's Table I.
    pub name: &'static str,
    /// The graph (shared vertex set with the UDG).
    pub graph: Graph,
    /// Stretch measurement category.
    pub span: Span,
}

/// Builds the paper's ten topologies for one deployment.
///
/// Order matches Table I: UDG, RNG, GG, LDel, CDS, CDS', ICDS, ICDS',
/// LDel(ICDS), LDel(ICDS').
///
/// # Panics
/// Panics if `udg` has an edge longer than `radius` (wrong scenario
/// pairing).
pub fn table1_topologies(udg: &Graph, radius: f64) -> Vec<NamedTopology> {
    let cds = build_cds(udg, &ClusterRank::LowestId);
    let backbone = BackboneBuilder::new(BackboneConfig::new(radius))
        .build(udg)
        .expect("centralized build cannot fail on a valid UDG");
    vec![
        NamedTopology {
            name: "UDG",
            graph: udg.clone(),
            span: Span::Base,
        },
        NamedTopology {
            name: "RNG",
            graph: relative_neighborhood(udg),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "GG",
            graph: gabriel(udg),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "LDel",
            graph: ldel::planarized(udg).graph,
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "CDS",
            graph: cds.cds.clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "CDS'",
            graph: cds.cds_prime.clone(),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "ICDS",
            graph: cds.icds.clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "ICDS'",
            graph: cds.icds_prime.clone(),
            span: Span::AllNodes,
        },
        NamedTopology {
            name: "LDel(ICDS)",
            graph: backbone.ldel_icds().clone(),
            span: Span::BackboneOnly,
        },
        NamedTopology {
            name: "LDel(ICDS')",
            graph: backbone.ldel_icds_prime().clone(),
            span: Span::AllNodes,
        },
    ]
}

/// Table I row statistics for one topology, aggregated over instances.
#[derive(Debug, Clone, Serialize, Default)]
pub struct RowStats {
    /// Row label.
    pub name: String,
    /// Mean (over instances) of the average node degree.
    pub deg_avg: f64,
    /// Maximum node degree over all instances.
    pub deg_max: usize,
    /// Mean average length stretch (`None` for backbone-only rows).
    pub len_avg: Option<f64>,
    /// Maximum length stretch.
    pub len_max: Option<f64>,
    /// Mean average hop stretch.
    pub hop_avg: Option<f64>,
    /// Maximum hop stretch.
    pub hop_max: Option<f64>,
    /// Mean edge count.
    pub edges: f64,
}

/// Measures one topology against its UDG.
///
/// For spanning topologies the length stretch is computed over node pairs
/// separated by more than one transmission radius, following the paper's
/// convention for the backbone graphs ("we are only interested in nodes
/// `u`, `v` with `|uv| > 1`"); hop stretch uses all connected pairs.
pub fn measure_stretch(udg: &Graph, g: &Graph, radius: f64) -> StretchReport {
    stretch_factors(
        udg,
        g,
        StretchOptions {
            min_euclidean_separation: radius,
        },
    )
}

/// One topology's measurements on one instance (intermediate record of
/// [`table1_rows`]).
struct TopoMeasurement {
    name: &'static str,
    deg_avg: f64,
    deg_max: usize,
    edges: f64,
    stretch: Option<StretchReport>,
}

/// Runs the full Table I measurement over a scenario.
///
/// Instances are measured in parallel (each builds its own topologies);
/// the per-instance measurements are folded serially in instance order,
/// so the aggregate is identical for every thread count.
pub fn table1_rows(scenario: &Scenario) -> Vec<RowStats> {
    let instances = scenario.instances();
    let per_instance: Vec<Vec<TopoMeasurement>> = (0..instances.len())
        .into_par_iter()
        .map(|k| {
            let (_pts, udg) = &instances[k];
            table1_topologies(udg, scenario.radius)
                .into_iter()
                .map(|topo| {
                    let d = degree_stats(&topo.graph);
                    let stretch = (topo.span == Span::AllNodes).then(|| {
                        let r = measure_stretch(udg, &topo.graph, scenario.radius);
                        assert_eq!(
                            r.disconnected_pairs, 0,
                            "instance {k}: {} disconnects pairs",
                            topo.name
                        );
                        r
                    });
                    TopoMeasurement {
                        name: topo.name,
                        deg_avg: d.avg,
                        deg_max: d.max,
                        edges: topo.graph.edge_count() as f64,
                        stretch,
                    }
                })
                .collect()
        })
        .collect();

    let mut rows: Vec<RowStats> = Vec::new();
    for inst in &per_instance {
        if rows.is_empty() {
            rows = inst
                .iter()
                .map(|m| RowStats {
                    name: m.name.to_string(),
                    ..RowStats::default()
                })
                .collect();
        }
        for (row, m) in rows.iter_mut().zip(inst) {
            row.deg_avg += m.deg_avg;
            row.deg_max = row.deg_max.max(m.deg_max);
            row.edges += m.edges;
            if let Some(r) = &m.stretch {
                *row.len_avg.get_or_insert(0.0) += r.length_avg;
                *row.hop_avg.get_or_insert(0.0) += r.hop_avg;
                let lm = row.len_max.get_or_insert(0.0);
                *lm = lm.max(r.length_max);
                let hm = row.hop_max.get_or_insert(0.0);
                *hm = hm.max(r.hop_max);
            }
        }
    }
    let t = instances.len() as f64;
    for row in &mut rows {
        row.deg_avg /= t;
        row.edges /= t;
        if let Some(v) = row.len_avg.as_mut() {
            *v /= t;
        }
        if let Some(v) = row.hop_avg.as_mut() {
            *v /= t;
        }
    }
    rows
}

/// Formats a float column entry, rendering `None` as the paper's "-".
fn opt(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.prec$}"))
}

/// Renders Table I in the paper's layout.
pub fn format_table1(rows: &[RowStats]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "topology", "deg_avg", "deg_max", "len_avg", "len_max", "hop_avg", "hop_max", "edges"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>8.2} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9.1}",
            r.name,
            r.deg_avg,
            r.deg_max,
            opt(r.len_avg, 2),
            opt(r.len_max, 2),
            opt(r.hop_avg, 2),
            opt(r.hop_max, 2),
            r.edges
        );
    }
    out
}

/// Writes rows as CSV (header + one line per row).
pub fn table1_csv(rows: &[RowStats]) -> String {
    let mut out = String::from("topology,deg_avg,deg_max,len_avg,len_max,hop_avg,hop_max,edges\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{},{},{},{},{},{:.2}",
            r.name,
            r.deg_avg,
            r.deg_max,
            opt(r.len_avg, 4),
            opt(r.len_max, 4),
            opt(r.hop_avg, 4),
            opt(r.hop_max, 4),
            r.edges
        );
    }
    out
}

/// A generic sweep series: one metric sampled across a parameter range.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Metric label, e.g. `"CDS deg max"`.
    pub label: String,
    /// `(parameter, value)` samples.
    pub points: Vec<(f64, f64)>,
}

/// Renders sweep series as an aligned text table: one row per parameter
/// value, one column per series.
pub fn format_series(param_name: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{param_name:>8}");
    for s in series {
        let _ = write!(out, " {:>18}", s.label);
    }
    out.push('\n');
    if series.is_empty() {
        return out;
    }
    for i in 0..series[0].points.len() {
        let _ = write!(out, "{:>8.0}", series[0].points[i].0);
        for s in series {
            let _ = write!(out, " {:>18.3}", s.points[i].1);
        }
        out.push('\n');
    }
    out
}

/// Renders sweep series as CSV.
pub fn series_csv(param_name: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{param_name}");
    for s in series {
        let _ = write!(out, ",{}", s.label.replace(',', ";"));
    }
    out.push('\n');
    if series.is_empty() {
        return out;
    }
    for i in 0..series[0].points.len() {
        let _ = write!(out, "{}", series[0].points[i].0);
        for s in series {
            let _ = write!(out, ",{:.6}", s.points[i].1);
        }
        out.push('\n');
    }
    out
}

/// CLI parsing shared by the experiment binaries. Each binary names the
/// flags it accepts; any other flag is a usage error.
#[derive(Debug, Clone, Default)]
pub struct CliArgs {
    /// `--quick`: swap in the small CI smoke configuration.
    pub quick: bool,
    /// `--check`: exit non-zero unless the experiment's gates hold.
    pub check: bool,
    /// Override for the trial count.
    pub trials: Option<usize>,
    /// Override for the base seed.
    pub seed: Option<u64>,
    /// Override for the timing repetitions.
    pub reps: Option<usize>,
    /// Output directory for CSV/SVG artifacts.
    pub out: Option<std::path::PathBuf>,
}

impl CliArgs {
    /// Parses `std::env::args` with the figure/table flags: `--trials N`,
    /// `--seed S`, `--out DIR` (all optional).
    ///
    /// # Panics
    /// Panics (with a usage message) on malformed arguments.
    pub fn parse() -> Self {
        Self::parse_flags(&["--trials", "--seed", "--out"])
    }

    /// Parses `std::env::args`, accepting only the flags in `accepted`
    /// (any of `--quick`, `--check`, `--trials N`, `--seed S`,
    /// `--reps R`, `--out DIR`).
    ///
    /// # Panics
    /// Panics (with a usage message) on malformed arguments.
    #[expect(
        clippy::panic,
        reason = "documented CLI usage panic: this helper exists only for bin targets"
    )]
    pub fn parse_flags(accepted: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), accepted)
            .unwrap_or_else(|usage| panic!("{usage}"))
    }

    /// Parses `args` (without the program name), accepting only the flags
    /// in `accepted`.
    ///
    /// # Errors
    /// Returns a usage message on a flag outside `accepted`, a missing
    /// value, or a value that does not parse.
    fn from_args(
        args: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            args: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let v = args
                .next()
                .ok_or_else(|| format!("missing value after {flag}"))?;
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        let mut args = args.into_iter();
        let mut out = CliArgs::default();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let unknown = || format!("unknown argument {flag}; supported: {}", accepted.join(" "));
            match flag {
                _ if !accepted.contains(&flag) => return Err(unknown()),
                "--quick" => out.quick = true,
                "--check" => out.check = true,
                "--trials" => out.trials = Some(value(flag, &mut args)?),
                "--seed" => out.seed = Some(value(flag, &mut args)?),
                "--reps" => out.reps = Some(value(flag, &mut args)?),
                "--out" => out.out = Some(value(flag, &mut args)?),
                _ => return Err(unknown()),
            }
        }
        Ok(out)
    }

    /// Applies the overrides to a scenario.
    pub fn apply(&self, mut s: Scenario) -> Scenario {
        if let Some(t) = self.trials {
            s.trials = t;
        }
        if let Some(seed) = self.seed {
            s.seed = seed;
        }
        s
    }

    /// Writes an artifact into the `--out` directory, if one was given.
    ///
    /// # Panics
    /// Panics when the directory or file cannot be written.
    pub fn write_artifact(&self, name: &str, content: &str) {
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).expect("create output directory");
            let path = dir.join(name);
            std::fs::write(&path, content).expect("write artifact");
            println!("wrote {}", path.display());
        }
    }
}

/// Builds a UDG directly (used by benches and the gallery binary).
pub fn udg_of(pts: &[Point], radius: f64) -> Graph {
    UnitDiskBuilder::new(radius).build(pts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            n: 30,
            side: 100.0,
            radius: 40.0,
            trials: 2,
            seed: 1,
        }
    }

    #[test]
    fn scenario_instances_are_connected() {
        for (_pts, udg) in tiny().instances() {
            assert!(udg.is_connected());
            assert_eq!(udg.node_count(), 30);
        }
    }

    #[test]
    fn table1_rows_structure() {
        let rows = table1_rows(&tiny());
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].name, "UDG");
        assert_eq!(rows[9].name, "LDel(ICDS')");
        // Base and backbone-only rows have no stretch.
        assert!(rows[0].len_avg.is_none());
        assert!(rows[4].len_avg.is_none());
        // Spanning rows do.
        for i in [1, 2, 3, 5, 7, 9] {
            assert!(rows[i].len_avg.is_some(), "row {i}");
            assert!(rows[i].len_avg.unwrap() >= 1.0);
            assert!(rows[i].hop_max.unwrap() >= 1.0);
        }
        // Sparsity ordering: every derived topology has fewer edges than
        // the UDG.
        for r in &rows[1..] {
            assert!(r.edges <= rows[0].edges);
        }
    }

    #[test]
    fn formatting_smoke() {
        let rows = table1_rows(&tiny());
        let table = format_table1(&rows);
        assert!(table.contains("LDel(ICDS')"));
        assert!(table.contains('-'));
        let csv = table1_csv(&rows);
        assert_eq!(csv.lines().count(), 11);
    }

    #[test]
    fn cli_overrides_apply() {
        let cli = CliArgs {
            trials: Some(3),
            seed: Some(77),
            ..CliArgs::default()
        };
        let s = cli.apply(Scenario::table1());
        assert_eq!(s.trials, 3);
        assert_eq!(s.seed, 77);
        assert_eq!(s.n, 100); // untouched fields stay
        let none = CliArgs::default().apply(Scenario::table1());
        assert_eq!(none.trials, Scenario::table1().trials);
    }

    #[test]
    fn cli_accepts_only_the_flags_a_binary_names() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let traffic = ["--quick", "--check", "--seed", "--reps", "--out"];
        let cli = CliArgs::from_args(
            args(&[
                "--quick", "--reps", "4", "--seed", "9", "--out", "d", "--check",
            ]),
            &traffic,
        )
        .expect("accepted flags parse");
        assert!(cli.quick && cli.check);
        assert_eq!((cli.reps, cli.seed, cli.trials), (Some(4), Some(9), None));
        assert_eq!(cli.out, Some(std::path::PathBuf::from("d")));

        let unknown = CliArgs::from_args(args(&["--trials", "3"]), &traffic).unwrap_err();
        assert!(unknown.contains("unknown argument --trials"), "{unknown}");
        assert!(unknown.contains("--reps"), "{unknown}");
        let missing = CliArgs::from_args(args(&["--seed"]), &traffic).unwrap_err();
        assert_eq!(missing, "missing value after --seed");
        let malformed = CliArgs::from_args(args(&["--reps", "x"]), &traffic).unwrap_err();
        assert_eq!(malformed, "--reps: cannot parse \"x\"");
    }

    #[test]
    fn artifacts_written_only_with_out_dir() {
        let dir = std::env::temp_dir().join(format!("geospan-bench-test-{}", std::process::id()));
        let cli = CliArgs {
            out: Some(dir.clone()),
            ..CliArgs::default()
        };
        cli.write_artifact("x.csv", "a,b\n1,2\n");
        assert_eq!(
            std::fs::read_to_string(dir.join("x.csv")).unwrap(),
            "a,b\n1,2\n"
        );
        std::fs::remove_dir_all(&dir).ok();
        // Without --out: no panic, nothing written.
        CliArgs::default().write_artifact("y.csv", "ignored");
    }

    #[test]
    fn measure_stretch_uses_separation_convention() {
        let (_pts, udg) = &tiny().instances()[0];
        let r = measure_stretch(udg, udg, 40.0);
        // Self-stretch is exactly 1 and only separated pairs counted.
        assert!((r.length_max - 1.0).abs() < 1e-9);
        assert!(
            r.length_pairs < r.hop_pairs,
            "separation filter must drop pairs"
        );
    }

    #[test]
    fn series_formatting() {
        let s = vec![
            Series {
                label: "a".into(),
                points: vec![(10.0, 1.0), (20.0, 2.0)],
            },
            Series {
                label: "b".into(),
                points: vec![(10.0, 3.0), (20.0, 4.0)],
            },
        ];
        let txt = format_series("n", &s);
        assert_eq!(txt.lines().count(), 3);
        let csv = series_csv("n", &s);
        assert!(csv.starts_with("n,a,b"));
        assert!(csv.contains("10,1.000000,3.000000"));
    }
}
