//! Persisted pipeline benchmark: the arena-backed `LDel¹ → PLDel`
//! construction pipeline from n=200 up to n=1M.
//!
//! For each deployment size the binary times the pipeline, the
//! grid-indexed crossing count, the CDS construction and (at small n) the
//! stretch measurement on the same instance, and writes wall-clock,
//! bytes-per-node, and peak-RSS measurements to
//! `results/BENCH_pipeline.json` so regressions are diffable in review.
//!
//! Usage: `pipeline_speedup [--quick] [--check] [--seed S] [--out DIR]`
//!
//! `--quick` restricts the sweep to n = 200 / 500 / 10k and one timing
//! repetition — the CI smoke mode. `--check` additionally verifies scale
//! invariants (PLDel ⊆ UDG, zero crossings, component preservation) at
//! every size, and for n ≤ 10k that the pipeline equals the paper's
//! definitions: `LDel¹ == ldel_k(·, 1)` and
//! `PLDel == planarize_by_definition(·, LDel¹)`. Node density follows the
//! paper's Table I calibration (side `200·√(n/100)`, radius 60), so the
//! average degree stays constant across sizes.

use std::time::Instant;

use geospan_bench::CliArgs;
use geospan_cds::build_cds;
use geospan_core::ClusterRank;
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_topology::ldel;

/// Largest size `--check` compares against the definitional oracles
/// (`ldel_k` is `O(n·Δ³)`, `planarize_by_definition` quadratic in the
/// triangle count) and the largest size timed best-of-reps.
const ORACLE_MAX_N: usize = 10_000;
/// Largest size for the grid crossing count and the CDS construction.
const QUERY_MAX_N: usize = 100_000;
/// Largest size for the all-pairs stretch measurement.
const STRETCH_MAX_N: usize = 500;

struct SizeResult {
    n: usize,
    side: f64,
    radius: f64,
    seed: u64,
    udg_edges: usize,
    ldel_triangles: usize,
    pldel_triangles: usize,
    pldel_edges: usize,
    /// `ldel::planarized` (LDel¹ + planarize), best-of-reps wall clock.
    parallel_pipeline_ms: f64,
    /// Grid-indexed crossing count over the UDG edges.
    grid_crossing_ms: Option<f64>,
    udg_crossings: Option<usize>,
    cds_ms: Option<f64>,
    cds_edges: Option<usize>,
    /// Stretch of PLDel vs the UDG; only measured for n ≤ 500 (the
    /// all-pairs measurement dwarfs construction above that).
    stretch_ms: Option<f64>,
    /// Frozen-CSR footprint of the UDG, per node.
    bytes_per_node: f64,
    /// Frozen-CSR footprint of the PLDel output, per node.
    pldel_bytes_per_node: f64,
    /// Process high-water RSS when this row was recorded (monotone over
    /// the ascending sweep; the last row is the true peak).
    peak_rss_mb: Option<f64>,
}

struct Report {
    description: &'static str,
    threads: usize,
    quick: bool,
    reps: usize,
    sizes: Vec<SizeResult>,
}

fn json_opt_f64(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".into(),
    }
}

fn json_opt_usize(v: Option<usize>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "null".into(),
    }
}

impl Report {
    /// Machine-readable artifact (the serde stubs don't serialize, so the
    /// JSON is written by hand; the schema is flat and additive-friendly).
    fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"description\": \"{}\",", self.description);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"quick\": {},", self.quick);
        let _ = writeln!(s, "  \"reps\": {},", self.reps);
        s.push_str("  \"sizes\": [\n");
        for (k, r) in self.sizes.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"n\": {},", r.n);
            let _ = writeln!(s, "      \"side\": {:.3},", r.side);
            let _ = writeln!(s, "      \"radius\": {:.1},", r.radius);
            let _ = writeln!(s, "      \"seed\": {},", r.seed);
            let _ = writeln!(s, "      \"udg_edges\": {},", r.udg_edges);
            let _ = writeln!(s, "      \"ldel_triangles\": {},", r.ldel_triangles);
            let _ = writeln!(s, "      \"pldel_triangles\": {},", r.pldel_triangles);
            let _ = writeln!(s, "      \"pldel_edges\": {},", r.pldel_edges);
            let _ = writeln!(
                s,
                "      \"parallel_pipeline_ms\": {:.3},",
                r.parallel_pipeline_ms
            );
            let _ = writeln!(
                s,
                "      \"grid_crossing_ms\": {},",
                json_opt_f64(r.grid_crossing_ms)
            );
            let _ = writeln!(
                s,
                "      \"udg_crossings\": {},",
                json_opt_usize(r.udg_crossings)
            );
            let _ = writeln!(s, "      \"cds_ms\": {},", json_opt_f64(r.cds_ms));
            let _ = writeln!(s, "      \"cds_edges\": {},", json_opt_usize(r.cds_edges));
            let _ = writeln!(s, "      \"stretch_ms\": {},", json_opt_f64(r.stretch_ms));
            let _ = writeln!(s, "      \"bytes_per_node\": {:.1},", r.bytes_per_node);
            let _ = writeln!(
                s,
                "      \"pldel_bytes_per_node\": {:.1},",
                r.pldel_bytes_per_node
            );
            let _ = writeln!(s, "      \"peak_rss_mb\": {}", json_opt_f64(r.peak_rss_mb));
            s.push_str(if k + 1 < self.sizes.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Best-of-`reps` wall clock in milliseconds, plus the last result.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is the benchmark's measurement, not an artifact input"
        )]
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// Process peak RSS from `/proc/self/status` (Linux only).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() {
    let cli = CliArgs::parse_flags(&["--quick", "--check", "--seed", "--out"]);
    let (quick, check) = (cli.quick, cli.check);
    let seed = cli.seed.unwrap_or(1);
    let out_dir = cli.out.unwrap_or_else(|| "results".into());

    let sizes: &[usize] = if quick {
        &[200, 500, 10_000]
    } else {
        &[200, 500, 1000, 2000, 10_000, 100_000, 1_000_000]
    };
    let base_reps = if quick { 1 } else { 3 };
    let radius = 60.0;

    let mut results = Vec::new();
    for &n in sizes {
        // Constant density: scale the region with n (Table I calibration).
        let side = 200.0 * ((n as f64) / 100.0).sqrt();
        let (_pts, udg, used_seed) = connected_unit_disk(n, side, radius, seed);
        // Single repetition above the oracle ceiling: one run at n=1M
        // outweighs the noise a best-of would absorb.
        let reps = if n > ORACLE_MAX_N { 1 } else { base_reps };

        let (parallel_ms, parallel) = best_of(reps, || ldel::planarized(&udg));
        let raw = ldel::ldel1(&udg);
        let grid_crossing = (n <= QUERY_MAX_N).then(|| best_of(reps, || crossing_count(&udg)));
        let cds =
            (n <= QUERY_MAX_N).then(|| best_of(reps, || build_cds(&udg, &ClusterRank::LowestId)));

        let stretch_ms = (n <= STRETCH_MAX_N).then(|| {
            best_of(reps, || {
                stretch_factors(&udg, &parallel.graph, StretchOptions::default())
            })
            .0
        });

        let udg_csr = udg.freeze();
        let pldel_csr = parallel.graph.freeze();

        if check && n <= ORACLE_MAX_N {
            assert_eq!(
                raw,
                ldel::ldel_k(&udg, 1),
                "n={n}: LDel1 differs from ldel_k(1)"
            );
            assert_eq!(
                parallel,
                ldel::planarize_by_definition(&udg, raw.clone()),
                "n={n}: PLDel differs from Algorithm 3 by definition"
            );
        }
        if check {
            // Scale invariants: a correctness regression at large n must
            // fail CI even where the oracles no longer run.
            for (u, v) in parallel.graph.edges() {
                assert!(udg.has_edge(u, v), "n={n}: PLDel edge ({u},{v}) not in UDG");
            }
            assert_eq!(
                crossing_count(&parallel.graph),
                0,
                "n={n}: PLDel is not plane"
            );
            assert_eq!(
                parallel.graph.components().len(),
                udg.components().len(),
                "n={n}: PLDel broke connectivity"
            );
            assert_eq!(
                pldel_csr.thaw().edges().collect::<Vec<_>>(),
                parallel.graph.edges().collect::<Vec<_>>(),
                "n={n}: freeze/thaw round-trip"
            );
        }

        let r = SizeResult {
            n,
            side,
            radius,
            seed: used_seed,
            udg_edges: udg.edge_count(),
            ldel_triangles: raw.triangles.len(),
            pldel_triangles: parallel.triangles.len(),
            pldel_edges: parallel.graph.edge_count(),
            parallel_pipeline_ms: parallel_ms,
            grid_crossing_ms: grid_crossing.as_ref().map(|(ms, _)| *ms),
            udg_crossings: grid_crossing.as_ref().map(|(_, c)| *c),
            cds_ms: cds.as_ref().map(|(ms, _)| *ms),
            cds_edges: cds.as_ref().map(|(_, c)| c.cds.edge_count()),
            stretch_ms,
            bytes_per_node: udg_csr.memory_bytes() as f64 / n as f64,
            pldel_bytes_per_node: pldel_csr.memory_bytes() as f64 / n as f64,
            peak_rss_mb: peak_rss_mb(),
        };
        println!(
            "n={:>7}  pipeline {:>9.2}ms  ({} B/node UDG, rss {})",
            r.n,
            r.parallel_pipeline_ms,
            r.bytes_per_node as usize,
            r.peak_rss_mb
                .map_or("n/a".into(), |mb| format!("{mb:.0}MB")),
        );
        results.push(r);
    }

    let report = Report {
        description: "Construction pipeline (arena-backed LDel1 -> PLDel): best-of-reps wall \
                      clock, frozen-CSR bytes-per-node, peak RSS",
        threads: rayon::current_num_threads(),
        quick,
        reps: base_reps,
        sizes: results,
    };
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let path = out_dir.join("BENCH_pipeline.json");
    std::fs::write(&path, report.to_json()).expect("write BENCH_pipeline.json");
    println!("wrote {}", path.display());
    if check {
        println!("check: scale invariants and definitional oracles (n <= {ORACLE_MAX_N}) hold");
    }
}
