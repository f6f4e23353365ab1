//! Persisted pipeline benchmark: the frozen baselines versus the
//! arena-backed construction pipeline, from n=200 up to n=1M.
//!
//! For each deployment size the binary times three implementations of the
//! `LDel¹ → PLDel` pipeline on the same instance:
//!
//! - the frozen **seed** (serial, hash-map Bowyer–Watson, x-sweep
//!   planarization, `O(m²)` crossing count) — run for n ≤ 10k,
//! - the frozen **prev** optimized path (grid-indexed, parallel, but
//!   BTree-keyed state and per-edge sorted inserts) — run for n ≤ 10k,
//! - the current **arena** pipeline (flat stores, sorted-vec sets, CSR
//!   freeze for queries) — run at every size,
//!
//! checks that all produce **identical** output wherever they run, and
//! writes wall-clock, bytes-per-node, and peak-RSS measurements to
//! `results/BENCH_pipeline.json` so regressions are diffable in review.
//!
//! Usage: `pipeline_speedup [--quick] [--check] [--seed S] [--out DIR]`
//!
//! `--quick` restricts the sweep to n = 200 / 500 / 10k and one timing
//! repetition — the CI smoke mode. `--check` additionally verifies scale
//! invariants (PLDel ⊆ UDG, zero crossings, component preservation) so a
//! correctness regression at n=10k fails CI, not just a slowdown. Node
//! density follows the paper's Table I calibration (side `200·√(n/100)`,
//! radius 60), so the average degree stays constant across sizes.

use std::time::Instant;

use geospan_bench::baseline::{prev_planarized, seed_crossing_count, seed_ldel1, seed_planarize};
use geospan_bench::CliArgs;
use geospan_cds::build_cds;
use geospan_core::ClusterRank;
use geospan_graph::gen::connected_unit_disk;
use geospan_graph::planarity::crossing_count;
use geospan_graph::stretch::{stretch_factors, StretchOptions};
use geospan_topology::ldel;

/// Largest size the frozen seed and prev pipelines are timed at; beyond
/// this the seed's hash-map Bowyer–Watson dominates the whole sweep.
const BASELINE_MAX_N: usize = 10_000;
/// Largest size for the seed's `O(m²)` crossing count.
const SEED_CROSSING_MAX_N: usize = 2_000;
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
    /// Seed pipeline (LDel¹ + planarize), best-of-reps wall clock.
    serial_pipeline_ms: Option<f64>,
    /// Frozen pre-arena optimized pipeline on the same instance.
    prev_pipeline_ms: Option<f64>,
    /// Current arena-backed pipeline on the same instance.
    parallel_pipeline_ms: f64,
    /// seed / arena.
    pipeline_speedup: Option<f64>,
    /// prev / arena: the gain attributable to this refactor alone.
    arena_speedup: Option<f64>,
    /// Seed `O(m²)` crossing count over the UDG edges.
    serial_crossing_ms: Option<f64>,
    /// Grid-indexed crossing count (same result).
    grid_crossing_ms: Option<f64>,
    crossing_speedup: Option<f64>,
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
    outputs_identical: Option<bool>,
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
                "      \"serial_pipeline_ms\": {},",
                json_opt_f64(r.serial_pipeline_ms)
            );
            let _ = writeln!(
                s,
                "      \"prev_pipeline_ms\": {},",
                json_opt_f64(r.prev_pipeline_ms)
            );
            let _ = writeln!(
                s,
                "      \"parallel_pipeline_ms\": {:.3},",
                r.parallel_pipeline_ms
            );
            let _ = writeln!(
                s,
                "      \"pipeline_speedup\": {},",
                json_opt_f64(r.pipeline_speedup)
            );
            let _ = writeln!(
                s,
                "      \"arena_speedup\": {},",
                json_opt_f64(r.arena_speedup)
            );
            let _ = writeln!(
                s,
                "      \"serial_crossing_ms\": {},",
                json_opt_f64(r.serial_crossing_ms)
            );
            let _ = writeln!(
                s,
                "      \"grid_crossing_ms\": {},",
                json_opt_f64(r.grid_crossing_ms)
            );
            let _ = writeln!(
                s,
                "      \"crossing_speedup\": {},",
                json_opt_f64(r.crossing_speedup)
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
            let _ = writeln!(s, "      \"peak_rss_mb\": {},", json_opt_f64(r.peak_rss_mb));
            let _ = writeln!(
                s,
                "      \"outputs_identical\": {}",
                match r.outputs_identical {
                    Some(b) => b.to_string(),
                    None => "null".into(),
                }
            );
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

/// Best-of-`reps` for two alternatives timed back-to-back within each
/// repetition, so clock-frequency drift on a busy host hits both sides
/// of the ratio equally. One untimed warmup precedes the timed reps.
fn interleaved_best<A, B>(
    reps: usize,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let _ = f();
    let _ = g();
    let mut best_f = f64::INFINITY;
    let mut best_g = f64::INFINITY;
    let mut out_f = None;
    let mut out_g = None;
    for _ in 0..reps {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is the benchmark's measurement, not an artifact input"
        )]
        let t0 = Instant::now();
        let a = f();
        best_f = best_f.min(t0.elapsed().as_secs_f64() * 1e3);
        out_f = Some(a);
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock timing is the benchmark's measurement, not an artifact input"
        )]
        let t1 = Instant::now();
        let b = g();
        best_g = best_g.min(t1.elapsed().as_secs_f64() * 1e3);
        out_g = Some(b);
    }
    (
        (best_f, out_f.expect("reps >= 1")),
        (best_g, out_g.expect("reps >= 1")),
    )
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
        // Single repetition above the baseline ceiling: one arena run at
        // n=1M outweighs the noise a best-of would absorb.
        let reps = if n > BASELINE_MAX_N { 1 } else { base_reps };

        // The frozen prev pipeline and the arena pipeline are the ratio
        // the acceptance gate reads, so they are timed interleaved.
        let pair_reps = if quick || n > SEED_CROSSING_MAX_N {
            reps
        } else {
            7
        };
        let (prev_timing, (parallel_ms, parallel)) = if n <= BASELINE_MAX_N {
            let ((prev_ms, prev), new) = interleaved_best(
                pair_reps,
                || prev_planarized(&udg),
                || ldel::planarized(&udg),
            );
            assert_eq!(
                prev, new.1,
                "n={n}: arena pipeline output diverged from the frozen prev pipeline"
            );
            (Some(prev_ms), new)
        } else {
            (None, best_of(reps, || ldel::planarized(&udg)))
        };

        let (serial_ms, identical) = if n <= BASELINE_MAX_N {
            let (ms, serial) = best_of(reps, || seed_planarize(&udg, seed_ldel1(&udg)));
            let identical = serial == parallel;
            assert!(
                identical,
                "n={n}: optimized pipeline output diverged from the seed baseline"
            );
            (Some(ms), Some(identical))
        } else {
            (None, None)
        };

        let serial_crossing =
            (n <= SEED_CROSSING_MAX_N).then(|| best_of(reps, || seed_crossing_count(&udg)));
        let grid_crossing = (n <= QUERY_MAX_N).then(|| best_of(reps, || crossing_count(&udg)));
        if let (Some((_, s)), Some((_, g))) = (&serial_crossing, &grid_crossing) {
            assert_eq!(s, g, "n={n}: crossing counts");
        }

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

        if check {
            // Scale invariants: a correctness regression at large n must
            // fail CI even where the frozen baselines no longer run.
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
            ldel_triangles: ldel::ldel1(&udg).triangles.len(),
            pldel_triangles: parallel.triangles.len(),
            pldel_edges: parallel.graph.edge_count(),
            serial_pipeline_ms: serial_ms,
            prev_pipeline_ms: prev_timing,
            parallel_pipeline_ms: parallel_ms,
            pipeline_speedup: serial_ms.map(|s| s / parallel_ms),
            arena_speedup: prev_timing.map(|p| p / parallel_ms),
            serial_crossing_ms: serial_crossing.as_ref().map(|(ms, _)| *ms),
            grid_crossing_ms: grid_crossing.as_ref().map(|(ms, _)| *ms),
            crossing_speedup: match (&serial_crossing, &grid_crossing) {
                (Some((s, _)), Some((g, _))) => Some(s / g),
                _ => None,
            },
            udg_crossings: grid_crossing.as_ref().map(|(_, c)| *c),
            cds_ms: cds.as_ref().map(|(ms, _)| *ms),
            cds_edges: cds.as_ref().map(|(_, c)| c.cds.edge_count()),
            stretch_ms,
            bytes_per_node: udg_csr.memory_bytes() as f64 / n as f64,
            pldel_bytes_per_node: pldel_csr.memory_bytes() as f64 / n as f64,
            peak_rss_mb: peak_rss_mb(),
            outputs_identical: identical,
        };
        println!(
            "n={:>7}  arena {:>9.2}ms  prev {}  seed {}  ({} B/node UDG, rss {})",
            r.n,
            r.parallel_pipeline_ms,
            r.prev_pipeline_ms
                .map_or("      n/a".into(), |ms| format!("{ms:>9.2}ms")),
            r.serial_pipeline_ms
                .map_or("      n/a".into(), |ms| format!("{ms:>9.2}ms")),
            r.bytes_per_node as usize,
            r.peak_rss_mb
                .map_or("n/a".into(), |mb| format!("{mb:.0}MB")),
        );
        results.push(r);
    }

    let report = Report {
        description: "Construction pipeline: frozen seed and prev-optimized baselines vs the \
                      arena-backed pipeline; best-of-reps wall clock, frozen-CSR bytes-per-node, \
                      peak RSS",
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
        println!("check: all scale invariants hold");
    }
}
