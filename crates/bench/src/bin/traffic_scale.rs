//! Experiment E20 — sharded traffic-engine scaling.
//!
//! Serves one hotspot workload (1.1M offered packets in the standard
//! configuration) over `LDel(ICDS)` backbone routing once per shard
//! count and writes the scaling ledger to
//! `BENCH_traffic_scale.json` (in `--out`, or `results/` by default):
//! events/second, speedup over single-shard, barrier rounds, boundary
//! messages, idle shard-rounds, load imbalance, and edge-cut fraction.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin traffic_scale -- \
//!     [--quick] [--check] [--seed S] [--reps R] [--out DIR]
//! ```
//!
//! `--quick` swaps in the small CI smoke sweep. `--check` exits
//! non-zero unless every shard count's outcome is bit-identical to the
//! single-shard run (and, full-size, the workload offered ≥ 1M
//! packets); the ≥ 2× speedup gate additionally applies on hosts with
//! 4+ cores — on smaller hosts the measurements are recorded but the
//! hardware has no parallelism for a speedup to come from, so the gate
//! is reported as skipped rather than faked.

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_bench::scale::{
    check_identity, check_speedup, format_scale, scale_json, scale_rows, ScaleConfig,
};
use geospan_bench::CliArgs;

fn main() -> ExitCode {
    let args = CliArgs::parse_flags(&["--quick", "--check", "--seed", "--reps", "--out"]);
    let mut cfg = if args.quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::standard()
    };
    if let Some(s) = args.seed {
        cfg.seed = s;
    }
    if let Some(r) = args.reps {
        cfg.reps = r;
    }

    println!(
        "Sharded engine scaling: n={}, R={}, hotspot rate {} x {} ticks \
         (~{:.0} packets offered), loss {:.0}%, shards {:?}\n",
        cfg.n,
        cfg.radius,
        cfg.rate,
        cfg.duration,
        cfg.expected_offered(),
        100.0 * cfg.loss,
        cfg.shard_counts
    );
    let report = scale_rows(&cfg);
    print!("{}", format_scale(&report));
    println!(
        "\nEvery shard count replays the identical packet ledger; the partition's price is \
         the boundary-message and idle-round columns (lockstep barriers at zero lookahead), \
         its payoff the wall-clock column on multi-core hosts. Host cores: {}.",
        report.cores
    );

    let dir = args.out.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("BENCH_traffic_scale.json");
    std::fs::write(&path, scale_json(&cfg, &report, args.quick))
        .expect("write BENCH_traffic_scale.json");
    println!("wrote {}", path.display());

    if args.check {
        if let Err(msg) = check_identity(&report) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        if !args.quick && report.offered < 1_000_000 {
            eprintln!(
                "check failed: full-size workload offered only {} packets (< 1M)",
                report.offered
            );
            return ExitCode::FAILURE;
        }
        if report.cores >= 4 {
            if let Err(msg) = check_speedup(&report) {
                eprintln!("check failed: {msg}");
                return ExitCode::FAILURE;
            }
            println!(
                "check passed: outcomes bit-identical at every shard count, 2x speedup reached"
            );
        } else {
            println!(
                "check passed: outcomes bit-identical at every shard count \
                 (speedup gate skipped on a {}-core host)",
                report.cores
            );
        }
    }
    ExitCode::SUCCESS
}
