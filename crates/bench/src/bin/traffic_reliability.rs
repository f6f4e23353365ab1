//! Experiment E17 — retransmit and queue disciplines under lossy load.
//!
//! Serves hotspot and bursty workloads over `LDel(ICDS)` backbone
//! routing under seeded radio loss, sweeping the three queue
//! disciplines (FIFO, priority-by-remaining-distance, deficit round
//! robin) with link-layer retransmit off and on, and writes
//! `traffic_reliability.csv` (in `--out`, or `results/` by default).
//! The CSV is byte-identical for a given seed regardless of thread
//! count.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin traffic_reliability -- \
//!     [--quick] [--check] [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! `--quick` swaps in the small CI smoke sweep; `--check` exits non-zero
//! unless, at the lowest swept load, retransmit recovers >= 90% of
//! first-attempt link losses in every cell and every retransmit cell
//! delivers at least the FIFO/no-retx baseline fraction.

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_bench::traffic::{
    check_retx_delivery, check_retx_recovery, format_reliability, reliability_csv,
    reliability_rows, ReliabilitySweepConfig,
};
use geospan_bench::CliArgs;

fn main() -> ExitCode {
    let args = CliArgs::parse_flags(&["--quick", "--check", "--trials", "--seed", "--out"]);
    let mut cfg = if args.quick {
        ReliabilitySweepConfig::quick()
    } else {
        ReliabilitySweepConfig::standard()
    };
    cfg.scenario = args.apply(cfg.scenario);

    println!(
        "Retransmit + disciplines under {:.0}% loss: n={}, R={}, {} trials, {} ticks, \
         loads {:?}, biases {:?}, bursts {:?}\n",
        100.0 * cfg.loss,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.loads,
        cfg.hotspot_biases,
        cfg.burst_sizes
    );
    let rows = reliability_rows(&cfg);
    print!("{}", format_reliability(&rows));
    println!(
        "\nAt low load retransmit converts link losses into latency — deliveries go up, \
         tails stretch by the backoff. At high load retries compete with fresh packets \
         for queue slots, so reliability buys less and can cost delivery; DRR keeps the \
         hotspot from starving cross traffic where FIFO lets the sink's backlog win."
    );

    let dir = args.out.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("traffic_reliability.csv");
    std::fs::write(&path, reliability_csv(&rows)).expect("write traffic_reliability.csv");
    println!("wrote {}", path.display());

    if args.check {
        if let Err(msg) = check_retx_recovery(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        if let Err(msg) = check_retx_delivery(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: retransmit recovers >= 90% of link losses and no retransmit \
             cell delivers below the fifo/no-retx baseline at the lowest load"
        );
    }
    ExitCode::SUCCESS
}
