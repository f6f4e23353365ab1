//! Experiment E21 — delivery through churn: localized 2-hop repair
//! versus the full-rebuild baseline.
//!
//! Generates seeded churn plans (joins, leaves, moves) of increasing
//! intensity, serves the same uniform workload through each plan twice
//! — once with the paper's incremental repair maintaining `LDel(ICDS)`,
//! once rebuilding the backbone from scratch on every event — and
//! reports delivery, the per-window delivery dip, repair message cost,
//! and staleness. Writes `traffic_churn.csv` (in `--out`, or
//! `results/` by default). The CSV is byte-identical for a given seed
//! regardless of thread count.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin traffic_churn -- \
//!     [--quick] [--check] [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! `--quick` swaps in the small CI smoke sweep; `--check` exits
//! non-zero unless, at every non-zero churn level, localized repair
//! absorbs events in place at strictly lower repair cost than the
//! rebuild baseline, the baseline rebuilds on every membership event,
//! and both arms' packet ledgers balance.

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_bench::churn::{
    check_repair_advantage, churn_csv, churn_rows, format_churn, ChurnSweepConfig,
};
use geospan_bench::CliArgs;

fn main() -> ExitCode {
    let args = CliArgs::parse_flags(&["--quick", "--check", "--trials", "--seed", "--out"]);
    let mut cfg = if args.quick {
        ChurnSweepConfig::quick()
    } else {
        ChurnSweepConfig::standard()
    };
    cfg.scenario = args.apply(cfg.scenario);

    println!(
        "Delivery through churn: n={}, R={}, {} trials, {} ticks, churn levels {:?}, \
         load {} pkt/tick, {}-tick delivery windows\n",
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.levels,
        cfg.load,
        cfg.window
    );
    let rows = churn_rows(&cfg);
    print!("{}", format_churn(&rows));
    println!(
        "\nBoth arms apply the identical churn plan to the identical workload; only the \
         maintenance scheme differs. The full-rebuild baseline reconstructs the backbone \
         on every membership event, charging the whole present population each time, while \
         localized repair absorbs most events with 2-hop neighborhood updates — the same \
         delivery through the dip at a fraction of the repair message cost."
    );

    let dir = args.out.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("traffic_churn.csv");
    std::fs::write(&path, churn_csv(&rows)).expect("write traffic_churn.csv");
    println!("wrote {}", path.display());

    if args.check {
        if let Err(msg) = check_repair_advantage(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: at every churn level localized repair absorbs events in place \
             at strictly lower cost than the rebuild baseline, and all ledgers balance"
        );
    }
    ExitCode::SUCCESS
}
