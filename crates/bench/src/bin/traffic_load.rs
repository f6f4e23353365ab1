//! Experiment E16 — packet delivery under load across backbone topologies.
//!
//! Serves seeded packet workloads over UDG (greedy), CDS' (GPSR), and
//! `LDel(ICDS)` (dominating-set backbone routing) at a range of offered
//! loads, through the discrete-event traffic engine, and writes
//! `traffic_load.csv` (in `--out`, or `results/` by default). The CSV is
//! byte-identical for a given seed regardless of thread count.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin traffic_load -- \
//!     [--quick] [--check] [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! `--quick` swaps in the small CI smoke sweep; `--check` exits non-zero
//! unless backbone routing delivers >= 99% at the lowest swept load.

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_bench::traffic::{
    check_low_load_delivery, format_traffic, traffic_csv, traffic_rows, SweepConfig,
};
use geospan_bench::CliArgs;

fn main() -> ExitCode {
    let args = CliArgs::parse_flags(&["--quick", "--check", "--trials", "--seed", "--out"]);
    let mut cfg = if args.quick {
        SweepConfig::quick()
    } else {
        SweepConfig::standard()
    };
    cfg.scenario = args.apply(cfg.scenario);

    println!(
        "Traffic under load: n={}, R={}, {} trials, {} ticks, loads {:?}\n",
        cfg.scenario.n, cfg.scenario.radius, cfg.scenario.trials, cfg.duration, cfg.loads
    );
    let rows = traffic_rows(&cfg);
    print!("{}", format_traffic(&rows));
    println!(
        "\nAt low load the backbone delivers nearly everything at bounded stretch; as load \
         rises, queueing on the (smaller) backbone caps throughput first — the cost side of \
         concentrating traffic on a spanner."
    );

    let dir = args.out.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("traffic_load.csv");
    std::fs::write(&path, traffic_csv(&rows)).expect("write traffic_load.csv");
    println!("wrote {}", path.display());

    if args.check {
        if let Err(msg) = check_low_load_delivery(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        println!("check passed: backbone delivery >= 0.99 at the lowest load");
    }
    ExitCode::SUCCESS
}
