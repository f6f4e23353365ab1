//! Experiment E18 — the saturation frontier, with and without overload
//! control.
//!
//! Serves a hotspot workload over `LDel(ICDS)` backbone routing under
//! seeded radio loss, pushing offered load past the point where every
//! queue discipline's delivery collapses into `QueueFull` drops — then
//! re-runs the same cells with congestion-adaptive overload control
//! (sender-queue watermarks + token-bucket source admission) and
//! reports how far the 95%-delivery frontier moves outward. Writes
//! `traffic_saturation.csv` (in `--out`, or `results/` by default).
//! The CSV is byte-identical for a given seed regardless of thread
//! count.
//!
//! ```text
//! cargo run -p geospan-bench --release --bin traffic_saturation -- \
//!     [--quick] [--check] [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! `--quick` swaps in the small CI smoke sweep; `--check` exits
//! non-zero unless every discipline's control-off half has a collapsed
//! cell (admitted delivery < 95% with `QueueFull` drops) and its
//! control-on frontier sits at a strictly higher load (or beyond the
//! sweep entirely).

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_bench::traffic::{
    check_frontier_shift, check_saturation_collapse, format_saturation, saturation_csv,
    saturation_rows, SaturationSweepConfig,
};
use geospan_bench::CliArgs;

fn main() -> ExitCode {
    let args = CliArgs::parse_flags(&["--quick", "--check", "--trials", "--seed", "--out"]);
    let mut cfg = if args.quick {
        SaturationSweepConfig::quick()
    } else {
        SaturationSweepConfig::standard()
    };
    cfg.scenario = args.apply(cfg.scenario);

    println!(
        "Saturation frontier under {:.0}% loss: n={}, R={}, {} trials, {} ticks, \
         loads {:?}, sink bias {}, queue capacity {}\n",
        100.0 * cfg.loss,
        cfg.scenario.n,
        cfg.scenario.radius,
        cfg.scenario.trials,
        cfg.duration,
        cfg.loads,
        cfg.sink_bias,
        cfg.queue_capacity
    );
    let rows = saturation_rows(&cfg);
    print!("{}", format_saturation(&rows));
    println!(
        "\nWithout overload control the hotspot's ingress relays saturate: queues fill, \
         retries amplify the backlog, and delivery collapses into QueueFull drops. With \
         watermarks shedding retries and token buckets refusing excess injections at the \
         source, admitted traffic keeps delivering — refusals absorb the overload instead \
         of the queues, and the 95%-delivery frontier moves past the top of the sweep."
    );

    let dir = args.out.unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create output directory");
    let path = dir.join("traffic_saturation.csv");
    std::fs::write(&path, saturation_csv(&rows)).expect("write traffic_saturation.csv");
    println!("wrote {}", path.display());

    if args.check {
        if let Err(msg) = check_saturation_collapse(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        if let Err(msg) = check_frontier_shift(&rows) {
            eprintln!("check failed: {msg}");
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: every discipline collapses below 95% with QueueFull drops when \
             overload control is off, and its frontier sits strictly higher with control on"
        );
    }
    ExitCode::SUCCESS
}
