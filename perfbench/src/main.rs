//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--quick]`.
//!
//! Prints a description line (host, threads, toolchain, commit, every
//! workload parameter) and then, as the last line of standard output,
//! the result object. A traced run writes its spans to standard error.
//! Exits 1 when an output check failed, 2 on a usage error.

use std::process::ExitCode;

use geospan_perfbench::{describe, host, result_line, run, Options, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--quick", _) => {
                quick = true;
                i += 1;
                continue;
            }
            ("--workload", Some(v)) => match Workload::parse(v) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {v}")),
            },
            ("--seed", Some(v)) => match v.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed {v}")),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = s,
                _ => return usage(&format!("bad seconds {v}")),
            },
            ("--trace", Some("0")) => trace = false,
            ("--trace", Some("1")) => trace = true,
            (flag, _) => return usage(&format!("unexpected argument {flag}")),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        quick,
    };
    let outcome = run(&opts);
    if let Some(tracer) = &outcome.tracer {
        eprint!("{}", tracer.render());
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let cwd = std::env::current_dir().unwrap_or_default();
    println!("{}", describe(&outcome, &host::git_commit(&cwd)));
    println!("{}", result_line(&outcome, trace));
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
