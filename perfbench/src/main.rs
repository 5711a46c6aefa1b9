//! Wire-level serving benchmark for raven-rs.
//!
//! One process holds the server (`RavenServer` over a `ServerState`
//! with the default configuration) and a load generator of two client
//! threads speaking protocol v6 over loopback TCP. See `README.md` for
//! the workloads, the metrics and how to run it.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload predict_scan --seed 1 --seconds 10 --trace 0
//! ```

mod cached_lookup;
mod common;
mod fixtures;
mod harness;
mod host;
mod model_churn;
mod point_score;
mod predict_scan;
mod report;
mod rng;
mod spans;
mod stats;
mod traced;
mod wire;

use report::RunReport;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 4] = [
    predict_scan::NAME,
    point_score::NAME,
    cached_lookup::NAME,
    model_churn::NAME,
];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args, workload: &str) -> RunReport {
    let mut args = args.clone();
    args.workload = workload.to_string();
    match (workload, args.trace) {
        (predict_scan::NAME, false) => predict_scan::timed(&args),
        (cached_lookup::NAME, false) => cached_lookup::timed(&args),
        (point_score::NAME, false) => point_score::timed(&args),
        (model_churn::NAME, false) => model_churn::timed(&args),
        (predict_scan::NAME, true) => predict_scan::traced(&args),
        (cached_lookup::NAME, true) => cached_lookup::traced(&args),
        (point_score::NAME, true) => point_score::traced(&args),
        (model_churn::NAME, true) => model_churn::traced(&args),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<(&str, &str)> = if args.trace {
        report::traced_metric_names()
    } else {
        report::END_TO_END.to_vec()
    };
    let selected: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for workload in selected {
        let report = run(&args, workload);
        print!("{}", report::human(workload, &report, &names));
        println!("{}", report::env_line(&report));
        println!("{}", report::result_line(&report, &names));
        all_correct &= report.correct();
    }
    if !all_correct {
        eprintln!("perfbench: an oracle check or a counter reconciliation failed");
        std::process::exit(1);
    }
}
