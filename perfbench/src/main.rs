//! Command-line entry point; see `README.md` in this package.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints each metric and any result-check mismatch on stderr, and the
//! result as one JSON line, last, on stdout. Exits 2 on a bad command
//! line and 1 when there is no result to report.

use std::process::ExitCode;

use perfbench::{parse_args, run, Sizes, USAGE};

fn main() -> ExitCode {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(|arg| arg.into_string())
        .collect();
    let parsed = args
        .map_err(|arg| format!("argument {arg:?} is not UTF-8"))
        .and_then(|args| parse_args(&args));
    let opts = match parsed {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts, &Sizes::FULL) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for mismatch in &outcome.mismatches {
                eprintln!("check failed: {mismatch}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
