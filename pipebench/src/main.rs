//! Command line of the pipeline benchmark:
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload supply_chain --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! output check failed.

use std::process::ExitCode;

use rfid_pipebench::workload::{Kind, ALL};
use rfid_pipebench::{run, Options};

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = ALL.iter().map(|k| k.name()).collect();
    eprintln!(
        "{problem}\nusage: rfid-pipebench --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--scale <f>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = 1.0;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("missing value for {}", args[i]));
        };
        let ok = match args[i].as_str() {
            "--workload" => {
                kind = Kind::parse(value);
                kind.is_some()
            }
            "--seed" => {
                seed = value.parse::<u64>().ok();
                seed.is_some()
            }
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0);
                seconds.is_some()
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                };
                trace.is_some()
            }
            "--scale" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 1.0 => {
                    scale = s;
                    true
                }
                _ => false,
            },
            other => return usage(&format!("unknown argument {other}")),
        };
        if !ok {
            return usage(&format!("bad value {value} for {}", args[i]));
        }
        i += 2;
    }
    let (Some(kind), Some(seed), Some(seconds), Some(trace)) = (kind, seed, seconds, trace) else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let report = run(&Options {
        kind,
        seed,
        seconds,
        trace,
        scale,
    });
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in &report.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
