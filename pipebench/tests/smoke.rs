//! Smoke test of the benchmark command at a small trace size: every
//! workload runs traced and untraced, passes its output checks, and emits
//! every metric `BENCHMARK.json` names, with the unit it names.
//!
//! Run with `cargo test --release --manifest-path pipebench/Cargo.toml`.

use std::process::Command;

/// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name ends")];
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| &u[..u.find('"').expect("unit ends")])
                .expect("metric has a unit");
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

/// Runs the benchmark binary and returns its last stdout line.
fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rfid-pipebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.1"])
        .args(["--trace", &trace.to_string(), "--scale", "0.01"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

fn check_workload(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        assert!(line.contains("\"failed\": 0, "), "{line}");
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        assert_eq!(
            line.matches("\"unit\": ").count(),
            metrics.len(),
            "{workload}: exactly the {section} metrics: {line}"
        );
        for (name, unit) in metrics {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload}: metric {name} missing from {line}"));
            let rest = &line[at + entry.len()..];
            let (value, tail) = rest.split_once(',').expect("value ends");
            let value: f64 = value.parse().expect("numeric value");
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{workload}: {name} should be in {unit}: {tail}"
            );
        }
    }
}

#[test]
fn supply_chain_runs_clean() {
    check_workload("supply_chain");
}

#[test]
fn rule_scaling_runs_clean() {
    check_workload("rule_scaling");
}

#[test]
fn noisy_shelves_runs_clean() {
    check_workload("noisy_shelves");
}
