//! Runs every workload at a tiny size, traced and untraced, and checks
//! that the result line carries exactly the metrics `BENCHMARK.json`
//! names, each with its unit (end-to-end ones never zero). Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text.find(&format!("\"{list}\"")).expect("list present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = rest[open..].find('"').expect("string closes") + open;
        rest[open..close].to_owned()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn workloads() -> Vec<String> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
    let start = text.find("\"workloads\"").unwrap();
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\"").skip(1).map(|rest| rest.split('"').nth(1).unwrap().to_owned()).collect()
}

fn run(workload: &str, trace: u8) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace"])
        .arg(trace.to_string())
        .output()
        .expect("benchmark binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The value of metric `name` in a result line.
fn value(last: &str, name: &str) -> f64 {
    let needle = format!("\"{name}\": {{\"value\": ");
    let at = last.find(&needle).unwrap_or_else(|| panic!("{name} missing"));
    let tail = &last[at + needle.len()..];
    tail[..tail.find(',').expect("value is followed by its unit")].parse().expect("numeric value")
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let names = workloads();
    assert_eq!(names.len(), 2, "{names:?}");
    for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(list);
        assert!(!metrics.is_empty());
        for workload in &names {
            let (code, stdout) = run(workload, trace);
            assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
            assert!(stdout.contains(" cpus="), "the host's cpu count is recorded");
            let last = stdout.lines().last().expect("a result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            for (name, unit) in &metrics {
                let value = value(last, name);
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                // End-to-end metrics are compared as ratios: never zero.
                assert!(trace == 1 || value > 0.0, "{workload}: {name} = {value}");
                let unit_field =
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
                assert!(last.contains(&unit_field), "{workload}: {name} unit");
                assert!(stdout.contains(&format!("metric {name} = ")), "{name} with sample count");
            }
            if trace == 1 && workload == "handout-hot" {
                // The limiter's windows run on one clock for the whole
                // run, so traced calls open windows and are admitted.
                let shed = value(last, "service.rate_shed_ratio");
                assert!(shed < 1.0, "every rate call was shed: {shed}");
            }
            let printed = last.matches("\"unit\"").count();
            assert_eq!(printed, metrics.len(), "{workload}: exactly the declared metrics");
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
    }
}
