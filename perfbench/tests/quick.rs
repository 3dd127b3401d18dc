//! Quick-size self-check: every workload runs at reduced size with its
//! oracles on, untraced and traced, and must report exactly the metrics
//! `BENCHMARK.json` names, with no failed operation.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run_workload, Config, WORKLOADS};
use std::path::PathBuf;

fn config(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.6,
        trace,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("quick-{seed}-{trace}")),
    }
}

fn check(workload: &str, trace: bool) {
    let report = run_workload(workload, &config(5, trace)).unwrap();
    let context = report.context_json();
    assert!(report.attempted > 0, "{workload}: nothing attempted");
    assert_eq!(report.failed, 0, "{workload}: {context}");
    assert_eq!(report.mismatches, 0, "{workload}: {context}");
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    report.result_json(wanted).unwrap();
    if !trace {
        for (name, _) in END_TO_END {
            assert!(report.metrics[name] > 0.0, "{workload}: {name} is 0");
        }
    }
}

#[test]
fn lab_corpus_quick() {
    check("lab_corpus", false);
    check("lab_corpus", true);
}

#[test]
fn zoomd_tenants_quick() {
    check("zoomd_tenants", false);
    check("zoomd_tenants", true);
}

#[test]
fn durable_ingest_quick() {
    check("durable_ingest", false);
    check("durable_ingest", true);
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("nope", &config(1, false)).is_err());
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, read with
/// plain string scanning (the file's layout is one metric per line).
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let end = json[start..].find(']').expect("list closes") + start;
    json[start..end]
        .lines()
        .filter_map(|line| {
            let field = |f: &str| {
                let at = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
                let len = line[at..].find('"')?;
                Some(line[at..at + len].to_string())
            };
            Some((field("name")?, field("unit")?))
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = json
        .lines()
        .filter(|l| l.contains("\"why\""))
        .filter_map(|l| {
            let at = l.find("\"name\": \"")? + 9;
            Some(l[at..at + l[at..].find('"')?].to_string())
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
