//! Every workload at smoke size: the declared metrics and nothing else,
//! exact repeats for a seed, and trace coverage of the solve.

use bisect_benchmark::json::{self, Value};
use bisect_benchmark::workload::{run, Report, RunConfig, Scale, Workload};

const CONFIG: &str = include_str!("../../BENCHMARK.json");

fn smoke(w: Workload, seed: u64, traced: bool) -> Report {
    run(
        w,
        &RunConfig {
            scale: Scale::Smoke,
            seed,
            seconds: 0.0,
            traced,
        },
    )
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(key: &str) -> Vec<(String, String)> {
    let config = json::parse(CONFIG).expect("BENCHMARK.json parses");
    config
        .get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn workloads_match_the_declaration() {
    let config = json::parse(CONFIG).unwrap();
    let names: Vec<&str> = config
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = declared(key);
        for w in Workload::ALL {
            let report = smoke(w, 3, traced);
            assert_eq!(report.failed, 0, "{} failed a solve", w.name());
            assert!(report.attempted >= 1);
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, expected, "{} traced={traced}", w.name());
            for m in &report.metrics {
                assert!(well_formed(m.name), "{}", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                if !traced {
                    assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
                }
            }
        }
    }
}

#[test]
fn the_same_seed_repeats_cuts_and_counters() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let exact = |r: &Report| -> Vec<(&'static str, f64)> {
                r.metrics
                    .iter()
                    .filter(|m| m.exact)
                    .map(|m| (m.name, m.value))
                    .collect()
            };
            let (a, b) = (smoke(w, 11, traced), smoke(w, 11, traced));
            assert!(!exact(&a).is_empty());
            assert_eq!(exact(&a), exact(&b), "{} traced={traced}", w.name());
        }
    }
}

#[test]
fn layer_self_times_cover_the_traced_ladder_solve() {
    for w in [Workload::NetlistLocal, Workload::GraphHuge] {
        let report = smoke(w, 5, true);
        let covered = report
            .metrics
            .iter()
            .find(|m| m.name == "trace.covered_frac")
            .unwrap()
            .value;
        assert!(covered >= 0.95, "{}: layers cover {covered}", w.name());
    }
}
