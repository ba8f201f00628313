//! End-to-end and per-layer benchmark of the graph-bisect libraries.
//!
//! Five workloads (see [`workload::Workload`]) generate their inputs
//! from a seed, solve them at a fixed single thread through public
//! library calls only, verify every result on the untouched input, and
//! report either the end-to-end metrics (untraced run) or the per-layer
//! metrics derived from spans (traced run). `README.md` has the
//! workload rationale, the metric definitions and the commands.

pub mod compare;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workload;

/// The result line printed last: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(report: &workload::Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
