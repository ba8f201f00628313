//! The metric catalogue and the per-layer metrics derived from a
//! traced run's spans.
//!
//! Names and units here must match `BENCHMARK.json` (a test checks
//! it). `exact` marks values that are deterministic for a seed — cuts
//! and work counters — as opposed to times and memory.

use crate::stats::median;
use crate::trace::Trace;

/// A declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether the value repeats exactly for a seed.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, exact }
}

/// Metrics of an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("solve_s", "s", false),
    def("setup_s", "s", false),
    def("peak_rss_mib", "MiB", false),
    def("cut", "count", true),
    def("cut_vs_split", "ratio", true),
];

/// Metrics of a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("gen.time_s", "s", false),
    def("gen.mpins_per_s", "Mpins/s", false),
    def("reorder.time_s", "s", false),
    def("coarsen.time_s", "s", false),
    def("coarsen.match_s", "s", false),
    def("coarsen.contract_s", "s", false),
    def("coarsen.levels", "count", true),
    def("coarsen.coarsest_size", "count", true),
    def("coarsen.matched_frac", "ratio", true),
    def("coarsen.stalled", "count", true),
    def("initial.time_s", "s", false),
    def("initial.cut", "count", true),
    def("initial.imbalance", "count", true),
    def("project.time_s", "s", false),
    def("refine.time_s", "s", false),
    def("refine.rounds", "count", true),
    def("refine.idle_levels", "count", true),
    def("refine.gain_evals", "count", true),
    def("refine.boundary_frac", "ratio", true),
    def("refine.cut_gain", "count", true),
    def("refine.evals_per_cut", "ratio", true),
    def("refine.polish_s", "s", false),
    def("refine.polish_cut_gain", "count", true),
    def("rebalance.time_s", "s", false),
    def("rebalance.cut_delta", "count", true),
    def("verify.time_s", "s", false),
    def("sa.time_s", "s", false),
    def("sa.proposals", "count", true),
    def("sa.mprop_per_s", "Mprop/s", false),
    def("sa.temperatures", "count", true),
    def("pipeline.csa_s", "s", false),
    def("pipeline.csa_proposals", "count", true),
    def("kl.time_s", "s", false),
    def("kl.pair_evals", "count", true),
    def("kl.passes", "count", true),
    def("pipeline.ckl_s", "s", false),
    def("kway.time_s", "s", false),
    def("kway.passes", "count", true),
    def("cut.sa", "count", true),
    def("cut.csa", "count", true),
    def("cut.kl", "count", true),
    def("cut.ckl", "count", true),
    def("hpwl", "wirelength", true),
    def("trace.solve_s", "s", false),
    def("trace.covered_frac", "ratio", false),
    def("trace.overhead_frac", "ratio", false),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
    /// Whether the value repeats exactly for a seed.
    pub exact: bool,
}

/// Collects exactly one value per declared metric.
pub struct Builder {
    defs: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Builder {
    /// A builder for the per-layer set (`traced`) or the end-to-end set.
    pub fn new(traced: bool) -> Builder {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        Builder {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name or a second value for one name.
    pub fn push(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(self.values[i].is_none(), "metric {name} recorded twice");
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values[i] = Some(value + 0.0);
    }

    /// The metrics in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not recorded.
    pub fn finish(self) -> Vec<Metric> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| Metric {
                name: d.name,
                unit: d.unit,
                value: v.unwrap_or_else(|| panic!("metric {} was not recorded", d.name)),
                exact: d.exact,
            })
            .collect()
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did not run).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Derives every per-layer metric from the spans of a traced run.
///
/// Times are the median over the traced solve passes of each pass's
/// summed span durations; counters come from the first traced pass
/// (every pass repeats them). `paper_cuts` are the verified best-of-2
/// cuts summed per algorithm (SA, CSA, KL, CKL), `hpwl` the verified
/// placement's wirelength.
pub fn layer_metrics(
    out: &mut Builder,
    trace: &Trace,
    setup_runs: &[u32],
    solve_runs: &[u32],
    overhead: f64,
    paper_cuts: [f64; 4],
    hpwl: f64,
) {
    let spans = trace.spans();
    let own = trace.self_times();
    let dur_in = |names: &[&str], run: u32| -> f64 {
        spans
            .iter()
            .filter(|s| s.run == run && names.contains(&s.name))
            .map(|s| s.duration())
            .sum()
    };
    let time = |names: &[&str]| -> f64 {
        let per_pass: Vec<f64> = solve_runs.iter().map(|&r| dur_in(names, r)).collect();
        median(&per_pass)
    };
    let first = solve_runs[0];
    let firsts = || spans.iter().filter(move |s| s.run == first);
    let count = |name: &str, counter: &str| -> f64 {
        firsts()
            .filter(|s| s.name == name)
            .map(|s| s.counter(counter))
            .sum()
    };
    let gain = |name: &str| count(name, "cut_in") - count(name, "cut_out");

    let gen_per_rep: Vec<f64> = setup_runs.iter().map(|&r| dur_in(&["gen"], r)).collect();
    let gen_s = median(&gen_per_rep);
    let pins: f64 = spans
        .iter()
        .filter(|s| s.run == setup_runs[0] && s.name == "gen")
        .map(|s| s.counter("pins"))
        .sum();
    out.push("gen.time_s", gen_s);
    out.push("gen.mpins_per_s", ratio(pins, gen_s) / 1e6);

    out.push("reorder.time_s", time(&["reorder", "reorder.back"]));
    out.push("coarsen.time_s", time(&["coarsen"]));
    out.push("coarsen.match_s", time(&["coarsen.match"]));
    out.push("coarsen.contract_s", time(&["coarsen.contract"]));
    out.push("coarsen.levels", count("coarsen", "levels"));
    out.push("coarsen.coarsest_size", count("coarsen", "coarsest"));
    out.push(
        "coarsen.matched_frac",
        ratio(count("coarsen", "matched"), count("coarsen", "visited")),
    );
    out.push("coarsen.stalled", count("coarsen", "stalled"));

    out.push("initial.time_s", time(&["initial"]));
    out.push("initial.cut", count("initial", "cut"));
    out.push("initial.imbalance", count("initial", "imbalance"));
    out.push("project.time_s", time(&["project"]));

    let evals = count("refine", "evals") + count("refine.polish", "evals");
    let (level_gain, polish_gain) = (gain("refine"), gain("refine.polish"));
    let finest: Vec<f64> = firsts()
        .filter(|s| s.name == "refine" && s.counter("level") == 0.0)
        .map(|s| ratio(s.counter("boundary"), s.counter("cells")))
        .collect();
    out.push("refine.time_s", time(&["refine", "refine.polish"]));
    out.push("refine.rounds", count("refine", "rounds"));
    out.push(
        "refine.idle_levels",
        firsts()
            .filter(|s| s.name == "refine" && s.counter("rounds") == 0.0)
            .count() as f64,
    );
    out.push("refine.gain_evals", evals);
    out.push(
        "refine.boundary_frac",
        ratio(finest.iter().sum(), finest.len() as f64),
    );
    out.push("refine.cut_gain", level_gain);
    out.push(
        "refine.evals_per_cut",
        ratio(evals, level_gain + polish_gain),
    );
    out.push("refine.polish_s", time(&["refine.polish"]));
    out.push("refine.polish_cut_gain", polish_gain);
    out.push("rebalance.time_s", time(&["rebalance"]));
    out.push("rebalance.cut_delta", count("rebalance", "cut_delta"));
    out.push("verify.time_s", time(&["verify"]));

    let sa_s = time(&["sa"]);
    out.push("sa.time_s", sa_s);
    out.push("sa.proposals", count("sa", "proposals"));
    out.push(
        "sa.mprop_per_s",
        ratio(count("sa", "proposals"), sa_s) / 1e6,
    );
    out.push("sa.temperatures", count("sa", "passes"));
    out.push("pipeline.csa_s", time(&["pipeline.csa"]));
    out.push("pipeline.csa_proposals", count("pipeline.csa", "proposals"));
    out.push("kl.time_s", time(&["kl"]));
    out.push("kl.pair_evals", count("kl", "proposals"));
    out.push("kl.passes", count("kl", "passes"));
    out.push("pipeline.ckl_s", time(&["pipeline.ckl"]));
    out.push("kway.time_s", time(&["kway"]));
    out.push("kway.passes", count("kway", "passes"));
    for (name, cut) in ["cut.sa", "cut.csa", "cut.kl", "cut.ckl"]
        .iter()
        .zip(paper_cuts)
    {
        out.push(name, cut);
    }
    out.push("hpwl", hpwl);

    let (mut solve_total, mut solve_own) = (0.0, 0.0);
    for (s, own) in spans.iter().zip(&own) {
        if s.name == "solve" {
            solve_total += s.duration();
            solve_own += own;
        }
    }
    out.push("trace.solve_s", time(&["solve"]));
    out.push("trace.covered_frac", 1.0 - ratio(solve_own, solve_total));
    out.push("trace.overhead_frac", overhead);
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line; the benchmark
/// cannot report its memory metric there.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} declared twice");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    #[should_panic(expected = "was not recorded")]
    fn builder_demands_every_metric() {
        let mut b = Builder::new(false);
        b.push("solve_s", 1.0);
        let _ = b.finish();
    }
}
