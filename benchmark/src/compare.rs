//! `compare`: judges result set B against result set A under
//! `BENCHMARK.json`'s bounds.
//!
//! A result set is a directory of `<workload>.<seed>.json` files, each
//! holding one run's result line (what `sweep` writes). Runs pair up by
//! seed. For each workload and timed end-to-end metric (times and
//! memory), under `BENCHMARK.json`'s bound:
//!
//! * `unresolved` — either set's quartile spread, as a share of its
//!   median, exceeds the bound, unless every B run beats every A run;
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B wins at least 9 of 10 pairs (ties count for
//!   neither) and the medians differ by more than A's quartile
//!   distance;
//! * `unchanged` — otherwise.
//!
//! An exact metric (a cut: it repeats exactly for a seed) has no
//! run-to-run noise, and its spread across seeds is the spread between
//! different instances, so it is judged seed by seed under
//! [`EXACT_BOUND`] instead:
//!
//! * `worse` — the median over pairs of B's per-seed worsening exceeds
//!   the bound;
//! * `better` — B wins at least 9 of 10 pairs;
//! * `unresolved` — no pairs; `unchanged` — otherwise.
//!
//! Failed solves are a row of their own: B is `worse` if it failed
//! more of them than A.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats::{median, quartiles, relative_spread};

/// Allowed worsening of an exact metric, seed by seed. `BENCHMARK.json`
/// bounds the same metrics more loosely because its bounds also cover
/// the spread between the instances of different seeds.
pub const EXACT_BOUND: f64 = 0.01;

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Whether every output verified.
    pub correct: bool,
    /// Solves attempted.
    pub attempted: f64,
    /// Solves failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    /// Reads a result line.
    ///
    /// # Errors
    ///
    /// Describes a malformed line.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let v = json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("result has no number '{k}'"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result has no 'metrics' object")?
        {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("metric {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(RunResult {
            correct: v
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("result has no boolean 'correct'")?,
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics,
        })
    }
}

/// Runs by workload, then by seed.
pub type ResultSet = BTreeMap<String, BTreeMap<u64, RunResult>>;

/// Loads every `<workload>.<seed>.json` in `dir`; other files are
/// ignored.
///
/// # Errors
///
/// Reports an unreadable directory or a malformed result file.
pub fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some((workload, seed)) = name
            .strip_suffix(".json")
            .and_then(|stem| stem.rsplit_once('.'))
            .and_then(|(w, s)| Some((w.to_string(), s.parse::<u64>().ok()?)))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        let run = RunResult::parse(text.trim()).map_err(|e| format!("{name}: {e}"))?;
        set.entry(workload).or_default().insert(seed, run);
    }
    Ok(set)
}

/// A declared end-to-end metric with its regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of A's median.
    pub bound: f64,
    /// Whether the metric repeats exactly for a seed (judged by pairs).
    pub exact: bool,
}

/// The end-to-end metrics and workloads of a `BENCHMARK.json`.
///
/// # Errors
///
/// Describes a malformed file.
pub fn bounds(config: &str) -> Result<(Vec<String>, Vec<Bound>), String> {
    let v = json::parse(config)?;
    let workloads = v
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("no 'workloads' array")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or("workload without a name".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no 'end_to_end' array")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without a bound")?,
                exact: END_TO_END.iter().any(|d| d.name == name && d.exact),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((workloads, metrics))
}

/// The judgement of one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by the pairs-and-spread rule.
    Better,
    /// Within the bound.
    Unchanged,
    /// B's median is worse by more than the bound.
    Worse,
    /// Too noisy (or too few runs) to tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One output row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed` for the failure row).
    pub metric: String,
    /// A's median.
    pub median_a: f64,
    /// B's median.
    pub median_b: f64,
    /// Worsening of B against A as a share of A's median, or for an
    /// exact metric the median over pairs of the per-seed worsening
    /// (negative: B is better).
    pub change: f64,
    /// Quartile spread of A as a share of its median.
    pub spread_a: f64,
    /// Quartile spread of B as a share of its median.
    pub spread_b: f64,
    /// Pairs B won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// Judges one metric's values (by seed) under `bound`.
pub fn judge(workload: &str, bound: &Bound, a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> Row {
    let va: Vec<f64> = a.values().copied().collect();
    let vb: Vec<f64> = b.values().copied().collect();
    let (median_a, median_b) = (median(&va), median(&vb));
    // Positive `worse_by` means B is worse.
    let worse_by = |x: f64, y: f64| if bound.lower_is_better { y - x } else { x - y };
    // The same as a share of A's value.
    let worsening = |x: f64, y: f64| {
        let d = worse_by(x, y);
        if d == 0.0 {
            0.0
        } else {
            d / x.abs()
        }
    };
    let per_pair: Vec<f64> = a
        .iter()
        .filter_map(|(seed, &x)| Some(worsening(x, *b.get(seed)?)))
        .collect();
    let pairs = per_pair.len();
    let wins = per_pair.iter().filter(|&&w| w < 0.0).count();
    let won_most = pairs > 0 && wins * 10 >= pairs * 9;
    let spread_a = relative_spread(&va).unwrap_or(f64::INFINITY);
    let spread_b = relative_spread(&vb).unwrap_or(f64::INFINITY);
    let (change, verdict) = if bound.exact {
        let change = median(&per_pair);
        let verdict = if pairs == 0 {
            Verdict::Unresolved
        } else if change > EXACT_BOUND {
            Verdict::Worse
        } else if won_most {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
        (change, verdict)
    } else {
        let change = worsening(median_a, median_b);
        let all_b_beat_all_a = !va.is_empty()
            && !vb.is_empty()
            && vb.iter().all(|&y| va.iter().all(|&x| worse_by(x, y) < 0.0));
        let iqr_a = quartiles(&va).map_or(f64::INFINITY, |(q1, q3)| q3 - q1);
        let verdict = if spread_a > bound.bound || spread_b > bound.bound {
            if all_b_beat_all_a {
                Verdict::Better
            } else {
                Verdict::Unresolved
            }
        } else if change > bound.bound {
            Verdict::Worse
        } else if won_most && -worse_by(median_a, median_b) > iqr_a {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
        (change, verdict)
    };
    Row {
        workload: workload.to_string(),
        metric: bound.name.clone(),
        median_a,
        median_b,
        change,
        spread_a,
        spread_b,
        wins,
        pairs,
        verdict,
    }
}

/// Every row: per workload, the failure row then one per metric.
pub fn compare(workloads: &[String], bounds: &[Bound], a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let empty = BTreeMap::new();
    let mut rows = Vec::new();
    for w in workloads {
        let (ra, rb) = (a.get(w).unwrap_or(&empty), b.get(w).unwrap_or(&empty));
        let failed = |runs: &BTreeMap<u64, RunResult>| -> f64 {
            runs.values()
                .map(|r| r.failed + f64::from(u8::from(!r.correct && r.failed == 0.0)))
                .sum()
        };
        let (fa, fb) = (failed(ra), failed(rb));
        rows.push(Row {
            workload: w.clone(),
            metric: "failed".into(),
            median_a: fa,
            median_b: fb,
            change: fb - fa,
            spread_a: 0.0,
            spread_b: 0.0,
            wins: 0,
            pairs: 0,
            verdict: if fb > fa {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            },
        });
        for bound in bounds {
            let values = |runs: &BTreeMap<u64, RunResult>| -> BTreeMap<u64, f64> {
                runs.iter()
                    .filter_map(|(&s, r)| r.metrics.get(&bound.name).map(|&v| (s, v)))
                    .collect()
            };
            rows.push(judge(w, bound, &values(ra), &values(rb)));
        }
    }
    rows
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<14} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "spread A", "spread B", "wins"
    );
    let pct = |x: f64| {
        if x.is_finite() {
            format!("{:+.2}%", 100.0 * x)
        } else {
            "n/a".into()
        }
    };
    for r in rows {
        out.push_str(&format!(
            "{:<15} {:<14} {:>14.6} {:>14.6} {:>9} {:>9} {:>9} {:>7}  {}\n",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            if r.metric == "failed" {
                format!("{:+}", r.change)
            } else {
                pct(r.change)
            },
            pct(r.spread_a),
            pct(r.spread_b),
            format!("{}/{}", r.wins, r.pairs),
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "solve_s".into(),
            lower_is_better: true,
            bound,
            exact: false,
        }
    }

    /// A cut as `BENCHMARK.json` declares it, and ten seeds' values
    /// spread about 6% across instances.
    fn cut() -> (Bound, BTreeMap<u64, f64>) {
        let bound = Bound {
            name: "cut".into(),
            lower_is_better: true,
            bound: 0.2,
            exact: true,
        };
        let a = series(&[
            5000.0, 5300.0, 4700.0, 5100.0, 4900.0, 5400.0, 4600.0, 5200.0, 4800.0, 5000.0,
        ]);
        (bound, a)
    }

    fn scaled(a: &BTreeMap<u64, f64>, factor: f64) -> BTreeMap<u64, f64> {
        a.iter().map(|(&s, &v)| (s, v * factor)).collect()
    }

    #[test]
    fn exact_metrics_are_judged_seed_by_seed() {
        let (bound, a) = cut();
        assert!(relative_spread(&a.values().copied().collect::<Vec<_>>()).unwrap() > 0.05);
        assert_eq!(judge("w", &bound, &a, &a).verdict, Verdict::Unchanged);
        let worse = judge("w", &bound, &a, &scaled(&a, 1.15));
        assert_eq!(worse.verdict, Verdict::Worse);
        assert!((worse.change - 0.15).abs() < 1e-9);
        assert_eq!(
            judge("w", &bound, &a, &scaled(&a, 1.02)).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge("w", &bound, &a, &scaled(&a, 0.95)).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn an_exact_metric_improving_on_few_seeds_is_unchanged() {
        let (bound, a) = cut();
        let mut b = a.clone();
        for seed in 0..5 {
            *b.get_mut(&seed).unwrap() *= 0.9;
        }
        assert_eq!(judge("w", &bound, &a, &b).verdict, Verdict::Unchanged);
    }

    #[test]
    fn identical_sets_are_unchanged() {
        let a = series(&[1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]);
        assert_eq!(judge("w", &lower(0.1), &a, &a).verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_slowdown_beyond_the_bound_is_worse() {
        let a = series(&[1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]);
        let b: BTreeMap<u64, f64> = a.iter().map(|(&s, &v)| (s, v * 1.2)).collect();
        let row = judge("w", &lower(0.1), &a, &b);
        assert_eq!(row.verdict, Verdict::Worse);
        assert!((row.change - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_consistent_speedup_is_better() {
        let a = series(&[1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.0, 1.01, 0.99]);
        let b: BTreeMap<u64, f64> = a.iter().map(|(&s, &v)| (s, v * 0.9)).collect();
        let row = judge("w", &lower(0.1), &a, &b);
        assert_eq!(row.verdict, Verdict::Better);
        assert_eq!((row.wins, row.pairs), (10, 10));
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let a = series(&[1.0, 2.0, 0.5, 1.5, 0.7, 1.9, 0.6, 1.2, 0.8, 1.1]);
        assert_eq!(judge("w", &lower(0.1), &a, &a).verdict, Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let a = series(&[10.0; 10]);
        let b = series(&[8.0; 10]);
        let bound = Bound {
            name: "x".into(),
            lower_is_better: false,
            bound: 0.1,
            exact: false,
        };
        assert_eq!(judge("w", &bound, &a, &b).verdict, Verdict::Worse);
    }

    #[test]
    fn the_declared_cuts_are_exact() {
        let (_, bounds) = bounds(include_str!("../../BENCHMARK.json")).unwrap();
        let exact: Vec<&str> = bounds
            .iter()
            .filter(|b| b.exact)
            .map(|b| b.name.as_str())
            .collect();
        assert_eq!(exact, ["cut", "cut_vs_split"]);
    }

    #[test]
    fn parses_a_result_line() {
        let r = RunResult::parse(
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"cut": {"value": 12, "unit": "count"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics["cut"], 12.0);
    }
}
