//! Regression checking between two `BENCH_results.json` reports.
//!
//! The harness is deterministic: the same profile, seed, and thread
//! count reproduce every mean cut exactly. [`compare`] therefore
//! matches records by `(experiment, setting, algorithm)` and flags any
//! difference in `mean_cut` beyond the tolerance (default 0) as a
//! regression or an improvement; timing-bearing columns
//! (`total_time_s`, `proposals_per_sec`, and the machine-dependent
//! `proposals` total) are ignored, since wall time varies run to run.
//! The `repro_check` binary wraps this for CI.

use std::fmt;

use crate::error::BenchError;
use crate::json::{BenchRecord, BenchReport};

/// One cut difference between a current report and the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CutDelta {
    /// Experiment id of the record.
    pub experiment: String,
    /// Setting label of the record.
    pub setting: String,
    /// Algorithm column (`SA`, `CSA`, `KL`, `CKL`).
    pub algorithm: String,
    /// Mean cut in the baseline report.
    pub baseline: f64,
    /// Mean cut in the current report.
    pub current: f64,
}

impl fmt::Display for CutDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {}: baseline {} -> current {}",
            self.experiment, self.setting, self.algorithm, self.baseline, self.current
        )
    }
}

/// Outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Records whose current mean cut is *worse* (higher) than the
    /// baseline by more than the tolerance.
    pub regressions: Vec<CutDelta>,
    /// Records whose current mean cut is *better* (lower) than the
    /// baseline by more than the tolerance — not a failure, but worth a
    /// baseline refresh.
    pub improvements: Vec<CutDelta>,
    /// `(experiment, setting, algorithm)` keys present in the baseline
    /// but absent from the current report.
    pub missing: Vec<String>,
    /// Number of baseline records matched (within tolerance or not).
    pub compared: usize,
}

impl Comparison {
    /// Whether the current report is acceptable: every baseline record
    /// is present and none got worse. Improvements do not fail.
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

fn key(r: &BenchRecord) -> (&str, &str, &str) {
    (&r.experiment, &r.setting, &r.algorithm)
}

/// One wall-time growth observation between two reports.
///
/// Produced by [`time_warnings`]; advisory only — timing depends on the
/// machine and its load, so these never gate CI the way cut deltas do.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWarning {
    /// Experiment id of the record.
    pub experiment: String,
    /// Setting label of the record.
    pub setting: String,
    /// Algorithm column (`SA`, `CSA`, `KL`, `CKL`).
    pub algorithm: String,
    /// Wall time of the baseline record, in seconds.
    pub baseline_s: f64,
    /// Wall time of the current record, in seconds.
    pub current_s: f64,
}

impl fmt::Display for TimeWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = (self.current_s / self.baseline_s - 1.0) * 100.0;
        write!(
            f,
            "{}/{} {}: {:.3}s -> {:.3}s (+{:.0}%)",
            self.experiment, self.setting, self.algorithm, self.baseline_s, self.current_s, pct
        )
    }
}

/// Flags records whose `total_time_s` grew by more than `frac`
/// (e.g. `0.25` for 25%) relative to `baseline`.
///
/// Unlike [`compare`] this is purely advisory: wall time varies with
/// the machine, so the caller should print the warnings and move on
/// rather than fail. Records missing from either side, and baseline
/// records with non-positive time (legacy reports predating timing
/// columns parse as 0), are skipped silently.
pub fn time_warnings(current: &BenchReport, baseline: &BenchReport, frac: f64) -> Vec<TimeWarning> {
    let mut out = Vec::new();
    for b in &baseline.records {
        if b.total_time_s <= 0.0 {
            continue;
        }
        let Some(c) = current.records.iter().find(|c| key(c) == key(b)) else {
            continue;
        };
        if c.total_time_s > b.total_time_s * (1.0 + frac) {
            out.push(TimeWarning {
                experiment: b.experiment.clone(),
                setting: b.setting.clone(),
                algorithm: b.algorithm.clone(),
                baseline_s: b.total_time_s,
                current_s: c.total_time_s,
            });
        }
    }
    out
}

/// Advisory peak-RSS growth line for the trajectory's latest entry
/// against the previous one, or `None` when there is nothing to warn
/// about. Either entry recording `peak_rss_bytes: 0` means the run had
/// no measurement (no readable `/proc/self/status`), not a zero-byte
/// footprint, so the comparison is skipped rather than warning
/// spuriously about growth from nothing.
pub fn rss_warning(prev: &BenchReport, latest: &BenchReport, frac: f64) -> Option<String> {
    if prev.peak_rss_bytes == 0 || latest.peak_rss_bytes == 0 {
        return None;
    }
    let prev_b = prev.peak_rss_bytes as f64;
    let latest_b = latest.peak_rss_bytes as f64;
    if latest_b <= prev_b * (1.0 + frac) {
        return None;
    }
    const MIB: f64 = 1024.0 * 1024.0;
    Some(format!(
        "peak RSS grew {:.1} MiB -> {:.1} MiB (+{:.0}%) vs previous trajectory entry",
        prev_b / MIB,
        latest_b / MIB,
        (latest_b / prev_b - 1.0) * 100.0
    ))
}

/// Structurally validates the `placement` experiment's records in a
/// report: every setting must carry both the native (`NetFM-ML`) and
/// clique-expansion (`CliqueKL-ML`) rows, both with a positive HPWL,
/// and the native net cut must not exceed the clique one — the
/// experiment's acceptance invariant (optimizing the hypergraph
/// objective directly must not lose to the surrogate on it).
///
/// Returns one human-readable problem per violation; empty means the
/// records are well-formed. Reports without placement records pass
/// trivially, so the check is safe on every profile and baseline age.
pub fn validate_placement(report: &BenchReport) -> Vec<String> {
    let mut problems = Vec::new();
    let placements: Vec<&BenchRecord> = report
        .records
        .iter()
        .filter(|r| r.experiment == "placement")
        .collect();
    let mut settings: Vec<&str> = placements.iter().map(|r| r.setting.as_str()).collect();
    settings.dedup();
    for setting in settings {
        let find = |algo: &str| {
            placements
                .iter()
                .find(|r| r.setting == setting && r.algorithm == algo)
        };
        let (native, clique) = match (find("NetFM-ML"), find("CliqueKL-ML")) {
            (Some(n), Some(c)) => (n, c),
            (n, c) => {
                if n.is_none() {
                    problems.push(format!("placement/{setting}: missing NetFM-ML record"));
                }
                if c.is_none() {
                    problems.push(format!("placement/{setting}: missing CliqueKL-ML record"));
                }
                continue;
            }
        };
        for r in [native, clique] {
            if r.hpwl <= 0.0 {
                problems.push(format!(
                    "placement/{setting} {}: non-positive HPWL {}",
                    r.algorithm, r.hpwl
                ));
            }
        }
        if native.mean_cut > clique.mean_cut {
            problems.push(format!(
                "placement/{setting}: native net cut {} exceeds clique-expansion cut {}",
                native.mean_cut, clique.mean_cut
            ));
        }
    }
    problems
}

/// Compares `current` against `baseline` on mean cuts.
///
/// Records are matched by `(experiment, setting, algorithm)`; extra
/// records in `current` (new experiments) are ignored. `tolerance` is
/// an absolute cut allowance in either direction — 0 demands exact
/// reproduction, which deterministic same-profile runs provide.
///
/// # Errors
///
/// Returns [`BenchError::MalformedReport`] if the reports were run with
/// different profiles, so apples are never compared to oranges.
pub fn compare(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> Result<Comparison, BenchError> {
    if current.profile != baseline.profile {
        return Err(BenchError::MalformedReport(format!(
            "profile mismatch: current is `{}`, baseline is `{}`",
            current.profile, baseline.profile
        )));
    }
    if current.seed != baseline.seed || current.starts != baseline.starts {
        return Err(BenchError::MalformedReport(format!(
            "run-parameter mismatch: current seed={} starts={}, baseline seed={} starts={}",
            current.seed, current.starts, baseline.seed, baseline.starts
        )));
    }
    let mut out = Comparison::default();
    for b in &baseline.records {
        let Some(c) = current.records.iter().find(|c| key(c) == key(b)) else {
            out.missing
                .push(format!("{}/{} {}", b.experiment, b.setting, b.algorithm));
            continue;
        };
        out.compared += 1;
        let delta = CutDelta {
            experiment: b.experiment.clone(),
            setting: b.setting.clone(),
            algorithm: b.algorithm.clone(),
            baseline: b.mean_cut,
            current: c.mean_cut,
        };
        if c.mean_cut > b.mean_cut + tolerance {
            out.regressions.push(delta);
        } else if c.mean_cut < b.mean_cut - tolerance {
            out.improvements.push(delta);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(setting: &str, algorithm: &str, mean_cut: f64) -> BenchRecord {
        BenchRecord {
            experiment: "gbreg".into(),
            setting: setting.into(),
            algorithm: algorithm.into(),
            mean_cut,
            total_time_s: 0.1,
            mean_passes: 3.0,
            proposals: 0.0,
            proposals_per_sec: 0.0,
            hpwl: 0.0,
            graphs: 3,
        }
    }

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            profile: "quick".into(),
            seed: 1989,
            starts: 2,
            replicates: 3,
            threads: 4,
            wall_time_s: 1.0,
            timestamp: 0,
            peak_rss_bytes: 0,
            records,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(vec![record("500", "CKL", 16.0), record("500", "CSA", 18.0)]);
        let c = compare(&r, &r, 0.0).unwrap();
        assert!(c.is_ok());
        assert_eq!(c.compared, 2);
        assert!(c.improvements.is_empty());
    }

    #[test]
    fn rss_warning_skips_unmeasured_entries() {
        let mut prev = report(vec![]);
        let mut latest = report(vec![]);
        // The container recorded no measurement for the previous run:
        // growth "from zero" must not warn.
        prev.peak_rss_bytes = 0;
        latest.peak_rss_bytes = 512 << 20;
        assert_eq!(rss_warning(&prev, &latest, 0.25), None);
        // Nor the other way around.
        prev.peak_rss_bytes = 512 << 20;
        latest.peak_rss_bytes = 0;
        assert_eq!(rss_warning(&prev, &latest, 0.25), None);
    }

    #[test]
    fn rss_warning_fires_only_beyond_the_fraction() {
        let mut prev = report(vec![]);
        let mut latest = report(vec![]);
        prev.peak_rss_bytes = 100 << 20;
        latest.peak_rss_bytes = 110 << 20;
        assert_eq!(rss_warning(&prev, &latest, 0.25), None);
        latest.peak_rss_bytes = 200 << 20;
        let w = rss_warning(&prev, &latest, 0.25).expect("2x growth warns");
        assert!(
            w.contains("100.0 MiB -> 200.0 MiB") && w.contains("+100%"),
            "{w}"
        );
    }

    #[test]
    fn worse_cut_is_a_regression_and_better_is_an_improvement() {
        let baseline = report(vec![record("500", "CKL", 16.0), record("500", "KL", 20.0)]);
        let current = report(vec![record("500", "CKL", 17.0), record("500", "KL", 19.0)]);
        let c = compare(&current, &baseline, 0.0).unwrap();
        assert!(!c.is_ok());
        assert_eq!(c.regressions.len(), 1);
        assert_eq!(c.regressions[0].algorithm, "CKL");
        assert_eq!(c.improvements.len(), 1);
        assert_eq!(c.improvements[0].algorithm, "KL");
        assert!(c.regressions[0].to_string().contains("16 -> current 17"));
    }

    #[test]
    fn timing_bearing_fields_do_not_affect_comparison() {
        // Same cuts, wildly different timing/throughput columns: the
        // checker must stay green — only `mean_cut` is compared.
        let baseline = report(vec![record("500", "SA", 16.0)]);
        let mut fast = record("500", "SA", 16.0);
        fast.total_time_s = 0.001;
        fast.proposals = 1.0e6;
        fast.proposals_per_sec = 1.0e9;
        let current = report(vec![fast]);
        let c = compare(&current, &baseline, 0.0).unwrap();
        assert!(c.is_ok());
        assert_eq!(c.compared, 1);
        assert!(c.improvements.is_empty());
    }

    #[test]
    fn tolerance_absorbs_small_drift() {
        let baseline = report(vec![record("500", "CKL", 16.0)]);
        let current = report(vec![record("500", "CKL", 16.5)]);
        assert!(!compare(&current, &baseline, 0.0).unwrap().is_ok());
        assert!(compare(&current, &baseline, 0.5).unwrap().is_ok());
    }

    #[test]
    fn missing_baseline_record_fails_but_extra_current_is_fine() {
        let baseline = report(vec![record("500", "CKL", 16.0)]);
        let current = report(vec![record("900", "CKL", 30.0)]);
        let c = compare(&current, &baseline, 0.0).unwrap();
        assert!(!c.is_ok());
        assert_eq!(c.missing, vec!["gbreg/500 CKL"]);

        let c = compare(
            &report(vec![record("500", "CKL", 16.0), record("900", "CKL", 30.0)]),
            &baseline,
            0.0,
        )
        .unwrap();
        assert!(c.is_ok());
        assert_eq!(c.compared, 1);
    }

    #[test]
    fn time_warnings_flag_only_growth_beyond_the_fraction() {
        let mut slow = record("500", "CKL", 16.0);
        slow.total_time_s = 0.2; // 2x the baseline 0.1
        let mut mild = record("500", "CSA", 18.0);
        mild.total_time_s = 0.11; // +10%, under the 25% bar
        let baseline = report(vec![record("500", "CKL", 16.0), record("500", "CSA", 18.0)]);
        let current = report(vec![slow, mild]);
        let w = time_warnings(&current, &baseline, 0.25);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].algorithm, "CKL");
        assert!(w[0].to_string().contains("+100%"), "got {}", w[0]);
    }

    #[test]
    fn time_warnings_skip_legacy_and_missing_records() {
        // Legacy baselines parse timing as 0; a zero baseline would make
        // any current time an infinite regression, so it is skipped.
        let mut legacy = record("500", "CKL", 16.0);
        legacy.total_time_s = 0.0;
        let baseline = report(vec![legacy, record("900", "CKL", 30.0)]);
        let current = report(vec![record("500", "CKL", 16.0)]);
        assert!(time_warnings(&current, &baseline, 0.25).is_empty());
    }

    fn placement_record(setting: &str, algorithm: &str, mean_cut: f64, hpwl: f64) -> BenchRecord {
        let mut r = record(setting, algorithm, mean_cut);
        r.experiment = "placement".into();
        r.hpwl = hpwl;
        r
    }

    #[test]
    fn placement_validation_passes_well_formed_records() {
        let r = report(vec![
            placement_record("i=0", "NetFM-ML", 40.0, 120.0),
            placement_record("i=0", "CliqueKL-ML", 45.0, 130.0),
            // Non-placement records are ignored entirely.
            record("500", "CKL", 16.0),
        ]);
        assert!(validate_placement(&r).is_empty());
        // Reports with no placement records at all also pass.
        assert!(validate_placement(&report(vec![record("500", "KL", 9.0)])).is_empty());
    }

    #[test]
    fn placement_validation_flags_inversion_missing_and_zero_hpwl() {
        let r = report(vec![
            // Native worse than clique: the acceptance inversion.
            placement_record("i=0", "NetFM-ML", 50.0, 120.0),
            placement_record("i=0", "CliqueKL-ML", 45.0, 0.0),
            // Clique row absent for this setting.
            placement_record("i=1", "NetFM-ML", 40.0, 120.0),
        ]);
        let problems = validate_placement(&r);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems[0].contains("non-positive HPWL"));
        assert!(problems[1].contains("exceeds clique-expansion cut"));
        assert!(problems[2].contains("missing CliqueKL-ML"));
    }

    #[test]
    fn profile_or_seed_mismatch_is_an_error() {
        let baseline = report(vec![]);
        let mut other = report(vec![]);
        other.profile = "smoke".into();
        let err = compare(&other, &baseline, 0.0).unwrap_err();
        assert!(err.to_string().contains("profile mismatch"));

        let mut other = report(vec![]);
        other.seed = 7;
        let err = compare(&other, &baseline, 0.0).unwrap_err();
        assert!(err.to_string().contains("run-parameter mismatch"));
    }
}
