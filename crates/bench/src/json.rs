//! Minimal hand-rolled JSON emission *and parsing* for
//! `BENCH_results.json` — the machine-readable companion of the text
//! tables (the container has no serde; the subset needed here is a flat
//! record schema). [`BenchReport::to_json`] writes the report;
//! [`BenchReport::from_json`] reads one back (for the regression
//! checker, `repro_check`), via the small general-purpose [`parse`]
//! function.

use crate::error::BenchError;
use crate::runner::QuadAverage;

/// One `(experiment, setting, algorithm)` measurement: the unit of
/// `BENCH_results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment id (e.g. `"gbreg"`).
    pub experiment: String,
    /// Row label within the experiment (e.g. `"n=1000 d=3 b=16"`).
    pub setting: String,
    /// Algorithm name (`"SA"`, `"CSA"`, `"KL"`, `"CKL"`).
    pub algorithm: String,
    /// Mean best cut over the averaged graphs.
    pub mean_cut: f64,
    /// Mean total wall time (summed across starts) in seconds.
    pub total_time_s: f64,
    /// Mean total work count across starts: productive passes for
    /// KL/FM, temperature steps for SA, both stages summed for C*.
    pub mean_passes: f64,
    /// Mean total move evaluations across starts: swap proposals for
    /// the SA family, candidate-pair gain evaluations for the KL
    /// family.
    pub proposals: f64,
    /// Half-perimeter wirelength of the `placement` experiment's k-way
    /// result (region-center bounding boxes, weighted by net weight); 0
    /// for experiments without a placement objective and in records
    /// written before the field existed.
    pub hpwl: f64,
    /// Number of graphs averaged into this record.
    pub graphs: usize,
}

impl BenchRecord {
    /// Proposal throughput: `proposals / total_time_s`, 0 when the time
    /// is 0. Timing-bearing — ignored by the regression checker. The
    /// report writes it as the `proposals_per_sec` key; parsing ignores
    /// that key and derives it again.
    pub fn proposals_per_sec(&self) -> f64 {
        if self.total_time_s > 0.0 {
            self.proposals / self.total_time_s
        } else {
            0.0
        }
    }
}

/// Expands one averaged table row into its four per-algorithm records.
pub(crate) fn quad_records(experiment: &str, setting: &str, avg: &QuadAverage) -> Vec<BenchRecord> {
    const ALGOS: [&str; 4] = ["SA", "CSA", "KL", "CKL"];
    ALGOS
        .iter()
        .enumerate()
        .map(|(i, algo)| BenchRecord {
            experiment: experiment.to_string(),
            setting: setting.to_string(),
            algorithm: algo.to_string(),
            mean_cut: avg.cuts[i],
            total_time_s: avg.times[i].as_secs_f64(),
            mean_passes: avg.passes[i],
            proposals: avg.proposals[i],
            hpwl: 0.0,
            graphs: avg.count,
        })
        .collect()
}

/// The full `BENCH_results.json` document: run configuration plus every
/// record of the experiments that ran.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Profile scale name (`"smoke"`, `"quick"`, `"paper"`).
    pub profile: String,
    /// Base seed of the run.
    pub seed: u64,
    /// Starts per algorithm per graph.
    pub starts: usize,
    /// Replicates per random-model setting.
    pub replicates: usize,
    /// Worker threads used for the run.
    pub threads: usize,
    /// Total wall time of the whole run in seconds.
    pub wall_time_s: f64,
    /// Unix timestamp (seconds) of when the run finished; 0 in reports
    /// written before the trajectory format existed.
    pub timestamp: u64,
    /// Process peak RSS in bytes at the end of the run (`VmHWM`); 0
    /// when unavailable or in pre-trajectory reports.
    pub peak_rss_bytes: u64,
    /// The measurements.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"profile\": {},\n", escape(&self.profile)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"starts\": {},\n", self.starts));
        out.push_str(&format!("  \"replicates\": {},\n", self.replicates));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"wall_time_s\": {},\n",
            number(self.wall_time_s)
        ));
        out.push_str(&format!("  \"timestamp\": {},\n", self.timestamp));
        out.push_str(&format!("  \"peak_rss_bytes\": {},\n", self.peak_rss_bytes));
        out.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"experiment\": {}, ", escape(&r.experiment)));
            out.push_str(&format!("\"setting\": {}, ", escape(&r.setting)));
            out.push_str(&format!("\"algorithm\": {}, ", escape(&r.algorithm)));
            out.push_str(&format!("\"mean_cut\": {}, ", number(r.mean_cut)));
            out.push_str(&format!("\"total_time_s\": {}, ", number(r.total_time_s)));
            out.push_str(&format!("\"mean_passes\": {}, ", number(r.mean_passes)));
            out.push_str(&format!("\"proposals\": {}, ", number(r.proposals)));
            out.push_str(&format!(
                "\"proposals_per_sec\": {}, ",
                number(r.proposals_per_sec())
            ));
            out.push_str(&format!("\"hpwl\": {}, ", number(r.hpwl)));
            out.push_str(&format!("\"graphs\": {}", r.graphs));
            out.push('}');
        }
        if !self.records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// A parsed JSON value (the subset `BENCH_results.json` uses; no
/// number-precision games — every number is an `f64`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (escapes decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object; `None` for missing keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`BenchError::MalformedReport`] with the byte offset of the
/// first syntax error.
pub fn parse(input: &str) -> Result<JsonValue, BenchError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.error("trailing data after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn byte(&self, at: usize) -> Option<u8> {
        self.input.as_bytes().get(at).copied()
    }

    fn error(&self, message: &str) -> BenchError {
        BenchError::MalformedReport(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), BenchError> {
        if self.byte(self.pos) == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, BenchError> {
        if self.input[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, BenchError> {
        match self.byte(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, BenchError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.byte(self.pos) == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.byte(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, BenchError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.byte(self.pos) == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.byte(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, BenchError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.byte(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.byte(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates never appear in our label
                            // alphabet; map them to the replacement
                            // character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self.input[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, BenchError> {
        let start = self.pos;
        if self.byte(self.pos) == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.byte(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse()
            .map(JsonValue::Number)
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }
}

impl BenchReport {
    /// Parses a report previously written by [`BenchReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::MalformedReport`] for syntax errors or
    /// missing/mistyped fields.
    pub fn from_json(input: &str) -> Result<BenchReport, BenchError> {
        Self::from_value(&parse(input)?)
    }

    /// Builds a report from an already-parsed JSON object (one element
    /// of a trajectory, or a whole legacy single-report document).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::MalformedReport`] for missing or mistyped
    /// fields.
    pub fn from_value(doc: &JsonValue) -> Result<BenchReport, BenchError> {
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| BenchError::MalformedReport(format!("missing field `{key}`")))
        };
        let num = |key: &str| {
            field(key)?.as_number().ok_or_else(|| {
                BenchError::MalformedReport(format!("field `{key}` is not a number"))
            })
        };
        let mut records = Vec::new();
        for (i, r) in field("records")?
            .as_array()
            .ok_or_else(|| BenchError::MalformedReport("`records` is not an array".into()))?
            .iter()
            .enumerate()
        {
            let rfield = |key: &str| {
                r.get(key).ok_or_else(|| {
                    BenchError::MalformedReport(format!("record {i} missing field `{key}`"))
                })
            };
            let rstr = |key: &str| {
                rfield(key)?.as_str().map(str::to_string).ok_or_else(|| {
                    BenchError::MalformedReport(format!("record {i} field `{key}` is not a string"))
                })
            };
            let rnum = |key: &str| {
                rfield(key)?.as_number().ok_or_else(|| {
                    BenchError::MalformedReport(format!("record {i} field `{key}` is not a number"))
                })
            };
            // Fields added after the schema first shipped parse
            // leniently (default 0), so reports written by older
            // binaries — like a committed baseline — still load.
            let ropt = |key: &str| match r.get(key) {
                Some(v) => v.as_number().ok_or_else(|| {
                    BenchError::MalformedReport(format!("record {i} field `{key}` is not a number"))
                }),
                None => Ok(0.0),
            };
            records.push(BenchRecord {
                experiment: rstr("experiment")?,
                setting: rstr("setting")?,
                algorithm: rstr("algorithm")?,
                mean_cut: rnum("mean_cut")?,
                total_time_s: rnum("total_time_s")?,
                mean_passes: rnum("mean_passes")?,
                proposals: ropt("proposals")?,
                hpwl: ropt("hpwl")?,
                graphs: rnum("graphs")? as usize,
            });
        }
        // Trajectory-era fields parse leniently so pre-trajectory
        // reports (the committed baselines) still load.
        let opt_num = |key: &str| match doc.get(key) {
            Some(v) => v
                .as_number()
                .ok_or_else(|| BenchError::MalformedReport(format!("`{key}` is not a number"))),
            None => Ok(0.0),
        };
        Ok(BenchReport {
            profile: field("profile")?
                .as_str()
                .ok_or_else(|| BenchError::MalformedReport("`profile` is not a string".into()))?
                .to_string(),
            seed: num("seed")? as u64,
            starts: num("starts")? as usize,
            replicates: num("replicates")? as usize,
            threads: num("threads")? as usize,
            wall_time_s: num("wall_time_s")?,
            timestamp: opt_num("timestamp")? as u64,
            peak_rss_bytes: opt_num("peak_rss_bytes")? as u64,
            records,
        })
    }
}

/// Parses a `BENCH_results.json` *trajectory*: a JSON array of run
/// reports, ordered oldest to newest. A legacy single-object document
/// (the pre-trajectory format, still used by the committed baselines)
/// parses as a one-run trajectory.
///
/// # Errors
///
/// Returns [`BenchError::MalformedReport`] for syntax errors, mistyped
/// runs, or a document that is neither an object nor an array.
pub fn parse_trajectory(input: &str) -> Result<Vec<BenchReport>, BenchError> {
    let doc = parse(input)?;
    match doc {
        JsonValue::Array(runs) => runs.iter().map(BenchReport::from_value).collect(),
        doc @ JsonValue::Object(_) => Ok(vec![BenchReport::from_value(&doc)?]),
        _ => Err(BenchError::MalformedReport(
            "expected a report object or an array of report objects".into(),
        )),
    }
}

/// Serializes a trajectory as a JSON array of run reports, oldest
/// first — the inverse of [`parse_trajectory`].
pub fn trajectory_to_json(runs: &[BenchReport]) -> String {
    let mut out = String::from("[\n");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(run.to_json().trim_end());
    }
    out.push_str("\n]\n");
    out
}

/// JSON string escaping for the small label alphabet used here (quotes,
/// backslashes, and control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats print with Rust's shortest round-trip formatting;
/// non-finite values (never expected, but times could in principle
/// overflow a division) become `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Bare integers are valid JSON numbers, keep them as-is.
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_avg() -> QuadAverage {
        QuadAverage {
            cuts: [10.0, 8.5, 12.0, 9.0],
            times: [Duration::from_millis(1500); 4],
            passes: [100.0, 110.0, 4.0, 6.0],
            proposals: [3000.0, 4500.0, 600.0, 0.0],
            count: 3,
        }
    }

    #[test]
    fn quad_records_expand_in_suite_order() {
        let records = quad_records("gbreg", "n=500 b=8 d=3", &sample_avg());
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].algorithm, "SA");
        assert_eq!(records[1].algorithm, "CSA");
        assert_eq!(records[2].algorithm, "KL");
        assert_eq!(records[3].algorithm, "CKL");
        assert_eq!(records[2].mean_cut, 12.0);
        assert_eq!(records[0].total_time_s, 1.5);
        assert_eq!(records[3].graphs, 3);
        // Throughput derives from proposals / time, for the KL family
        // (pair-gain evaluations) just like the SA family (swap
        // proposals); a zero count still reports zero throughput.
        assert_eq!(records[0].proposals, 3000.0);
        assert_eq!(records[0].proposals_per_sec(), 2000.0);
        assert_eq!(records[2].proposals, 600.0);
        assert_eq!(records[2].proposals_per_sec(), 400.0);
        assert_eq!(records[3].proposals, 0.0);
        assert_eq!(records[3].proposals_per_sec(), 0.0);
    }

    #[test]
    fn zero_time_gives_zero_throughput() {
        let avg = QuadAverage {
            times: [Duration::ZERO; 4],
            proposals: [500.0; 4],
            count: 1,
            ..QuadAverage::default()
        };
        let records = quad_records("gbreg", "n=0", &avg);
        assert_eq!(records[0].proposals, 500.0);
        assert_eq!(records[0].proposals_per_sec(), 0.0);
    }

    #[test]
    fn from_json_defaults_absent_throughput_fields() {
        // A report written before the `proposals` fields existed (the
        // committed baseline format) must still parse, with zeros.
        let doc = r#"{"profile": "quick", "seed": 1, "starts": 1, "replicates": 1,
                      "threads": 1, "wall_time_s": 0,
                      "records": [{"experiment": "g", "setting": "s",
                                   "algorithm": "SA", "mean_cut": 8,
                                   "total_time_s": 0.5, "mean_passes": 10, "graphs": 1}]}"#;
        let report = BenchReport::from_json(doc).expect("old schema parses");
        assert_eq!(report.records[0].proposals, 0.0);
        assert_eq!(report.records[0].proposals_per_sec(), 0.0);
    }

    #[test]
    fn report_serializes_valid_shape() {
        let report = BenchReport {
            profile: "quick".into(),
            seed: 1989,
            starts: 2,
            replicates: 3,
            threads: 4,
            wall_time_s: 12.25,
            timestamp: 0,
            peak_rss_bytes: 0,
            records: quad_records("gbreg", "n=500", &sample_avg()),
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("]\n}\n"));
        assert!(json.contains("\"profile\": \"quick\""));
        assert!(json.contains("\"seed\": 1989"));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"algorithm\": \"CKL\""));
        assert!(json.contains("\"mean_cut\": 9"));
        // Four records -> three separating commas inside the array.
        assert_eq!(json.matches("\"experiment\"").count(), 4);
    }

    #[test]
    fn empty_records_give_empty_array() {
        let report = BenchReport {
            profile: "smoke".into(),
            seed: 0,
            starts: 1,
            replicates: 1,
            threads: 1,
            wall_time_s: 0.0,
            timestamp: 0,
            peak_rss_bytes: 0,
            records: vec![],
        };
        assert!(report.to_json().contains("\"records\": []"));
    }

    #[test]
    fn escape_handles_special_characters() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("a\nb"), "\"a\\nb\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(3.0), "3");
    }

    #[test]
    fn parse_handles_the_full_value_grammar() {
        let doc = parse(r#" {"a": [1, -2.5e1, true, false, null], "b\n": "x\"\\A"} "#)
            .expect("valid document");
        assert_eq!(
            doc.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(5)
        );
        assert_eq!(
            doc.get("a").unwrap().as_array().unwrap()[1].as_number(),
            Some(-25.0)
        );
        assert_eq!(doc.get("b\n").and_then(JsonValue::as_str), Some("x\"\\A"));
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn parse_rejects_malformed_documents_with_offsets() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"open"] {
            let err = parse(bad).unwrap_err();
            assert!(
                matches!(err, BenchError::MalformedReport(_)),
                "{bad:?} -> {err}"
            );
            assert!(err.to_string().contains("at byte"), "{bad:?} -> {err}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            profile: "quick".into(),
            seed: 1989,
            starts: 2,
            replicates: 3,
            threads: 4,
            wall_time_s: 12.25,
            timestamp: 0,
            peak_rss_bytes: 0,
            records: quad_records("gbreg", "n=500 \"odd\" label", &sample_avg()),
        };
        let parsed = BenchReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn trajectory_round_trips_and_preserves_order() {
        let mut a = BenchReport {
            profile: "quick".into(),
            seed: 1989,
            starts: 2,
            replicates: 3,
            threads: 4,
            wall_time_s: 12.25,
            timestamp: 1_700_000_000,
            peak_rss_bytes: 123 << 20,
            records: quad_records("gbreg", "n=500", &sample_avg()),
        };
        let mut b = a.clone();
        b.timestamp = 1_700_000_100;
        b.wall_time_s = 11.0;
        let json = trajectory_to_json(&[a.clone(), b.clone()]);
        let parsed = parse_trajectory(&json).expect("trajectory round trip");
        assert_eq!(parsed, vec![a.clone(), b.clone()]);
        // Appending preserves the existing history.
        let mut runs = parsed;
        a.timestamp = 1_700_000_200;
        runs.push(a.clone());
        let parsed = parse_trajectory(&trajectory_to_json(&runs)).expect("appended");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].timestamp, 1_700_000_000);
        assert_eq!(parsed[2].timestamp, 1_700_000_200);
        assert_eq!(parsed[1], b);
    }

    #[test]
    fn legacy_single_report_parses_as_one_run_trajectory() {
        // The committed baselines predate both the trajectory array and
        // the timestamp/peak-RSS fields; they must load unchanged. So
        // must a trajectory entry that still carries the retired
        // `refine_time_s` record field.
        let doc = r#"{"profile": "quick", "seed": 1, "starts": 1, "replicates": 1,
                      "threads": 1, "wall_time_s": 0,
                      "records": [{"experiment": "g", "setting": "s",
                                   "algorithm": "SA", "mean_cut": 8,
                                   "total_time_s": 0.5, "mean_passes": 10, "graphs": 1}]}"#;
        let retired = r#"[{"profile": "huge", "seed": 1, "starts": 1, "replicates": 1,
                       "threads": 1, "wall_time_s": 0,
                       "records": [{"experiment": "huge", "setting": "s",
                                    "algorithm": "PFM", "mean_cut": 8,
                                    "total_time_s": 0.5, "mean_passes": 10,
                                    "refine_time_s": 0.25, "graphs": 1}]}]"#;
        for input in [doc, retired] {
            let runs = parse_trajectory(input).expect("legacy document parses");
            assert_eq!(runs.len(), 1);
            assert_eq!(runs[0].timestamp, 0);
            assert_eq!(runs[0].peak_rss_bytes, 0);
            assert_eq!(runs[0].records.len(), 1);
            assert_eq!(runs[0].records[0].mean_cut, 8.0);
        }
    }

    #[test]
    fn trajectory_rejects_non_report_documents() {
        assert!(parse_trajectory("42").is_err());
        assert!(parse_trajectory("[42]").is_err());
        assert!(parse_trajectory("not json").is_err());
        // An empty array is a valid (empty) trajectory.
        assert_eq!(parse_trajectory("[]").expect("empty array"), vec![]);
    }

    #[test]
    fn from_json_reports_missing_and_mistyped_fields() {
        let err = BenchReport::from_json("{\"profile\": \"quick\"}").unwrap_err();
        assert!(err.to_string().contains("missing field `records`"));

        let doc = r#"{"profile": "quick", "seed": 1, "starts": 1, "replicates": 1,
                      "threads": 1, "wall_time_s": 0,
                      "records": [{"experiment": "g", "setting": "s",
                                   "algorithm": "KL", "mean_cut": "oops",
                                   "total_time_s": 0, "mean_passes": 0, "graphs": 1}]}"#;
        let err = BenchReport::from_json(doc).unwrap_err();
        assert!(err
            .to_string()
            .contains("record 0 field `mean_cut` is not a number"));
    }

    #[test]
    fn committed_throughput_is_the_derived_one() {
        // Every record the repository keeps stores `proposals_per_sec`
        // as exactly `proposals / total_time_s`, so deriving it changes
        // no written value.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut paths = vec![root.join("BENCH_results.json")];
        for entry in std::fs::read_dir(root.join("results")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                paths.push(path);
            }
        }
        let mut checked = 0;
        for path in &paths {
            let text = std::fs::read_to_string(path).unwrap();
            let runs = match parse(&text).unwrap() {
                JsonValue::Array(runs) => runs,
                doc => vec![doc],
            };
            for run in &runs {
                let stored = run.get("records").and_then(JsonValue::as_array).unwrap();
                let parsed = BenchReport::from_value(run).unwrap().records;
                assert_eq!(stored.len(), parsed.len());
                for (raw, record) in stored.iter().zip(&parsed) {
                    let written = raw.get("proposals_per_sec").and_then(JsonValue::as_number);
                    assert_eq!(
                        written,
                        Some(record.proposals_per_sec()),
                        "{}: {record:?}",
                        path.display()
                    );
                    checked += 1;
                }
            }
        }
        assert!(paths.len() > 1 && checked > 0);
    }
}
