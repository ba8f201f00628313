//! `bisect-benchmark` — one benchmark run, a sweep of runs, or a
//! comparison of two swept result sets. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use bisect_benchmark::compare;
use bisect_benchmark::workload::{self, RunConfig, Scale, Workload};
use bisect_benchmark::{ladder, result_line};

const USAGE: &str = "usage:
  bisect-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bisect-benchmark sweep <out dir>
  bisect-benchmark compare <dir A> <dir B>
workloads: netlist-local netlist-global graph-huge paper-5000 placement";

/// `BENCHMARK.json`: `sweep`'s run length and `compare`'s bounds.
const CONFIG: &str = include_str!("../../BENCHMARK.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("compare") => compare_sets(&args[1..]),
        _ => run_once(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The values of `--flag value` pairs; every flag must be in `known`.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    if !args.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    args.chunks(2)
        .map(|pair| {
            let flag = pair[0].as_str();
            if known.contains(&flag) {
                Ok((flag, pair[1].as_str()))
            } else {
                Err(format!("unknown argument '{flag}'"))
            }
        })
        .collect()
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, got '{value}'"))
}

fn run_once(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        match flag {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number::<u64>(flag, value)?),
            "--seconds" => seconds = Some(number::<f64>(flag, value)?),
            _ => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return Err("--workload, --seed, --seconds and --trace are all required".into());
    };
    let cfg = RunConfig {
        scale: Scale::Full,
        seed,
        seconds,
        traced,
    };
    println!(
        "workload {} seed {seed} threads {} traced {traced}",
        workload.name(),
        ladder::THREADS
    );
    let report = workload::run(workload, &cfg);
    for m in &report.metrics {
        println!("{:<24} {:>16} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &report.spans_json {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
        let path = dir.join(format!("{}-{seed}.json", workload.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("{}", result_line(&report));
    Ok(ExitCode::SUCCESS)
}

/// Seeds of a sweep: `1..=SWEEP_SEEDS`, as the acceptance rule uses ten.
const SWEEP_SEEDS: u64 = 10;

/// Runs every workload on seeds `1..=SWEEP_SEEDS` for `BENCHMARK.json`'s
/// `run_seconds`, one process at a time, and one traced run per
/// workload; writes each result line to `<out>/<workload>.<seed>.json`
/// (traced: `<workload>.traced.json`).
fn sweep(args: &[String]) -> Result<ExitCode, String> {
    let [out] = args else {
        return Err("sweep takes one output directory".into());
    };
    let out = PathBuf::from(out);
    let seconds = bisect_benchmark::json::parse(CONFIG)?
        .get("run_seconds")
        .and_then(bisect_benchmark::json::Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?
        .to_string();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in Workload::ALL {
        let runs = (1..=SWEEP_SEEDS).map(|s| (s, "0", format!("{}.{s}.json", w.name())));
        let traced = std::iter::once((1, "1", format!("{}.traced.json", w.name())));
        for (seed, trace, file) in runs.chain(traced) {
            eprintln!("sweep: {} seed {seed} trace {trace}", w.name());
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds, "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let parsed = compare::RunResult::parse(line);
            if !output.status.success() || parsed.is_err() {
                return Err(format!("{} seed {seed} failed: {stdout}", w.name()));
            }
            all_correct &= parsed.is_ok_and(|r| r.correct);
            let path = out.join(file);
            std::fs::write(&path, format!("{line}\n"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".into());
    };
    let (workloads, bounds) = compare::bounds(CONFIG)?;
    let rows = compare::compare(
        &workloads,
        &bounds,
        &compare::load(Path::new(a))?,
        &compare::load(Path::new(b))?,
    );
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
