//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the API subset the workspace's benches use —
//! [`Criterion::benchmark_group`], `sample_size`, `bench_function`,
//! `bench_with_input`, [`BenchmarkId`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — with a simple
//! report: each benchmark runs `sample_size` timed iterations after one
//! warm-up and prints min/mean/max wall-clock time per iteration.
//! There is no statistical analysis, HTML report, or saved baseline.
//!
//! `cargo bench --bench <file> -- <filter>` runs only the benchmarks
//! whose `group/id` contains `<filter>` (a plain substring, not a
//! regex); flags such as cargo's `--bench` are ignored.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Opaque hint preventing the optimizer from deleting a computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter, rendered as
    /// `name/parameter`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }

    /// An id that is just the parameter.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Runs `routine` once for warm-up and then `sample_size` timed
    /// iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        self.samples.clear();
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if !self.criterion.selects(&self.name, &id) {
            return self;
        }
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        self.criterion.report(&self.name, &id, &bencher.samples);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        if !self.criterion.selects(&self.name, &id) {
            return self;
        }
        let mut bencher = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher, input);
        self.criterion.report(&self.name, &id, &bencher.samples);
        self
    }

    /// Ends the group (kept for API compatibility; reporting is
    /// incremental).
    pub fn finish(self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    /// Runs only benchmarks whose `group/id` contains this, when set.
    filter: Option<String>,
}

impl Criterion {
    /// Takes the filter from the command line: its first argument that
    /// is not a flag.
    pub fn configure_from_args(self) -> Criterion {
        Criterion {
            filter: filter_from_args(std::env::args().skip(1)),
        }
    }

    /// Whether the benchmark `group/id` passes the filter.
    fn selects(&self, group: &str, id: &BenchmarkId) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| format!("{group}/{id}").contains(f.as_str()))
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 100,
        }
    }

    fn report(&mut self, group: &str, id: &BenchmarkId, samples: &[Duration]) {
        if samples.is_empty() {
            println!("{group}/{id}: no samples");
            return;
        }
        let min = samples.iter().min().expect("nonempty");
        let max = samples.iter().max().expect("nonempty");
        let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
        println!(
            "{group}/{id}: [{} {} {}] ({} samples)",
            fmt_duration(*min),
            fmt_duration(mean),
            fmt_duration(*max),
            samples.len()
        );
    }
}

/// The first argument that does not start with `-`.
fn filter_from_args(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// Declares a group function running each benchmark function in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
    ($name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        $crate::criterion_group!($name, $($target),+);
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $group(&mut criterion); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        let mut runs = 0usize;
        group.bench_function("count", |b| {
            b.iter(|| {
                runs += 1;
                black_box(runs)
            })
        });
        group.finish();
        // warm-up + 5 samples
        assert_eq!(runs, 6);
    }

    #[test]
    fn bench_with_input_passes_input() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("sq", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        group.finish();
    }

    #[test]
    fn filter_selects_by_group_and_id_substring() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(filter_from_args(args(&["--bench"])), None);
        let filter = filter_from_args(args(&["--bench", "pfm-two-pin", "extra"]));
        assert_eq!(filter.as_deref(), Some("pfm-two-pin"));

        let mut c = Criterion { filter };
        assert!(c.selects("pfm-two-pin-100k", &"BFM".into()));
        assert!(c.selects("fm", &BenchmarkId::new("pfm-two-pin", 4)));
        assert!(!c.selects("fm-repass", &BenchmarkId::new("BFM", 1000)));
        assert!(Criterion::default().selects("fm-repass", &"BFM".into()));

        // A filtered-out benchmark never runs its routine.
        let mut runs = 0usize;
        let mut group = c.benchmark_group("fm-repass");
        group.sample_size(2);
        group.bench_function("BFM", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 0);
    }

    #[test]
    fn benchmark_id_rendering() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("KL").to_string(), "KL");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
