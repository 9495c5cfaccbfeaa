//! Minimal Criterion-compatible timing harness.
//!
//! In-tree substrate for the `criterion` surface the benches use:
//! [`Criterion`], [`Criterion::benchmark_group`] with
//! `sample_size`/`bench_function`/`finish`, [`Bencher::iter`],
//! [`Bencher::iter_batched`] with [`BatchSize`], and the
//! [`crate::criterion_group!`]/[`crate::criterion_main!`] macros
//! (exported at the crate root). Benches keep their
//! structure and only change the import line.
//!
//! Each `bench_function` runs one warm-up call, then `sample_size` timed
//! samples, and prints min/median/mean to stderr. Set `SSD_BENCH_SAMPLES`
//! to override the per-group sample count (e.g. `SSD_BENCH_SAMPLES=3` for
//! a quick smoke run). `cargo bench -- <filter>` runs only the functions
//! whose `group/name` id contains the filter substring.
//!
//! Micro-benches are timing probes and keep no history; the committed
//! end-to-end trajectory is `scripts/bench_record.sh`'s `BENCH_*.json`.

use std::time::{Duration, Instant};

/// Top-level harness handle, one per bench binary.
pub struct Criterion {
    filter: Option<String>,
    default_sample_size: usize,
    /// `SSD_BENCH_SAMPLES`, which overrides every group's sample size.
    samples_override: Option<usize>,
}

impl Default for Criterion {
    fn default() -> Self {
        // cargo bench forwards CLI args after `--`; the only ones the
        // harness honours are a positional filter substring. Flags that
        // cargo itself injects (e.g. `--bench`) are ignored.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        let samples_override = std::env::var("SSD_BENCH_SAMPLES")
            .ok()
            .and_then(|s| s.parse().ok());
        Criterion {
            filter,
            default_sample_size: 10,
            samples_override,
        }
    }
}

impl Criterion {
    /// Start a named group of related measurements.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Measure a standalone function (no group).
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = name.into();
        let samples = self.default_sample_size;
        self.run_one(&id, samples, f);
        self
    }

    fn run_one(&self, id: &str, samples: usize, mut f: impl FnMut(&mut Bencher)) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let samples = self.samples_override.unwrap_or(samples).max(1);
        let mut b = Bencher {
            samples,
            durations: Vec::with_capacity(samples),
        };
        f(&mut b);
        eprintln!("{}", b.summary(id));
    }
}

/// A named group of measurements sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per bench in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Measure one function; the id is `group/name`.
    pub fn bench_function(
        &mut self,
        name: impl Into<String>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name.into());
        let samples = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run_one(&id, samples, f);
        self
    }

    /// End the group. (Criterion generates reports here; this harness
    /// reports per-function, so it is a no-op kept for API compatibility.)
    pub fn finish(self) {}
}

/// How per-iteration setup output is batched in [`Bencher::iter_batched`].
/// The harness times every routine call individually, so the variants
/// only document intent.
pub enum BatchSize {
    /// Small input: criterion would batch many per allocation.
    SmallInput,
    /// Large input: criterion would batch few per allocation.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Timer handle passed to each bench closure.
pub struct Bencher {
    samples: usize,
    durations: Vec<Duration>,
}

impl Bencher {
    /// Time `f`, called once per sample after one warm-up call.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = f();
            self.durations.push(start.elapsed());
            std::hint::black_box(out);
        }
    }

    /// Time `routine` on fresh `setup()` output each sample; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        std::hint::black_box(routine(setup()));
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            let out = routine(input);
            self.durations.push(start.elapsed());
            std::hint::black_box(out);
        }
    }

    /// The one-line timing summary of the recorded samples.
    fn summary(&mut self, id: &str) -> String {
        if self.durations.is_empty() {
            return format!("{id:<48} (no samples)");
        }
        self.durations.sort();
        let n = self.durations.len();
        let total: Duration = self.durations.iter().sum();
        format!(
            "{id:<48} min {:>12} | median {:>12} | mean {:>12} | {n} samples",
            fmt_duration(self.durations[0]),
            fmt_duration(self.durations[n / 2]),
            fmt_duration(total / n as u32),
        )
    }
}

/// Renders a duration with an adaptive unit, e.g. `12.00 ms`.
pub fn fmt_duration(d: Duration) -> String {
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

/// Define a function running a sequence of bench functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` for a bench binary, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_each_sample() {
        let mut b = Bencher { samples: 5, durations: Vec::new() };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(calls, 6, "one warm-up plus five samples");
        assert_eq!(b.durations.len(), 5);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut b = Bencher { samples: 4, durations: Vec::new() };
        let mut setups = 0u32;
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 8]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 5, "one warm-up plus four samples");
        assert_eq!(b.durations.len(), 4);
    }

    #[test]
    fn group_ids_compose_and_finish_consumes() {
        let mut c = Criterion {
            filter: Some("grp/a".into()),
            default_sample_size: 2,
            samples_override: None,
        };
        let mut g = c.benchmark_group("grp");
        let mut ran = Vec::new();
        g.sample_size(1)
            .bench_function("a", |b| {
                ran.push(("a", b.samples));
                b.iter(|| 1 + 1);
            })
            .bench_function("b", |b| {
                ran.push(("b", b.samples));
                b.iter(|| 1 + 1);
            });
        g.finish();
        assert_eq!(
            ran,
            [("a", 1)],
            "only grp/a matches, at the group's sample size"
        );
    }

    #[test]
    fn sample_override_beats_group_and_default_sizes() {
        let mut c = Criterion {
            filter: None,
            default_sample_size: 7,
            samples_override: Some(2),
        };
        let mut seen = Vec::new();
        c.bench_function("solo", |b| seen.push(b.samples));
        c.benchmark_group("grp")
            .sample_size(5)
            .bench_function("a", |b| seen.push(b.samples));
        c.samples_override = None;
        c.bench_function("solo", |b| seen.push(b.samples));
        assert_eq!(seen, [2, 2, 7]);
    }

    #[test]
    fn filter_skips_nonmatching_ids() {
        let c = Criterion {
            filter: Some("nomatch".into()),
            default_sample_size: 2,
            samples_override: None,
        };
        let mut ran = false;
        c.run_one("grp/other", 2, |b| {
            ran = true;
            b.iter(|| 0);
        });
        assert!(!ran);
        c.run_one("grp/nomatch", 1, |b| {
            ran = true;
            b.iter(|| 0);
        });
        assert!(ran, "a matching id runs");
    }

    #[test]
    fn summary_orders_min_median_mean() {
        let mut b = Bencher {
            samples: 3,
            durations: Vec::new(),
        };
        assert!(b.summary("grp/empty").ends_with("(no samples)"));
        b.durations = vec![
            Duration::from_millis(3),
            Duration::from_millis(1),
            Duration::from_millis(2),
        ];
        let line = b.summary("grp/timed");
        assert!(line.starts_with("grp/timed"), "{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(
            fields[1..],
            [
                "min", "1.00", "ms", "|", "median", "2.00", "ms", "|", "mean", "2.00", "ms", "|",
                "3", "samples"
            ],
            "{line}"
        );
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(12)), "12.000 s");
    }
}
