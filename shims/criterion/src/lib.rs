//! Offline stand-in for the subset of `criterion` 0.5 this workspace
//! uses. It is a real harness — each `bench_function` runs one warm-up
//! iteration then `sample_size` timed iterations and reports min /
//! median / mean wall-clock time plus throughput — but it performs no
//! outlier analysis, keeps no history, and draws no plots.
//!
//! If `CRITERION_JSON` is set, every measurement is appended to that
//! file as one JSON object per line (the historical campaign baselines
//! recorded this way are the rows of `ledger/history/bench_1core.jsonl`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::disallowed_methods, reason = "a benchmark harness measures wall time")]

use std::io::Write as _;
use std::time::{Duration, Instant};

/// Re-export-compatible opaque value sink (prevents constant folding).
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Units processed per iteration, for throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration (trials, instructions, …).
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup; the shim times every routine
/// call individually, so the hint is accepted and ignored.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Times a single benchmark's iterations.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    target: usize,
}

impl Bencher {
    /// Runs `routine` once for warm-up, then `target` timed iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        for _ in 0..self.target {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
        }
    }

    /// Like [`Bencher::iter`] with untimed per-iteration setup.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        for _ in 0..self.target {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.samples.push(t0.elapsed());
        }
    }
}

/// The benchmark registry/driver.
#[derive(Debug, Default)]
pub struct Criterion {
    sample_size: Option<usize>,
}

impl Criterion {
    /// Accepted and ignored (harness CLI args are not parsed).
    pub fn configure_from_args(self) -> Criterion {
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            sample_size: self.sample_size.unwrap_or(10),
            throughput: None,
        }
    }

    /// Runs a stand-alone benchmark (an implicit single-entry group).
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Criterion {
        let mut g = self.benchmark_group("");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// A named group sharing sample-size and throughput settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _c: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark and prints its report line.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl AsRef<str>, mut f: F) {
        let mut b = Bencher { samples: Vec::new(), target: self.sample_size };
        f(&mut b);
        let mut s = b.samples;
        if s.is_empty() {
            return;
        }
        s.sort_unstable();
        let min = s[0];
        let median = s[s.len() / 2];
        let mean = s.iter().sum::<Duration>() / s.len() as u32;
        let full = if self.name.is_empty() {
            id.as_ref().to_string()
        } else {
            format!("{}/{}", self.name, id.as_ref())
        };
        let rate = self.throughput.map(|t| match t {
            Throughput::Elements(n) => {
                format!("  thrpt: {:>12}/s", human_rate(n as f64 / median.as_secs_f64()))
            }
            Throughput::Bytes(n) => {
                format!("  thrpt: {:>11}B/s", human_rate(n as f64 / median.as_secs_f64()))
            }
        });
        println!(
            "{full:<44} time: [min {} | med {} | mean {}]{}",
            human_time(min),
            human_time(median),
            human_time(mean),
            rate.unwrap_or_default(),
        );
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            let elements = match self.throughput {
                Some(Throughput::Elements(n) | Throughput::Bytes(n)) => n,
                None => 0,
            };
            let line = format!(
                "{{\"bench\":\"{full}\",\"samples\":{},\"min_s\":{:.6},\"median_s\":{:.6},\"mean_s\":{:.6},\"elements\":{elements}}}\n",
                s.len(),
                min.as_secs_f64(),
                median.as_secs_f64(),
                mean.as_secs_f64(),
            );
            if let Ok(mut f) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                let _ = f.write_all(line.as_bytes());
            }
        }
    }

    /// Ends the group (separator line only; nothing buffered).
    pub fn finish(self) {}
}

fn human_time(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

fn human_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2} G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2} M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2} K", r / 1e3)
    } else {
        format!("{r:.1} ")
    }
}

/// Declares a benchmark group function calling each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_runs_requested_samples() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut runs = 0u32;
        g.bench_function("count", |b| b.iter(|| runs += 1));
        g.finish();
        assert_eq!(runs, 4, "1 warm-up + 3 samples");
    }

    #[test]
    fn iter_batched_threads_setup_through() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(2);
        let mut total = 0u64;
        g.bench_function("batched", |b| {
            b.iter_batched(|| 21u64, |x| total += x, BatchSize::SmallInput);
        });
        g.finish();
        assert_eq!(total, 63, "warm-up + 2 samples, each adding 21");
    }
}
