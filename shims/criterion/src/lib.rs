//! Offline shim for `criterion`: runs each benchmark closure a fixed
//! number of sampled iterations and prints mean/min/max wall time. No
//! statistics engine, plots, or baselines — just enough to keep the
//! workspace's `[[bench]]` targets runnable offline.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { sample_size: 20 }
    }
}

impl Criterion {
    /// Set samples per benchmark (upstream default is 100; the shim keeps
    /// runs short).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Configure from CLI args — a no-op here, for upstream parity.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Run a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(name, self.sample_size, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size,
        }
    }

    /// Finalize (upstream prints summaries; the shim prints per-bench).
    pub fn final_summary(&mut self) {}
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set samples per benchmark within the group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Record the work-per-iteration for throughput reporting.
    pub fn throughput(&mut self, _throughput: Throughput) -> &mut Self {
        self
    }

    /// Run a benchmark within the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_bench(&format!("{}/{}", self.name, id), self.sample_size, &mut f);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        run_bench(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Identifier for a benchmark within a group.
pub struct BenchmarkId {
    text: String,
}

impl BenchmarkId {
    /// A function name plus parameter value.
    pub fn new(name: impl fmt::Display, param: impl fmt::Display) -> Self {
        Self {
            text: format!("{name}/{param}"),
        }
    }

    /// Just a parameter value.
    pub fn from_parameter(param: impl fmt::Display) -> Self {
        Self {
            text: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            text: s.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// Work-per-iteration declaration (reported but not rate-normalized).
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Time `f`, called `iters_per_sample` times per recorded sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(f());
        }
        let elapsed = start.elapsed() / self.iters_per_sample as u32;
        self.samples.push(elapsed);
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, f: &mut F) {
    // One warmup call, then timed samples.
    let mut warm = Bencher {
        samples: Vec::new(),
        iters_per_sample: 1,
    };
    f(&mut warm);
    let mut b = Bencher {
        samples: Vec::with_capacity(samples),
        iters_per_sample: 1,
    };
    for _ in 0..samples {
        f(&mut b);
    }
    if b.samples.is_empty() {
        println!("{name:<60} (no samples)");
        return;
    }
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    let min = *b.samples.iter().min().unwrap();
    let max = *b.samples.iter().max().unwrap();
    println!("{name:<60} mean {mean:>12?}  min {min:>12?}  max {max:>12?}");
}

/// Declare a benchmark group function, mirroring criterion's two forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declare the bench `main` running each group.
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

    fn sum_to(n: u64) -> u64 {
        (0..n).sum()
    }

    fn bench_example(c: &mut Criterion) {
        c.bench_function("sum_small", |b| b.iter(|| sum_to(black_box(100))));
        let mut g = c.benchmark_group("sums");
        g.sample_size(5);
        g.throughput(Throughput::Elements(1000));
        g.bench_with_input(BenchmarkId::new("sum", 1000), &1000u64, |b, &n| {
            b.iter(|| sum_to(n))
        });
        g.bench_function(BenchmarkId::from_parameter(10), |b| b.iter(|| sum_to(10)));
        g.finish();
    }

    criterion_group!(benches, bench_example);
    criterion_group! {
        name = configured;
        config = Criterion::default().sample_size(3);
        targets = bench_example
    }

    #[test]
    fn harness_runs() {
        benches();
        configured();
    }
}
