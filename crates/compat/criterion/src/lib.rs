//! Offline stand-in for the slice of the `criterion` API the workspace's
//! micro-benchmarks use: `Criterion::bench_function`, `Bencher::iter`, and
//! the `criterion_group!` / `criterion_main!` macros.
//!
//! The build environment has no access to crates.io. This shim measures
//! with `std::time::Instant` — one warm-up batch, then enough batches to
//! fill a short measurement window — and prints a `name: time/iter` line.
//! It is a smoke-and-regression harness, not a statistics engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Per-invocation timing context handed to the benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back invocations of `f`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs `f` repeatedly and prints the per-iteration time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        // Warm-up and calibration: one iteration tells us how many fit in
        // the measurement window.
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        f(&mut b);
        let per_iter = b.elapsed.max(Duration::from_nanos(1));
        let window = Duration::from_millis(200);
        let iters = (window.as_nanos() / per_iter.as_nanos()).clamp(1, 1000) as u64;

        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        let per = b.elapsed.as_secs_f64() / iters as f64;
        println!("{name:<32} {:>12.3} µs/iter ({iters} iters)", per * 1e6);
        self
    }
}

/// Collects benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        /// Runs every benchmark of this group.
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running the listed groups.
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

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    criterion_group!(group, sample_bench);

    #[test]
    fn group_runs() {
        group();
    }
}
