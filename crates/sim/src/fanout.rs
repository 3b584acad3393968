//! Index-ordered fan-out of independent jobs over scoped threads.
//!
//! One helper serves every parallel executor: the campaign's sweep
//! points, a branch wave's leased branches and the serial pass's stage
//! simulations. Jobs are claimed through one shared atomic cursor, so a
//! long job never strands the rest behind it, and the calling thread
//! works too. Which thread runs which job depends on timing; the result
//! does not, because every job's value lands at its own index.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread::Result as JobResult;

/// Runs `f(i)` for every `i < n` on up to `threads` threads (the calling
/// thread is one of them) and returns the results in index order. With
/// `threads <= 1` the jobs run in index order on the calling thread.
///
/// # Panics
///
/// A job's panic is caught; jobs not yet claimed are then skipped. Once
/// every worker has joined, the panic of the lowest-index job that
/// panicked is resumed with its original payload. Every job below it was
/// claimed before it, ran and returned, so the re-raised payload (an
/// `Abort`, a `&str`, a `String`) is the same for every `threads`.
pub fn fan_out<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut done: Vec<(usize, JobResult<T>)> = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
            if out.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            done.push((i, out));
        }
        done
    };
    let mut results: Vec<Option<JobResult<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(work)).collect();
        let mine = work();
        let theirs = helpers.into_iter().flat_map(|h| h.join().expect("jobs catch their panics"));
        for (i, out) in mine.into_iter().chain(theirs) {
            results[i] = Some(out);
        }
    });
    results
        .into_iter()
        .map(|r| match r.expect("only jobs past a panicked one are skipped") {
            Ok(v) => v,
            Err(payload) => panic::resume_unwind(payload),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// The payload `fan_out` re-raises for `f` over `n` jobs.
    fn payload_of(n: usize, threads: usize, f: impl Fn(usize) + Sync) -> Box<dyn Any + Send> {
        panic::catch_unwind(AssertUnwindSafe(|| fan_out(n, threads, f)))
            .expect_err("a job panicked")
    }

    #[derive(Debug, PartialEq)]
    struct Abort(&'static str);

    #[test]
    fn results_arrive_in_index_order() {
        for threads in [1, 2, 4] {
            let out = fan_out(100, threads, |i| {
                // Uneven job lengths reorder completions across threads.
                std::thread::sleep(std::time::Duration::from_micros((i % 7) as u64 * 50));
                i * i
            });
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_oversubscribed_fan_outs_work() {
        assert!(fan_out(0, 4, |i| i).is_empty());
        assert!(fan_out(0, 0, |i| i).is_empty());
        assert_eq!(fan_out(3, 16, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(fan_out(3, 0, |i| i + 1), vec![1, 2, 3], "zero threads runs on the caller");
    }

    #[test]
    fn the_lowest_index_panic_is_reraised_unchanged() {
        for threads in [1, 2, 4] {
            let p = payload_of(8, threads, |i| match i {
                2 => panic!("job {i} failed"),
                5 => panic::panic_any(Abort("later")),
                _ => {}
            });
            assert_eq!(p.downcast_ref::<String>().map(String::as_str), Some("job 2 failed"));

            let p = payload_of(8, threads, |i| {
                if i >= 3 {
                    panic::panic_any(Abort(if i == 3 { "first" } else { "later" }));
                }
            });
            assert_eq!(p.downcast_ref::<Abort>(), Some(&Abort("first")), "threads = {threads}");

            let p = payload_of(4, threads, |i| {
                if i > 0 {
                    panic!("static message");
                }
            });
            assert_eq!(p.downcast_ref::<&str>(), Some(&"static message"));
        }
    }

    #[test]
    fn a_lower_job_that_panics_later_still_wins() {
        // Job 1 waits until job 3 has panicked, then panics itself.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = std::sync::Mutex::new(rx);
        let p = payload_of(4, 2, |i| match i {
            1 => {
                rx.lock().expect("one receiver").recv().expect("job 3 signals");
                panic::panic_any(Abort("lower"));
            }
            3 => {
                tx.send(()).expect("job 1 waits");
                panic::panic_any(Abort("higher"));
            }
            _ => {}
        });
        assert_eq!(p.downcast_ref::<Abort>(), Some(&Abort("lower")));
    }
}
