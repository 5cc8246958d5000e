//! The work pool: deterministic fan-out of independent jobs over scoped
//! threads.
//!
//! Simulation runs are embarrassingly parallel — each job owns an
//! independently seeded scenario clone — so the pool needs no work
//! stealing or channels: workers pull job indices from one atomic
//! counter and write each result into its own pre-allocated slot.
//! Collecting by stable job index means the caller sees results in the
//! exact order a serial loop would produce, so downstream averaging
//! (order-sensitive f64 summation) and serialization are **bit-identical
//! to the serial path** regardless of worker count or scheduling.
//!
//! Each job runs under `catch_unwind`, so one panicking job is reported
//! in its slot instead of poisoning the pool; a
//! [`Sweep`](crate::sweep::Sweep) records it as that seed's outcome.
//!
//! No external dependencies: plain `std::thread::scope` (the offline-shim
//! build rules out rayon).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of parallel jobs the host supports (`available_parallelism`,
/// falling back to 1 when it cannot be determined).
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run jobs `0..n_jobs` of `f` on up to `workers` threads, returning each
/// job's result (or its caught panic payload) in job-index order.
///
/// With `workers <= 1` the jobs run inline on the caller's thread in
/// index order — the exact serial loop, no threads spawned. Either way
/// the returned vector is ordered by job index, so callers observe
/// identical results at any worker count.
pub fn run_indexed<T, F>(n_jobs: usize, workers: usize, f: F) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n_jobs.max(1));
    if workers <= 1 {
        return (0..n_jobs)
            .map(|i| catch_unwind(AssertUnwindSafe(|| f(i))))
            .collect();
    }

    let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_jobs {
                    break;
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(i)));
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_job_order_at_any_worker_count() {
        for workers in [1, 2, 4, 8] {
            let out = run_indexed(20, workers, |i| i * i);
            let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_are_contained_to_their_slot() {
        let out = run_indexed(5, 4, |i| {
            if i == 2 {
                panic!("job {i} exploded");
            }
            i
        });
        assert_eq!(out.len(), 5);
        for (i, r) in out.iter().enumerate() {
            if i == 2 {
                assert!(r.is_err());
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_indexed(2, 16, |i| i + 1);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, vec![1, 2]);
    }
}
