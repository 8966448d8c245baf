//! The one lane executor behind every fan-out: the pipeline's shard stages,
//! the slab RPCs, batch answering, and the optimizer's restart grid.
//!
//! Lanes claim the next job from a shared atomic index, so a long job never
//! strands short ones behind it on a statically dealt lane, and the calling
//! thread works as one of the lanes. Scoped threads (rather than a
//! long-lived pool) keep it deadlock-free by construction — a serving
//! worker that fans out never waits on a pool saturated with blocked
//! workers — and let jobs borrow slabs and output slices.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs batches of independent jobs on up to `threads` scoped lanes.
#[derive(Debug, Clone, Copy)]
pub struct ScopedExecutor {
    threads: usize,
}

impl ScopedExecutor {
    /// Up to `threads` lanes, the calling thread included: 0 ⇒ the
    /// machine's available parallelism, 1 ⇒ every job inline, in order (the
    /// serial reference). Values above the core count are honored.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            threads
        };
        ScopedExecutor { threads }
    }

    /// The lane count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job exactly once and returns the results **in submission
    /// order**, whatever order they completed in. A panicking job — on a
    /// spawned lane or on the calling thread — propagates out of `run` with
    /// its original payload, after every other lane has finished.
    pub fn run<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let lanes = self.threads.min(jobs.len());
        if lanes <= 1 {
            return jobs.into_iter().map(|job| job()).collect();
        }
        let n = jobs.len();
        let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Relaxed: the index only hands out claims; jobs and results travel
        // through their mutexes and the scope's joins.
        let next = AtomicUsize::new(0);
        let lane = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let value = take(&jobs[i]).expect("each job is claimed once")();
            *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..lanes).map(|_| s.spawn(lane)).collect();
            let mut panic = catch_unwind(AssertUnwindSafe(lane)).err();
            for h in helpers {
                if let Err(payload) = h.join() {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                resume_unwind(payload);
            }
        });
        results
            .iter()
            .map(|r| take(r).expect("every job ran"))
            .collect()
    }
}

/// Empties a slot. No lock is held across a job, so none is ever poisoned.
fn take<V>(slot: &Mutex<Option<V>>) -> Option<V> {
    slot.lock().unwrap_or_else(|e| e.into_inner()).take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(ScopedExecutor::new(0).threads() >= 1);
        assert_eq!(ScopedExecutor::new(3).threads(), 3);
    }

    /// The executor contract at every lane count the suites use: results
    /// in submission order despite uneven job durations, every job run
    /// exactly once, and a panic — on a spawned lane or on the calling
    /// thread — surfacing only after the other lanes finish.
    #[test]
    fn executor_contract_holds_at_every_lane_count() {
        for threads in [1, 2, 4, 7] {
            let exec = ScopedExecutor::new(threads);

            // Ordered results, each job once: 3× more jobs than lanes, with
            // early jobs slower than late ones so completion order differs
            // from submission order.
            let runs: Vec<AtomicUsize> =
                (0..3 * threads + 2).map(|_| AtomicUsize::new(0)).collect();
            let jobs: Vec<_> = (0..runs.len())
                .map(|i| {
                    let runs = &runs;
                    move || {
                        std::thread::sleep(Duration::from_micros(((runs.len() - i) * 200) as u64));
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        i * i
                    }
                })
                .collect();
            let out = exec.run(jobs);
            assert_eq!(
                out,
                (0..runs.len()).map(|i| i * i).collect::<Vec<_>>(),
                "lanes={threads}: results out of submission order"
            );
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "lanes={threads}: a job ran other than exactly once"
            );

            // A panic propagates only after the other lanes finish: one job
            // panics on the calling thread (then, with spawned lanes, on a
            // spawned one), and every other job must still have run — the
            // surviving lanes drain the queue before `run` unwinds. The
            // first `threads` jobs meet at a barrier, so each lane holds
            // exactly one of them when the panic fires.
            let caller = std::thread::current().id();
            for on_caller in [true, false] {
                if !on_caller && threads == 1 {
                    continue; // no spawned lane to panic on
                }
                let barrier = Barrier::new(threads);
                let fired = AtomicBool::new(false);
                let done = AtomicUsize::new(0);
                let n = 4 * threads;
                let jobs: Vec<_> = (0..n)
                    .map(|i| {
                        let (barrier, fired, done) = (&barrier, &fired, &done);
                        move || {
                            if i < threads {
                                barrier.wait();
                                let here = std::thread::current().id() == caller;
                                if here == on_caller && !fired.swap(true, Ordering::SeqCst) {
                                    panic!("injected failure");
                                }
                            }
                            done.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                    .collect();
                let caught = catch_unwind(AssertUnwindSafe(|| exec.run(jobs)));
                let payload = caught.expect_err("the panic must propagate");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"injected failure"),
                    "lanes={threads}: the original payload is resumed"
                );
                // Serially, the panic ends the batch; with lanes, the others
                // finish every remaining job first.
                let expected = if threads == 1 { 0 } else { n - 1 };
                assert_eq!(
                    done.load(Ordering::SeqCst),
                    expected,
                    "lanes={threads} on_caller={on_caller}: run returned early"
                );
            }
        }
    }
}
