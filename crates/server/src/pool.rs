//! A bounded worker-thread pool over a hand-rolled blocking queue.
//!
//! The accept loop submits connections; `threads` workers drain them.
//! The queue is bounded: when every worker is busy and the backlog is
//! full, [`WorkerPool::try_submit`] refuses immediately so the caller can
//! shed load (the server answers 503) instead of queueing unboundedly.
//! Shutdown is graceful — the queue stops accepting, workers finish the
//! jobs already admitted, then exit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    work_ready: Condvar,
    capacity: usize,
    shutting_down: AtomicBool,
}

/// A fixed-size pool of named worker threads processing jobs of type `T`.
pub struct WorkerPool<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The backlog is at capacity; shed load.
    Busy,
    /// The pool is shutting down; no new work is admitted.
    ShuttingDown,
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns `threads` workers running `handler` on submitted jobs.
    ///
    /// `capacity` bounds the backlog of jobs admitted but not yet picked
    /// up by a worker.
    pub fn new(
        name: &str,
        threads: usize,
        capacity: usize,
        handler: impl Fn(T) + Send + Sync + 'static,
    ) -> WorkerPool<T> {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            capacity: capacity.max(1),
            shutting_down: AtomicBool::new(false),
        });
        let handler = Arc::new(handler);
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared, &*handler))
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Admits a job, or refuses without blocking.
    pub fn try_submit(&self, job: T) -> Result<(), (T, SubmitError)> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err((job, SubmitError::ShuttingDown));
        }
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if q.len() >= self.shared.capacity {
            return Err((job, SubmitError::Busy));
        }
        q.push_back(job);
        drop(q);
        self.shared.work_ready.notify_one();
        Ok(())
    }

    /// Jobs admitted but not yet picked up.
    pub fn backlog(&self) -> usize {
        self.shared.queue.lock().expect("pool queue poisoned").len()
    }

    /// A detached probe reporting the live backlog (for stats endpoints
    /// that outlive the borrow of the pool itself).
    pub fn backlog_probe(&self) -> Box<dyn Fn() -> usize + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Box::new(move || shared.queue.lock().expect("pool queue poisoned").len())
    }

    /// Stops admissions, lets workers drain the backlog, and joins them.
    pub fn shutdown(self) {
        // Set under the queue lock: an idle worker checks the flag under
        // that lock and then waits, so without it the flag and the wakeup
        // can both land between its check and its wait, and it sleeps
        // forever.
        {
            let _queue = self.shared.queue.lock().expect("pool queue poisoned");
            self.shared.shutting_down.store(true, Ordering::Release);
        }
        self.shared.work_ready.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop<T>(shared: &Shared<T>, handler: &(impl Fn(T) + ?Sized)) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    return; // drained and closed
                }
                q = shared.work_ready.wait(q).expect("pool queue poisoned");
            }
        };
        // A panicking job must not kill the worker: the pool is fixed-size
        // and nothing respawns threads, so an escaped panic would shrink
        // capacity forever. The job's own resources (sockets, dedup
        // leadership tokens) clean up in their Drop impls during unwind.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(job)));
        if outcome.is_err() {
            eprintln!("worker: job panicked (worker kept alive)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn shutdown_always_wakes_idle_workers() {
        // Shutting down right after start-up races the flag and the wakeup
        // against workers on their way into the wait. Unless the flag is
        // set under the queue lock, this loop hangs within about a
        // thousand rounds.
        const ROUNDS: usize = 10_000;
        let (tx, rx) = std::sync::mpsc::channel();
        let cycler = std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let pool = WorkerPool::new("t", 2, 4, |_: usize| {});
                if round % 2 == 0 {
                    pool.try_submit(round).unwrap();
                }
                pool.shutdown();
                tx.send(round).unwrap();
            }
        });
        for round in 0..ROUNDS {
            let done = rx.recv_timeout(std::time::Duration::from_secs(10));
            assert_eq!(done, Ok(round), "shutdown of round {round} never joined");
        }
        cycler.join().unwrap();
    }

    #[test]
    fn all_submitted_jobs_run_before_shutdown_returns() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new("t", 3, 64, move |n: usize| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                done.fetch_add(n, Ordering::SeqCst);
            })
        };
        let mut expected = 0;
        for i in 1..=40 {
            pool.try_submit(i).unwrap();
            expected += i;
        }
        pool.shutdown();
        assert_eq!(
            done.load(Ordering::SeqCst),
            expected,
            "drain must be complete"
        );
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = {
            let done = Arc::clone(&done);
            WorkerPool::new("t", 1, 64, move |n: usize| {
                if n == 0 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::SeqCst);
            })
        };
        // The single worker survives the panic and serves later jobs.
        pool.try_submit(0).unwrap();
        for _ in 0..5 {
            pool.try_submit(1).unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn full_backlog_refuses_with_busy() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let pool = {
            let gate = Arc::clone(&gate);
            WorkerPool::new("t", 1, 2, move |_: usize| {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            })
        };
        // One job occupies the (blocked) worker...
        pool.try_submit(0).unwrap();
        while pool.backlog() > 0 {
            std::thread::yield_now();
        }
        // ...two more fill the backlog; the worker can't drain them while
        // the gate is closed, so the next submission must bounce.
        pool.try_submit(1).unwrap();
        pool.try_submit(2).unwrap();
        assert_eq!(pool.try_submit(99), Err((99, SubmitError::Busy)));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        pool.shutdown();
    }
}
