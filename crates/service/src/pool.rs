//! A fixed-size thread pool (std-only; the build environment is offline, so
//! no tokio/rayon). Workers pull jobs from a shared channel; dropping the
//! pool closes the channel and joins every worker, so shutdown waits for
//! in-flight jobs to finish.
//!
//! The daemon's request workers ([`crate::Server`]) are its only user.

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A bounded crew of worker threads executing queued jobs.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawn `size` workers (at least one).
    pub fn new(size: usize) -> ThreadPool {
        let size = size.max(1);
        let (sender, receiver) = std::sync::mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("datalog-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queue a job; it runs as soon as a worker is free. Jobs submitted
    /// after the pool started dropping are silently discarded.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        if let Some(sender) = &self.sender {
            // The receiver lives in the workers; send only fails if every
            // worker has already exited, in which case dropping the job is
            // the only sensible behaviour.
            let _ = sender.send(Box::new(job));
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only while *fetching* a job, never while running it.
        let job = match receiver.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match job {
            Ok(job) => job(),
            Err(_) => return, // channel closed: pool is shutting down
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel makes every idle worker's recv() fail; busy
        // workers finish their current job first.
        self.sender.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_then_joins() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            assert_eq!(pool.size(), 4);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins the pool, so all jobs are done after the block.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    #[test]
    fn panicking_job_kills_one_worker_not_the_pool() {
        let pool = ThreadPool::new(2);
        pool.execute(|| panic!("job failure"));
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move || tx.send(1).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(1));
    }
}
