//! Persistent, work-stealing-free thread pool for batched/protected
//! transforms.
//!
//! The pooled executors ([`crate::PooledFtFft`]) fan independent units of
//! work — the `k` first-part sub-FFTs of the online scheme, or the items
//! of a batched transform — across long-lived worker threads. Design
//! goals, in order:
//!
//! 1. **Determinism.** Work is split by *static contiguous chunking*
//!    ([`chunk_range`]) — worker `w` always owns the same index range, so
//!    per-worker state (scratch workspaces, any seeds derived from the
//!    stable worker id) and the set of fault-injection sites each worker
//!    visits are identical run to run. There is no work stealing: stealing
//!    would trade determinism for load balance the near-uniform sub-FFT
//!    costs don't need.
//! 2. **No per-run thread spawns.** Workers are created once and parked on
//!    their own channel ([`crossbeam::channel`]); a run posts one closure
//!    per worker and waits. The caller thread participates as worker 0, so
//!    a pool of size 1 degenerates to a plain loop with zero overhead.
//!
//! Pool size resolution ([`resolve_threads`]), highest priority first:
//! explicit configuration (`FtConfig::threads`), then the
//! `FTFFT_THREADS` environment variable, then
//! [`std::thread::available_parallelism`].

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crossbeam::channel::{unbounded, Receiver, Sender};

/// The single chunking rule every pooled executor uses, so row/buffer
/// pre-splits always line up with [`ThreadPool::run_chunks`], and the
/// worker-count resolution (explicit config, then `FTFFT_THREADS`, then
/// available parallelism) the whole workspace shares.
pub use ftfft_fft::{chunk_range, resolve_threads, THREADS_ENV};

type Job = Box<dyn FnOnce() + Send>;

/// A persistent pool of `size − 1` parked worker threads (the caller is
/// worker 0).
pub struct ThreadPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
}

impl ThreadPool {
    /// Creates a pool that runs work on `size.max(1)` workers (spawning
    /// `size − 1` threads; the submitting thread is always worker 0).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let mut senders = Vec::with_capacity(size - 1);
        let mut handles = Vec::with_capacity(size - 1);
        for w in 1..size {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
            let handle = std::thread::Builder::new()
                .name(format!("ftfft-pool-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("failed to spawn pool worker");
            senders.push(tx);
            handles.push(handle);
        }
        ThreadPool { senders, handles, size }
    }

    /// Number of workers (including the caller).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Splits `0..items` into at most `size` contiguous chunks and runs
    /// `f(worker, range)` for every non-empty chunk — workers `1..` on
    /// their pool threads, worker 0 on the calling thread. Blocks until
    /// every chunk finished; a panic in any chunk is propagated to the
    /// caller (after all workers have quiesced, so borrowed data stays
    /// valid for the workers' full lifetime).
    pub fn run_chunks<F>(&self, items: usize, f: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        let t = self.size.min(items).max(1);
        if t == 1 {
            if items > 0 {
                f(0, 0..items);
            }
            return;
        }
        self.fan_out(t, |w| f(w, chunk_range(items, t, w)));
    }

    /// Runs `work(w)` for every worker `w < t` — workers `1..` on their
    /// pool threads, worker 0 on the calling thread — and blocks until
    /// all finished, re-raising the first worker panic. The single home
    /// of the lifetime-erasure + completion-await machinery every fan-out
    /// entry point shares.
    fn fan_out<F>(&self, t: usize, work: F)
    where
        F: Fn(usize) + Sync,
    {
        debug_assert!(t >= 2 && t <= self.size);
        let w_ref: &(dyn Fn(usize) + Sync) = &work;
        // SAFETY: the erased reference is only used by jobs whose
        // completion messages are awaited below (on success *and* on
        // panic, via `WaitGuard`), so `work` strictly outlives every use.
        let w_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(w_ref) };

        let (done_tx, done_rx) = unbounded::<std::thread::Result<()>>();
        let mut guard = WaitGuard { rx: &done_rx, pending: 0 };
        for w in 1..t {
            let tx = done_tx.clone();
            let job: Job = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| w_static(w)));
                // A send error means the caller already panicked and left;
                // nothing useful to do with the result then.
                let _ = tx.send(result);
            });
            self.senders[w - 1].send(job).expect("pool worker thread died");
            guard.pending += 1;
        }
        // The caller is worker 0. If this panics, `guard`'s Drop still
        // waits for the outstanding workers before unwinding further.
        work(0);
        guard.finish();
    }

    /// Round-robin counterpart of [`run_chunks`](ThreadPool::run_chunks):
    /// worker `w` of `t` runs `f(w, i)` for every item `i ≡ w (mod t)`, in
    /// increasing order. The static modular assignment keeps per-worker
    /// state and fault-site visit sets identical run to run, like the
    /// contiguous chunking — but interleaves items across workers, which
    /// is what a frame *stream* wants: each worker's frames are spread
    /// evenly over the timeline instead of one worker owning the whole
    /// tail. Blocks until every item finished; panics propagate as in
    /// `run_chunks`.
    pub fn run_round_robin<F>(&self, items: usize, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let t = self.size.min(items).max(1);
        if t == 1 {
            for i in 0..items {
                f(0, i);
            }
            return;
        }
        self.fan_out(t, |w| {
            for i in (w..items).step_by(t) {
                f(w, i);
            }
        });
    }

    /// The worker count [`run_round_robin`](ThreadPool::run_round_robin)
    /// (and `run_chunks`) will actually use for `items` items — callers
    /// pre-splitting per-worker state must size it with the same rule.
    pub fn workers_for(&self, items: usize) -> usize {
        self.size.min(items).max(1)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Waits for outstanding worker completions; on the happy path
/// (`finish`) re-raises the first worker panic, on the unwinding path
/// (`drop`) just quiesces.
struct WaitGuard<'a> {
    rx: &'a Receiver<std::thread::Result<()>>,
    pending: usize,
}

impl WaitGuard<'_> {
    fn finish(mut self) {
        let mut first_panic = None;
        while self.pending > 0 {
            self.pending -= 1;
            if let Err(payload) = self.rx.recv().expect("pool worker hung up") {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        while self.pending > 0 {
            self.pending -= 1;
            let _ = self.rx.recv();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn chunks_partition_exactly() {
        for items in [0usize, 1, 2, 7, 64, 65, 1000] {
            for t in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for w in 0..t {
                    let r = chunk_range(items, t, w);
                    assert_eq!(r.start, covered, "items={items} t={t} w={w}");
                    covered = r.end;
                }
                assert_eq!(covered, items);
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced_for_one_to_eight_workers() {
        // The remainder goes to the leading workers, one item each —
        // no chunk ever differs from another by more than one item.
        for items in [0usize, 1, 5, 8, 9, 17, 100, 1023] {
            for t in 1..=8usize {
                let (base, rem) = (items / t, items % t);
                let mut covered = 0;
                for w in 0..t {
                    let r = chunk_range(items, t, w);
                    assert_eq!(r.start, covered, "items={items} t={t} w={w}");
                    assert_eq!(r.len(), base + usize::from(w < rem), "items={items} t={t} w={w}");
                    covered = r.end;
                }
                assert_eq!(covered, items);
            }
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ThreadPool::new(4);
        let items = 1000;
        let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
        pool.run_chunks(items, |_w, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn worker_assignment_is_static() {
        let pool = ThreadPool::new(3);
        let first = Mutex::new(vec![usize::MAX; 10]);
        let second = Mutex::new(vec![usize::MAX; 10]);
        for target in [&first, &second] {
            pool.run_chunks(10, |w, range| {
                let mut t = target.lock().unwrap();
                for i in range {
                    t[i] = w;
                }
            });
        }
        assert_eq!(*first.lock().unwrap(), *second.lock().unwrap());
        assert!(first.lock().unwrap().iter().all(|&w| w != usize::MAX));
    }

    #[test]
    fn size_one_runs_inline() {
        let pool = ThreadPool::new(1);
        let mut seen = Vec::new();
        let cell = Mutex::new(&mut seen);
        pool.run_chunks(5, |w, range| {
            assert_eq!(w, 0);
            cell.lock().unwrap().extend(range);
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pool_survives_many_runs() {
        let pool = ThreadPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run_chunks(8, |_, range| {
                counter.fetch_add(range.len(), Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 800);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(2, |w, _| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.run_chunks(4, |_, r| {
            counter.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn round_robin_runs_every_item_once_with_modular_assignment() {
        let pool = ThreadPool::new(3);
        let items = 100;
        let owner: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let hits: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
        pool.run_round_robin(items, |w, i| {
            owner[i].store(w, Ordering::SeqCst);
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for i in 0..items {
            assert_eq!(hits[i].load(Ordering::SeqCst), 1, "item {i}");
            assert_eq!(owner[i].load(Ordering::SeqCst), i % 3, "item {i}");
        }
        assert_eq!(pool.workers_for(items), 3);
        assert_eq!(pool.workers_for(2), 2);
        assert_eq!(pool.workers_for(0), 1);
    }

    #[test]
    fn round_robin_size_one_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        let seen = Mutex::new(Vec::new());
        pool.run_round_robin(5, |w, i| {
            assert_eq!(w, 0);
            seen.lock().unwrap().push(i);
        });
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_config() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1);
        assert!(resolve_threads(None) >= 1);
    }
}
