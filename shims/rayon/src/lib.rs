//! # rayon (offline shim) — real multicore edition
//!
//! A stand-in for [`rayon`](https://docs.rs/rayon) that carries only the
//! part of its API the `dsmatch` workspace calls, executing on a **genuine
//! `std::thread` worker pool**. The build environment has no access to
//! crates.io, so the workspace vendors this shim and selects it through
//! `[workspace.dependencies]`; swapping in the real crate — and with it
//! rayon's full API — remains a one-line change in the root `Cargo.toml`.
//!
//! ## Execution model
//!
//! - A pool of `N` workers owns `N` work-stealing deques in the Chase–Lev
//!   discipline: each worker pushes/pops its own deque at the back (LIFO),
//!   idle workers steal from a randomized victim's front (FIFO). External
//!   submissions are distributed round-robin; jobs spawned by a worker go
//!   to its own deque, where thieves can pick them up — skewed nested work
//!   load-balances instead of serializing on its spawner.
//! - Every parallel iterator splits its input into chunks whose boundaries
//!   depend only on the input length (and the `with_max_len` hint),
//!   **never on the pool size**. Chunks become jobs on the current pool's
//!   deques; workers drain them dynamically. Consequences:
//!   - per-element operations (`for_each`, `par_iter_mut` writes) are
//!     genuinely concurrent, so shared state must use atomics — exactly
//!     the contract real rayon imposes;
//!   - ordered reductions (`sum`, `reduce`, `collect`) combine per-chunk
//!     partial results in chunk order, so floating-point outcomes are
//!     **bitwise identical for every pool size** (1 included), which the
//!     workspace's determinism tests rely on;
//!   - inputs at or below one chunk run inline on the calling thread.
//! - The *current pool* is the innermost [`ThreadPool::install`] on this
//!   thread, else the global pool: sized by `RAYON_NUM_THREADS` or the
//!   available parallelism, built on the first parallel region that needs
//!   it, and never replaced. A pool of size 1 executes everything inline
//!   and is bit-for-bit the sequential schedule.
//!
//! ## Determinism contract (matches the paper's)
//!
//! The shim guarantees schedule-independent *chunking*; it does **not**
//! serialize racy algorithms. Code like `OneSidedMatch`'s benign
//! last-writer-wins races or `KarpSipserMT`'s CAS claims will observe real
//! interleavings: cardinalities and validity are schedule-independent by
//! algorithm design, byte-level mate arrays are not. See the workspace's
//! `tests/determinism.rs` for the precise per-algorithm contracts.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

mod eventcount;
mod hint_deque;
pub mod iter;
mod pool;

pub use pool::Scope;

/// Deadline for this crate's bounded scheduler waits in tests: the
/// `DSMATCH_TEST_TIMEOUT_SECS` environment variable when set to a
/// positive integer, else `default_secs`. One knob for every probe
/// deadline in the repo (the engine's observed-parallelism probe reads
/// the same variable; the reader is duplicated there because the
/// `real-rayon` CI leg compiles the workspace without this shim), so
/// loaded CI runners raise it in the workflow instead of tests flaking
/// on hard-coded laptop-scale numbers.
#[cfg(test)]
pub(crate) fn test_timeout(default_secs: u64) -> std::time::Duration {
    let secs = std::env::var("DSMATCH_TEST_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&s| s > 0)
        .unwrap_or(default_secs);
    std::time::Duration::from_secs(secs)
}

/// Glob-import target mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelSlice,
    };
}

/// The number of threads in the current scope's pool.
///
/// Inside [`ThreadPool::install`] this is the pool's configured size; on a
/// pool worker thread it is that pool's size; otherwise it is the global
/// pool size (the `RAYON_NUM_THREADS` environment variable, or the
/// machine's available parallelism). Asking does not build the global
/// pool.
pub fn current_num_threads() -> usize {
    let w = pool::worker_pool_size();
    if w != 0 {
        return w;
    }
    pool::ambient_pool_size()
}

/// Create a scoped-task region on the current pool: jobs spawned via
/// [`Scope::spawn`] may borrow local data, and `scope` blocks until all of
/// them finish (panics included — the first job panic is resumed here).
///
/// On a pool worker thread, spawned jobs run inline (deadlock-free
/// nesting); otherwise they execute on the current pool's workers.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    match pool::dispatch_pool() {
        Some(core) => core.scope(op),
        // Inline region: size-1 (or in-worker) scopes run spawns eagerly.
        None => pool::inline_scope(op),
    }
}

/// Error returned when a thread pool cannot be built (worker threads could
/// not be spawned).
#[derive(Debug)]
pub struct ThreadPoolBuildError(String);

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.0)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building a pool with the default thread count
    /// (`RAYON_NUM_THREADS` or the machine's available parallelism).
    pub fn new() -> Self {
        Self::default()
    }

    /// Request exactly `n` threads; `0` means "use the default".
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build an owned pool with its own `std::thread` workers. Dropping
    /// the pool shuts the workers down and joins them. Fails when worker
    /// threads cannot be spawned (thread exhaustion).
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = if self.num_threads == 0 { pool::default_threads() } else { self.num_threads };
        let (core, workers) =
            pool::PoolCore::start(size).map_err(|e| ThreadPoolBuildError(e.to_string()))?;
        Ok(ThreadPool { core, workers })
    }
}

/// A real thread pool: `N` parked `std::thread` workers, each owning a
/// work-stealing deque (owner LIFO, randomized-victim steals FIFO). Work
/// `install`ed into it runs with this pool as the dispatch target for
/// every parallel iterator and [`scope`] call it makes.
#[derive(Debug)]
pub struct ThreadPool {
    core: Arc<pool::PoolCore>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Execute `op` inside the pool: `op` itself runs on the calling
    /// thread (the caller would otherwise just block), but every parallel
    /// region it opens dispatches to this pool's workers.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        pool::with_installed(Arc::clone(&self.core), op)
    }

    /// Create a scoped-task region on this pool (see [`scope`]).
    pub fn scope<'scope, OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        self.core.scope(op)
    }

    /// The configured size of this pool.
    pub fn current_num_threads(&self) -> usize {
        self.core.size()
    }

    /// Successful steals since this pool started — scheduler telemetry for
    /// the shim's own test suite (not part of the rayon API surface).
    #[cfg(test)]
    pub(crate) fn steal_count(&self) -> u64 {
        self.core.steal_count()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.core.shutdown();
        for w in self.workers.drain(..) {
            // A worker only terminates by running off its loop; a panic
            // here would mean a bug in the pool itself, not user code.
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn install_scopes_thread_count() {
        let outer = current_num_threads();
        assert!(outer >= 1);
        let pool = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        let inner = pool.install(current_num_threads);
        assert_eq!(inner, 5);
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn install_restores_on_nesting() {
        let p3 = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let p7 = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        let (a, b, c) = p3.install(|| {
            let before = current_num_threads();
            let nested = p7.install(current_num_threads);
            (before, nested, current_num_threads())
        });
        assert_eq!((a, b, c), (3, 7, 3));
    }

    #[test]
    fn zero_threads_means_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn pool_scope_uses_distinct_worker_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let started = AtomicUsize::new(0);
        let ids = Mutex::new(HashSet::new());
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    // Rendezvous: hold each job on its thread until all
                    // four have started, so four distinct workers must
                    // exist. Bounded wait keeps the test robust.
                    let deadline = std::time::Instant::now() + crate::test_timeout(5);
                    while started.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        assert_eq!(ids.into_inner().unwrap().len(), 4, "expected 4 distinct worker threads");
    }

    #[test]
    fn concurrent_scopes_from_external_threads_share_one_pool() {
        // The serve daemon runs one scope per client connection, all on
        // the same pool, from plain std threads. Each scope must see its
        // own jobs complete and its own join barrier — pending counts and
        // panics from one scope must not leak into another.
        let pool = std::sync::Arc::new(ThreadPoolBuilder::new().num_threads(3).build().unwrap());
        let total = std::sync::Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = std::sync::Arc::clone(&pool);
                let total = std::sync::Arc::clone(&total);
                std::thread::spawn(move || {
                    let local = AtomicUsize::new(0);
                    pool.scope(|s| {
                        for k in 0..8 {
                            let local = &local;
                            let total = &total;
                            s.spawn(move |inner| {
                                local.fetch_add(t * 100 + k, Ordering::SeqCst);
                                total.fetch_add(1, Ordering::SeqCst);
                                // Nested spawn from inside a foreign
                                // scope's job still lands in this scope.
                                inner.spawn(move |_| {
                                    total.fetch_add(1, Ordering::SeqCst);
                                });
                            });
                        }
                    });
                    // The scope joined: all 8 increments of *this* scope
                    // (sum over k of t*100 + k) are visible right here.
                    local.load(Ordering::SeqCst)
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            let expected: usize = (0..8).map(|k| t * 100 + k).sum();
            assert_eq!(h.join().unwrap(), expected, "scope {t} joined its own jobs");
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 8 * 2, "all jobs incl. nested ran");
    }

    #[test]
    fn nested_spawns_are_stolen_not_serialized() {
        // One job fans out 16 children onto its own deque and stays busy
        // until they all finish — so every child must run on a *thief*.
        // (The old shared-queue scheduler ran nested spawns inline; this
        // pins the scheduling upgrade at the public API.)
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let before = pool.steal_count();
        let done = AtomicUsize::new(0);
        pool.scope(|s| {
            s.spawn(|s| {
                for _ in 0..16 {
                    s.spawn(|_| {
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                let deadline = std::time::Instant::now() + crate::test_timeout(10);
                while done.load(Ordering::SeqCst) < 16 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
            });
        });
        assert_eq!(done.load(Ordering::SeqCst), 16);
        assert!(pool.steal_count() >= before + 16, "children must be stolen");
    }

    #[test]
    fn dropping_pool_joins_workers() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn top_level_scope_without_pool_runs_inline() {
        // Regardless of ambient pool size, spawned work completes.
        let total = AtomicUsize::new(0);
        let total_ref = &total;
        scope(|s| {
            for k in 0..10 {
                s.spawn(move |_| {
                    total_ref.fetch_add(k, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 45);
    }
}
