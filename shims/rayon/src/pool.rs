//! The execution core: OS worker threads, per-worker work-stealing deques,
//! and scoped task regions.
//!
//! This module is the only place in the shim that uses `unsafe`: a scoped
//! job borrows stack data of the thread that called [`PoolCore::scope`],
//! and its lifetime is erased so it can travel through the `'static` job
//! deques. Safety rests on the scope discipline — `scope` does not return
//! until its completion latch reports every spawned job finished, so the
//! borrowed data is live for the whole execution of every job (the same
//! argument `std::thread::scope` makes).
//!
//! Design (the "static partitioning, dynamic stealing" model):
//!
//! - A pool of size `N` owns `N` OS worker threads and `N` deques, one per
//!   worker, in the Chase–Lev discipline: a worker pushes and pops **its
//!   own** deque at the back (LIFO, cache-hot), idle workers steal from a
//!   **victim's** deque at the front (FIFO, oldest-first). Victims are
//!   probed in a randomized order drawn from a per-worker RNG seeded
//!   deterministically from the worker index, so runs are reproducible.
//! - Jobs submitted from outside the pool (the thread opening a parallel
//!   region) are placed round-robin across the deques; jobs spawned *by a
//!   worker* go to that worker's own deque, where they stay until the
//!   owner pops them or a thief steals them — this is what load-balances
//!   skewed nested work that the old single shared queue serialized.
//! - Chunk *boundaries* never depend on the pool size (see [`crate::iter`]),
//!   only the assignment of chunks to threads does — which is what makes
//!   ordered reductions bitwise reproducible across pool sizes.
//! - A region is a [`Scope`]: spawn borrows, then the creating thread
//!   blocks on the scope's latch (a worker of the same pool instead *helps*
//!   — it drains work until the latch clears, so nested `ThreadPool::scope`
//!   calls cannot deadlock). Panics inside jobs are caught, carried across
//!   the thread boundary, and resumed on the scoping thread.

#![allow(unsafe_code)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use dsmatch_check::protocol::deque;
use dsmatch_check::protocol::eventcount::{self, EventcountOps};

use crate::eventcount::Eventcount;
use crate::hint_deque::HintDeque;

/// A type-erased, lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send>;

/// Shared state of one pool: the per-worker deques its workers drain.
///
/// The two synchronization protocols this struct lives by — the hinted
/// deques and the eventcount sleep/wake dance — are *extracted*: their
/// logic lives in `dsmatch_check::protocol` (shared with the model
/// checker that exhaustively verifies them), and this module only calls
/// the protocol functions over the real implementations in
/// [`crate::hint_deque`] and [`crate::eventcount`].
pub(crate) struct PoolCore {
    size: usize,
    /// One deque per worker. The owner pushes/pops at the back; thieves
    /// pop at the front. A `Mutex<VecDeque>` per worker keeps the shim
    /// `unsafe`-minimal while preserving the Chase–Lev access pattern —
    /// the common case (owner pop) contends only with an active thief on
    /// the *same* deque, never with the whole pool, and the atomic length
    /// hint lets sweeps skip empty deques without touching their locks.
    deques: Vec<HintDeque<Job>>,
    /// Successful steals since the pool started (relaxed; test telemetry).
    steals: AtomicU64,
    /// Park/wake rendezvous: workers that sweep empty park here; every
    /// push announces through it. See
    /// `dsmatch_check::protocol::eventcount` for the lost-wakeup
    /// argument.
    ec: Eventcount,
}

impl std::fmt::Debug for PoolCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolCore").field("size", &self.size).finish_non_exhaustive()
    }
}

thread_local! {
    /// On pool worker threads: the owning pool and this worker's index.
    static WORKER: RefCell<Option<(Arc<PoolCore>, usize)>> = const { RefCell::new(None) };
    /// The pool installed by [`crate::ThreadPool::install`] on this thread.
    static INSTALLED: RefCell<Vec<Arc<PoolCore>>> = const { RefCell::new(Vec::new()) };
}

/// True on a pool worker thread (parallel regions must run inline there).
pub(crate) fn in_worker() -> bool {
    WORKER.with(|w| w.borrow().is_some())
}

/// Pool size seen by `current_num_threads` on a worker thread (0 if the
/// current thread is not a worker).
pub(crate) fn worker_pool_size() -> usize {
    WORKER.with(|w| w.borrow().as_ref().map_or(0, |(core, _)| core.size))
}

/// This thread's worker index in `core` specifically, when the thread is a
/// worker of that pool.
fn worker_index_in(core: &Arc<PoolCore>) -> Option<usize> {
    WORKER.with(|w| {
        w.borrow().as_ref().and_then(
            |(owner, idx)| {
                if Arc::ptr_eq(owner, core) {
                    Some(*idx)
                } else {
                    None
                }
            },
        )
    })
}

/// The pool a parallel region on this thread should execute in:
/// the innermost installed pool, else the global pool. `None` on worker
/// threads (nested regions run inline) and when the resolved pool has a
/// single thread (dispatch would be pure overhead).
pub(crate) fn dispatch_pool() -> Option<Arc<PoolCore>> {
    if in_worker() {
        return None;
    }
    let installed = INSTALLED.with(|stack| stack.borrow().last().cloned());
    let core = match installed {
        Some(core) => core,
        None => global_core()?,
    };
    (core.size > 1).then_some(core)
}

/// Size of the pool `dispatch_pool` would resolve to, counting worker
/// threads even when dispatch itself would be declined.
pub(crate) fn ambient_pool_size() -> usize {
    let installed = INSTALLED.with(|stack| stack.borrow().last().map(|c| c.size));
    installed.unwrap_or_else(global_size)
}

/// Push `core` as the innermost installed pool for the duration of `op`.
pub(crate) fn with_installed<R>(core: Arc<PoolCore>, op: impl FnOnce() -> R) -> R {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            INSTALLED.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    INSTALLED.with(|stack| stack.borrow_mut().push(core));
    let _guard = PopOnDrop;
    op()
}

/// The machine default: `RAYON_NUM_THREADS` if set to a positive integer
/// (the same override the real rayon honours), else the available
/// parallelism.
pub(crate) fn default_threads() -> usize {
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The global pool: built on the first dispatch that finds a default
/// size above 1, then kept for the life of the process. Until then the
/// default is re-read on every call, and a default of 1 builds nothing —
/// a one-worker pool would never be dispatched to anyway. A pool whose
/// workers cannot be spawned is recorded as absent, so regions degrade to
/// inline execution instead of aborting the process.
static GLOBAL: OnceLock<Option<Arc<PoolCore>>> = OnceLock::new();

fn global_core() -> Option<Arc<PoolCore>> {
    if let Some(built) = GLOBAL.get() {
        return built.clone();
    }
    let size = default_threads();
    if size <= 1 {
        return None;
    }
    GLOBAL.get_or_init(|| PoolCore::start(size).ok().map(|(core, _workers)| core)).clone()
}

/// Size the global pool has, or would have if it were built now.
fn global_size() -> usize {
    match GLOBAL.get() {
        Some(Some(core)) => core.size,
        _ => default_threads(),
    }
}

/// Deterministic per-worker RNG for victim selection (xorshift64*).
/// Seeding from the worker index keeps steal schedules reproducible run to
/// run — the *timing* of steals still varies, but not the probe order.
struct StealRng(u64);

impl StealRng {
    fn new(index: usize) -> Self {
        // SplitMix-style scramble of the index; never zero.
        StealRng((index as u64).wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

impl PoolCore {
    /// Build a core and spawn its `size` workers. The handles are returned
    /// so owned pools ([`crate::ThreadPool`]) can join them on drop; the
    /// global pool drops them (its workers run for the life of the process).
    ///
    /// On worker-spawn failure (thread exhaustion), already-spawned
    /// workers are shut down and joined before the error is returned, so
    /// a failed build leaks nothing.
    pub(crate) fn start(size: usize) -> std::io::Result<(Arc<Self>, Vec<JoinHandle<()>>)> {
        let size = size.max(1);
        let core = Arc::new(PoolCore {
            size,
            deques: (0..size).map(|_| HintDeque::new()).collect(),
            steals: AtomicU64::new(0),
            ec: Eventcount::new(),
        });
        let mut workers = Vec::with_capacity(size);
        for k in 0..size {
            let worker_core = Arc::clone(&core);
            match std::thread::Builder::new()
                .name(format!("rayon-shim-{k}"))
                .spawn(move || worker_loop(worker_core, k))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    core.shutdown();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok((core, workers))
    }

    /// Number of worker threads.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Successful steals since the pool started (test telemetry — the
    /// counter itself is always maintained, one relaxed add per steal).
    #[cfg(test)]
    pub(crate) fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Push a job onto deque `index` (back — LIFO for the owner, FIFO for
    /// thieves) and wake a parked worker, if any.
    fn push_to(&self, index: usize, job: Job) {
        deque::push(&self.deques[index], job);
        self.announce_work();
    }

    /// Advance the wakeup epoch and wake a parked worker, if any. The
    /// `SeqCst` pair (epoch bump, then sleeper check) against the park
    /// path's (sleeper registration, then epoch re-check) guarantees that
    /// either the pusher sees the sleeper and notifies, or the parking
    /// worker sees the new epoch and re-sweeps — never neither. The
    /// protocol is model-checked over every interleaving (see
    /// `dsmatch_check::protocol::eventcount`).
    fn announce_work(&self) {
        eventcount::announce(&self.ec);
    }

    /// One full work-finding sweep for worker `index`: own deque first
    /// (back, LIFO), then every other deque once in randomized victim
    /// order (steal-half from the front). A successful steal re-homes the
    /// surplus onto the thief's own deque — announced, so other idle
    /// workers can in turn steal from it (logarithmic work diffusion).
    /// `None` means the pool was empty at each probe.
    fn find_work(&self, index: usize, rng: &mut StealRng) -> Option<Job> {
        if let Some(job) = deque::pop(&self.deques[index]) {
            return Some(job);
        }
        if self.size == 1 {
            return None;
        }
        let start = (rng.next() % (self.size as u64 - 1)) as usize;
        for probe in 0..self.size - 1 {
            // Linear probe from a random start, skipping our own deque.
            let mut victim = (start + probe) % (self.size - 1);
            if victim >= index {
                victim += 1;
            }
            let mut surplus = Vec::new();
            if let Some(job) = deque::steal_half(&self.deques[victim], &mut surplus) {
                self.steals.fetch_add(1 + surplus.len() as u64, Ordering::Relaxed);
                if !surplus.is_empty() {
                    // Stolen jobs are older than anything the owner will
                    // push later; `prepend` front-loads them to keep
                    // FIFO-ish order for onward thieves.
                    deque::prepend(&self.deques[index], &mut surplus);
                    self.announce_work();
                }
                return Some(job);
            }
        }
        None
    }

    /// Tell workers to exit once their deques are drained.
    pub(crate) fn shutdown(&self) {
        eventcount::shutdown(&self.ec);
    }

    /// Run `op` with a [`Scope`] whose spawned jobs execute on this pool,
    /// then block until every job has finished. Panics from jobs are
    /// resumed here, after all jobs have completed (so borrowed data is
    /// never freed under a running job, even on unwind).
    pub(crate) fn scope<'scope, OP, R>(self: &Arc<Self>, op: OP) -> R
    where
        OP: FnOnce(&Scope<'scope>) -> R,
    {
        let scope = Scope {
            core: Some(Arc::clone(self)),
            state: Arc::new(ScopeState {
                sync: Mutex::new(ScopeSync { pending: 0, panic: None }),
                done: Condvar::new(),
                cursor: AtomicUsize::new(0),
            }),
            _borrow: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| op(&scope)));
        scope.wait();
        let job_panic = {
            let mut sync = scope.state.sync.lock().expect("scope lock poisoned");
            sync.panic.take()
        };
        match result {
            Ok(r) => {
                if let Some(p) = job_panic {
                    resume_unwind(p);
                }
                r
            }
            Err(p) => resume_unwind(p),
        }
    }
}

fn worker_loop(core: Arc<PoolCore>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&core), index)));
    let mut rng = StealRng::new(index);
    loop {
        // Epoch is read *before* the sweep: a push that the sweep misses
        // necessarily advanced the epoch afterwards, so the park below
        // wakes immediately instead of losing the job. (The model checker
        // demonstrates that moving this read after the sweep strands
        // jobs — see `crates/check/tests/model_eventcount.rs`.)
        let seen = core.ec.epoch();
        if let Some(job) = core.find_work(index, &mut rng) {
            // Jobs are panic-wrapped at spawn time, so this call never
            // unwinds into the loop.
            job();
            continue;
        }
        if core.ec.is_shutdown() {
            return;
        }
        eventcount::park(&core.ec, seen);
    }
}

/// Completion latch + first-panic slot shared by a scope and its jobs.
struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
    /// Round-robin cursor for this scope's *external* spawns. Scope-local
    /// (not pool-global) so that identical parallel regions place their
    /// jobs on identical deques run after run — reproducible placement,
    /// with only steal timing left to the scheduler.
    cursor: AtomicUsize,
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Run `op` with a scope whose spawns execute inline on the calling
/// thread — the degenerate region used when no multi-thread pool is
/// available for dispatch.
pub(crate) fn inline_scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R,
{
    let scope = Scope {
        core: None,
        state: Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync { pending: 0, panic: None }),
            done: Condvar::new(),
            cursor: AtomicUsize::new(0),
        }),
        _borrow: PhantomData,
    };
    op(&scope)
}

/// A scoped-task region on a pool: see [`crate::ThreadPool::scope`] and
/// [`crate::scope`]. Jobs spawned here may borrow data created before the
/// scope; the scope joins them all before returning.
pub struct Scope<'scope> {
    /// `None` for inline regions: spawns run eagerly on the caller.
    core: Option<Arc<PoolCore>>,
    state: Arc<ScopeState>,
    /// Makes `'scope` invariant, so borrows can't be shortened behind the
    /// region's back.
    _borrow: PhantomData<&'scope mut &'scope ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("pool_size", &self.core.as_ref().map_or(1, |c| c.size))
            .finish()
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn `body` into the pool. The closure receives the scope (as in
    /// rayon), so jobs can spawn further jobs.
    ///
    /// Placement: spawns from a worker *of this pool* go to that worker's
    /// own deque (stealable nested work — a skewed job's children load-
    /// balance across the pool); spawns from any other thread — the scoping
    /// thread, or a worker of a different pool — are distributed
    /// round-robin. Inline regions run the body eagerly.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        let Some(core) = &self.core else {
            body(self);
            return;
        };
        {
            let mut sync = self.state.sync.lock().expect("scope lock poisoned");
            sync.pending += 1;
        }
        let handle = Scope {
            core: Some(Arc::clone(core)),
            state: Arc::clone(&self.state),
            _borrow: PhantomData,
        };
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(|| body(&handle)));
            let mut sync = state.sync.lock().expect("scope lock poisoned");
            if let Err(payload) = result {
                sync.panic.get_or_insert(payload);
            }
            sync.pending -= 1;
            if sync.pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: `PoolCore::scope` blocks on the latch until `pending`
        // returns to zero, i.e. until this job (and any job it spawns)
        // has run to completion, before any data borrowed for `'scope`
        // can be dropped — including when the scope body itself panics.
        // The erased box therefore never outlives its borrows.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        match worker_index_in(core) {
            // A worker of this pool spawns onto its own deque; any other
            // thread distributes round-robin from the scope-local cursor.
            Some(index) => core.push_to(index, job),
            None => {
                let k = self.state.cursor.fetch_add(1, Ordering::Relaxed) % core.size;
                core.push_to(k, job);
            }
        }
    }

    /// Block until every spawned job has completed.
    ///
    /// A worker of the scope's own pool does not park — it *helps*,
    /// draining pool work (its own nested jobs first, then steals) until
    /// the latch clears, so nested `ThreadPool::scope` calls from inside a
    /// job make progress even on a pool of one thread.
    fn wait(&self) {
        if let Some(core) = &self.core {
            if let Some(index) = worker_index_in(core) {
                let mut rng = StealRng::new(index);
                loop {
                    if let Some(job) = core.find_work(index, &mut rng) {
                        job();
                        continue;
                    }
                    // No runnable work: park briefly on the latch instead
                    // of spinning — the timeout bounds how late we notice
                    // *new* stealable work (the latch itself wakes us when
                    // the last pending job finishes).
                    let sync = self.state.sync.lock().expect("scope lock poisoned");
                    if sync.pending == 0 {
                        return;
                    }
                    let _ = self
                        .state
                        .done
                        .wait_timeout(sync, std::time::Duration::from_millis(1))
                        .expect("scope lock poisoned");
                }
            }
        }
        let mut sync = self.state.sync.lock().expect("scope lock poisoned");
        while sync.pending > 0 {
            sync = self.state.done.wait(sync).expect("scope lock poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_timeout;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn drain(core: Arc<PoolCore>, workers: Vec<JoinHandle<()>>) {
        core.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn scope_runs_jobs_on_worker_threads() {
        let (core, workers) = PoolCore::start(3).unwrap();
        let caller = std::thread::current().id();
        let ids = Mutex::new(Vec::new());
        core.scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    ids.lock().unwrap().push(std::thread::current().id());
                });
            }
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 8);
        assert!(ids.iter().all(|&id| id != caller), "jobs must run off the calling thread");
        drain(core, workers);
    }

    #[test]
    fn scope_joins_before_returning() {
        let (core, workers) = PoolCore::start(2).unwrap();
        let counter = AtomicUsize::new(0);
        core.scope(|s| {
            for _ in 0..32 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
        drain(core, workers);
    }

    #[test]
    fn nested_spawn_from_job_completes() {
        let (core, workers) = PoolCore::start(1).unwrap();
        let hits = AtomicUsize::new(0);
        core.scope(|s| {
            s.spawn(|s| {
                hits.fetch_add(1, Ordering::Relaxed);
                // Goes to the worker's own deque; the worker pops it after
                // this job returns — must not deadlock on size 1.
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        drain(core, workers);
    }

    #[test]
    fn deeply_nested_spawns_complete_across_pool_sizes() {
        for size in [1usize, 2, 4, 8] {
            let (core, workers) = PoolCore::start(size).unwrap();
            let hits = AtomicUsize::new(0);
            core.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|s| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        s.spawn(|s| {
                            hits.fetch_add(1, Ordering::Relaxed);
                            s.spawn(|_| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        });
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 12, "pool size {size}");
            drain(core, workers);
        }
    }

    #[test]
    fn job_panic_propagates_to_scope() {
        let (core, workers) = PoolCore::start(2).unwrap();
        let result = catch_unwind(AssertUnwindSafe(|| {
            core.scope(|s| {
                s.spawn(|_| panic!("boom in job"));
            });
        }));
        assert!(result.is_err(), "scope must re-raise a job panic");
        // The pool survives a panicking job.
        let ok = AtomicUsize::new(0);
        core.scope(|s| {
            s.spawn(|_| {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
        drain(core, workers);
    }

    #[test]
    fn panic_in_stolen_nested_job_propagates() {
        // The panicking job is spawned from a worker (lands on its own
        // deque, eligible for stealing); the panic must still surface at
        // the scoping thread, at every pool size.
        for size in [2usize, 4, 8] {
            let (core, workers) = PoolCore::start(size).unwrap();
            let result = catch_unwind(AssertUnwindSafe(|| {
                core.scope(|s| {
                    for k in 0..2 * size {
                        s.spawn(move |s| {
                            s.spawn(move |_| {
                                if k == 1 {
                                    panic!("boom in nested job");
                                }
                            });
                        });
                    }
                });
            }));
            assert!(result.is_err(), "nested panic lost at pool size {size}");
            drain(core, workers);
        }
    }

    #[test]
    fn external_spawns_cover_all_deques_round_robin() {
        // N external spawns in a fresh scope land on N distinct deques
        // (scope-local cursor starts at 0), and a worker drains its own
        // deque before stealing — so N tasks that rendezvous must be held
        // by N distinct workers. Exactness of this placement is what the
        // engine's barrier-based `observed_parallelism` probe relies on.
        let n = 4usize;
        let (core, workers) = PoolCore::start(n).unwrap();
        let arrived = AtomicUsize::new(0);
        let ids = Mutex::new(std::collections::HashSet::new());
        core.scope(|s| {
            for _ in 0..n {
                s.spawn(|_| {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    let deadline = std::time::Instant::now() + test_timeout(10);
                    while arrived.load(Ordering::SeqCst) < n && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    ids.lock().unwrap().insert(std::thread::current().id());
                });
            }
        });
        assert_eq!(ids.into_inner().unwrap().len(), n, "one task per worker, exactly");
        drain(core, workers);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Skewed-workload property: one giant job that *spawns* `tiny`
        /// small jobs (they land on the giant's own deque) and stays busy
        /// until every one of them has completed. Its worker never returns
        /// to its deque in the meantime, so each tiny job can only have
        /// been executed by a *thief* — steals must occur (at least
        /// `tiny`), and nothing may be lost. Under the old shared-queue
        /// scheduler this exact shape serialized: nested spawns ran inline
        /// on the giant job's worker.
        #[test]
        fn skewed_workload_steals_and_completes(size in 2usize..9, extra in 0usize..48) {
            let tiny = size + extra;
            let (core, workers) = PoolCore::start(size).unwrap();
            let before = core.steal_count();
            let done_tiny = AtomicUsize::new(0);
            let giant_done = AtomicUsize::new(0);
            core.scope(|s| {
                s.spawn(|s| {
                    // The "giant chunk": spawn the tiny jobs onto this
                    // worker's deque, then occupy the worker until they
                    // have all completed (bounded, to fail loudly rather
                    // than hang on a scheduler bug).
                    for _ in 0..tiny {
                        s.spawn(|_| {
                            done_tiny.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    let deadline = std::time::Instant::now() + test_timeout(10);
                    while done_tiny.load(Ordering::SeqCst) < tiny
                        && std::time::Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                    giant_done.fetch_add(1, Ordering::SeqCst);
                });
            });
            proptest::prop_assert_eq!(done_tiny.load(Ordering::SeqCst), tiny);
            proptest::prop_assert_eq!(giant_done.load(Ordering::SeqCst), 1);
            let stolen = core.steal_count() - before;
            proptest::prop_assert!(
                stolen >= tiny as u64,
                "1 giant spawning {} tiny jobs on {} workers: every tiny job must be stolen \
                 (got {} steals)",
                tiny, size, stolen
            );
            drain(core, workers);
        }
    }

    #[test]
    fn steal_rng_is_deterministic() {
        let draws = |index: usize| {
            let mut rng = StealRng::new(index);
            (0..8).map(|_| rng.next()).collect::<Vec<_>>()
        };
        assert_eq!(draws(3), draws(3), "same worker index ⇒ same victim sequence");
        assert_ne!(draws(0), draws(1), "distinct workers draw distinct sequences");
    }
}
