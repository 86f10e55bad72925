//! The engine's reusable workspace: one allocation arena per solver loop,
//! optionally owning the thread pool its solves execute in.

use dsmatch_core::HeurWorkspace;
use dsmatch_exact::AugmentWorkspace;
use dsmatch_scale::ScalingResult;
use std::sync::Arc;

/// Scratch buffers threaded through every stage of a [`Pipeline`] solve.
///
/// Construct one [`Workspace`] and reuse it across solves: after the first
/// solve on a given instance shape, no stage allocates scratch memory —
/// only the returned [`Matching`](dsmatch_graph::Matching) inside each
/// [`SolveReport`](crate::engine::SolveReport) is fresh. This is the
/// batch/server mode the CLI exposes as `--batch N`.
///
/// A workspace is not tied to one graph: solving a differently-shaped
/// instance simply regrows the buffers.
///
/// ## Parallel execution
///
/// A workspace optionally **owns a thread pool** ([`Workspace::with_threads`]).
/// When it does, every [`Pipeline`](crate::engine::Pipeline) solve against
/// it runs with that pool installed, so the parallel stages (scaling
/// sweeps, choice sampling, `KarpSipserMT`) execute on the workspace's
/// workers — this is what the CLI's `--threads N` builds. Without an owned
/// pool, solves use the ambient pool (the caller's installed pool, the
/// global pool, or `RAYON_NUM_THREADS`/available parallelism).
///
/// [`Pipeline`]: crate::engine::Pipeline
#[derive(Debug)]
pub struct Workspace {
    /// Scaling factors of the most recent `scale` stage (or the identity
    /// reset when the pipeline has none and the heuristic samples).
    pub scaling: ScalingResult,
    /// Heuristic scratch (choice arrays, Algorithm 4 state, …).
    pub heur: HeurWorkspace,
    /// Exact-solver scratch (BFS/DFS state, working mate arrays).
    pub augment: AugmentWorkspace,
    /// Thread pool solves against this workspace execute in, if owned
    /// (shared so the solve path can install it while the workspace is
    /// mutably borrowed).
    pub(crate) pool: Option<Arc<rayon::ThreadPool>>,
    /// Lazily-built workspace pool for `dm,` decomposition solves: fine
    /// blocks fan out across it as stealable per-block jobs, each solved
    /// on a pinned 1-thread slot workspace (see [`Workspace::dm_pool`]).
    pub(crate) dm_pool: Option<super::batch::WorkspacePool>,
}

impl Workspace {
    /// An empty workspace; every buffer grows lazily on first use. Solves
    /// run in the ambient thread pool.
    pub fn new() -> Self {
        Self {
            scaling: ScalingResult::empty(),
            heur: HeurWorkspace::new(),
            augment: AugmentWorkspace::new(),
            pool: None,
            dm_pool: None,
        }
    }

    /// A workspace owning a thread pool of exactly `threads` workers
    /// (`0` = the default size); every solve against it executes there.
    pub fn with_threads(threads: usize) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build workspace thread pool");
        Self { pool: Some(Arc::new(pool)), ..Self::new() }
    }

    /// The number of threads solves against this workspace will use: the
    /// owned pool's size, or the ambient pool's.
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or_else(rayon::current_num_threads, |p| p.current_num_threads())
    }

    /// The owned thread pool, if any.
    pub fn pool(&self) -> Option<&Arc<rayon::ThreadPool>> {
        self.pool.as_ref()
    }

    /// Run `op` on this workspace in its execution context: inside the
    /// owned pool when there is one, in the ambient pool otherwise.
    pub fn run<R: Send>(&mut self, op: impl FnOnce(&mut Self) -> R + Send) -> R {
        match self.pool.clone() {
            Some(pool) => pool.install(|| op(self)),
            None => op(self),
        }
    }

    /// The workspace pool backing `dm,` decomposition solves, built on
    /// first use and sized to this workspace's own thread pool (or the
    /// default size for ambient workspaces). Fine blocks are distributed
    /// across it as stealable jobs; each block solves on a pinned
    /// 1-thread slot workspace, so block results — and therefore the
    /// stitched matching — are byte-identical at every pool size.
    pub(crate) fn dm_pool(&mut self) -> &super::batch::WorkspacePool {
        if self.dm_pool.is_none() {
            let threads = self.pool.as_ref().map_or(0, |p| p.current_num_threads());
            self.dm_pool = Some(Workspace::per_worker(threads));
        }
        self.dm_pool.as_ref().expect("just installed")
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

/// Bound on how long [`observed_parallelism`]'s rendezvous and the
/// integration suites' harness waits may block: the
/// `DSMATCH_TEST_TIMEOUT_SECS` environment variable when set to a positive
/// integer, else `default_secs`. Loaded CI runners can stall a worker far
/// past laptop-scale deadlines, so the CI workflow raises the knob rather
/// than every call site hard-coding its own guess. The rayon shim's
/// scheduler tests read the same variable (duplicated there, not shared:
/// the `real-rayon` CI leg compiles the workspace without the shim).
#[doc(hidden)]
pub fn test_timeout(default_secs: u64) -> std::time::Duration {
    timeout_from(std::env::var("DSMATCH_TEST_TIMEOUT_SECS").ok().as_deref(), default_secs)
}

/// [`test_timeout`]'s rule for the knob's raw `value`: a positive integer,
/// surrounding whitespace allowed, overrides `default_secs`; unset, `0`
/// and anything unparsable leave the default.
fn timeout_from(value: Option<&str>, default_secs: u64) -> std::time::Duration {
    let secs =
        value.and_then(|v| v.trim().parse::<u64>().ok()).filter(|&s| s > 0).unwrap_or(default_secs);
    std::time::Duration::from_secs(secs)
}

/// Count the distinct worker threads that actually execute a parallel
/// region in the **current** pool context — the honesty probe behind the
/// CLI's `--threads` report.
///
/// Spawns one scoped task per configured thread; tasks rendezvous on a
/// **barrier** before recording their thread id, so a genuinely parallel
/// pool of `N` workers reports exactly `N` and a sequential executor
/// reports `1`. The barrier (rather than the old bounded busy-wait, which
/// could let one worker run two probe tasks and undercount) is safe here
/// because the scheduler places the `N` probe tasks on `N` distinct
/// worker deques and a worker drains its own deque first — every worker
/// executes exactly one task. Tasks that find themselves running *inline*
/// (no pool dispatched, or a probe from within a worker) skip the wait,
/// and a generous timeout keeps a degenerate scheduler from hanging the
/// probe instead of merely undercounting it.
pub fn observed_parallelism() -> usize {
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};

    let expected = rayon::current_num_threads();
    if expected <= 1 {
        return 1;
    }

    /// All-arrive barrier: every task arrives; only tasks that are *not*
    /// executing inline on the probing thread wait for the full
    /// complement. Inline execution (a sequential region, or a runtime
    /// that lets the scoping thread help) is detected portably by thread
    /// identity — an inline task waiting on itself would deadlock.
    struct Rendezvous {
        arrived: Mutex<usize>,
        all_here: Condvar,
    }
    let caller = std::thread::current().id();
    let barrier = Rendezvous { arrived: Mutex::new(0), all_here: Condvar::new() };
    let ids = Mutex::new(HashSet::new());
    rayon::scope(|s| {
        for _ in 0..expected {
            s.spawn(|_| {
                let inline = std::thread::current().id() == caller;
                let mut count = barrier.arrived.lock().unwrap_or_else(|p| p.into_inner());
                *count += 1;
                barrier.all_here.notify_all();
                if !inline {
                    let mut remaining = test_timeout(2);
                    while *count < expected && !remaining.is_zero() {
                        let (next, timeout) = barrier
                            .all_here
                            .wait_timeout(count, remaining)
                            .unwrap_or_else(|p| p.into_inner());
                        count = next;
                        if timeout.timed_out() {
                            remaining = std::time::Duration::ZERO;
                        }
                    }
                }
                drop(count);
                ids.lock().unwrap_or_else(|p| p.into_inner()).insert(std::thread::current().id());
            });
        }
    });
    let n = ids.into_inner().unwrap_or_else(|p| p.into_inner()).len();
    n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_pool_controls_thread_count() {
        let mut ws = Workspace::with_threads(3);
        assert_eq!(ws.threads(), 3);
        assert_eq!(ws.run(|_| rayon::current_num_threads()), 3);
        let ambient = Workspace::new();
        assert_eq!(ambient.threads(), rayon::current_num_threads());
    }

    #[test]
    fn observed_parallelism_is_exact_for_every_pool_size() {
        // The barrier-based probe is exact, not a lower bound: each pool
        // worker executes exactly one probe task (own-deque placement), so
        // the count must equal the pool size even under scheduling skew.
        for t in [1usize, 2, 4, 8] {
            let mut ws = Workspace::with_threads(t);
            assert_eq!(ws.run(|_| observed_parallelism()), t, "{t}-thread pool");
        }
    }

    #[test]
    fn observed_parallelism_from_worker_context_reports_inline() {
        // Nested regions on a pool worker run inline; the probe must say
        // so instead of deadlocking on a barrier no one else will reach.
        let mut ws = Workspace::with_threads(4);
        let nested = ws.run(|_| {
            let slot = std::sync::Mutex::new(0usize);
            rayon::scope(|s| {
                s.spawn(|_| {
                    *slot.lock().unwrap() = observed_parallelism();
                });
            });
            let seen = *slot.lock().unwrap();
            seen
        });
        assert_eq!(nested, 1);
    }

    #[test]
    fn test_timeout_knob_needs_a_positive_integer() {
        for unset in [None, Some("0"), Some(""), Some("abc"), Some("-5"), Some("1.5")] {
            assert_eq!(timeout_from(unset, 7).as_secs(), 7, "{unset:?}");
        }
        assert_eq!(timeout_from(Some(" 30 "), 7).as_secs(), 30);
    }
}
