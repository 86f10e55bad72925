//! Batch-level parallelism: a pool of reusable workspaces and a batch
//! solver that fans instances across it.
//!
//! [`Pipeline::solve`] parallelizes *inside* one instance; on server
//! workloads of many small instances the parallelism that actually pays is
//! one level up — solve whole instances concurrently, each sequentially on
//! one worker. [`WorkspacePool`] holds one reusable [`Workspace`] per
//! worker (trading memory for throughput: `N` workspaces instead of one),
//! and [`Pipeline::solve_batch`] distributes the batch over the pool while
//! preserving per-instance [`SolveReport`]s in submission order.
//!
//! The same pool shape backs two other fan-outs: the serve daemon runs
//! each job on a slot workspace, and `dm,<pipeline>` decomposition solves
//! distribute fine Dulmage–Mendelsohn blocks across a lazily-built
//! per-workspace pool (`Workspace::dm_pool`) — in every case the pinned
//! 1-thread slots keep results byte-identical to a sequential solve.
//!
//! Per-instance results are *identical* to a sequential 1-thread solve of
//! the same `(instance, seed)` pair, under **any** rayon runtime: every
//! slot workspace owns a pinned 1-thread pool, so each batch item's
//! nested parallel regions run the sequential schedule — the shim executes
//! them inline on the batch worker, real rayon dispatches them to the
//! slot's one-thread pool; either way the schedule is the 1-thread one
//! the workspace's determinism tests pin down.
//!
//! ```
//! use dsmatch::engine::{Pipeline, Solver, Workspace};
//!
//! let instances: Vec<_> =
//!     (0..4).map(|s| dsmatch::gen::erdos_renyi_square(400, 4.0, s)).collect();
//! let pipeline: Pipeline = "scale:sk:3,two".parse().unwrap();
//!
//! let pool = Workspace::per_worker(2);
//! let jobs: Vec<_> = instances.iter().map(|g| (g, 7u64)).collect();
//! let reports = pipeline.solve_batch(&jobs, &pool);
//! assert_eq!(reports.len(), 4);
//! ```

use std::sync::{Mutex, TryLockError};

use dsmatch_graph::BipartiteGraph;
use rayon::prelude::*;

use super::pipeline::{Pipeline, Solver};
use super::report::SolveReport;
use super::workspace::Workspace;

/// A pool of reusable [`Workspace`]s, one per worker (plus one for the
/// submitting thread), backing [`Pipeline::solve_batch`].
///
/// Built by [`Workspace::per_worker`], which owns a thread pool of the
/// requested size. Workspaces are lazily grown scratch arenas: after each
/// worker's first solve of a given instance shape, batch solving allocates
/// only the returned matchings.
#[derive(Debug)]
pub struct WorkspacePool {
    slots: Vec<Mutex<Workspace>>,
    pool: rayon::ThreadPool,
}

impl Workspace {
    /// A [`WorkspacePool`] owning a thread pool of exactly `threads`
    /// workers (`0` = the default size) and one workspace per worker —
    /// the batch/server mode the CLI exposes as `--batch N --batch-par`.
    pub fn per_worker(threads: usize) -> WorkspacePool {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build batch thread pool");
        let slots = pool.current_num_threads() + 1;
        WorkspacePool {
            // Each slot pins a 1-thread pool: batch items must solve on
            // the *sequential* schedule for the byte-identical-to-1-thread
            // contract, and only an installed one-thread pool guarantees
            // that under every rayon runtime (the shim would run nested
            // regions inline on a batch worker anyway; real rayon would
            // otherwise fan them out across the batch pool).
            slots: (0..slots.max(2)).map(|_| Mutex::new(Workspace::with_threads(1))).collect(),
            pool,
        }
    }
}

impl WorkspacePool {
    /// The number of threads batch solves against this pool will use.
    pub fn threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// The number of reusable workspaces held (workers + 1: the submitting
    /// thread can execute small batches inline).
    pub fn workspaces(&self) -> usize {
        self.slots.len()
    }

    /// The owned thread pool — the scheduler `serve` mode submits its
    /// stealable job tasks to.
    pub(crate) fn rayon_pool(&self) -> &rayon::ThreadPool {
        &self.pool
    }

    /// Run `op` inside this pool.
    pub fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        self.pool.install(op)
    }

    /// Run `op` with an exclusive workspace: a free pool slot when one
    /// exists, else a fresh temporary. Workers + 1 slots, each concurrent
    /// task holding at most one, keep a slot free for every task of this
    /// pool; a caller driving it from more threads than that gets
    /// temporaries, which allocate their own scratch instead of spinning
    /// or blocking — trading reuse for progress.
    pub(crate) fn with_workspace<R>(&self, op: impl FnOnce(&mut Workspace) -> R) -> R {
        for slot in &self.slots {
            match slot.try_lock() {
                Ok(mut ws) => return op(&mut ws),
                // A solve that panicked mid-stage leaves valid (if
                // arbitrarily shaped) scratch: every buffer regrows on
                // demand, so a poisoned slot is safe to reuse.
                Err(TryLockError::Poisoned(poisoned)) => return op(&mut poisoned.into_inner()),
                Err(TryLockError::WouldBlock) => {}
            }
        }
        op(&mut Workspace::with_threads(1))
    }
}

impl Pipeline {
    /// Solve a batch of `(instance, seed)` jobs across `pool`'s workers,
    /// returning one [`SolveReport`] per job **in submission order**.
    ///
    /// Instances are distributed one per task (stealable, so skewed
    /// batches — one large instance among many small ones — load-balance);
    /// each instance is solved sequentially on its worker with a reused
    /// per-worker workspace, making the per-instance results byte-identical
    /// to 1-thread solves.
    pub fn solve_batch(
        &self,
        jobs: &[(&BipartiteGraph, u64)],
        pool: &WorkspacePool,
    ) -> Vec<SolveReport> {
        pool.run(|| {
            jobs.par_iter()
                .with_max_len(1)
                .map(|&(g, seed)| {
                    pool.with_workspace(|ws| self.clone().with_seed(seed).solve(g, ws))
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worker_pool_shape() {
        let pool = Workspace::per_worker(3);
        assert_eq!(pool.threads(), 3);
        assert_eq!(pool.workspaces(), 4, "one workspace per worker plus the submitter");
        assert_eq!(pool.run(rayon::current_num_threads), 3);
    }

    #[test]
    fn busy_slots_fall_back_to_a_temporary_workspace() {
        // A 1-worker pool holds two slots; with both taken, a third solve
        // gets a temporary workspace and still completes correctly.
        let pool = Workspace::per_worker(1);
        let g = crate::gen::erdos_renyi_square(300, 3.0, 1);
        let pipeline: Pipeline = "scale:sk:3,two".parse().unwrap();
        let report = pool.with_workspace(|_| {
            pool.with_workspace(|_| pool.with_workspace(|ws| pipeline.solve(&g, ws)))
        });
        report.matching.verify(&g).unwrap();
    }

    #[test]
    fn batch_reports_preserve_submission_order() {
        // Distinguishable instances: sizes 10, 20, 30, … — the report for
        // job k must describe instance k even under stealing.
        let instances: Vec<BipartiteGraph> =
            (1..=12).map(|k| crate::gen::erdos_renyi_square(10 * k, 3.0, k as u64)).collect();
        let jobs: Vec<(&BipartiteGraph, u64)> = instances.iter().map(|g| (g, 5u64)).collect();
        let pipeline: Pipeline = "scale:sk:3,two".parse().unwrap();
        let pool = Workspace::per_worker(4);
        let reports = pipeline.solve_batch(&jobs, &pool);
        assert_eq!(reports.len(), jobs.len());
        for (k, (report, g)) in reports.iter().zip(&instances).enumerate() {
            report.matching.verify(g).unwrap_or_else(|e| panic!("job {k}: {e}"));
            assert_eq!(report.matching.rmates().len(), g.nrows(), "job {k} shape");
        }
    }

    #[test]
    fn batch_results_match_sequential_solves_byte_for_byte() {
        let instances: Vec<BipartiteGraph> =
            (0..8).map(|k| crate::gen::erdos_renyi_square(600, 4.0, 100 + k)).collect();
        let jobs: Vec<(&BipartiteGraph, u64)> =
            instances.iter().enumerate().map(|(k, g)| (g, k as u64)).collect();
        let pipeline: Pipeline = "scale:sk:4,two".parse().unwrap();

        // Sequential reference: one workspace on a pinned 1-thread pool —
        // the schedule each batch item must reproduce regardless of the
        // ambient pool size this test runs under.
        let mut ws = Workspace::with_threads(1);
        let reference: Vec<SolveReport> = jobs
            .iter()
            .map(|&(g, seed)| pipeline.clone().with_seed(seed).solve(g, &mut ws))
            .collect();

        let pool = Workspace::per_worker(4);
        let batch = pipeline.solve_batch(&jobs, &pool);
        for (k, (b, r)) in batch.iter().zip(&reference).enumerate() {
            assert_eq!(b.matching.rmates(), r.matching.rmates(), "job {k} rmates");
            assert_eq!(b.cardinality(), r.cardinality(), "job {k} cardinality");
        }
    }
}
