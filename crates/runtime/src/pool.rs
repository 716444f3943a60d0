//! Persistent fork-join thread pool with an explicit thread count.
//!
//! The paper's Figure 10 sweeps 4–48 threads; engines therefore carry their
//! own [`Pool`] instead of a process-global pool, so benchmark code can
//! instantiate differently sized pools side by side.
//!
//! # Worker lifecycle: spawn once, park, epoch, join
//!
//! Workers are spawned **once**, lazily on the first parallel call that
//! needs them, and then persist for the pool's lifetime:
//!
//! ```text
//!  Pool::new(T)            first parallel call         Drop
//!     │                          │                       │
//!     │   (no threads yet)       ▼                       ▼
//!     │                   spawn T workers ──▶ park on condvar
//!     │                          │         ◀── epoch: publish job,
//!     │                          │             wake all, run, arrive
//!     │                          │             at completion latch,
//!     │                          │             park again
//!     │                          └───────────▶ shutdown flag + wake:
//!     │                                        workers exit, Drop joins
//! ```
//!
//! Every parallel operation is one **epoch**: the caller publishes a job
//! under the state mutex, bumps the epoch counter, wakes the parked
//! workers, and blocks on a completion latch until all of them have run
//! the job and arrived. Per-round cost is therefore a wake + a join, not
//! `T` thread spawns — the difference shows at high round rates, where
//! traversals run hundreds of tiny edge maps back to back.
//! [`Pool::spawns`] counts worker threads ever spawned and
//! [`Pool::epochs`] counts dispatches, so tests (and the benchmark's
//! `runtime.spawns` / `runtime.pool_epochs` metrics) can observe that a
//! thousand rounds reuse the same `T` threads.
//!
//! Every loop is **one claim loop** over a shared atomic cursor: workers
//! `fetch_add` the cursor to claim the next indices and run them, so no
//! index is pre-assigned to a worker. A worker descheduled mid-epoch
//! therefore strands at most the one claim it holds behind the completion
//! latch, where a fixed or seeded per-worker split would strand its whole
//! share. Only the claim grain differs:
//!
//! * the structured loops (`for_each_index`, `map_indices`, …) claim
//!   contiguous blocks — right for homogeneous work, a handful of
//!   `fetch_add`s per worker per epoch;
//! * [`run_tasks`](Pool::run_tasks) claims **one task per `fetch_add`** —
//!   right for the partitioned executor's heterogeneous list of
//!   edge-balanced chunks, where a block claim would hand one worker a run
//!   of a heavy partition's chunks.
//!
//! Results are written to the slot of their index, so callers merge
//! deterministically no matter which worker ran what.
//!
//! The pool is not reentrant: a job closure must not invoke parallel
//! operations on the pool that is running it (the workers it would need
//! are the ones executing it). Concurrent dispatches from *different*
//! threads serialize on an internal lock.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Raw pointer into a pre-sized result vector, shared across workers.
/// Sound because the cursor-claimed blocks partition the index space: no
/// slot is ever written by two workers.
struct RawSlots<R>(*mut std::mem::MaybeUninit<R>);

// SAFETY: workers only `write` disjoint slots (see `Pool::map_claimed`),
// so sharing the base pointer across threads cannot race.
unsafe impl<R: Send> Sync for RawSlots<R> {}

impl<R> RawSlots<R> {
    /// Writes slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds and written by exactly one thread per epoch.
    unsafe fn write(&self, i: usize, v: R) {
        (*self.0.add(i)).write(v);
    }
}

/// Average atomic-cursor claims per worker in the structured loops
/// ([`Pool::for_each_index`] / [`Pool::map_indices`]): the claim grain is
/// `count / (threads × CLAIM_OVERSUBSCRIPTION)`, so a straggler strands at
/// most `1 / (threads × 4)` of the loop instead of a whole fixed share,
/// while short loops still claim in one or two `fetch_add`s per worker.
const CLAIM_OVERSUBSCRIPTION: usize = 4;

/// The per-epoch job workers execute: a borrowed closure transmuted to
/// `'static`. Safety rests on the dispatch protocol — `dispatch` does not
/// return until every worker has arrived at the completion latch, so the
/// borrow outlives every use.
type ErasedJob = &'static (dyn Fn(usize) + Sync);

/// Shared state between the dispatcher and the parked workers.
struct CrewShared {
    state: Mutex<EpochState>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The dispatcher parks here until the completion latch drains.
    done_cv: Condvar,
}

struct EpochState {
    /// Monotonic epoch counter; a worker runs each epoch at most once.
    epoch: u64,
    /// The published job of the current epoch (`None` between epochs).
    job: Option<ErasedJob>,
    /// Completion latch: slots yet to finish the current epoch.
    remaining: usize,
    /// Width hint: how many workers this epoch needs. A narrow epoch
    /// (`width < threads`) wakes only `width` parked workers; a crew
    /// worker that finds all slots claimed re-parks without running.
    width: usize,
    /// Slots claimed so far this epoch; the claimant's job argument.
    claims: usize,
    /// The first panic payload a worker's job raised this epoch;
    /// re-raised verbatim by the dispatcher (as joining a scoped thread
    /// would), so assertion messages and locations survive the crew.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Set once, by `Drop`: workers exit instead of waiting for work.
    shutdown: bool,
}

/// The persistent worker crew: spawned once, joined on pool drop.
struct Crew {
    shared: Arc<CrewShared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Locks `m`, tolerating poison. Every mutex in this module guards
/// plain-old-data whose invariants the epoch protocol re-establishes on
/// each dispatch, so a panic that poisoned a lock (e.g. the job
/// `expect` below, or an assertion raised while a guard was held) must
/// not cascade: an `unwrap()` here would panic again in the next worker,
/// in `dispatch`, or — fatally — inside `Drop`, turning one caught job
/// panic into an abort.
fn lock_pod<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn worker_loop(shared: &CrewShared) {
    let mut seen = 0u64;
    loop {
        let claimed = {
            let mut st = lock_pod(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen {
                    seen = st.epoch;
                    if st.claims < st.width {
                        let slot = st.claims;
                        st.claims += 1;
                        break Some((slot, st.job.expect("epoch published without a job")));
                    }
                    // Narrow epoch, all slots taken: re-park without
                    // running (a spurious or surplus wake-up).
                    break None;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((slot, job)) = claimed else { continue };
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job(slot)));
        let mut st = lock_pod(&shared.state);
        if let Err(payload) = outcome {
            st.panic_payload.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// A fixed-width fork-join pool with persistent workers.
pub struct Pool {
    threads: usize,
    /// Closure invocations submitted through the loops below; lets tests
    /// assert that work was (or was not) submitted to the pool.
    jobs: AtomicU64,
    /// The worker crew, spawned lazily on the first multi-threaded call.
    crew: OnceLock<Crew>,
    /// Serializes dispatches from different caller threads.
    dispatch_lock: Mutex<()>,
    /// Worker threads ever spawned by this pool (0 until the first
    /// multi-threaded parallel call, then exactly `threads` forever).
    spawns: AtomicU64,
    /// Parallel operations dispatched to the crew so far.
    epochs: AtomicU64,
    /// Worker wake-ups requested across all epochs: `width` per epoch.
    wakes: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("spawns", &self.spawns())
            .field("epochs", &self.epochs())
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Poison-tolerant: dropping a pool after a caught worker panic
        // must shut the crew down, not panic-in-drop and abort.
        if let Some(crew) = self.crew.get() {
            {
                let mut st = lock_pod(&crew.shared.state);
                st.shutdown = true;
                crew.shared.work_cv.notify_all();
            }
            for h in lock_pod(&crew.handles).drain(..) {
                let _ = h.join();
            }
        }
    }
}

impl Pool {
    /// Creates a pool with exactly `threads` worker threads. The workers
    /// are spawned lazily, on the first parallel call that needs them.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        Pool {
            threads,
            jobs: AtomicU64::new(0),
            crew: OnceLock::new(),
            dispatch_lock: Mutex::new(()),
            spawns: AtomicU64::new(0),
            epochs: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// A pool sized to the machine.
    pub fn machine_sized() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Number of worker threads.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads spawned by this pool so far: 0 until the first
    /// multi-threaded parallel call, then exactly [`threads`](Self::threads)
    /// for the rest of the pool's life — the observable proof that epochs
    /// reuse parked workers instead of re-spawning.
    #[inline]
    pub fn spawns(&self) -> u64 {
        self.spawns.load(Ordering::Relaxed)
    }

    /// Parallel operations dispatched to the worker crew so far (inline
    /// single-threaded fast paths are not epochs).
    #[inline]
    pub fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Worker wake-ups requested across all epochs. A full-width epoch
    /// wakes the whole crew (`threads`); an epoch whose width hint is
    /// smaller wakes only that many workers — the observable proof that
    /// narrow task lists no longer stampede the whole crew.
    #[inline]
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Total closure invocations submitted through the loops below
    /// (`for_each_index`, `for_each_in_order`, `map_indices`,
    /// `for_each_chunk`, `run_tasks`). Monotonic; used by tests to prove
    /// that empty partitions are skipped without submitting pool work.
    #[inline]
    pub fn jobs_run(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// The crew, spawning it on first use.
    fn crew(&self) -> &Crew {
        self.crew.get_or_init(|| {
            let shared = Arc::new(CrewShared {
                state: Mutex::new(EpochState {
                    epoch: 0,
                    job: None,
                    remaining: 0,
                    width: 0,
                    claims: 0,
                    panic_payload: None,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            });
            let handles = (0..self.threads)
                .map(|w| {
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("gg-worker-{w}"))
                        .spawn(move || worker_loop(&shared))
                        .expect("failed to spawn pool worker")
                })
                .collect();
            self.spawns
                .fetch_add(self.threads as u64, Ordering::Relaxed);
            Crew {
                shared,
                handles: Mutex::new(handles),
            }
        })
    }

    /// Runs one epoch: publishes `job`, wakes `width` parked workers, and
    /// blocks until `width` slots have run it and arrived at the
    /// completion latch. Each slot index `0..width` is claimed by exactly
    /// one worker and invoked exactly once; a narrow epoch
    /// (`width < threads`) leaves the surplus workers parked. Lost
    /// wake-ups cannot wedge the latch: a worker that is between epochs
    /// (not yet parked) re-checks the epoch counter under the lock before
    /// waiting, so it claims a slot on its own even if its notification
    /// raced past it.
    fn dispatch(&self, width: usize, job: &(dyn Fn(usize) + Sync)) {
        debug_assert!(width >= 1 && width <= self.threads);
        // Poison-tolerant: a panicked previous epoch (re-raised below while
        // this lock was held) must not wedge every later dispatch.
        let _serial = self
            .dispatch_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let crew = self.crew();
        self.epochs.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the borrow is erased to 'static only while this frame is
        // alive — we do not return until `remaining` drains to zero, i.e.
        // until every claimed slot has finished calling `job`, and the job
        // slot is cleared before the latch opens the next epoch.
        let erased: ErasedJob = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut st = lock_pod(&crew.shared.state);
        debug_assert_eq!(st.remaining, 0, "previous epoch still in flight");
        st.job = Some(erased);
        st.remaining = width;
        st.width = width;
        st.claims = 0;
        st.epoch += 1;
        self.wakes.fetch_add(width as u64, Ordering::Relaxed);
        if width < self.threads {
            for _ in 0..width {
                crew.shared.work_cv.notify_one();
            }
        } else {
            crew.shared.work_cv.notify_all();
        }
        while st.remaining > 0 {
            st = crew
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        if let Some(payload) = st.panic_payload.take() {
            drop(st);
            std::panic::resume_unwind(payload);
        }
    }

    /// The block size the structured loops claim per `fetch_add`: see
    /// [`CLAIM_OVERSUBSCRIPTION`].
    #[inline]
    fn claim_grain(&self, count: usize) -> usize {
        (count / (self.threads * CLAIM_OVERSUBSCRIPTION)).max(1)
    }

    /// The one claim loop behind every parallel operation: runs `f(i)`
    /// exactly once for each `i` in `0..count`, workers claiming `grain`
    /// consecutive indices per `fetch_add` on a shared cursor and running
    /// each claim front to back. One epoch, as wide as there are claims to
    /// make (`threads` at most); an empty loop, a loop that is a single
    /// claim, or a one-thread pool runs inline on the caller, no epoch.
    fn claim_loop(&self, count: usize, grain: usize, f: impl Fn(usize) + Sync) {
        self.jobs.fetch_add(count as u64, Ordering::Relaxed);
        let width = self.threads.min(count.div_ceil(grain));
        if width <= 1 {
            (0..count).for_each(f);
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.dispatch(width, &|_slot| loop {
            let lo = cursor.fetch_add(grain, Ordering::Relaxed);
            if lo >= count {
                break;
            }
            (lo..(lo + grain).min(count)).for_each(&f);
        });
    }

    /// [`claim_loop`](Self::claim_loop) collecting `f(i)` into slot `i` of
    /// one pre-sized vector: no per-worker buffers, no mutex handoff, no
    /// post-epoch scatter pass — the filled vector already is the result
    /// in index order.
    fn map_claimed<R: Send>(
        &self,
        count: usize,
        grain: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let mut results: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(count);
        // SAFETY: uninitialised is a valid state for `MaybeUninit` slots.
        unsafe { results.set_len(count) };
        let slots = RawSlots(results.as_mut_ptr());
        self.claim_loop(count, grain, |i| {
            let v = f(i);
            // SAFETY: the claim loop runs each index of `0..count` exactly
            // once, so each slot is written by one worker, once; the vector
            // outlives the loop because `dispatch` blocks until every
            // worker has finished claiming and running.
            unsafe { slots.write(i, v) };
        });
        // SAFETY: the claims tile `0..count` exactly, so every slot is
        // initialised once the loop returns. (If `f` panicked, the loop
        // resumed the unwind above and the written elements leak without
        // their destructors — safe, merely unclean.)
        let (ptr, len, cap) = (
            results.as_mut_ptr() as *mut R,
            results.len(),
            results.capacity(),
        );
        std::mem::forget(results);
        unsafe { Vec::from_raw_parts(ptr, len, cap) }
    }

    /// Parallel loop over `0..count` with one call per index. Used for
    /// per-partition execution: the closure for partition `p` runs on
    /// exactly one worker, giving the exclusive-update guarantee.
    ///
    /// Indices are claimed in blocks of `max(1, count / (4 × threads))`;
    /// each worker's claimed indices are strictly ascending (the cursor is
    /// monotonic and blocks run front to back).
    pub fn for_each_index(&self, count: usize, f: impl Fn(usize) + Sync) {
        self.claim_loop(count, self.claim_grain(count), f);
    }

    /// Parallel loop over the entries of `order`: every `order[k]` runs
    /// exactly once, and adjacent positions land in the same
    /// cursor-claimed contiguous block (hence usually on the same worker).
    /// Position is *not* an execution priority: blocks run concurrently,
    /// so a late position in one block can execute before an early
    /// position in another. What is guaranteed — and pinned by
    /// `in_order_runs_each_entry_once_ascending_per_worker` — is that
    /// each entry runs exactly once and every worker executes the
    /// positions it claims in ascending order. Used to schedule
    /// partitions grouped by NUMA domain: a domain's partitions occupy
    /// adjacent positions, so they tend to land in one worker's block.
    pub fn for_each_in_order(&self, order: &[usize], f: impl Fn(usize) + Sync) {
        self.for_each_index(order.len(), |k| f(order[k]));
    }

    /// Parallel map over `0..count` collecting results in index order,
    /// claimed in blocks like [`for_each_index`](Self::for_each_index):
    /// for homogeneous per-index work.
    pub fn map_indices<R: Send>(&self, count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        self.map_claimed(count, self.claim_grain(count), f)
    }

    /// Splits `0..len` into roughly `tasks` contiguous chunks and runs `f`
    /// on each `(start, end)` in parallel. Chunk grain for flat loops over
    /// vertices/edges.
    pub fn for_each_chunk(&self, len: usize, tasks: usize, f: impl Fn(usize, usize) + Sync) {
        if len == 0 {
            return;
        }
        let tasks = tasks.max(1).min(len);
        self.for_each_index(tasks, |t| {
            let start = len * t / tasks;
            let end = len * (t + 1) / tasks;
            f(start, end);
        });
    }

    /// Executes `count` heterogeneous tasks, returning results **in
    /// task-index order**: slot `t` of the returned vector is `f(t)`, so a
    /// caller that merges in index order is deterministic across thread
    /// counts and schedules. The partitioned executor's fan-out: its tasks
    /// are the round's edge-balanced chunks, which *return* their typed
    /// output buffers instead of writing a shared bitmap.
    ///
    /// Tasks are claimed **one per `fetch_add`**, in ascending index order.
    /// They are already balanced units of work, so a block claim buys
    /// nothing and would hand one worker a run of consecutive chunks — of
    /// one heavy partition, typically — while a single-task claim lets
    /// every idle worker take the next chunk whoever its neighbours
    /// belong to. An epoch with fewer tasks than workers wakes only
    /// `count` of them.
    pub fn run_tasks<R: Send>(&self, count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        self.map_claimed(count, 1, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn respects_thread_count_and_spawns_lazily() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        assert_eq!(pool.spawns(), 0, "workers spawn on first use, not new()");
        let seen = AtomicUsize::new(0);
        pool.for_each_index(100, |_| {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), 100);
        assert_eq!(pool.spawns(), 3, "first epoch spawns exactly the crew");
        assert_eq!(pool.epochs(), 1);
    }

    #[test]
    fn workers_persist_across_epochs() {
        let pool = Pool::new(4);
        for _ in 0..50 {
            let hits = AtomicU64::new(0);
            pool.for_each_index(64, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 64);
        }
        assert_eq!(pool.spawns(), 4, "50 epochs must reuse the same 4 workers");
        assert_eq!(pool.epochs(), 50);
    }

    #[test]
    fn single_thread_pool_never_spawns() {
        let pool = Pool::new(1);
        let total = AtomicU64::new(0);
        pool.for_each_index(10, |i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 45);
        assert_eq!(pool.run_tasks(2, |t| t), vec![0, 1]);
        assert_eq!(pool.spawns(), 0);
        assert_eq!(pool.epochs(), 0);
    }

    #[test]
    fn dropping_a_parked_pool_joins_cleanly() {
        // Never used: no workers to join.
        drop(Pool::new(4));
        // Used once, then dropped while the crew is parked.
        let pool = Pool::new(4);
        pool.for_each_index(16, |_| {});
        assert_eq!(pool.spawns(), 4);
        drop(pool);
    }

    #[test]
    fn chunks_partition_the_range() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        pool.for_each_chunk(1003, 7, |s, e| {
            assert!(s < e);
            total.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1003);
    }

    #[test]
    fn chunks_handle_degenerate_sizes() {
        let pool = Pool::new(2);
        pool.for_each_chunk(0, 4, |_, _| panic!("no chunks for empty range"));
        let count = AtomicU64::new(0);
        pool.for_each_chunk(2, 100, |s, e| {
            count.fetch_add((e - s) as u64, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn jobs_run_counts_submitted_closures() {
        let pool = Pool::new(2);
        assert_eq!(pool.jobs_run(), 0);
        pool.for_each_index(5, |_| {});
        assert_eq!(pool.jobs_run(), 5);
        pool.for_each_in_order(&[2, 0, 1], |_| {});
        assert_eq!(pool.jobs_run(), 8);
        let _ = pool.map_indices(3, |i| i);
        assert_eq!(pool.jobs_run(), 11);
        pool.for_each_chunk(100, 4, |_, _| {});
        assert_eq!(pool.jobs_run(), 15);
        // Degenerate loops submit nothing.
        pool.for_each_chunk(0, 4, |_, _| {});
        pool.for_each_index(0, |_| {});
        assert_eq!(pool.jobs_run(), 15);
    }

    /// Pins what `for_each_in_order` actually guarantees: every entry runs
    /// exactly once, and each worker thread executes the positions it
    /// claims in ascending order. Position is *not* a cross-worker
    /// execution priority — the blocks run concurrently — so the test
    /// asserts per-thread monotonicity, never a global order.
    #[test]
    fn in_order_runs_each_entry_once_ascending_per_worker() {
        let pool = Pool::new(4);
        let len = 64;
        // A non-trivial permutation (17 is coprime with 64) so entry value
        // and position differ; `pos_of[v]` inverts it.
        let order: Vec<usize> = (0..len).map(|k| (k * 17 + 3) % len).collect();
        let mut pos_of = vec![0usize; len];
        for (k, &v) in order.iter().enumerate() {
            pos_of[v] = k;
        }
        let log = Mutex::new(Vec::<(std::thread::ThreadId, usize)>::new());
        pool.for_each_in_order(&order, |v| {
            log.lock().unwrap().push((std::thread::current().id(), v));
        });
        let log = log.into_inner().unwrap();
        assert_eq!(log.len(), len, "every entry ran");
        let mut seen: Vec<usize> = log.iter().map(|&(_, v)| v).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..len).collect::<Vec<_>>(),
            "each entry exactly once"
        );
        // Per-thread position sequences are strictly ascending: a worker
        // walks its claimed blocks front to back, and claims blocks in
        // ascending order.
        let mut last: std::collections::HashMap<std::thread::ThreadId, usize> =
            std::collections::HashMap::new();
        for &(tid, v) in &log {
            let k = pos_of[v];
            if let Some(&prev) = last.get(&tid) {
                assert!(prev < k, "worker went backwards: position {prev} then {k}");
            }
            last.insert(tid, k);
        }
    }

    /// The one claim loop, through all three entry points: every index
    /// runs exactly once and mapped results land in index order, for task
    /// counts around the crew width at every width.
    #[test]
    fn every_index_runs_once_and_results_keep_task_order() {
        for threads in [1usize, 2, 4] {
            let pool = Pool::new(threads);
            for count in [0, 1, threads - 1, threads, 97] {
                let runs: Vec<AtomicU64> = (0..count).map(|_| AtomicU64::new(0)).collect();
                let hit = |i: usize| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    i * 10
                };
                let expected: Vec<usize> = (0..count).map(|i| i * 10).collect();
                assert_eq!(pool.run_tasks(count, hit), expected);
                assert_eq!(pool.map_indices(count, hit), expected);
                pool.for_each_index(count, |i| {
                    hit(i);
                });
                assert!(
                    runs.iter().all(|r| r.load(Ordering::Relaxed) == 3),
                    "T={threads} count={count}: an index ran twice or never"
                );
            }
        }
    }

    /// The property work stealing existed for, pinned without a clock:
    /// task 0 cannot finish until every other task has. With tasks claimed
    /// one at a time from a shared cursor the worker holding task 0 strands
    /// nothing, so the rest drain through the other workers and the call
    /// returns; a static or seeded per-worker split would queue part of
    /// them behind task 0 and hang here.
    #[test]
    fn a_blocked_task_strands_no_other_task() {
        for threads in [2usize, 4] {
            let pool = Pool::new(threads);
            let count = 8 * threads;
            let others_done = AtomicUsize::new(0);
            let results = pool.run_tasks(count, |t| {
                if t == 0 {
                    while others_done.load(Ordering::Acquire) < count - 1 {
                        std::thread::yield_now();
                    }
                } else {
                    others_done.fetch_add(1, Ordering::Release);
                }
                t
            });
            assert_eq!(results, (0..count).collect::<Vec<_>>());
        }
    }

    /// Wake accounting: an epoch is as wide as it has claims to make, so a
    /// list shorter than the crew wakes only `count` workers, a single
    /// task or an empty list dispatches no epoch at all.
    #[test]
    fn narrow_epochs_wake_only_the_needed_workers() {
        let pool = Pool::new(4);
        pool.for_each_index(64, |_| {});
        assert_eq!(pool.wakes(), 4, "a long loop wakes the whole crew");
        assert_eq!(pool.run_tasks(3, |t| t), vec![0, 1, 2]);
        assert_eq!(pool.wakes(), 7, "3-task epoch adds 3 wakes");
        pool.for_each_index(2, |_| {});
        assert_eq!(pool.wakes(), 9, "2-index loop adds 2 wakes");
        let (epochs, jobs) = (pool.epochs(), pool.jobs_run());
        assert_eq!(pool.run_tasks(1, |t| t + 9), vec![9]);
        assert_eq!(pool.jobs_run(), jobs + 1);
        let none: Vec<usize> = pool.run_tasks(0, |_| unreachable!("no tasks"));
        assert!(none.is_empty());
        assert_eq!(pool.jobs_run(), jobs + 1, "an empty list submits nothing");
        assert_eq!(pool.epochs(), epochs, "0- and 1-task calls run inline");
        assert_eq!(pool.wakes(), 9, "inline calls wake nobody");
    }

    /// A panicking job must not wedge the crew: the panic surfaces on the
    /// dispatcher **with its original payload** (as joining a scoped
    /// thread would re-raise it) and the pool keeps working afterwards.
    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        let payload = result.expect_err("the worker panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("boom"),
            "the original payload must survive the crew"
        );
        // Same through the task-list entry point.
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks(8, |t| if t == 5 { panic!("task boom") } else { t })
        }));
        let payload = result.expect_err("the task panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>().copied(), Some("task boom"));
        // The crew is still alive and serves the next epoch.
        assert_eq!(pool.run_tasks(16, |t| t), (0..16).collect::<Vec<_>>());
        assert_eq!(pool.spawns(), 2);
    }

    /// Regression: dropping a pool whose crew-state mutex was poisoned
    /// used to `unwrap()` inside `Drop` — a panic-in-drop, which aborts
    /// the process. Poison the state lock directly (a panic raised while
    /// a guard is held, exactly what `job.expect(...)` or a failing
    /// `debug_assert!` under the lock would do), then check the crew
    /// keeps dispatching and the pool still tears down cleanly.
    #[test]
    fn pool_drops_cleanly_after_state_lock_poison() {
        let pool = Pool::new(2);
        // Run something first so the crew exists.
        pool.for_each_index(4, |_| {});
        let crew = pool.crew();
        let shared = Arc::clone(&crew.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("poison the crew state");
        })
        .join();
        assert!(crew.shared.state.is_poisoned());
        // Workers and the dispatcher tolerate the poison.
        let hits = AtomicU64::new(0);
        pool.for_each_index(8, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        drop(pool); // must join the crew, not abort
    }

    /// The full teardown-after-panic path from the issue: a worker job
    /// panics (caught and re-raised by the dispatcher), then the pool is
    /// dropped. With a poisoned lock anywhere on that path the drop would
    /// abort the process and the test runner would die with it.
    #[test]
    fn pool_drops_cleanly_after_worker_panic() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.for_each_index(8, |i| {
                if i == 1 {
                    panic!("teardown boom");
                }
            });
        }));
        assert!(result.is_err());
        drop(pool);
    }
}
