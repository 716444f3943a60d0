//! Persistent fork-join thread pool with an explicit thread count, plus the
//! deque-based work-stealing scheduler behind chunk-granular execution.
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
//! Two execution styles share the crew:
//!
//! * the structured loops (`for_each_index`, `map_indices`, …) hand
//!   workers contiguous index blocks claimed from a shared atomic cursor
//!   (one `fetch_add` per block) — right for homogeneous work, and robust
//!   to a worker being descheduled mid-epoch, which under a fixed
//!   per-worker split would strand that worker's whole range behind the
//!   completion latch;
//! * [`run_stealing`](Pool::run_stealing) schedules a *heterogeneous* task
//!   list (the partitioned executor's edge-balanced chunks) over per-worker
//!   deques with NUMA-domain-affine stealing: tasks are seeded onto a
//!   worker of their owning domain, idle workers first raid deques of their
//!   own domain and only then cross domains. Results are returned **keyed
//!   by task index**, so callers merge deterministically no matter which
//!   worker ran what.
//!
//! The pool is not reentrant: a job closure must not invoke parallel
//! operations on the pool that is running it (the workers it would need
//! are the ones executing it). Concurrent dispatches from *different*
//! threads serialize on an internal lock.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One worker's contribution to a [`Pool::run_stealing`] call: the
/// `(task index, result)` pairs it produced plus its local tally.
type WorkerResults<R> = Mutex<(Vec<(usize, R)>, StealTally)>;

/// Raw pointer into [`Pool::map_indices`]'s pre-sized result vector,
/// shared across workers. Sound because the cursor-claimed blocks
/// partition the index space: no slot is ever written by two workers.
struct RawSlots<R>(*mut std::mem::MaybeUninit<R>);

// SAFETY: workers only `write` disjoint slots (see `Pool::map_indices`),
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

/// Most tasks one claim from the worker's *own* deque transfers into its
/// private run buffer. Claimed tasks are no longer stealable, so the batch
/// size bounds how much work a slow worker can hold back from rebalancing
/// (`CLAIM_BATCH × cap` edges). Steals are *not* capped by this: a thief
/// takes half the victim's remaining deque in one lock, because on a crew
/// timesharing fewer cores than workers the victim is usually descheduled
/// and the thief would otherwise come straight back, paying a lock trip
/// per `CLAIM_BATCH` tasks and fragmenting the victim's contiguous run.
/// Batching matters most on such crews, where every contended deque
/// handoff costs a scheduler trip.
const CLAIM_BATCH: usize = 4;

/// Average atomic-cursor claims per worker in the structured loops
/// ([`Pool::for_each_index`] / [`Pool::map_indices`]): the claim grain is
/// `count / (threads × CLAIM_OVERSUBSCRIPTION)`, so a straggler strands at
/// most `1 / (threads × 4)` of the loop instead of its whole fixed share,
/// at a cost of ~4 `fetch_add`s per worker per epoch.
const CLAIM_OVERSUBSCRIPTION: usize = 4;

/// What one [`Pool::run_stealing`] call observed: how many tasks executed
/// and how work migrated between workers. Steal counts are *diagnostics* —
/// they depend on timing — while the returned results never do. The
/// invariant `executed == task count` holds on return of every epoch (the
/// unclaimed-task latch guarantees each task is claimed exactly once).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StealTally {
    /// Tasks executed (always the full task count on return).
    pub executed: u64,
    /// Tasks a worker claimed from another worker's deque.
    pub steals: u64,
    /// Steals in which the thief and victim workers sit in different
    /// *physical host* NUMA domains (probed from
    /// `/sys/devices/system/node`). The simulated topology steers seeding
    /// and victim order, but locality diagnostics describe the machine the
    /// epoch actually ran on — on a single-domain host no steal crosses a
    /// domain, however many domains are simulated.
    pub cross_domain_steals: u64,
}

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

/// A fixed-width work-stealing pool with persistent workers.
pub struct Pool {
    threads: usize,
    /// Physical NUMA domains of the host this pool runs on (probed from
    /// `/sys/devices/system/node`, 1 when unreadable). Used only to
    /// attribute cross-domain steals to the real machine topology.
    host_domains: usize,
    /// Closure invocations executed through the structured loops below;
    /// lets tests assert that work was (or was not) submitted to the pool.
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
    /// Worker wake-ups requested across all epochs: `width` per narrow
    /// epoch, `threads` per full-width epoch.
    wakes: AtomicU64,
}

/// Counts `/sys/devices/system/node/node<N>` entries; 1 when the sysfs
/// tree is absent (non-Linux, containers with masked sysfs).
fn probe_host_domains() -> usize {
    static PROBED: OnceLock<usize> = OnceLock::new();
    *PROBED.get_or_init(|| {
        std::fs::read_dir("/sys/devices/system/node")
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| {
                        e.file_name().to_str().is_some_and(|n| {
                            n.strip_prefix("node").is_some_and(|s| {
                                !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
                            })
                        })
                    })
                    .count()
            })
            .unwrap_or(0)
            .max(1)
    })
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
        Self::with_host_domains(threads, probe_host_domains())
    }

    /// Like [`new`](Self::new) but with an explicit physical-domain count
    /// instead of the sysfs probe. Lets tests and benchmarks pin the
    /// steal-attribution topology regardless of the machine they run on.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_host_domains(threads: usize, host_domains: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        Pool {
            threads,
            host_domains: host_domains.max(1),
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

    /// Total closure invocations executed through the structured loops
    /// (`for_each_index`, `for_each_in_order`, `map_indices`,
    /// `for_each_chunk`) and [`run_stealing`](Self::run_stealing) tasks.
    /// Monotonic; used by tests to prove that empty partitions are skipped
    /// without submitting pool work.
    #[inline]
    pub fn jobs_run(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Credits `n` closure invocations to the `jobs_run` counter with one
    /// `fetch_add` — the structured loops call this once per worker block
    /// instead of once per index, keeping the counter off the hot path
    /// (`run_stealing` batches the same way via `StealTally::executed`).
    #[inline]
    fn count_jobs(&self, n: usize) {
        self.jobs.fetch_add(n as u64, Ordering::Relaxed);
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
        if width < self.threads {
            self.wakes.fetch_add(width as u64, Ordering::Relaxed);
            for _ in 0..width {
                crew.shared.work_cv.notify_one();
            }
        } else {
            self.wakes.fetch_add(self.threads as u64, Ordering::Relaxed);
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

    /// The contiguous block of `0..len` worker `w` owns in a block-wise
    /// loop.
    #[inline]
    fn block(&self, len: usize, w: usize) -> std::ops::Range<usize> {
        len * w / self.threads..len * (w + 1) / self.threads
    }

    /// The block size workers claim per `fetch_add` in a cursor-claimed
    /// loop: `CLAIM_OVERSUBSCRIPTION` claims per worker on average, so a
    /// straggler strands at most one block instead of a whole fixed
    /// per-worker split, while short loops still claim in one or two
    /// `fetch_add`s per worker.
    #[inline]
    fn claim_grain(&self, count: usize) -> usize {
        (count / (self.threads * CLAIM_OVERSUBSCRIPTION)).max(1)
    }

    /// Parallel loop over `0..count` with one call per index. Used for
    /// per-partition execution: the closure for partition `p` runs on
    /// exactly one worker, giving the exclusive-update guarantee.
    ///
    /// Indices are claimed from a shared atomic cursor in blocks of
    /// [`claim_grain`](Self::claim_grain) indices (one `fetch_add` per
    /// block), not pre-split per worker: a worker descheduled by the host
    /// OS strands at most one unclaimed block, so stragglers on a
    /// timesharing crew no longer serialise the epoch tail. Each worker's
    /// claimed indices are strictly ascending (the cursor is monotonic and
    /// blocks run front-to-back).
    pub fn for_each_index(&self, count: usize, f: impl Fn(usize) + Sync) {
        if count == 0 {
            return;
        }
        if self.threads == 1 || count == 1 {
            self.count_jobs(count);
            for i in 0..count {
                f(i);
            }
            return;
        }
        let grain = self.claim_grain(count);
        let cursor = AtomicUsize::new(0);
        self.dispatch(self.threads, &|_w| loop {
            let lo = cursor.fetch_add(grain, Ordering::Relaxed);
            if lo >= count {
                break;
            }
            let hi = (lo + grain).min(count);
            self.count_jobs(hi - lo);
            for i in lo..hi {
                f(i);
            }
        });
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

    /// Parallel map over `0..count` collecting results in index order.
    ///
    /// Also the typed-output fan-out primitive of the partitioned
    /// executor: partition tasks *return* their per-partition buffers
    /// (sparse vertex lists or dense bitmap segments) in submission order
    /// instead of writing a shared bitmap, and the caller merges them
    /// deterministically.
    pub fn map_indices<R: Send>(&self, count: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if count == 0 {
            return Vec::new();
        }
        if self.threads == 1 || count == 1 {
            self.count_jobs(count);
            return (0..count).map(&f).collect();
        }
        // Workers claim contiguous ascending blocks of *disjoint* slots in
        // one pre-sized output vector: no per-worker buffers, no mutex
        // handoff, no post-epoch append pass — the filled vector already
        // is the result in index order.
        let mut results: Vec<std::mem::MaybeUninit<R>> = Vec::with_capacity(count);
        // SAFETY: uninitialised is a valid state for `MaybeUninit` slots.
        unsafe { results.set_len(count) };
        let slots = RawSlots(results.as_mut_ptr());
        let grain = self.claim_grain(count);
        let cursor = AtomicUsize::new(0);
        self.dispatch(self.threads, &|_w| loop {
            let lo = cursor.fetch_add(grain, Ordering::Relaxed);
            if lo >= count {
                break;
            }
            let hi = (lo + grain).min(count);
            self.count_jobs(hi - lo);
            for i in lo..hi {
                let v = f(i);
                // SAFETY: the atomic cursor hands out disjoint blocks of
                // `0..count`, so each index is written by exactly one
                // worker exactly once; the vector outlives the dispatch
                // because `dispatch` blocks until every worker finished
                // claiming and running its blocks.
                unsafe { slots.write(i, v) };
            }
        });
        // SAFETY: the claimed blocks tile `0..count` exactly, so every
        // slot is initialised once `dispatch` returns. (If `f` panicked,
        // `dispatch` resumed the unwind above and the written elements
        // leak without their destructors — safe, merely unclean.)
        let (ptr, len, cap) = (
            results.as_mut_ptr() as *mut R,
            results.len(),
            results.capacity(),
        );
        std::mem::forget(results);
        unsafe { Vec::from_raw_parts(ptr, len, cap) }
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

    /// Parallel sum of `f(i)` over `0..count`.
    pub fn sum_u64(&self, count: usize, f: impl Fn(usize) -> u64 + Sync) -> u64 {
        if count == 0 {
            return 0;
        }
        if self.threads == 1 || count == 1 {
            return (0..count).map(&f).sum();
        }
        let total = AtomicU64::new(0);
        self.dispatch(self.threads, &|w| {
            let partial: u64 = self.block(count, w).map(&f).sum();
            total.fetch_add(partial, Ordering::Relaxed);
        });
        total.into_inner()
    }

    /// Executes `task_domain.len()` heterogeneous tasks over per-worker
    /// deques with NUMA-domain-affine work stealing, returning results **in
    /// task-index order** plus a [`StealTally`].
    ///
    /// `task_domain[t]` names the (simulated) domain that owns task `t`
    /// under a topology of `domains` domains. Workers are block-assigned to
    /// domains the same way partitions are; each task is seeded onto a
    /// deque of a worker of its owning domain (contiguous blocks within
    /// the domain). A worker drains its own deque front-to-back (seeded
    /// order), and when dry steals from the front of a victim's deque —
    /// taking the victim's next seeded tasks, which keeps the global
    /// execution order close to ascending task index and therefore keeps
    /// memory walks sequential — visiting same-domain victims first, then
    /// the remaining domains in ascending wrap-around order, so work
    /// leaves its domain only when the whole domain has run dry.
    ///
    /// One call is one **epoch** of the persistent crew: the deques are
    /// seeded, the parked workers wake, and the call returns when the
    /// completion latch confirms every task ran exactly once (which is why
    /// the returned tally always satisfies `executed == task count`). No
    /// deque or latch state survives into the next epoch.
    ///
    /// The schedule (who ran what, who stole what) is timing-dependent;
    /// the *output* is not: slot `t` of the returned vector is `f(t)`, so a
    /// caller that merges results in index order is deterministic across
    /// thread counts, chunk sizes and steal schedules.
    pub fn run_stealing<R: Send>(
        &self,
        domains: usize,
        task_domain: &[usize],
        f: impl Fn(usize) -> R + Sync,
    ) -> (Vec<R>, StealTally) {
        let tasks = task_domain.len();
        if tasks == 0 {
            return (Vec::new(), StealTally::default());
        }
        let domains = domains.max(1);
        // Inline fast path: one worker (or one task) steals from no one.
        let workers = self.threads.min(tasks);
        if workers == 1 {
            self.count_jobs(tasks);
            let results = (0..tasks).map(&f).collect();
            return (
                results,
                StealTally {
                    executed: tasks as u64,
                    ..StealTally::default()
                },
            );
        }

        // Block worker→domain assignment, mirroring
        // `NumaTopology::domain_of_partition` so a domain's workers are the
        // ones its partitions' chunks are seeded onto.
        let worker_domain = |w: usize| -> usize {
            if workers <= domains {
                w
            } else {
                (w * domains) / workers
            }
        };
        let mut domain_workers: Vec<Vec<usize>> = vec![Vec::new(); domains];
        for w in 0..workers {
            let d = worker_domain(w).min(domains - 1);
            domain_workers[d].push(w);
        }

        // Seed the deques: task t goes to a worker of its domain, in
        // contiguous ascending blocks — the domain's k-th worker owns the
        // k-th run of its task list, so a worker draining its own deque
        // front-to-back executes consecutive task indices. Consecutive
        // chunks scan adjacent destination ranges, so block seeding keeps
        // every worker's walk sequential through the CSC and the operator
        // state (a round-robin deal would hand each worker every n-th
        // chunk: equally balanced, but stride-n through memory). Domains
        // with no worker of their own (more domains than workers) fall
        // back to the block-inverse worker.
        let mut domain_tasks: Vec<Vec<usize>> = vec![Vec::new(); domains];
        for (t, &d) in task_domain.iter().enumerate() {
            domain_tasks[d.min(domains - 1)].push(t);
        }
        let mut seeded: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for (d, ts) in domain_tasks.into_iter().enumerate() {
            let owners = &domain_workers[d];
            if owners.is_empty() {
                let w = (d * workers / domains).min(workers - 1);
                seeded[w].extend(ts);
                continue;
            }
            let n = ts.len();
            for (i, t) in ts.into_iter().enumerate() {
                seeded[owners[i * owners.len() / n.max(1)]].push_back(t);
            }
        }
        let deques: Vec<Mutex<VecDeque<usize>>> = seeded.into_iter().map(Mutex::new).collect();

        // Victim orders: same-domain workers first (index order, skipping
        // self), then the other domains in ascending wrap-around order.
        let victim_order: Vec<Vec<usize>> = (0..workers)
            .map(|w| {
                let my_domain = worker_domain(w).min(domains - 1);
                let mut order: Vec<usize> = Vec::with_capacity(workers - 1);
                for dd in 0..domains {
                    let d = (my_domain + dd) % domains;
                    order.extend(domain_workers[d].iter().copied().filter(|&v| v != w));
                }
                order
            })
            .collect();

        // Physical host domain of an active worker slot, block-assigned
        // like the simulated domains. Steal-locality diagnostics reflect
        // the machine the epoch actually ran on: attributing by the
        // *simulated* task domain would count every steal on a
        // single-domain host as cross-domain.
        let hd = self.host_domains;
        let phys_domain = |w: usize| -> usize {
            if workers <= hd {
                w
            } else {
                (w * hd) / workers
            }
        };

        // Unclaimed-task count: a worker exits once every task is claimed
        // (the claimant finishes it before the epoch's latch drains).
        let remaining = AtomicUsize::new(tasks);
        let worker_out: Vec<WorkerResults<R>> = (0..workers)
            .map(|_| Mutex::new((Vec::new(), StealTally::default())))
            .collect();

        // Width hint: an epoch with fewer tasks than crew workers wakes
        // only the workers that have a deque.
        self.dispatch(workers, &|w| {
            debug_assert!(w < workers, "slot index exceeds the epoch width");
            let victim_order = &victim_order[w];
            // Sized for an even share plus stolen overflow: growing this
            // mid-epoch memmoves every produced buffer.
            let mut results: Vec<(usize, R)> = Vec::with_capacity(2 * tasks.div_ceil(workers));
            let mut tally = StealTally::default();
            let mut dry_scans = 0u32;
            // Claimed-but-not-yet-run tasks, executed back-to-front so the
            // seeded (front-first) order is preserved. Claiming in batches
            // bounds the deque lock traffic by the batch count, not the
            // chunk count — on a crew timesharing fewer cores than workers
            // every contended unlock is a scheduler trip, and per-chunk
            // locking was the measurable difference between fine-chunked
            // and partition-granular plans.
            let mut claimed: Vec<usize> = Vec::with_capacity(CLAIM_BATCH);
            loop {
                if let Some(t) = claimed.pop() {
                    dry_scans = 0;
                    tally.executed += 1;
                    results.push((t, f(t)));
                    continue;
                }
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                // Refill: own deque first, seeded order.
                {
                    let mut dq = deques[w].lock().unwrap();
                    while claimed.len() < CLAIM_BATCH {
                        match dq.pop_front() {
                            Some(t) => claimed.push(t),
                            None => break,
                        }
                    }
                }
                if claimed.is_empty() {
                    // Every seeded task of ours is claimed: steal a run —
                    // the victim's next seeded tasks, half of what remains,
                    // so the victim keeps work. Stealing from the FRONT
                    // (not the classic back-steal) keeps the global
                    // execution order close to seeded order: chunks of one
                    // partition scan contiguous CSC/state ranges, and on
                    // hosts where workers share cache a thief that runs the
                    // victim's *next* chunk extends a warm sequential scan
                    // instead of cold-starting the partition's tail.
                    // Mutex-guarded deques have no lock-free owner/thief
                    // asymmetry, so nothing is lost by taking the same end
                    // the owner pops. The half-run is deliberately NOT
                    // capped at CLAIM_BATCH: on a timesharing crew the
                    // victim is usually descheduled, and a capped thief
                    // would come straight back — one lock trip per batch —
                    // while chopping the victim's block into stride-sized
                    // fragments.
                    for &v in victim_order {
                        let mut dq = deques[v].lock().unwrap();
                        let Some(first) = dq.pop_front() else {
                            continue;
                        };
                        claimed.push(first);
                        let take = dq.len() / 2;
                        claimed.extend((0..take).filter_map(|_| dq.pop_front()));
                        drop(dq);
                        let stolen = claimed.len() as u64;
                        tally.steals += stolen;
                        if phys_domain(v) != phys_domain(w) {
                            tally.cross_domain_steals += stolen;
                        }
                        break;
                    }
                }
                match claimed.len() {
                    0 => {
                        // Every deque was dry but tasks are still in
                        // flight: back off instead of hammering the busy
                        // workers' deque mutexes until the last chunk
                        // finishes.
                        dry_scans += 1;
                        if dry_scans < 16 {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(std::time::Duration::from_micros(20));
                        }
                    }
                    k => {
                        remaining.fetch_sub(k, Ordering::AcqRel);
                        // Back-to-front execution order: reverse so the
                        // batch runs oldest-first.
                        claimed.reverse();
                    }
                }
            }
            debug_assert!(claimed.is_empty(), "claimed tasks must all have run");
            // One jobs-counter update per worker per epoch, not one RMW on
            // the shared counter per chunk.
            self.jobs.fetch_add(tally.executed, Ordering::Relaxed);
            *worker_out[w].lock().unwrap() = (results, tally);
        });

        // Scatter worker results back into task-index order.
        let mut slots: Vec<Option<R>> = (0..tasks).map(|_| None).collect();
        let mut total = StealTally::default();
        for cell in worker_out {
            let (results, tally) = cell.into_inner().unwrap();
            total.executed += tally.executed;
            total.steals += tally.steals;
            total.cross_domain_steals += tally.cross_domain_steals;
            for (t, r) in results {
                debug_assert!(slots[t].is_none(), "task {t} ran twice");
                slots[t] = Some(r);
            }
        }
        let results = slots
            .into_iter()
            .map(|s| s.expect("every task must have run exactly once"))
            .collect();
        debug_assert_eq!(total.executed, tasks as u64);
        (results, total)
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
        let (r, _) = pool.run_stealing(2, &[0, 1], |t| t);
        assert_eq!(r, vec![0, 1]);
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
    fn for_each_index_covers_all() {
        let pool = Pool::new(4);
        let hits = AtomicU64::new(0);
        pool.for_each_index(100, |i| {
            hits.fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100 * 101 / 2);
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
    fn map_preserves_order() {
        let pool = Pool::new(4);
        let v = pool.map_indices(50, |i| i * i);
        assert_eq!(v[7], 49);
        assert_eq!(v.len(), 50);
        assert_eq!(v, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sum_matches() {
        let pool = Pool::new(2);
        assert_eq!(pool.sum_u64(10, |i| i as u64), 45);
        assert_eq!(pool.sum_u64(0, |_| unreachable!()), 0);
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
        let log: Mutex<Vec<(std::thread::ThreadId, usize)>> = Mutex::new(Vec::new());
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

    #[test]
    fn stealing_returns_results_in_task_order() {
        let pool = Pool::new(4);
        let domains = [0usize, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0];
        let (results, tally) = pool.run_stealing(2, &domains, |t| t * 10);
        assert_eq!(results, (0..11).map(|t| t * 10).collect::<Vec<_>>());
        assert_eq!(tally.executed, 11);
        assert!(tally.steals >= tally.cross_domain_steals);
    }

    #[test]
    fn stealing_single_thread_runs_inline_without_steals() {
        let pool = Pool::new(1);
        let before = pool.jobs_run();
        let (results, tally) = pool.run_stealing(4, &[0, 1, 2, 3], |t| t + 1);
        assert_eq!(results, vec![1, 2, 3, 4]);
        assert_eq!(tally.steals, 0);
        assert_eq!(tally.cross_domain_steals, 0);
        assert_eq!(pool.jobs_run(), before + 4);
    }

    #[test]
    fn stealing_empty_task_list_is_a_no_op() {
        let pool = Pool::new(2);
        let before = pool.jobs_run();
        let (results, tally) = pool.run_stealing(2, &[], |_| unreachable!("no tasks"));
        assert!(results.is_empty() && tally == StealTally::default());
        assert_eq!(pool.jobs_run(), before);
    }

    /// All tasks homed to domain 0 of a 2-domain, 2-worker pool seed onto
    /// worker 0's deque alone; worker 1 (domain 1) can make progress only
    /// by stealing, and on a 2-domain *host* every such steal crosses
    /// physical domains. The per-task spin keeps worker 0 busy long enough
    /// that worker 1 reliably gets some.
    #[test]
    fn idle_domain_steals_across_domains() {
        let pool = Pool::with_host_domains(2, 2);
        let domains = vec![0usize; 4000];
        let spin = AtomicU64::new(0);
        let (results, tally) = pool.run_stealing(2, &domains, |t| {
            for i in 0..500u64 {
                spin.fetch_add(i, Ordering::Relaxed);
            }
            t
        });
        assert_eq!(results.len(), 4000);
        assert!(results.iter().enumerate().all(|(i, &r)| i == r));
        assert_eq!(tally.executed, 4000);
        assert!(tally.steals > 0, "the idle domain must have stolen");
        assert_eq!(
            tally.steals, tally.cross_domain_steals,
            "every steal from domain 0 by the domain-1 worker crosses domains"
        );
    }

    /// Same seeding skew, but the *host* has a single NUMA domain: the
    /// idle worker still steals, yet no steal is cross-domain, because
    /// both workers share the one physical domain regardless of the
    /// simulated topology. (This pins the attribution bug where every
    /// steal on a 1-domain host was counted as cross-domain.)
    #[test]
    fn single_domain_host_counts_no_cross_domain_steals() {
        let pool = Pool::with_host_domains(2, 1);
        let domains = vec![0usize; 4000];
        let spin = AtomicU64::new(0);
        let (results, tally) = pool.run_stealing(2, &domains, |t| {
            for i in 0..500u64 {
                spin.fetch_add(i, Ordering::Relaxed);
            }
            t
        });
        assert_eq!(results.len(), 4000);
        assert_eq!(tally.executed, 4000);
        assert!(tally.steals > 0, "the idle worker must have stolen");
        assert_eq!(
            tally.cross_domain_steals, 0,
            "a single-domain host has no cross-domain steals"
        );
    }

    /// More domains than workers: every domain still gets a home worker
    /// via the block inverse, and all tasks run exactly once.
    #[test]
    fn stealing_handles_more_domains_than_workers() {
        let pool = Pool::new(2);
        let domains: Vec<usize> = (0..40).map(|t| t % 8).collect();
        let (results, tally) = pool.run_stealing(8, &domains, |t| t as u64);
        assert_eq!(results, (0..40u64).collect::<Vec<_>>());
        assert_eq!(tally.executed, 40);
    }

    /// More crew workers than tasks: the epoch's width hint shrinks to the
    /// task count, so only that many workers are woken and the surplus
    /// stays parked.
    #[test]
    fn stealing_with_fewer_tasks_than_threads() {
        let pool = Pool::new(4);
        let (results, tally) = pool.run_stealing(2, &[0, 1], |t| t * 7);
        assert_eq!(results, vec![0, 7]);
        assert_eq!(tally.executed, 2);
        assert_eq!(pool.wakes(), 2, "a 2-task epoch must wake only 2 workers");
    }

    /// Wake accounting across epoch widths: structured loops use the full
    /// crew, narrow stealing epochs wake `min(tasks, threads)` workers,
    /// and single-task calls run inline without an epoch at all.
    #[test]
    fn narrow_epochs_wake_only_the_needed_workers() {
        let pool = Pool::new(4);
        pool.for_each_index(64, |_| {});
        assert_eq!(pool.wakes(), 4, "full-width epoch wakes the whole crew");
        let (r, _) = pool.run_stealing(2, &[0, 1, 0], |t| t);
        assert_eq!(r, vec![0, 1, 2]);
        assert_eq!(pool.wakes(), 7, "3-task epoch adds 3 wakes");
        let epochs = pool.epochs();
        let (r, _) = pool.run_stealing(2, &[0], |t| t + 9);
        assert_eq!(r, vec![9]);
        assert_eq!(pool.epochs(), epochs, "single-task calls run inline");
        assert_eq!(pool.wakes(), 7, "inline calls wake nobody");
    }

    #[test]
    fn ordered_loop_runs_all() {
        let pool = Pool::new(2);
        let order = vec![3, 1, 0, 2];
        let mask = AtomicU64::new(0);
        pool.for_each_in_order(&order, |i| {
            mask.fetch_or(1 << i, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
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
        // The crew is still alive and consistent.
        let hits = AtomicU64::new(0);
        pool.for_each_index(16, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
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
