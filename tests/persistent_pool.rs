//! Stress suite for the persistent worker pool.
//!
//! `Pool` spawns its workers once, parks them on a condvar, and runs every
//! parallel operation as an epoch (publish job → wake → join via a
//! completion latch). These tests pin the lifecycle guarantees the
//! executor builds on:
//!
//! 1. **No stale state across epochs**: one `Pool` reused across 50
//!    consecutive edge maps produces the same frontiers and values as 50
//!    fresh single-use runs — no cursor, latch or result-slot state leaks
//!    from one epoch into the next.
//! 2. **Shutdown from parked**: dropping a pool whose workers are parked
//!    (or were never spawned) joins cleanly, without a dispatch in flight.
//! 3. **Every task exactly once**: `run_tasks` returns `f(t)` in slot `t`
//!    and credits exactly the task count to `jobs_run()` on every epoch,
//!    whatever the list length.
//! 4. **Spawn accounting**: `spawns()` rises to the thread count once and
//!    never again, while `epochs()` tracks dispatches — the observable
//!    difference from the scoped-thread executor this replaced.
//!
//! Every test runs at 1 thread (the inline path) and at 4.

use std::sync::atomic::{AtomicU64, Ordering};

use graphgrind::algorithms;
use graphgrind::core::config::{Config, ExecutorKind};
use graphgrind::core::engine::{Engine, GraphGrind2};
use graphgrind::graph::generators::{self, RmatParams};
use graphgrind::runtime::pool::Pool;

/// Thread counts under test: the inline path and a real crew.
const THREADS: [usize; 2] = [1, 4];

fn engine(threads: usize) -> GraphGrind2 {
    let el = generators::rmat(8, 4000, RmatParams::skewed(), 17);
    let cfg = Config {
        threads,
        num_partitions: 8,
        domains: 2,
        executor: ExecutorKind::Partitioned,
        chunk_edges: graphgrind::core::config::ChunkCap::Fixed(64),
        ..Config::default()
    };
    GraphGrind2::new(&el, cfg)
}

/// 50 consecutive edge maps through one engine (one pool) reproduce the
/// run of a fresh engine every time: reused cursors/latches carry no stale
/// state between epochs.
#[test]
fn fifty_edge_maps_reuse_one_pool_deterministically() {
    for t in THREADS {
        let shared = engine(t);
        let reference = algorithms::bfs(&engine(t), 0);
        for run in 0..50 {
            let got = algorithms::bfs(&shared, 0);
            assert_eq!(got.level, reference.level, "levels diverged, run {run}");
            assert_eq!(got.parent, reference.parent, "parents diverged, run {run}");
            assert_eq!(got.rounds, reference.rounds, "rounds diverged, run {run}");
        }
        if t > 1 {
            assert_eq!(
                shared.pool().spawns(),
                t as u64,
                "50 runs must reuse one spawned crew"
            );
            assert!(
                shared.pool().epochs() > 50,
                "each run dispatches several epochs: {}",
                shared.pool().epochs()
            );
        } else {
            assert_eq!(shared.pool().spawns(), 0, "1-thread pools run inline");
        }
    }
}

/// Raw `run_tasks` reuse: 50 epochs with varying list lengths on one pool
/// return exact results each time and submit exactly the task count.
#[test]
fn fifty_task_epochs_run_every_task_exactly_once() {
    for t in THREADS {
        let pool = Pool::new(t);
        for epoch in 0..50usize {
            // Vary the task count per epoch so a stale cursor or slot
            // (were any to survive) would immediately corrupt results.
            let tasks = 1 + (epoch * 7) % 97;
            let before = pool.jobs_run();
            let results = pool.run_tasks(tasks, |i| i * i);
            assert_eq!(
                results,
                (0..tasks).map(|i| i * i).collect::<Vec<_>>(),
                "epoch {epoch}"
            );
            assert_eq!(pool.jobs_run(), before + tasks as u64, "epoch {epoch}");
        }
        assert_eq!(pool.spawns(), if t > 1 { t as u64 } else { 0 });
    }
}

/// Dropping a pool whose workers are parked (between epochs) joins
/// cleanly; so does dropping one that never spawned.
#[test]
fn drop_while_parked_shuts_down_cleanly() {
    for t in THREADS {
        // Never used.
        drop(Pool::new(t));

        // Used, then left parked: workers are waiting on the condvar when
        // the shutdown flag arrives.
        let pool = Pool::new(t);
        let hits = AtomicU64::new(0);
        pool.for_each_index(100, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        // Give the workers a moment to actually park (they decrement the
        // latch before re-waiting, so they may still be mid-transition).
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(pool);

        // Used via the task-list path, then dropped.
        let pool = Pool::new(t);
        assert_eq!(pool.run_tasks(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        drop(pool);
    }
}

/// The zero-task epoch: no dispatch, and the pool stays usable.
#[test]
fn empty_epochs_are_free() {
    for t in THREADS {
        let pool = Pool::new(t);
        let r = pool.run_tasks(0, |_: usize| -> usize { unreachable!() });
        assert!(r.is_empty());
        assert_eq!(pool.epochs(), 0, "an empty task list must not dispatch");
        assert_eq!(pool.map_indices(3, |i| i), vec![0, 1, 2]);
    }
}

/// Spawn accounting across both claim grains: the crew is spawned by
/// whichever parallel call comes first, exactly once.
#[test]
fn spawns_count_rises_once_and_only_once() {
    for t in THREADS {
        let pool = Pool::new(t);
        assert_eq!(pool.spawns(), 0);
        assert_eq!(pool.run_tasks(64, |i| i).len(), 64);
        let after_first = pool.spawns();
        if t > 1 {
            assert_eq!(after_first, t as u64);
        } else {
            assert_eq!(after_first, 0, "single-thread pools never spawn");
        }
        for _ in 0..10 {
            pool.for_each_index(32, |_| {});
            let _ = pool.run_tasks(64, |i| i);
        }
        assert_eq!(pool.spawns(), after_first, "no re-spawns, ever");
    }
}
