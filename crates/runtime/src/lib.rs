//! # gg-runtime — parallel execution substrate
//!
//! The paper runs on a 4-socket NUMA machine with a Cilk-based runtime
//! extended for NUMA-aware loop scheduling. This crate provides the
//! portable equivalent used throughout the reproduction. Physical NUMA
//! placement is not modelled: the paper binds each partition's memory and
//! threads to one socket through libnuma, which this crate cannot
//! reproduce portably, so partitions run in index order on whichever
//! worker claims them. What the atomics-removal claim depends on is the
//! *exclusive update* structure (one destination → one writer), which the
//! executors keep without it; the domain count survives only as
//! `gg_core`'s rounding of the partition count (§III.D's "multiples of 4").
//!
//! * [`pool::Pool`] — a **persistent** fork-join pool with an explicit
//!   thread count (Figure 10 sweeps 4–48 threads): workers are spawned
//!   once, park on a condvar between rounds, and every parallel operation
//!   is an epoch (publish job → wake → join via a completion latch), so
//!   per-round cost is a wake instead of `T` thread spawns. Every loop
//!   — the per-partition helpers and the chunk-task list
//!   ([`Pool::run_tasks`]) — is one claim loop over a shared atomic
//!   cursor; [`Pool::spawns`] / [`Pool::epochs`] make the reuse
//!   observable;
//! * [`buffer::BufferPool`] — recycles the word buffers behind dense
//!   frontier merges, clearing only the touched words;
//! * [`atomics`] — atomic `f32`/`f64`/min/CAS cells with both an **atomic**
//!   path (compare-exchange loops; the paper's "+a" configurations) and an
//!   **exclusive** path (plain relaxed load/store, valid when
//!   partitioning-by-destination guarantees a single writer; the "+na"
//!   configurations);
//! * [`counters::WorkCounters`] — cheap aggregate counters for edges and
//!   vertices visited, feeding the instruction-count proxy of `gg-memsim`.

pub mod atomics;
pub mod buffer;
pub mod counters;
pub mod pool;

pub use atomics::{AtomicF32, AtomicF64};
pub use buffer::BufferPool;
pub use counters::WorkCounters;
pub use pool::Pool;
