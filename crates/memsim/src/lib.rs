//! # gg-memsim — memory-hierarchy instrumentation substrate
//!
//! The paper's locality evidence rests on two measurements that normally
//! require hardware access:
//!
//! * **Figure 2** — the reuse-distance distribution of updates to the next
//!   frontier, shown to contract as the partition count grows;
//! * **Figure 8** — last-level-cache misses per kilo-instruction (MPKI),
//!   measured with performance counters on a Xeon E7-4860 v2.
//!
//! This crate substitutes portable, exact simulation for both:
//!
//! * [`reuse::ReuseProfile`] implements Olken's exact LRU stack-distance
//!   algorithm (hash map of last accesses + a Fenwick tree), producing the
//!   same log-bucketed histograms as Figure 2;
//! * [`cache::Cache`] is a set-associative LRU cache simulator (sized to
//!   keep the footprint:LLC ratio of the paper's 30 MiB LLC) fed by the
//!   traversal's address trace, and [`mpki`] converts miss counts into MPKI using a documented
//!   instruction-count proxy.
//!
//! Traces are captured at cache-line granularity by [`trace::AddressTrace`],
//! with [`layout::MemoryLayout`] mapping logical arrays (frontier bitmaps,
//! per-vertex data, edge arrays) onto a synthetic address space.

pub mod cache;
pub mod histogram;
pub mod layout;
pub mod mpki;
pub mod reuse;
pub mod trace;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use histogram::LogHistogram;
pub use layout::{ArrayHandle, MemoryLayout};
pub use mpki::{InstructionModel, MpkiReport};
pub use reuse::ReuseProfile;
pub use trace::{AccessSink, AddressTrace, CountingSink, LINE_BYTES};
