//! `Timed<E>`: an [`Engine`] that forwards every call to the engine it
//! wraps and records a span around each one — the traced pass's view of
//! the `gg-core` layer, taken from outside the crate through its public
//! trait. The algorithms are generic over `Engine`, so a sweep over
//! `Timed<GraphGrind2>` runs the same code as the untraced sweep plus two
//! clock reads and one uncontended lock per call.

use std::sync::Mutex;
use std::time::Instant;

use gg_core::edge_map::{EdgeMapReduce, EdgeOp};
use gg_core::engine::{EdgeMapSpec, Engine};
use gg_core::frontier::Frontier;
use gg_graph::types::VertexId;
use gg_runtime::counters::WorkCounters;
use gg_runtime::pool::Pool;

/// What one traced sweep spent inside the engine.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Seconds of every `edge_map` / `edge_map_reduce` call, in call order.
    pub edge_map: Vec<f64>,
    /// Summed seconds of `vertex_map` / `vertex_map_all` calls.
    pub vertex_map_s: f64,
    /// Number of `vertex_map` / `vertex_map_all` calls.
    pub vertex_map_calls: u64,
    /// Input frontier of every edge map, kept only when capturing (the
    /// planner replay needs them; cloning is itself work, so timing sweeps
    /// run with capture off).
    pub frontiers: Vec<Frontier>,
}

impl SpanLog {
    /// Summed seconds of all edge-map calls.
    pub fn edge_map_s(&self) -> f64 {
        self.edge_map.iter().sum()
    }
}

/// The span-recording engine wrapper.
pub struct Timed<'a, E: Engine> {
    inner: &'a E,
    capture_frontiers: bool,
    log: Mutex<SpanLog>,
}

impl<'a, E: Engine> Timed<'a, E> {
    /// Wraps `inner`, timing calls only.
    pub fn new(inner: &'a E) -> Self {
        Timed {
            inner,
            capture_frontiers: false,
            log: Mutex::new(SpanLog::default()),
        }
    }

    /// Wraps `inner`, additionally cloning every edge map's input
    /// frontier into the log.
    pub fn capturing(inner: &'a E) -> Self {
        Timed {
            capture_frontiers: true,
            ..Self::new(inner)
        }
    }

    /// Takes the spans recorded since the last take.
    pub fn take_log(&self) -> SpanLog {
        std::mem::take(&mut *self.log())
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        // Every update leaves the log valid, so a sweep that panicked
        // inside an engine call must not take the trace down with it.
        self.log.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn timed_edge_map(&self, frontier: &Frontier, run: impl FnOnce() -> Frontier) -> Frontier {
        if self.capture_frontiers {
            self.log().frontiers.push(frontier.clone());
        }
        let start = Instant::now();
        let next = run();
        let secs = start.elapsed().as_secs_f64();
        self.log().edge_map.push(secs);
        next
    }

    fn timed_vertex_map(&self, run: impl FnOnce()) {
        let start = Instant::now();
        run();
        let secs = start.elapsed().as_secs_f64();
        let mut log = self.log();
        log.vertex_map_s += secs;
        log.vertex_map_calls += 1;
    }
}

impl<E: Engine> Engine for Timed<'_, E> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn out_degrees(&self) -> &[u32] {
        self.inner.out_degrees()
    }

    fn pool(&self) -> &Pool {
        self.inner.pool()
    }

    fn work_counters(&self) -> &WorkCounters {
        self.inner.work_counters()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn edge_map<O: EdgeOp>(&self, frontier: &Frontier, op: &O, spec: EdgeMapSpec) -> Frontier {
        self.timed_edge_map(frontier, || self.inner.edge_map(frontier, op, spec))
    }

    fn edge_map_reduce<O: EdgeMapReduce>(
        &self,
        frontier: &Frontier,
        op: &O,
        spec: EdgeMapSpec,
    ) -> Frontier {
        self.timed_edge_map(frontier, || self.inner.edge_map_reduce(frontier, op, spec))
    }

    fn frontier_all(&self) -> Frontier {
        self.inner.frontier_all()
    }

    fn frontier_single(&self, v: VertexId) -> Frontier {
        self.inner.frontier_single(v)
    }

    fn frontier_sparse(&self, vertices: Vec<VertexId>) -> Frontier {
        self.inner.frontier_sparse(vertices)
    }

    fn vertex_map_all<F: Fn(VertexId) + Sync>(&self, f: F) {
        self.timed_vertex_map(|| self.inner.vertex_map_all(f));
    }

    fn vertex_map<F: Fn(VertexId) + Sync>(&self, frontier: &Frontier, f: F) {
        self.timed_vertex_map(|| self.inner.vertex_map(frontier, f));
    }
}
