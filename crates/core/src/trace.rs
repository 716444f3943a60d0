//! Deterministic execution **record/replay**.
//!
//! The engine's core contract is bit-identity across partition counts,
//! thread counts, chunk caps and claim schedules. When that contract
//! breaks, the record/replay harness turns a terminal "bits differ" into
//! a one-command diagnosis. [`GraphGrind2`](crate::engine::GraphGrind2) can
//! record, per edge-map round, a [`RoundRecord`]:
//!
//! * **contract fields** — the digest of the round's merged output
//!   frontier ([`frontier_digest`]: length + order-sensitive FNV-1a over
//!   the active vertices, identical for sparse and dense representations),
//!   a fused round's per-lane digests, and the planned kernel /
//!   output-representation choices ([`RoundKernel`]) — these must match
//!   bit-for-bit between a recording and any replay of the same scenario,
//!   whatever the thread count or chunk cap;
//! * **schedule fields** — per-round [`CounterSnapshot`] deltas (chunks,
//!   hub sub-chunks, …) — written and read, never compared, because they
//!   legitimately change with the thread count and chunk cap.
//!
//! A recording plus its header ([`TraceHeader`]) round-trips through a
//! versioned JSON-lines file ([`RoundTrace::to_jsonl`] /
//! [`RoundTrace::from_jsonl`]). The format is stated once: the crate's
//! private JSON codec (`codec.rs`: one value type, its writer, a
//! depth-capped reader, typed getters and hex digests) under one
//! `to_json` / `from_json` pair per record type and one label table per
//! enum. [`first_divergence`] walks the compared fields of two traces in
//! one fixed order and reports the **first diverging round** — round,
//! partition, field, expected vs got — instead of a terminal mismatch.
//! `repro record` / `repro replay` (in `gg-bench`) drive this end to end,
//! and [`ThreadVaryingMinLabel`] is the fault-injection operator that
//! proves the diagnosis localizes a real thread-dependent divergence.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use gg_runtime::counters::CounterSnapshot;

use crate::codec::{hex, label, parse_hex, parse_json, Json};
use crate::config::{ChunkCap, Config, ExecutorKind, ForcedKernel, OutputMode};
use crate::edge_map::{EdgeKind, EdgeOp};
use crate::frontier::{Frontier, LaneWord};
use crate::partitioned::PartKernel;
use crate::plan::OutputRepr;

/// Version stamp of the JSON-lines trace format. Bumped on any change to
/// the line schema; [`RoundTrace::from_jsonl`] refuses other versions.
/// Version 2 added the fused-traversal fields: optional per-lane digests
/// (`lanes`) and the `fused_lanes` / `lane_union_words` sched counters.
/// Version 3 added the header's `layout` policy label and a per-step
/// edge-layout label (`l`). Version 4 dropped the per-step `l` (the
/// partitioned executor no longer depends on the layout) and the
/// always-zero `steals` / `cross_domain_steals` sched counters.
pub const TRACE_FORMAT_VERSION: u64 = 4;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive digest of a frontier: FNV-1a over the vertices active
/// in some lane, in ascending order. [`Frontier::for_each`] yields
/// ascending vertex ids for both the sparse-list and the dense
/// representation, so the digest is representation-independent — a round
/// that merged sparse outputs and a round that merged dense segments hash
/// identically iff they activated the same vertex set — and a fused
/// frontier hashes as its union would. Pair it with [`Frontier::len`]
/// (recorded separately) for a cheap first-level check.
///
/// Byte-wise FNV-1a is part of the trace format: recorded traces store
/// these values, so the scheme stays even where a faster word-wise hash
/// would do (the query server's result digests use one).
pub fn frontier_digest<W: LaneWord>(frontier: &Frontier<W>) -> u64 {
    let mut h = FNV_OFFSET;
    frontier.for_each(|v, _| h = fnv(h, v));
    h
}

/// One FNV-1a step over the little-endian bytes of `v`.
fn fnv(h: u64, v: u32) -> u64 {
    let step = |h: u64, b: u8| (h ^ b as u64).wrapping_mul(FNV_PRIME);
    v.to_le_bytes().into_iter().fold(h, step)
}

/// Per-lane digests of a frontier: entry `k` is the FNV-1a digest
/// (same scheme as [`frontier_digest`]) of the vertices active in lane
/// `k`, in ascending order. Lane `k` of a fused round and the matching
/// round of a single-source recording therefore hash identically iff they
/// activated the same vertex set — which lets `repro replay` localize a
/// fused divergence to one query of the batch.
pub fn lane_digests<W: LaneWord>(frontier: &Frontier<W>) -> Vec<u64> {
    let mut hs = vec![FNV_OFFSET; frontier.num_lanes() as usize];
    let mask = frontier.lane_mask();
    frontier.for_each(|v, lanes| {
        let mut m = lanes.bits() & mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            hs[lane] = fnv(hs[lane], v);
        }
    });
    hs
}

/// Run-level metadata of a recorded trace: what was executed and under
/// which configuration. Replays compare contract fields of the per-round
/// records whenever the headers are *plan-comparable* (see
/// [`first_divergence`]); the header also makes a trace self-describing
/// for offline reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// [`TRACE_FORMAT_VERSION`] at recording time.
    pub version: u64,
    /// Algorithm label (e.g. `bfs`, `pr`).
    pub algorithm: String,
    /// Scenario / dataset label.
    pub scenario: String,
    /// Worker threads of the recording run.
    pub threads: u64,
    /// Partition count of the recording run.
    pub partitions: u64,
    /// Executor label: `monolithic` or `partitioned`.
    pub executor: String,
    /// Output-mode label: `auto`, `force_sparse` or `force_dense`.
    pub output_mode: String,
    /// Chunk-cap label: `auto`, `max` or a fixed edge count.
    pub chunk: String,
    /// Forced-kernel label: `none`, `csr_a`, `csc_na`, `coo_a`, `coo_na`.
    pub force: String,
    /// Layout-policy label
    /// ([`LayoutPolicy::label`](crate::config::LayoutPolicy::label)):
    /// `fixed:<order>`. Informational: the layout never changes a round's
    /// plan or result, so [`first_divergence`] does not compare it.
    pub layout: String,
    /// True when the run used the fault-injection operator
    /// ([`ThreadVaryingMinLabel`]).
    pub fault: bool,
}

impl TraceHeader {
    /// Builds a header describing a run of `algorithm` on `scenario` under
    /// `config`.
    pub fn new(algorithm: &str, scenario: &str, config: &Config, fault: bool) -> Self {
        TraceHeader {
            version: TRACE_FORMAT_VERSION,
            algorithm: algorithm.to_string(),
            scenario: scenario.to_string(),
            threads: config.threads as u64,
            partitions: config.num_partitions as u64,
            executor: match config.executor {
                ExecutorKind::Monolithic => "monolithic",
                ExecutorKind::Partitioned => "partitioned",
            }
            .to_string(),
            output_mode: match config.output_mode {
                OutputMode::Auto => "auto",
                OutputMode::ForceSparse => "force_sparse",
                OutputMode::ForceDense => "force_dense",
            }
            .to_string(),
            chunk: match config.chunk_edges {
                ChunkCap::Auto => "auto".to_string(),
                ChunkCap::Fixed(n) if n == usize::MAX => "max".to_string(),
                ChunkCap::Fixed(n) => n.to_string(),
            },
            force: match config.force {
                None => "none",
                Some(ForcedKernel::CsrAtomic) => "csr_a",
                Some(ForcedKernel::CscNoAtomic) => "csc_na",
                Some(ForcedKernel::CooAtomic) => "coo_a",
                Some(ForcedKernel::CooNoAtomic) => "coo_na",
            }
            .to_string(),
            layout: config.layout.label(),
            fault,
        }
    }
}

/// One partition's planned (kernel, output-representation) pair inside a
/// [`RoundKernel::Partitioned`] record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Partition index.
    pub partition: u64,
    /// Locally selected kernel.
    pub kernel: PartKernel,
    /// Locally selected output representation.
    pub output: OutputRepr,
}

/// The planned kernel choice(s) of one recorded round — a contract field:
/// the planner is a deterministic function of the input frontier and the
/// static partition metadata, so two runs of the same scenario under a
/// plan-comparable configuration must record identical values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundKernel {
    /// Monolithic executor: the single Algorithm 2 class for the round.
    Monolithic(EdgeKind),
    /// Monolithic executor with a forced kernel (Figure 5/6 ablations) —
    /// no decision was made, so there is nothing to compare; the forced
    /// label lives in the header.
    Forced,
    /// Partitioned executor: per-partition steps in submission order
    /// (empty partitions absent), as planned from the round's *input*
    /// frontier.
    Partitioned(Vec<StepRecord>),
}

/// One edge-map round of a recorded run.
///
/// `frontier_len` / `frontier_hash` digest the round's merged **output**
/// frontier; `kernel` is the plan for the round's **input** frontier
/// (the previous round's output, or the algorithm's initial frontier for
/// round 0). `sched` holds the round's [`CounterSnapshot`] delta —
/// schedule diagnostics, never compared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// 0-based round index within the run.
    pub round: u64,
    /// Active-vertex count of the round's output frontier.
    pub frontier_len: u64,
    /// [`frontier_digest`] of the round's output frontier.
    pub frontier_hash: u64,
    /// Planned kernel choice(s) for the round's input frontier.
    pub kernel: RoundKernel,
    /// Per-lane digests of the round's output ([`lane_digests`]) when the
    /// round was a fused multi-source edge map; `None` for scalar rounds.
    /// A contract field: lane `k` must be bit-identical across
    /// partition/thread/chunk configurations.
    pub lanes: Option<Vec<u64>>,
    /// Work attributable to this round (counter deltas). Informational:
    /// `chunks` / `hub_subchunks` legitimately change with the thread
    /// count and chunk cap; the retired `steals` / `cross_domain_steals`
    /// are not serialized.
    pub sched: CounterSnapshot,
}

/// A complete recorded run: header + per-round records. Serializes to a
/// versioned JSON-lines file (one header line, one line per round).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundTrace {
    /// Run-level metadata.
    pub header: TraceHeader,
    /// Per-round records in execution order.
    pub rounds: Vec<RoundRecord>,
}

/// Wire labels of the planned kernel choices, one table per enum: the
/// writer, the reader and divergence reports all read them here.
const EDGE_KINDS: [(EdgeKind, &str); 3] = [
    (EdgeKind::Sparse, "sparse"),
    (EdgeKind::Medium, "medium"),
    (EdgeKind::Dense, "dense"),
];
const PART_KERNELS: [(PartKernel, &str); 2] =
    [(PartKernel::Sparse, "sparse"), (PartKernel::Dense, "dense")];
const OUTPUT_REPRS: [(OutputRepr, &str); 2] =
    [(OutputRepr::Sparse, "sparse"), (OutputRepr::Dense, "dense")];

/// The schedule counters a round line carries, in line order: written and
/// read, never compared.
type Counter = fn(&mut CounterSnapshot) -> &mut u64;
const SCHED_COUNTERS: [(&str, Counter); 7] = [
    ("edges", |s| &mut s.edges),
    ("vertices", |s| &mut s.vertices),
    ("merge_words", |s| &mut s.merge_words),
    ("chunks", |s| &mut s.chunks),
    ("hub_subchunks", |s| &mut s.hub_subchunks),
    ("fused_lanes", |s| &mut s.fused_lanes),
    ("lane_union_words", |s| &mut s.lane_union_words),
];

impl TraceHeader {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type", Json::Str("header".into())),
            ("version", Json::Num(self.version)),
            ("algorithm", Json::Str(self.algorithm.clone())),
            ("scenario", Json::Str(self.scenario.clone())),
            ("threads", Json::Num(self.threads)),
            ("partitions", Json::Num(self.partitions)),
            ("executor", Json::Str(self.executor.clone())),
            ("output_mode", Json::Str(self.output_mode.clone())),
            ("chunk", Json::Str(self.chunk.clone())),
            ("force", Json::Str(self.force.clone())),
            ("layout", Json::Str(self.layout.clone())),
            ("fault", Json::Bool(self.fault)),
        ])
    }

    /// Refuses anything but a header line of [`TRACE_FORMAT_VERSION`]
    /// before reading its other fields.
    fn from_json(j: &Json) -> Result<Self, String> {
        j.expect_type("header")?;
        let version = j.u64("version")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(format!(
                "unsupported trace version {version} (this build reads {TRACE_FORMAT_VERSION})"
            ));
        }
        Ok(TraceHeader {
            version,
            algorithm: j.str("algorithm")?.into(),
            scenario: j.str("scenario")?.into(),
            threads: j.u64("threads")?,
            partitions: j.u64("partitions")?,
            executor: j.str("executor")?.into(),
            output_mode: j.str("output_mode")?.into(),
            chunk: j.str("chunk")?.into(),
            force: j.str("force")?.into(),
            layout: j.str("layout")?.into(),
            fault: j.bool("fault")?,
        })
    }
}

impl StepRecord {
    fn to_json(self) -> Json {
        Json::obj(vec![
            ("p", Json::Num(self.partition)),
            ("k", Json::Str(label(&PART_KERNELS, self.kernel).into())),
            ("o", Json::Str(label(&OUTPUT_REPRS, self.output).into())),
        ])
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(StepRecord {
            partition: j.u64("p")?,
            kernel: j.label("k", &PART_KERNELS)?,
            output: j.label("o", &OUTPUT_REPRS)?,
        })
    }
}

impl RoundKernel {
    fn to_json(&self) -> Json {
        let kind = |k: &str| ("kind", Json::Str(k.into()));
        match self {
            RoundKernel::Monolithic(e) => Json::obj(vec![
                kind("monolithic"),
                ("edge_kind", Json::Str(label(&EDGE_KINDS, *e).into())),
            ]),
            RoundKernel::Forced => Json::obj(vec![kind("forced")]),
            RoundKernel::Partitioned(steps) => Json::obj(vec![
                kind("partitioned"),
                (
                    "steps",
                    Json::Arr(steps.iter().map(|s| s.to_json()).collect()),
                ),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<Self, String> {
        match j.str("kind")? {
            "monolithic" => Ok(RoundKernel::Monolithic(j.label("edge_kind", &EDGE_KINDS)?)),
            "forced" => Ok(RoundKernel::Forced),
            "partitioned" => j
                .arr("steps")?
                .iter()
                .map(StepRecord::from_json)
                .collect::<Result<_, _>>()
                .map(RoundKernel::Partitioned),
            other => Err(format!("unknown kernel kind `{other}`")),
        }
    }
}

impl RoundRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type", Json::Str("round".into())),
            ("round", Json::Num(self.round)),
            ("frontier_len", Json::Num(self.frontier_len)),
            ("frontier_hash", Json::Str(hex(self.frontier_hash))),
            ("kernel", self.kernel.to_json()),
        ];
        if let Some(lanes) = &self.lanes {
            let digests = lanes.iter().map(|&h| Json::Str(hex(h))).collect();
            fields.push(("lanes", Json::Arr(digests)));
        }
        let mut sched = self.sched;
        let counters =
            SCHED_COUNTERS.map(|(name, counter)| (name, Json::Num(*counter(&mut sched))));
        fields.push(("sched", Json::obj(counters.into())));
        Json::obj(fields)
    }

    /// Reads the line of round `want`, refusing one recorded under
    /// another index: a line missing from the middle of a file would
    /// otherwise pair every later recorded round with the previous one.
    fn from_json(j: &Json, want: u64) -> Result<Self, String> {
        j.expect_type("round")?;
        let round = j.u64("round")?;
        if round != want {
            return Err(format!("expected round {want}, got {round}"));
        }
        let digest = |h: &Json| h.as_str().and_then(parse_hex).ok_or("bad lane digest");
        let lanes = match j.get("lanes") {
            None => None,
            Some(_) => Some(
                j.arr("lanes")?
                    .iter()
                    .map(digest)
                    .collect::<Result<_, _>>()?,
            ),
        };
        let hash = j.str("frontier_hash")?;
        let counters = j.object("sched")?;
        let mut sched = CounterSnapshot::default();
        for (name, counter) in SCHED_COUNTERS {
            *counter(&mut sched) = counters.u64(name)?;
        }
        Ok(RoundRecord {
            round,
            frontier_len: j.u64("frontier_len")?,
            frontier_hash: parse_hex(hash).ok_or_else(|| format!("bad frontier_hash `{hash}`"))?,
            kernel: RoundKernel::from_json(j.object("kernel")?)?,
            lanes,
            sched,
        })
    }
}

impl RoundTrace {
    /// Serializes the trace to JSON lines: a header line, then one line
    /// per round. Digests are written as `0x%016x` strings.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let rounds = self.rounds.iter().map(RoundRecord::to_json);
        for line in std::iter::once(self.header.to_json()).chain(rounds) {
            line.write(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a trace previously written by [`to_jsonl`](Self::to_jsonl).
    /// Refuses, with an error naming the line, a first line that is not a
    /// header of [`TRACE_FORMAT_VERSION`] (before any round is read),
    /// missing or wrongly typed fields, and a round line whose `round` is
    /// not its position among the rounds.
    pub fn from_jsonl(text: &str) -> Result<RoundTrace, String> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (i, first) = lines.next().ok_or("empty trace file")?;
        let on = |i: usize| move |e: String| format!("line {}: {e}", i + 1);
        let header = parse_json(first).and_then(|j| TraceHeader::from_json(&j));
        let header = header.map_err(on(i))?;
        let mut rounds = Vec::new();
        for (i, line) in lines {
            let want = rounds.len() as u64;
            let round = parse_json(line).and_then(|j| RoundRecord::from_json(&j, want));
            rounds.push(round.map_err(on(i))?);
        }
        Ok(RoundTrace { header, rounds })
    }
}

/// The first point where a replayed trace departs from a recording — the
/// record/replay harness's product: instead of a terminal "bits differ",
/// the exact round (and partition, when per-partition plans are
/// comparable) where the contract broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Round index of the first divergence.
    pub round: u64,
    /// Partition whose planned step diverged, when the divergence is a
    /// per-partition field; `None` for round-global fields.
    pub partition: Option<u64>,
    /// Which contract field diverged (`frontier_len`, `frontier_hash`,
    /// `edge_kind`, `kernel`, `output`, `steps`, `lanes`,
    /// `lane_hash[k]`, `rounds`).
    pub field: String,
    /// Recorded value.
    pub expected: String,
    /// Replayed value.
    pub got: String,
}

impl Divergence {
    /// The one constructor of a report: `field` at `round` (and
    /// `partition`), from an `(expected, got)` pair.
    fn new(round: u64, partition: Option<u64>, field: &str, values: (String, String)) -> Self {
        let (expected, got) = values;
        let field = field.to_string();
        Divergence {
            round,
            partition,
            field,
            expected,
            got,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "round {}", self.round)?;
        if let Some(p) = self.partition {
            write!(f, ", partition {p}")?;
        }
        write!(
            f,
            ": {} expected {}, got {}",
            self.field, self.expected, self.got
        )
    }
}

/// Whether two traces' planned kernel choices are directly comparable.
/// Frontier digests are *always* comparable (bit-identity is the whole
/// contract); the plan is only comparable when both runs asked the planner
/// the same question — same executor and forced-kernel setting, and for
/// the partitioned executor the same partition count and output-mode
/// policy. Thread count and chunk cap never enter the plan, which is
/// exactly what lets a 1-thread recording check a 4-thread replay.
pub fn plan_comparable(a: &TraceHeader, b: &TraceHeader) -> bool {
    if a.executor != b.executor || a.force != b.force {
        return false;
    }
    match a.executor.as_str() {
        "partitioned" => a.partitions == b.partitions && a.output_mode == b.output_mode,
        _ => true,
    }
}

/// Compares a replayed trace against a recording round by round and
/// returns the **first diverging round**, or `None` when every contract
/// field matches.
///
/// Within a round the plan (made from the round's *input* frontier, which
/// the previous round already validated) is checked before the output
/// digests, so the report points at the earliest broken decision. Schedule
/// fields (`sched`) are never compared. A run that produced fewer or more
/// rounds than the recording diverges at the first missing round.
pub fn first_divergence(recorded: &RoundTrace, replayed: &RoundTrace) -> Option<Divergence> {
    let plans = plan_comparable(&recorded.header, &replayed.header);
    let (n, m) = (recorded.rounds.len(), replayed.rounds.len());
    let mut pairs = recorded.rounds.iter().zip(&replayed.rounds);
    pairs
        .find_map(|(a, b)| round_divergence(a, b, plans).err())
        .or_else(|| {
            let rounds = differ(n, m, |k| format!("{k} rounds"));
            rounds.map(|d| Divergence::new(n.min(m) as u64, None, "rounds", d))
        })
}

/// `(expected, got)`, each shown through `show`, when `x` and `y` differ.
fn differ<T: PartialEq + Copy>(x: T, y: T, show: impl Fn(T) -> String) -> Option<(String, String)> {
    (x != y).then(|| (show(x), show(y)))
}

/// The walk over one round's compared fields, in order: the plan's kernel
/// or steps (when `plans`), the lane digests, `frontier_len`, then
/// `frontier_hash`. `sched` is not among them.
fn round_divergence(a: &RoundRecord, b: &RoundRecord, plans: bool) -> Result<(), Divergence> {
    let check = |partition, field: &str, values| match values {
        Some(d) => Err(Divergence::new(a.round, partition, field, d)),
        None => Ok(()),
    };
    match (&a.kernel, &b.kernel) {
        (RoundKernel::Monolithic(x), RoundKernel::Monolithic(y)) if plans => {
            let kinds = differ(*x, *y, |k| label(&EDGE_KINDS, k).into());
            check(None, "edge_kind", kinds)?;
        }
        (RoundKernel::Partitioned(xs), RoundKernel::Partitioned(ys)) if plans => {
            for (x, y) in xs.iter().zip(ys) {
                let (p, q) = (x.partition, y.partition);
                let order = differ(p, q, |p| format!("partition {p}"));
                check(Some(p.min(q)), "steps", order)?;
                let kernels = differ(x.kernel, y.kernel, |k| label(&PART_KERNELS, k).into());
                check(Some(p), "kernel", kernels)?;
                let outputs = differ(x.output, y.output, |o| label(&OUTPUT_REPRS, o).into());
                check(Some(p), "output", outputs)?;
            }
            // The first step only one side planned, if any.
            let extra = if xs.len() > ys.len() { xs } else { ys };
            let p = extra.get(xs.len().min(ys.len())).map(|s| s.partition);
            let counts = differ(xs.len(), ys.len(), |n| format!("{n} steps"));
            check(p, "steps", counts)?;
        }
        // Shape mismatch (monolithic vs partitioned vs forced) is
        // impossible when `plan_comparable` held, and not a contract
        // violation otherwise.
        _ => {}
    }
    // Per-lane digests localize a fused divergence to one query of the
    // batch, so they are checked before the (coarser) union digest.
    match (&a.lanes, &b.lanes) {
        (Some(xs), Some(ys)) => {
            let counts = differ(xs.len(), ys.len(), |n| format!("{n} lanes"));
            check(None, "lanes", counts)?;
            if let Some(k) = (0..xs.len()).find(|&k| xs[k] != ys[k]) {
                check(None, &format!("lane_hash[{k}]"), differ(xs[k], ys[k], hex))?;
            }
        }
        (x, y) => {
            let shape =
                |l: Option<usize>| l.map_or("scalar".into(), |n| format!("fused ({n} lanes)"));
            let shapes = differ(x.as_ref().map(Vec::len), y.as_ref().map(Vec::len), shape);
            check(None, "lanes", shapes)?;
        }
    }
    let lens = differ(a.frontier_len, b.frontier_len, |n| n.to_string());
    check(None, "frontier_len", lens)?;
    let hashes = differ(a.frontier_hash, b.frontier_hash, hex);
    check(None, "frontier_hash", hashes)
}

/// Fault-injection operator: min-label propagation whose update rule
/// depends on **which thread** executes it. The first thread to touch the
/// operator claims lane 0 and behaves honestly (`label[d] ← min(label[d],
/// label[s])`); every later thread claims the next lane and perturbs its
/// propagated labels by `+lane`. A 1-thread run therefore produces the
/// honest fixpoint, while a multi-thread run violates the engine's
/// bit-identity contract in a schedule-dependent way — exactly the class
/// of bug the record/replay harness exists to localize, which makes this
/// the harness's positive control (`repro replay --fault`). Monotone
/// (labels only decrease), so even faulty runs terminate within `n`
/// rounds.
pub struct ThreadVaryingMinLabel {
    labels: Vec<AtomicU32>,
    lanes: Mutex<HashMap<ThreadId, u32>>,
}

impl ThreadVaryingMinLabel {
    /// Labels initialised to vertex ids (the CC convention).
    pub fn new(n: usize) -> Self {
        ThreadVaryingMinLabel {
            labels: (0..n as u32).map(AtomicU32::new).collect(),
            lanes: Mutex::new(HashMap::new()),
        }
    }

    /// The executing thread's lane: 0 for the first thread ever to call
    /// (honest), `k` for the `k`-th distinct thread (perturbed by `+k`).
    /// A mutex on the hot path is deliberate — this operator only runs in
    /// fault-injection tests, where clarity beats throughput.
    fn lane(&self) -> u32 {
        let mut lanes = self
            .lanes
            .lock()
            .expect("the lane map is never locked across a panic");
        let next = lanes.len() as u32;
        *lanes.entry(std::thread::current().id()).or_insert(next)
    }

    /// How many distinct threads executed updates.
    pub fn lanes_claimed(&self) -> usize {
        self.lanes
            .lock()
            .expect("the lane map is never locked across a panic")
            .len()
    }

    /// Current labels (quiesced readers only).
    pub fn snapshot(&self) -> Vec<u32> {
        self.labels
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect()
    }
}

impl EdgeOp for ThreadVaryingMinLabel {
    fn update(&self, s: u32, d: u32, _w: f32) -> bool {
        let sl = self.labels[s as usize]
            .load(Ordering::Relaxed)
            .saturating_add(self.lane());
        let cur = self.labels[d as usize].load(Ordering::Relaxed);
        if sl < cur {
            self.labels[d as usize].store(sl, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, s: u32, d: u32, _w: f32) -> bool {
        let sl = self.labels[s as usize]
            .load(Ordering::Relaxed)
            .saturating_add(self.lane());
        gg_runtime::atomics::fetch_min_u32(&self.labels[d as usize], sl)
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::config::Config;
    use gg_graph::bitmap::Bitmap;

    fn sparse_frontier(vertices: Vec<u32>, n: usize) -> Frontier {
        let degrees = vec![1u32; n];
        Frontier::from_sorted(vertices, n, &degrees)
    }

    #[test]
    fn digest_is_representation_independent() {
        let n = 200;
        let verts = vec![3u32, 17, 64, 65, 130, 199];
        let sparse = sparse_frontier(verts.clone(), n);
        let mut bits = Bitmap::new(n);
        for &v in &verts {
            bits.set(v as usize);
        }
        let pool = gg_runtime::pool::Pool::new(1);
        let dense = Frontier::from_dense(bits, &vec![1u32; n], &pool);
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(frontier_digest(&sparse), frontier_digest(&dense));
        // And the digest is order-sensitive in content: dropping a vertex
        // changes it.
        let shorter = sparse_frontier(vec![3, 17, 64, 65, 130], n);
        assert_ne!(frontier_digest(&sparse), frontier_digest(&shorter));
    }

    fn sample_trace() -> RoundTrace {
        let cfg = Config::partitioned_for_tests();
        RoundTrace {
            header: TraceHeader::new("cc", "unit \"quoted\" scenario", &cfg, false),
            rounds: vec![
                RoundRecord {
                    round: 0,
                    frontier_len: 42,
                    frontier_hash: 0xdead_beef_0123_4567,
                    kernel: RoundKernel::Partitioned(vec![
                        StepRecord {
                            partition: 0,
                            kernel: PartKernel::Dense,
                            output: OutputRepr::Dense,
                        },
                        StepRecord {
                            partition: 3,
                            kernel: PartKernel::Sparse,
                            output: OutputRepr::Sparse,
                        },
                    ]),
                    lanes: Some(vec![0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210]),
                    sched: CounterSnapshot {
                        edges: 100,
                        vertices: 10,
                        merge_words: 4,
                        chunks: 6,
                        hub_subchunks: 1,
                        fused_lanes: 9,
                        lane_union_words: 3,
                        ..CounterSnapshot::default()
                    },
                },
                RoundRecord {
                    round: 1,
                    frontier_len: 0,
                    frontier_hash: 0xcbf2_9ce4_8422_2325,
                    kernel: RoundKernel::Monolithic(EdgeKind::Medium),
                    lanes: None,
                    sched: CounterSnapshot::default(),
                },
                RoundRecord {
                    round: 2,
                    frontier_len: 7,
                    frontier_hash: 1,
                    kernel: RoundKernel::Forced,
                    lanes: None,
                    sched: CounterSnapshot::default(),
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trips_every_kernel_shape() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let parsed = RoundTrace::from_jsonl(&text).expect("round trip");
        assert_eq!(trace, parsed);
    }

    #[test]
    fn jsonl_rejects_other_versions_and_garbage() {
        let text = sample_trace().to_jsonl();
        assert!(
            text.contains("\"version\":4"),
            "fixture must carry the current format version"
        );
        for other in ["3", "999"] {
            let bumped = text.replacen("\"version\":4", &format!("\"version\":{other}"), 1);
            let err = RoundTrace::from_jsonl(&bumped).unwrap_err();
            assert!(err.contains(&format!("version {other}")), "{err}");
        }
        assert!(RoundTrace::from_jsonl("").is_err());
        assert!(RoundTrace::from_jsonl("{\"type\":\"round\"}").is_err());
        assert!(RoundTrace::from_jsonl("not json at all").is_err());
    }

    /// Regression (found by `hostile_traces_never_panic`): the recursive
    /// JSON reader had no depth bound, so a line of a million `[` aborted
    /// the process with a stack overflow instead of returning `Err`.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"k\":"] {
            let line = open.repeat(1_000_000);
            let err = RoundTrace::from_jsonl(&line).unwrap_err();
            assert!(err.contains("nesting deeper than 32"), "{err}");
        }
        // The nesting the writer emits stays well inside the bound.
        let text = sample_trace().to_jsonl();
        assert_eq!(RoundTrace::from_jsonl(&text), Ok(sample_trace()));
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let t = sample_trace();
        assert_eq!(first_divergence(&t, &t.clone()), None);
    }

    #[test]
    fn hash_divergence_reports_first_differing_round() {
        let a = sample_trace();
        let mut b = a.clone();
        b.rounds[1].frontier_hash ^= 1;
        b.rounds[2].frontier_hash ^= 1; // later damage must not mask round 1
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 1);
        assert_eq!(d.field, "frontier_hash");
        assert_eq!(d.partition, None);
    }

    #[test]
    fn lane_divergence_reports_the_lane_index() {
        let a = sample_trace();
        let mut b = a.clone();
        if let Some(lanes) = &mut b.rounds[0].lanes {
            lanes[1] ^= 1;
        }
        // The union hash still matches, so only the per-lane digests can
        // localize the damage.
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 0);
        assert_eq!(d.field, "lane_hash[1]");
        assert_eq!(d.partition, None);

        // A fused-vs-scalar shape mismatch is reported as such.
        let mut c = a.clone();
        c.rounds[0].lanes = None;
        let d = first_divergence(&a, &c).expect("must diverge");
        assert_eq!(d.field, "lanes");
        assert!(d.expected.contains("fused"), "{}", d.expected);
        assert_eq!(d.got, "scalar");
    }

    #[test]
    fn plan_divergence_names_the_partition() {
        let a = sample_trace();
        let mut b = a.clone();
        if let RoundKernel::Partitioned(steps) = &mut b.rounds[0].kernel {
            steps[1].kernel = PartKernel::Dense;
        }
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 0);
        assert_eq!(d.partition, Some(3));
        assert_eq!(d.field, "kernel");
        assert_eq!(d.expected, "sparse");
        assert_eq!(d.got, "dense");
        // The Display form carries all four coordinates.
        let msg = d.to_string();
        assert!(
            msg.contains("round 0") && msg.contains("partition 3"),
            "{msg}"
        );
    }

    #[test]
    fn plan_comparison_is_skipped_across_partition_counts() {
        let a = sample_trace();
        let mut b = a.clone();
        b.header.partitions += 8;
        if let RoundKernel::Partitioned(steps) = &mut b.rounds[0].kernel {
            steps.pop(); // different plan shape — legitimate across counts
        }
        assert!(!plan_comparable(&a.header, &b.header));
        assert_eq!(first_divergence(&a, &b), None, "digests still match");
        // But digests are still contract: break one and it reports.
        b.rounds[2].frontier_len += 1;
        let d = first_divergence(&a, &b).expect("digest divergence survives");
        assert_eq!(d.round, 2);
        assert_eq!(d.field, "frontier_len");
    }

    #[test]
    fn missing_rounds_diverge_at_the_first_absent_round() {
        let a = sample_trace();
        let mut b = a.clone();
        b.rounds.pop();
        let d = first_divergence(&a, &b).expect("must diverge");
        assert_eq!(d.round, 2);
        assert_eq!(d.field, "rounds");
    }

    #[test]
    fn fault_op_is_honest_on_a_single_thread() {
        // One thread claims lane 0, so updates are plain min-label
        // propagation — the property that makes a 1-thread fault recording
        // a valid honest baseline.
        let op = ThreadVaryingMinLabel::new(4);
        assert!(op.update(0, 2, 1.0), "0 < 2 must propagate");
        assert!(!op.update(3, 1, 1.0), "3 > 1 must not");
        assert!(op.update_atomic(0, 3, 1.0));
        assert_eq!(op.snapshot(), vec![0, 1, 0, 0]);
        assert_eq!(op.lanes_claimed(), 1);
    }
}
