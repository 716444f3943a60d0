//! End-to-end record/replay differentials: an honest run recorded under
//! one schedule must replay bit-identically under every other
//! thread-count / chunk-cap / partition-count configuration, and the
//! thread-dependent fault op must be caught and localized to its first
//! diverging round.

use gg_bench::replay::{
    record_algorithm, record_fault, replay_algorithms, replay_fault, scenario_graph,
};
use gg_bench::runner::Workload;
use gg_core::config::{ChunkCap, Config, ExecutorKind};
use gg_core::trace::{first_divergence, RoundTrace};

/// Test scale: ~600 vertices, a few thousand edges — enough rounds for
/// the trajectory to be interesting, small enough for the matrix of
/// configurations below.
const SCALE: f64 = 0.005;

fn config(threads: usize, partitions: usize, chunk: ChunkCap) -> Config {
    Config {
        threads,
        num_partitions: partitions,
        executor: ExecutorKind::Partitioned,
        chunk_edges: chunk,
        ..Config::default()
    }
}

#[test]
fn honest_runs_replay_bit_identically_across_schedules() {
    let el = scenario_graph("powerlaw", SCALE);
    // The recording schedule is maximally sequential; the replay
    // schedules vary every knob the bit-identity contract quantifies
    // over (threads, chunk cap, partition count).
    let recorded_at = config(1, 16, ChunkCap::Fixed(usize::MAX));
    let replay_at = [
        config(4, 16, ChunkCap::Fixed(1)),
        config(4, 16, ChunkCap::Auto),
        config(3, 7, ChunkCap::Auto),
    ];
    for algo in replay_algorithms() {
        let w = Workload::prepare(&el, algo);
        let recorded = record_algorithm(&w, &recorded_at, "powerlaw");
        assert!(
            recorded.rounds.len() > 1,
            "{}: trace too short to be meaningful",
            algo.code()
        );
        // The serialized form must survive a round trip before it is
        // worth diffing anything against it.
        let parsed = RoundTrace::from_jsonl(&recorded.to_jsonl()).expect("round trip");
        assert_eq!(
            first_divergence(&recorded, &parsed),
            None,
            "{}",
            algo.code()
        );
        for cfg in &replay_at {
            let replayed = record_algorithm(&w, cfg, "powerlaw");
            assert_eq!(
                first_divergence(&recorded, &replayed),
                None,
                "{} diverged replaying at {} threads / {:?} chunk / {} partitions",
                algo.code(),
                cfg.threads,
                cfg.chunk_edges,
                cfg.num_partitions
            );
        }
    }
}

#[test]
fn fault_injection_is_caught_and_localized() {
    let el = scenario_graph("powerlaw", SCALE);
    // The recording pins one thread: every update runs on the honest lane,
    // so it is the honest trace no matter the schedule.
    let recorded = record_fault(&el, &config(4, 16, ChunkCap::Fixed(usize::MAX)), "powerlaw");
    // Four threads: the first update a non-primary worker wins perturbs
    // a label, and the trajectory forks. The fork is schedule-dependent
    // (a replay could in principle land every update on one worker), so
    // allow a few attempts before declaring the harness blind.
    let cfg = config(4, 16, ChunkCap::Fixed(1));
    let divergence = (0..5).find_map(|_| {
        let replayed = replay_fault(&el, &cfg, "powerlaw");
        first_divergence(&recorded, &replayed)
    });
    let d = divergence.expect("thread-dependent fault was never detected in 5 replays");
    // The diagnosis must localize: a concrete round and a contract field,
    // not just "traces differ".
    assert!(
        (d.round as usize) < recorded.rounds.len(),
        "diverging round {} out of range",
        d.round
    );
    assert!(
        [
            "frontier_len",
            "frontier_hash",
            "kernel",
            "output",
            "steps",
            "edge_kind",
            "rounds"
        ]
        .contains(&d.field.as_str()),
        "unexpected field {}",
        d.field
    );
    assert_ne!(d.expected, d.got);
}
