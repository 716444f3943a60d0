//! Smoke tests for the `repro` binary: run a representative subset of
//! experiments at `--tiny` scale so the reproduction harness cannot
//! silently rot. Timed experiments' numbers are not checked — only that
//! each runs to completion and emits its table; the simulated locality
//! figures (2 and 8) are pinned byte for byte.

use std::process::Command;

fn run_repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("failed to launch repro");
    assert!(
        out.status.success(),
        "repro {:?} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        args,
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("repro output must be UTF-8")
}

#[test]
fn tab1_tiny_lists_all_datasets() {
    let out = run_repro(&["tab1", "--tiny"]);
    for name in [
        "Twitter",
        "Friendster",
        "Orkut",
        "LiveJournal",
        "Yahoo_mem",
        "USAroad",
        "Powerlaw",
        "RMAT27",
    ] {
        assert!(out.contains(name), "missing dataset {name} in:\n{out}");
    }
}

#[test]
fn tab2_tiny_runs_all_algorithms_on_gg2() {
    // Exercises Workload::prepare + run_algorithm for all 8 algorithms on
    // the adaptive engine, including the kernel-mix reporting.
    let out = run_repro(&["tab2", "--tiny"]);
    for code in ["BC", "CC", "PR", "BFS", "PRDelta", "SPMV", "BF", "BP"] {
        assert!(out.contains(code), "missing algorithm {code} in:\n{out}");
    }
}

#[test]
fn fig3_tiny_reports_replication_factors() {
    let out = run_repro(&["fig3", "--tiny"]);
    assert!(out.contains("replication factor"), "{out}");
    // The 384-partition column of the sweep must be present.
    assert!(out.contains("384"), "{out}");
}

#[test]
fn heuristic_tiny_suggests_a_partition_count() {
    let out = run_repro(&["heuristic", "--tiny"]);
    assert!(out.contains("heuristic suggests P ="), "{out}");
    assert!(out.contains("<- suggested"), "{out}");
}

#[test]
fn unknown_experiment_fails_with_usage() {
    // No name, a typo, and names only a stale script would still use: each
    // must fail loudly, not print the banner and exit 0 having run nothing.
    for args in [
        &[][..],
        &["bogus", "--tiny"],
        &["load_balance"],
        &["smoke", "--tiny"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("failed to launch repro");
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro <tab1|"), "{err}");
    }
}

#[test]
fn replay_without_a_recording_is_an_input_error() {
    // A missing trace is a user error, not a bug: a message and exit 2
    // (a divergence exits 1), never a panic.
    let dir = std::env::temp_dir().join(format!("repro-no-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating a scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["replay", "--tiny", "--algo", "BFS"])
        .current_dir(&dir)
        .output()
        .expect("failed to launch repro");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("reading TRACE_BFS.jsonl (run `repro record` first)"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

/// FNV-1a over the bytes of `s`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// Figures 2 and 8 are deterministic simulations (no timings), so their
// whole stdout is pinned. `--threads 4` fixes the banner and the number of
// interleaved workers on any host. Figure 2's digest was recorded when
// the traced passes built their own layouts instead of borrowing a
// `GraphStore`, Figure 8's when the store's CSC became the CSR's
// transpose (taken from the code before that change, run on edge lists
// stably sorted by source); a change to either figure's numbers or layout
// fails here.

#[test]
fn fig2_tiny_matches_the_recorded_digest() {
    let out = run_repro(&["fig2", "--tiny", "--threads", "4"]);
    assert_eq!(fnv1a(&out), 0xf0fc_c030_8de7_21f8, "{out}");
}

#[test]
fn fig8_tiny_matches_the_recorded_digest() {
    let out = run_repro(&["fig8", "--tiny", "--threads", "4"]);
    assert_eq!(fnv1a(&out), 0xd4c1_25b1_7181_3d0c, "{out}");
}
