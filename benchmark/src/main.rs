//! `gg-benchmark`: the repository's one layered benchmark.
//!
//! ```text
//! gg-benchmark run --workload W --seed S --seconds N --trace 0|1   one run, one workload
//! gg-benchmark run [--seed S] [--repeat R] [--out FILE] [--smoke]  every workload, both passes
//! gg-benchmark compare A.json B.json                               judge set B against set A
//! gg-benchmark manifest                                            print BENCHMARK.json
//! ```
//!
//! Every input is generated in-process from `--seed`. The last line of a
//! single-workload run's standard output is the result object of the
//! benchmark contract; everything above it is for people.

mod analytics;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod serving;
mod stats;
mod timed;

use std::process::{Command, ExitCode, Stdio};

use json::Value;
use layers::timed;
use report::{RunOpts, RunReport};

const USAGE: &str = "usage:
  gg-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                   [--threads T] [--smoke] [--repeat R] [--out FILE]
  gg-benchmark compare A.json B.json
  gg-benchmark manifest";

/// Worker threads unless `--threads` says otherwise. One, because the
/// numbers have to be steady before they can bound anything: on the
/// 2-CPU reference sandbox two busy threads are intermittently given one
/// core's worth of CPU (two concurrent spin loops take 1x or 2x their solo
/// time from one second to the next), and at 2 threads every workload's
/// sweep time wandered by up to 2x within a process. README.md has the
/// measurements.
const DEFAULT_THREADS: usize = 1;

/// Parsed `run` arguments.
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    threads: usize,
    smoke: bool,
    repeat: usize,
    out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        threads: DEFAULT_THREADS,
        smoke: false,
        repeat: 1,
        out: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !metrics::WORKLOADS.iter().any(|(name, _)| *name == value) {
                    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
                    return Err(format!("unknown workload {value:?}; one of {names:?}"));
                }
                parsed.workload = Some(value.to_string());
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
                seconds_given = true;
            }
            "--trace" => {
                parsed.trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--threads" => {
                parsed.threads = value.parse().map_err(|_| bad())?;
                if parsed.threads == 0 || parsed.threads > host::nproc() {
                    return Err(format!(
                        "--threads {} refused: this machine has {} CPU(s); oversubscribed timings mean nothing",
                        parsed.threads,
                        host::nproc()
                    ));
                }
            }
            "--repeat" => {
                parsed.repeat = value.parse().map_err(|_| bad())?;
                if parsed.repeat == 0 {
                    return Err(bad());
                }
            }
            "--out" => parsed.out = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.smoke && !seconds_given {
        parsed.seconds = 0.2;
    }
    Ok(parsed)
}

/// Generates the workload's inputs from the seed and runs one pass.
fn run_workload(name: &str, opts: &RunOpts) -> RunReport {
    use analytics::{BfsRoad, PrSkewed, SuiteRmat};
    use serving::{Rate, Serving};
    let (seed, smoke) = (opts.seed, opts.smoke);
    let serving = |rate| {
        let (gen_s, w) = timed(|| Serving::new(rate, seed, smoke));
        serving::run(&w, gen_s, opts)
    };
    match name {
        "pr-skewed" => {
            let (gen_s, w) = timed(|| PrSkewed::new(seed, smoke));
            analytics::run(&w, gen_s, opts)
        }
        "bfs-road" => {
            let (gen_s, w) = timed(|| BfsRoad::new(seed, smoke));
            analytics::run(&w, gen_s, opts)
        }
        "suite-rmat" => {
            let (gen_s, w) = timed(|| SuiteRmat::new(seed, smoke));
            analytics::run(&w, gen_s, opts)
        }
        "serve-low" => serving(Rate::Low),
        "serve-over" => serving(Rate::Over),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

/// Host, build and run settings: the part of the header every workload
/// shares.
fn run_header(args: &RunArgs) -> Vec<(&'static str, Value)> {
    let mut header = host::header();
    header.extend([
        ("threads", Value::Num(args.threads as f64)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
    ]);
    header
}

fn print_pairs(pairs: &[(&'static str, Value)]) {
    for (key, value) in pairs {
        println!("  {key}: {}", value.to_line());
    }
}

/// One run as the result file stores it: the contract's result object
/// with the seed added and each metric reduced to its value (units live
/// in `src/metrics.rs`).
fn run_entry(seed: u64, result: &Value) -> Value {
    let field = |key: &str, default: Value| result.get(key).cloned().unwrap_or(default);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Value::Null)))
        .collect();
    Value::obj([
        ("seed", Value::Num(seed as f64)),
        ("correct", field("correct", Value::Bool(false))),
        ("attempted", field("attempted", Value::Num(0.0))),
        ("failed", field("failed", Value::Num(0.0))),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// A result file: run header, then per workload its header and its
/// untraced (`runs`) and traced (`traced`) entries. No gain is claimed by
/// a result file, ever: a claim names its metric and workload in an issue.
fn result_file(header: Vec<(&'static str, Value)>, workloads: Vec<(String, Value)>) -> Value {
    Value::obj([
        ("schema", Value::Num(1.0)),
        ("claim", Value::Null),
        ("header", Value::obj(header)),
        ("workloads", Value::Obj(workloads)),
    ])
}

fn write_out(path: &str, file: &Value) -> Result<(), String> {
    std::fs::write(path, file.to_pretty()).map_err(|e| format!("writing {path}: {e}"))
}

/// One workload, one pass, in this process.
fn run_single(args: &RunArgs, workload: &str) -> Result<bool, String> {
    let trace = args.trace.unwrap_or(false);
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        threads: args.threads,
        smoke: args.smoke,
    };
    let header = run_header(args);
    println!(
        "gg-benchmark {workload} ({})",
        if trace {
            "traced pass"
        } else {
            "untraced pass"
        }
    );
    print_pairs(&header);
    let report = run_workload(workload, &opts);
    print_pairs(&report.header);
    println!("metrics:");
    for (name, value, unit) in report.contract_metrics(trace) {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "operations: {} attempted, {} failed{}",
        report.attempted,
        report.failed,
        if args.smoke {
            " (smoke: numbers meaningless)"
        } else {
            ""
        }
    );
    for why in &report.failures {
        println!("FAILED: {why}");
    }
    let result = report.result_line(trace);
    let workload_header = Value::obj(report.header.clone());
    if let Some(path) = &args.out {
        let key = if trace { "traced" } else { "runs" };
        let entry = Value::obj([
            ("header", workload_header.clone()),
            (key, Value::Arr(vec![run_entry(args.seed, &result)])),
        ]);
        write_out(
            path,
            &result_file(header, vec![(workload.to_string(), entry)]),
        )?;
    }
    // For the all-workloads parent; the contract's result stays last.
    println!("#header {}", workload_header.to_line());
    println!("{}", result.to_line());
    Ok(report.correct())
}

/// Runs this executable again for one workload and pass, echoing its
/// output; returns its header and result lines.
fn spawn_child(
    args: &RunArgs,
    workload: &str,
    seed: u64,
    trace: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--threads", &args.threads.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut header = Value::Null;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("#header ") {
            Some(h) => header = json::parse(h).unwrap_or(Value::Null),
            None => {
                if !line.starts_with('{') {
                    println!("{line}");
                }
                last = line;
            }
        }
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} (exit {:?}) printed no result: {e}",
            out.status.code()
        )
    })?;
    Ok((header, result))
}

/// Every workload, each pass in a child process of its own, so one
/// workload's memory high-water mark and warm caches never leak into the
/// next.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let header = run_header(args);
    println!(
        "gg-benchmark: every workload, {} untraced run(s) each, then the traced pass",
        args.repeat
    );
    print_pairs(&header);
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, _) in metrics::WORKLOADS {
        // The traced pass's header is the richer one (rate ladder, ratio
        // bases), so the last child's header is the one kept.
        let mut workload_header = Value::Null;
        let mut entry = Vec::new();
        for &trace in passes {
            let reps = if trace { 1 } else { args.repeat };
            let mut runs = Vec::new();
            for rep in 0..reps {
                let seed = args.seed + rep as u64;
                let (header, result) = spawn_child(args, name, seed, trace)?;
                all_correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
                workload_header = header;
                runs.push(run_entry(seed, &result));
            }
            entry.push((if trace { "traced" } else { "runs" }, Value::Arr(runs)));
        }
        entry.insert(0, ("header", workload_header));
        workloads.push((name.to_string(), Value::obj(entry)));
    }
    let file = result_file(header, workloads);
    if let Some(path) = &args.out {
        write_out(path, &file)?;
        println!("wrote {path}");
    }
    println!(
        "{}",
        if all_correct {
            "all result checks passed"
        } else {
            "RESULT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|parsed| match &parsed.workload {
            Some(workload) => run_single(&parsed, workload),
            None => run_all(&parsed),
        }),
        Some("compare") => return ExitCode::from(compare::main(&args[1..])),
        Some("manifest") => {
            print!("{}", metrics::manifest().to_pretty());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("gg-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
