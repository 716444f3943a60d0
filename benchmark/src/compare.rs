//! `compare A.json B.json`: judges result set B against result set A,
//! metric by metric and workload by workload, with each end-to-end
//! metric's own bound and direction. The tool behind the two-set
//! acceptance check.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats;

/// How one (workload, metric) pairing came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is better than A's by more than the bound.
    Improved,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A set's run-to-run spread exceeds the bound: the sets cannot tell
    /// a change of the bound's size from noise, so this is not "unchanged".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A's median by which B is *worse* (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    /// The wider of the two sets' interquartile spreads, when both sets
    /// hold at least two runs.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Judges medians `a` → `b` of a metric under `bound`.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> (f64, Verdict) {
    let worse_by = match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Values of `metric` over the runs listed under `key` of a workload.
fn values(workload: &Value, key: &str, metric: &str) -> Vec<f64> {
    workload
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// Failed and attempted operations summed over a workload's runs.
fn failures(workload: &Value) -> (f64, f64) {
    let sum = |field: &str| -> f64 {
        ["runs", "traced"]
            .iter()
            .flat_map(|key| workload.get(key).and_then(Value::as_arr).unwrap_or(&[]))
            .filter_map(|run| run.get(field)?.as_f64())
            .sum()
    };
    (sum("failed"), sum("attempted"))
}

/// A layer metric's traced medians in A and in B.
type LayerMove = (&'static str, f64, f64);

/// The outcome of comparing two result sets.
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failure rate rose (bound 0, absolute), with both
    /// rates.
    pub new_failures: Vec<(String, f64, f64)>,
    /// Per regressed or unresolved row: the layer metrics of that
    /// workload whose traced medians moved by more than 10 %.
    pub moved_layers: Vec<(String, Vec<LayerMove>)>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.new_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regression)
    }
}

/// Compares two parsed result files.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let workloads = |v: &Value| -> Result<Vec<(String, Value)>, String> {
        v.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "result file has no \"workloads\" object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison {
        rows: Vec::new(),
        new_failures: Vec::new(),
        moved_layers: Vec::new(),
    };
    for (name, a_w) in &wa {
        let Some((_, b_w)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let mut flagged = false;
        for (def, bound) in END_TO_END {
            let (va, vb) = (values(a_w, "runs", def.name), values(b_w, "runs", def.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread = match (stats::spread(&va), stats::spread(&vb)) {
                (Some(x), Some(y)) => Some(f64::max(x, y)),
                _ => None,
            };
            let (worse_by, verdict) = judge(ma, mb, def.better, bound, spread);
            flagged |= matches!(verdict, Verdict::Regression | Verdict::Unresolved);
            out.rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                a: ma,
                b: mb,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
        let ((fa, na), (fb, nb)) = (failures(a_w), failures(b_w));
        let (rate_a, rate_b) = (fa / na.max(1.0), fb / nb.max(1.0));
        if rate_b > rate_a {
            out.new_failures.push((name.clone(), rate_a, rate_b));
        }
        if flagged {
            let moved: Vec<_> = PER_LAYER
                .iter()
                .filter_map(|def| {
                    let (va, vb) = (
                        values(a_w, "traced", def.name),
                        values(b_w, "traced", def.name),
                    );
                    if va.is_empty() || vb.is_empty() {
                        return None;
                    }
                    let (ma, mb) = (stats::median(&va), stats::median(&vb));
                    let change = (mb - ma) / ma.abs();
                    (ma != 0.0 && change.abs() > 0.10).then_some((def.name, ma, mb))
                })
                .collect();
            out.moved_layers.push((name.clone(), moved));
        }
    }
    if out.rows.is_empty() {
        return Err("the two files share no workload with end-to-end runs".into());
    }
    Ok(out)
}

/// Prints the comparison as a table plus the flagged details.
pub fn print(c: &Comparison) {
    println!(
        "{:<12} {:<13} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread"
    );
    for r in &c.rows {
        println!(
            "{:<12} {:<13} {:>12.6} {:>12.6} {:>8.2}% {:>6.0}% {:>8}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0)),
            r.verdict.label()
        );
    }
    for (workload, a, b) in &c.new_failures {
        println!("REGRESSION {workload}: fail_rate {a:.6} -> {b:.6} (bound 0, absolute)");
    }
    for (workload, moved) in &c.moved_layers {
        println!("layer metrics of {workload} that moved by more than 10 %:");
        if moved.is_empty() {
            println!("  none (or no traced runs in both files)");
        }
        for (name, a, b) in moved {
            println!(
                "  {name:<32} {a:>14.6} -> {b:>14.6} ({:+.1}%)",
                (b - a) / a.abs() * 100.0
            );
        }
    }
    let count = |v: Verdict| c.rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} pairings: {} ok, {} improved, {} unresolved, {} regressed; {} workload(s) with new failures",
        c.rows.len(),
        count(Verdict::Ok),
        count(Verdict::Improved),
        count(Verdict::Unresolved),
        count(Verdict::Regression),
        c.new_failures.len()
    );
}

/// Entry point of the `compare` subcommand; the process exit code.
pub fn main(args: &[String]) -> u8 {
    let [a_path, b_path] = args else {
        eprintln!("usage: gg-benchmark compare A.json B.json");
        return 2;
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match load(a_path).and_then(|a| load(b_path).and_then(|b| compare(&a, &b))) {
        Ok(c) => {
            print(&c);
            u8::from(c.regressed())
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file with one workload whose runs carry `op_p50_s` values.
    fn file(p50: &[f64], failed: f64, traced_edge_map_s: f64) -> Value {
        let run = |v: f64| {
            Value::obj([
                ("attempted", Value::Num(50.0)),
                ("failed", Value::Num(failed)),
                (
                    "metrics",
                    Value::obj([("op_p50_s", Value::Num(v)), ("setup_s", Value::Num(2.0))]),
                ),
            ])
        };
        let traced = Value::obj([
            ("attempted", Value::Num(10.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([
                    ("core.edge_map_s", Value::Num(traced_edge_map_s)),
                    ("core.vertex_map_s", Value::Num(0.01)),
                ]),
            ),
        ]);
        Value::obj([(
            "workloads",
            Value::obj([(
                "pr-skewed",
                Value::obj([
                    ("runs", Value::Arr(p50.iter().map(|&v| run(v)).collect())),
                    ("traced", Value::Arr(vec![traced])),
                ]),
            )]),
        )])
    }

    fn row<'a>(c: &'a Comparison, metric: &str) -> &'a Row {
        c.rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        assert_eq!(judge(1.0, 1.09, Better::Lower, 0.10, None).1, Verdict::Ok);
        assert_eq!(
            judge(1.0, 1.11, Better::Lower, 0.10, None).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(1.0, 0.85, Better::Lower, 0.10, None).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(100.0, 85.0, Better::Higher, 0.10, None).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(100.0, 120.0, Better::Higher, 0.10, None).1,
            Verdict::Improved
        );
        // Spread wider than the bound: unresolved, whatever the medians say.
        assert_eq!(
            judge(1.0, 1.0, Better::Lower, 0.10, Some(0.2)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(1.0, 2.0, Better::Lower, 0.10, Some(0.2)).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn regression_names_the_pairing_and_the_layers_that_moved() {
        let a = file(&[0.100, 0.101, 0.099, 0.100], 0.0, 0.080);
        let b = file(&[0.130, 0.131, 0.129, 0.130], 0.0, 0.109);
        let c = compare(&a, &b).unwrap();
        assert!(c.regressed());
        let r = row(&c, "op_p50_s");
        assert_eq!(
            (r.workload.as_str(), r.verdict),
            ("pr-skewed", Verdict::Regression)
        );
        assert!((r.worse_by - 0.3).abs() < 0.01);
        assert_eq!(row(&c, "setup_s").verdict, Verdict::Ok);
        let (workload, moved) = &c.moved_layers[0];
        assert_eq!(workload, "pr-skewed");
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].0, "core.edge_map_s");
    }

    #[test]
    fn same_commit_sets_agree_and_noisy_sets_are_unresolved() {
        let a = file(&[0.100, 0.101, 0.099, 0.100], 0.0, 0.08);
        let b = file(&[0.101, 0.100, 0.100, 0.099], 0.0, 0.08);
        let c = compare(&a, &b).unwrap();
        assert!(!c.regressed());
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(c.moved_layers.is_empty());

        let noisy = file(&[0.08, 0.10, 0.12, 0.14], 0.0, 0.08);
        let c = compare(&a, &noisy).unwrap();
        assert_eq!(row(&c, "op_p50_s").verdict, Verdict::Unresolved);
        assert!(!c.regressed());
    }

    #[test]
    fn any_new_failure_is_a_regression() {
        let a = file(&[0.1, 0.1], 0.0, 0.08);
        let b = file(&[0.1, 0.1], 1.0, 0.08);
        let c = compare(&a, &b).unwrap();
        assert!(c.regressed());
        assert_eq!(c.new_failures[0].0, "pr-skewed");
        assert!(compare(&a, &Value::obj([("x", Value::Null)])).is_err());
    }
}
