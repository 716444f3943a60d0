//! What one run of one workload produces, and how it is printed.

use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;

/// Options of one run of one workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed region in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics, nothing wrapped. `true`: the traced
    /// pass, per-layer metrics.
    pub trace: bool,
    pub threads: usize,
    /// Every input scaled to finish in seconds; numbers meaningless.
    pub smoke: bool,
}

/// Metric values by name, in insertion order.
#[derive(Debug, Default)]
pub struct MetricSet(Vec<(&'static str, f64)>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations (sweeps or queries) attempted in the timed region.
    pub attempted: u64,
    /// Operations that panicked, did not complete, or failed a check.
    pub failed: u64,
    /// Why operations failed, for the human reading stdout.
    pub failures: Vec<String>,
    pub metrics: MetricSet,
    /// Workload description for the run header: sizes, rates, sources.
    pub header: Vec<(&'static str, Value)>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Records a failed check that voids the whole run.
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted.max(1);
        self.failures.push(why);
    }

    /// The metrics the contract wants for this pass, each with its unit:
    /// every end-to-end metric untraced, every per-layer metric traced
    /// (0 where the workload's path never reaches the layer).
    ///
    /// # Panics
    /// Panics if an end-to-end metric was never set: each must be measured
    /// on every workload.
    pub fn contract_metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.metrics.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(m, _)| {
                    let v = self
                        .metrics
                        .get(m.name)
                        .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                    (m.name, v, m.unit)
                })
                .collect()
        }
    }

    /// The one-line result object the benchmark contract asks for as the
    /// last line of standard output.
    pub fn result_line(&self, trace: bool) -> Value {
        let metrics = self.contract_metrics(trace).into_iter().map(|(n, v, u)| {
            (
                n,
                Value::obj([("value", Value::Num(v)), ("unit", Value::str(u))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// What the blocks of an untraced run measured, one entry per block, and
/// how a run's end-to-end metrics follow from them (`layers::BLOCKS` says
/// why a run is cut into blocks).
///
/// `setup_s` is the median of the blocks' set-ups. The three operation
/// metrics are those of the *quietest* block, each taken on its own: the
/// lowest block median, the lowest block tail, the highest block
/// throughput. Inside a block the median and the percentile shrug off
/// single slow operations; across blocks the best one is kept because on
/// a shared host interference only ever adds time, so a run reads slow
/// only when every one of its blocks was disturbed.
#[derive(Debug, Default)]
pub struct Blocks {
    setup_s: Vec<f64>,
    p50_s: Vec<f64>,
    tail_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    samples: usize,
    /// Fewest samples any block had beyond its tail percentile.
    beyond_tail: Option<usize>,
}

impl Blocks {
    pub fn push_setup(&mut self, seconds: f64) {
        self.setup_s.push(seconds);
    }

    /// Records one block: the latencies of the operations it completed,
    /// the percentile that counts as their tail, and its throughput.
    /// A block that completed nothing is left out.
    pub fn push(&mut self, latencies_s: &[f64], tail_percentile: f64, ops_per_s: f64) {
        if latencies_s.is_empty() {
            return;
        }
        self.p50_s.push(stats::median(latencies_s));
        self.tail_s
            .push(stats::percentile(latencies_s, tail_percentile));
        self.ops_per_s.push(ops_per_s);
        self.samples += latencies_s.len();
        let beyond = stats::samples_beyond(latencies_s.len(), tail_percentile);
        self.beyond_tail = Some(self.beyond_tail.map_or(beyond, |b| b.min(beyond)));
    }

    /// Sets the four timing metrics and the header entries that let a
    /// reader see how far the blocks of the run disagreed.
    pub fn emit(&self, report: &mut RunReport) {
        let m = &mut report.metrics;
        if !self.setup_s.is_empty() {
            m.set("setup_s", stats::median(&self.setup_s));
        }
        if self.samples > 0 {
            m.set("op_p50_s", stats::min(&self.p50_s));
            m.set("op_tail_s", stats::min(&self.tail_s));
            m.set("ops_per_s", stats::max(&self.ops_per_s));
        }
        let nums = |v: &[f64]| Value::Arr(v.iter().copied().map(Value::Num).collect());
        report.header.extend([
            ("samples", Value::Num(self.samples as f64)),
            (
                "samples_beyond_tail_per_block",
                Value::Num(self.beyond_tail.unwrap_or(0) as f64),
            ),
            ("block_setup_s", nums(&self.setup_s)),
            ("block_p50_s", nums(&self.p50_s)),
            ("block_tail_s", nums(&self.tail_s)),
            ("block_ops_per_s", nums(&self.ops_per_s)),
        ]);
    }
}

/// Runs `f`, turning a panic into an error that says what panicked.
pub fn catching<R>(what: &str, f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        format!("{what} panicked: {message}")
    })
}

/// FNV-1a over 64-bit words: the bit-identity witness of a result vector.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u32s(&mut self, vals: &[u32]) {
        vals.iter().for_each(|&v| self.word(v as u64));
    }

    pub fn f32s(&mut self, vals: &[f32]) {
        vals.iter().for_each(|&v| self.word(v.to_bits() as u64));
    }

    pub fn f64s(&mut self, vals: &[f64]) {
        vals.iter().for_each(|&v| self.word(v.to_bits()));
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_reports_its_quietest_block_and_its_median_setup() {
        let mut blocks = Blocks::default();
        for setup in [0.5, 0.4, 0.9] {
            blocks.push_setup(setup);
        }
        // A disturbed block, a quiet one, and one that completed nothing.
        blocks.push(&[1.2, 1.3, 1.2, 1.9], 75.0, 3.0);
        blocks.push(&[1.0, 1.1, 1.0, 1.4], 75.0, 4.0);
        blocks.push(&[], 75.0, 0.0);
        let mut report = RunReport::default();
        blocks.emit(&mut report);
        let get = |name| report.metrics.get(name).unwrap();
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(get("op_p50_s"), 1.05);
        assert_eq!(get("op_tail_s"), 1.1);
        assert_eq!(get("ops_per_s"), 4.0);
        let header = |key| {
            report
                .header
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v)
        };
        assert_eq!(header("samples"), Some(&Value::Num(8.0)));
        assert_eq!(
            header("samples_beyond_tail_per_block"),
            Some(&Value::Num(1.0))
        );
    }
}
