//! Synthetic stand-ins for the paper's Table I data sets.
//!
//! The real graphs (Twitter, Friendster, …) are multi-billion-edge
//! downloads that cannot ship with a reproduction; each stand-in matches
//! the *shape* that drives the paper's phenomena — degree skew, diameter,
//! density and directedness — at a size a laptop sweeps in minutes. All
//! generation is deterministic.

use gg_graph::edge_list::EdgeList;
use gg_graph::generators::{self, RmatParams};
use gg_graph::ops::symmetrize;
use gg_graph::properties::GraphStats;

/// The eight data sets of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Twitter stand-in: heavily skewed RMAT, directed.
    Twitter,
    /// Friendster stand-in: milder RMAT, more vertices, directed.
    Friendster,
    /// Orkut stand-in: power-law, symmetrized (undirected).
    Orkut,
    /// LiveJournal stand-in: skewed RMAT, directed.
    LiveJournal,
    /// Yahoo_mem stand-in: Erdős–Rényi, symmetrized (undirected).
    YahooMem,
    /// USAroad stand-in: 2-D grid with diagonals, undirected.
    UsaRoad,
    /// The paper's own synthetic power-law (α = 2.0), directed.
    Powerlaw,
    /// The paper's RMAT27 synthetic, directed.
    Rmat27,
}

impl Dataset {
    /// All data sets in Table I order.
    pub fn all() -> [Dataset; 8] {
        [
            Dataset::Twitter,
            Dataset::Friendster,
            Dataset::Orkut,
            Dataset::LiveJournal,
            Dataset::YahooMem,
            Dataset::UsaRoad,
            Dataset::Powerlaw,
            Dataset::Rmat27,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Twitter => "Twitter",
            Dataset::Friendster => "Friendster",
            Dataset::Orkut => "Orkut",
            Dataset::LiveJournal => "LiveJournal",
            Dataset::YahooMem => "Yahoo_mem",
            Dataset::UsaRoad => "USAroad",
            Dataset::Powerlaw => "Powerlaw",
            Dataset::Rmat27 => "RMAT27",
        }
    }

    /// Whether Table I lists the graph as undirected.
    pub fn undirected(self) -> bool {
        matches!(self, Dataset::Orkut | Dataset::YahooMem | Dataset::UsaRoad)
    }

    /// Builds the stand-in at `scale` (1.0 = default bench size; tests use
    /// much smaller values). Deterministic.
    pub fn build(self, scale: f64) -> EdgeList {
        assert!(scale > 0.0, "scale must be positive");
        // log2 adjustment for vertex-count scales.
        let s = |base: u32| -> u32 {
            let adj = scale.log2().round() as i32;
            (base as i32 + adj).clamp(6, 28) as u32
        };
        let m = |base: usize| -> usize { ((base as f64 * scale) as usize).max(1000) };
        match self {
            Dataset::Twitter => generators::rmat(s(18), m(4_000_000), RmatParams::skewed(), 42),
            Dataset::Friendster => generators::rmat(s(19), m(4_000_000), RmatParams::mild(), 43),
            Dataset::Orkut => symmetrize(&generators::chung_lu(m(120_000), m(2_000_000), 2.3, 44)),
            Dataset::LiveJournal => generators::rmat(s(17), m(1_500_000), RmatParams::skewed(), 45),
            Dataset::YahooMem => symmetrize(&generators::erdos_renyi(m(80_000), m(800_000), 46)),
            Dataset::UsaRoad => {
                let side = ((500_000.0 * scale).sqrt() as usize).max(32);
                generators::grid_road(side, side, 0.05, 47)
            }
            Dataset::Powerlaw => generators::chung_lu(m(400_000), m(3_000_000), 2.0, 48),
            Dataset::Rmat27 => generators::rmat(s(18), m(3_000_000), RmatParams::skewed(), 49),
        }
    }

    /// Builds and prints a Table I-style characterisation row.
    pub fn stats_row(self, scale: f64) -> (String, GraphStats) {
        let el = self.build(scale);
        (self.name().to_string(), GraphStats::compute(&el))
    }
}

/// The skewed `powerlaw` scenario: a Chung–Lu power-law base (configurable
/// exponent) plus `hubs` star hubs on the lowest vertex ids, each pulling
/// in-edges from sources spread across the whole id space.
///
/// Partitioning by destination homes all the hub in-edges into the
/// partitions owning the low id range, so one partition is star-shaped
/// heavy while the tail partitions stay light — the imbalance regime the
/// chunked executor exists to beat (the benchmark's
/// `pr-skewed` workload, `tests/chunked_differential.rs`). Deterministic
/// for a given `(scale, alpha, hubs, seed)`.
///
/// Each hub receives `max(n / 8, 32)` spokes; with the default 16 hubs
/// that concentrates ~2n extra edges on the lowest ids.
pub fn powerlaw_scenario(scale: f64, alpha: f64, hubs: usize, seed: u64) -> EdgeList {
    assert!(scale > 0.0, "scale must be positive");
    let n = ((50_000.0 * scale) as usize).max(600);
    let m = ((300_000.0 * scale) as usize).max(3_000);
    let mut el = generators::chung_lu(n, m, alpha, seed);
    let spokes = (n / 8).max(32);
    for h in 0..hubs.min(n) {
        // Sources strided over the id space, offset per hub so spoke sets
        // differ between hubs; self-loops skipped.
        let stride = (n / spokes).max(1);
        for s in 0..spokes {
            let src = ((h + 1) * 7 + s * stride) % n;
            if src != h {
                el.push(src as u32, h as u32);
            }
        }
    }
    el
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: f64 = 0.01;

    #[test]
    fn all_datasets_build_at_test_scale() {
        for d in Dataset::all() {
            let el = d.build(TEST_SCALE);
            assert!(el.num_vertices() > 0, "{d:?}");
            assert!(el.num_edges() >= 1000, "{d:?}");
            el.validate().unwrap();
        }
    }

    #[test]
    fn undirected_datasets_are_symmetric() {
        for d in [Dataset::Orkut, Dataset::YahooMem, Dataset::UsaRoad] {
            let el = d.build(TEST_SCALE);
            assert!(
                GraphStats::compute(&el).symmetric,
                "{d:?} should be symmetric"
            );
        }
    }

    #[test]
    fn twitter_like_is_skewed() {
        let el = Dataset::Twitter.build(TEST_SCALE);
        let stats = GraphStats::compute(&el);
        assert!(
            stats.max_out_degree as f64 > 20.0 * stats.avg_degree,
            "skew too weak: max {} avg {}",
            stats.max_out_degree,
            stats.avg_degree
        );
    }

    #[test]
    fn road_like_has_low_degree() {
        let el = Dataset::UsaRoad.build(TEST_SCALE);
        let stats = GraphStats::compute(&el);
        assert!(stats.max_out_degree <= 6);
    }

    #[test]
    fn deterministic_across_builds() {
        let a = Dataset::LiveJournal.build(TEST_SCALE);
        let b = Dataset::LiveJournal.build(TEST_SCALE);
        assert_eq!(a, b);
    }

    #[test]
    fn powerlaw_scenario_concentrates_in_degree_on_the_hubs() {
        let hubs = 8;
        let el = powerlaw_scenario(0.02, 2.0, hubs, 7);
        el.validate().unwrap();
        let n = el.num_vertices();
        let in_deg = el.in_degrees();
        let spokes = (n / 8).max(32) as u32;
        // Every hub's in-degree is dominated by its spokes.
        for (h, &d) in in_deg.iter().take(hubs).enumerate() {
            assert!(d >= spokes / 2, "hub {h} in-degree {d} too small");
        }
        // The hub block holds a large multiple of the per-vertex average.
        let hub_edges: u64 = in_deg[..hubs].iter().map(|&d| d as u64).sum();
        let avg = el.num_edges() as u64 / n as u64;
        assert!(hub_edges > 20 * avg * hubs as u64 / 2);
        // Deterministic and parameter-sensitive.
        assert_eq!(el, powerlaw_scenario(0.02, 2.0, hubs, 7));
        assert_ne!(el, powerlaw_scenario(0.02, 2.0, hubs + 1, 7));
        assert_ne!(el, powerlaw_scenario(0.02, 2.3, hubs, 7));
    }
}
