//! Whole-graph statistics (Table I characterisation and frontier helpers).

use crate::edge_list::EdgeList;

/// Summary statistics of a graph, as reported in Table I of the paper.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of (directed) edges.
    pub num_edges: usize,
    /// Maximum out-degree.
    pub max_out_degree: u32,
    /// Maximum in-degree.
    pub max_in_degree: u32,
    /// Mean out-degree `|E| / |V|`.
    pub avg_degree: f64,
    /// Number of vertices with neither in- nor out-edges.
    pub isolated_vertices: usize,
    /// Whether every edge has its reverse present (undirected-as-directed).
    pub symmetric: bool,
}

impl GraphStats {
    /// Computes statistics for `el`.
    pub fn compute(el: &EdgeList) -> Self {
        let out = el.out_degrees();
        let inn = el.in_degrees();
        let n = el.num_vertices();
        let m = el.num_edges();
        let isolated = (0..n).filter(|&v| out[v] == 0 && inn[v] == 0).count();

        // Symmetry check via sorted edge multiset comparison.
        let mut fwd: Vec<(u32, u32)> = el.iter().collect();
        let mut bwd: Vec<(u32, u32)> = el.iter().map(|(u, v)| (v, u)).collect();
        fwd.sort_unstable();
        bwd.sort_unstable();

        GraphStats {
            num_vertices: n,
            num_edges: m,
            max_out_degree: out.iter().copied().max().unwrap_or(0),
            max_in_degree: inn.iter().copied().max().unwrap_or(0),
            avg_degree: if n == 0 { 0.0 } else { m as f64 / n as f64 },
            isolated_vertices: isolated,
            symmetric: fwd == bwd,
        }
    }
}

/// Sum of `degrees[v]` over the vertices listed in `active` — the
/// `Σ_{v∈F} deg_out(v)` term of the paper's Algorithm 2 density test.
pub fn active_degree_sum(degrees: &[u32], active: &[u32]) -> u64 {
    active.iter().map(|&v| degrees[v as usize] as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_small_graph() {
        let el = EdgeList::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        let s = GraphStats::compute(&el);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.isolated_vertices, 2); // vertices 3 and 4
        assert!(!s.symmetric);
        assert!((s.avg_degree - 0.8).abs() < 1e-12);
    }

    #[test]
    fn symmetric_detection() {
        let el = EdgeList::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(GraphStats::compute(&el).symmetric);
    }

    #[test]
    fn degree_sum() {
        let deg = vec![5, 0, 3, 2];
        assert_eq!(active_degree_sum(&deg, &[0, 2]), 8);
        assert_eq!(active_degree_sum(&deg, &[]), 0);
    }
}
