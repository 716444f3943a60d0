//! Whole-graph transformations: transpose, symmetrize, relabel, subgraphs.

use crate::edge_list::EdgeList;
use crate::types::VertexId;

/// Reverses every edge: `(u, v)` becomes `(v, u)`. Weights follow edges.
pub fn transpose(el: &EdgeList) -> EdgeList {
    let mut out = EdgeList::with_capacity(el.num_vertices(), el.num_edges());
    match el.weights() {
        None => {
            for (u, v) in el.iter() {
                out.push(v, u);
            }
        }
        Some(_) => {
            for (u, v, w) in el.iter_weighted() {
                out.push_weighted(v, u, w);
            }
        }
    }
    out
}

/// Makes the graph symmetric: for every edge `(u, v)` ensures `(v, u)` is
/// present (weights copied to the reverse edge), removing duplicate edges
/// and self-loop mirrors. Output is sorted by `(src, dst)`.
///
/// Algorithms with undirected semantics (connected components, the paper's
/// Orkut/Yahoo/USAroad data sets) run on symmetrized inputs.
pub fn symmetrize(el: &EdgeList) -> EdgeList {
    let n = el.num_vertices();
    let mut out = EdgeList::with_capacity(n, el.num_edges() * 2);
    match el.weights() {
        None => {
            for (u, v) in el.iter() {
                out.push(u, v);
                if u != v {
                    out.push(v, u);
                }
            }
        }
        Some(_) => {
            for (u, v, w) in el.iter_weighted() {
                out.push_weighted(u, v, w);
                if u != v {
                    out.push_weighted(v, u, w);
                }
            }
        }
    }
    out.sort_and_dedup();
    out
}

/// Renames vertices: vertex `v` becomes `perm[v]`.
///
/// # Panics
/// Panics, in every build profile, unless `perm` is a permutation of
/// `0..n`; the message names the offending entry.
pub fn relabel(el: &EdgeList, perm: &[VertexId]) -> EdgeList {
    let n = el.num_vertices();
    assert_eq!(
        perm.len(),
        n,
        "relabel: perm has {} entries for {n} vertices",
        perm.len()
    );
    let mut preimage = vec![VertexId::MAX; n];
    for (v, &p) in perm.iter().enumerate() {
        assert!(
            (p as usize) < n,
            "relabel: perm[{v}] = {p} is not a vertex id (n = {n})"
        );
        let first = preimage[p as usize];
        assert!(
            first == VertexId::MAX,
            "relabel: id {p} is the image of both {first} and {v}"
        );
        preimage[p as usize] = v as VertexId;
    }
    let mut out = EdgeList::with_capacity(el.num_vertices(), el.num_edges());
    match el.weights() {
        None => {
            for (u, v) in el.iter() {
                out.push(perm[u as usize], perm[v as usize]);
            }
        }
        Some(_) => {
            for (u, v, w) in el.iter_weighted() {
                out.push_weighted(perm[u as usize], perm[v as usize], w);
            }
        }
    }
    out
}

/// Extracts the subgraph induced by `keep` (a sorted set of vertex ids),
/// relabelling kept vertices to `0..keep.len()` in order.
///
/// # Panics
/// Panics, in every build profile, unless `keep` is strictly ascending
/// and every entry is a vertex id; the message names the offending entry.
pub fn induced_subgraph(el: &EdgeList, keep: &[VertexId]) -> EdgeList {
    let n = el.num_vertices();
    let mut new_id = vec![u32::MAX; n];
    for (i, &v) in keep.iter().enumerate() {
        assert!(
            (v as usize) < n,
            "induced_subgraph: keep[{i}] = {v} is not a vertex id (n = {n})"
        );
        if i > 0 {
            let prev = keep[i - 1];
            assert!(
                prev < v,
                "induced_subgraph: keep[{i}] = {v} does not ascend past {prev}"
            );
        }
        new_id[v as usize] = i as u32;
    }
    let mut out = EdgeList::with_capacity(keep.len(), el.num_edges());
    for i in 0..el.num_edges() {
        let (u, v) = el.edge(i);
        let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
        if nu != u32::MAX && nv != u32::MAX {
            if el.is_weighted() {
                out.push_weighted(nu, nv, el.weight(i));
            } else {
                out.push(nu, nv);
            }
        }
    }
    out
}

/// Permutation renaming vertices in descending out-degree order (hubs get
/// the lowest ids). `perm[old_id] = new_id`, suitable for [`relabel`].
///
/// This is the lightweight locality preprocessing that reordering systems
/// (Frasca et al.'s adaptive layouts, degree-ordered CSR) apply; exposed
/// here so the benchmark harness can compare *relabeling* against the
/// paper's *partitioning* as locality mechanisms.
pub fn degree_order_permutation(el: &EdgeList) -> Vec<VertexId> {
    let deg = el.out_degrees();
    let mut by_degree: Vec<VertexId> = (0..el.num_vertices() as VertexId).collect();
    // Stable tie-break on vertex id keeps the permutation deterministic.
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(deg[v as usize]), v));
    let mut perm = vec![0 as VertexId; el.num_vertices()];
    for (new_id, &old_id) in by_degree.iter().enumerate() {
        perm[old_id as usize] = new_id as VertexId;
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_involution() {
        let el = EdgeList::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        let tt = transpose(&transpose(&el));
        assert_eq!(tt, el);
    }

    #[test]
    fn transpose_swaps_degrees() {
        let el = EdgeList::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let t = transpose(&el);
        assert_eq!(t.out_degrees(), el.in_degrees());
        assert_eq!(t.in_degrees(), el.out_degrees());
    }

    #[test]
    fn symmetrize_makes_symmetric() {
        let el = EdgeList::from_edges(4, &[(0, 1), (1, 0), (2, 3), (3, 3)]);
        let s = symmetrize(&el);
        let stats = crate::properties::GraphStats::compute(&s);
        assert!(stats.symmetric);
        // (0,1)+(1,0) stay, (2,3) gains (3,2), (3,3) self-loop stays single.
        assert_eq!(s.num_edges(), 5);
    }

    #[test]
    fn symmetrize_weighted_copies_weight() {
        let el = EdgeList::from_weighted_edges(3, &[(0, 2, 7.5)]);
        let s = symmetrize(&el);
        assert_eq!(s.num_edges(), 2);
        let triples: Vec<_> = s.iter_weighted().collect();
        assert!(triples.contains(&(0, 2, 7.5)));
        assert!(triples.contains(&(2, 0, 7.5)));
    }

    #[test]
    fn relabel_preserves_structure() {
        let el = EdgeList::from_edges(3, &[(0, 1), (1, 2)]);
        let r = relabel(&el, &[2, 0, 1]);
        let edges: Vec<_> = r.iter().collect();
        assert_eq!(edges, vec![(2, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "relabel: id 0 is the image of both 0 and 1")]
    fn relabel_rejects_bad_permutation() {
        let el = EdgeList::from_edges(3, &[(0, 1)]);
        let _ = relabel(&el, &[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "relabel: perm[2] = 3 is not a vertex id (n = 3)")]
    fn relabel_rejects_an_out_of_range_image() {
        let el = EdgeList::from_edges(3, &[(0, 1)]);
        let _ = relabel(&el, &[1, 0, 3]);
    }

    #[test]
    #[should_panic(expected = "induced_subgraph: keep[2] = 1 does not ascend past 4")]
    fn induced_subgraph_rejects_unsorted_keep() {
        let el = EdgeList::from_edges(5, &[(0, 1), (1, 4)]);
        let _ = induced_subgraph(&el, &[0, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "induced_subgraph: keep[1] = 5 is not a vertex id (n = 5)")]
    fn induced_subgraph_rejects_an_out_of_range_id() {
        let el = EdgeList::from_edges(5, &[(0, 1)]);
        let _ = induced_subgraph(&el, &[0, 5]);
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let el = EdgeList::from_edges(4, &[(2, 0), (2, 1), (2, 3), (1, 0)]);
        let perm = degree_order_permutation(&el);
        // Vertex 2 (degree 3) becomes 0; vertex 1 (degree 1) becomes 1;
        // vertices 0 and 3 (degree 0) keep id order.
        assert_eq!(perm, vec![2, 1, 0, 3]);
        let relabeled = relabel(&el, &perm);
        let deg = relabeled.out_degrees();
        assert!(deg.windows(2).all(|w| w[0] >= w[1]), "{deg:?}");
    }

    #[test]
    fn induced_subgraph_relabels() {
        let el = EdgeList::from_edges(5, &[(0, 1), (1, 4), (4, 0), (2, 3)]);
        let sub = induced_subgraph(&el, &[0, 1, 4]);
        assert_eq!(sub.num_vertices(), 3);
        let edges: Vec<_> = sub.iter().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
    }
}
