//! Vertex-parallel operators (Ligra's `vertexMap`).

use gg_graph::bitmap::Bitmap;
use gg_graph::types::VertexId;
use gg_runtime::pool::Pool;

use crate::frontier::{Frontier, FrontierData};

/// Applies `f` to every active vertex of `frontier`, in parallel.
pub fn vertex_map<F: Fn(VertexId) + Sync>(frontier: &Frontier, pool: &Pool, f: F) {
    match frontier.data() {
        FrontierData::Sparse { verts: list, .. } => {
            if list.is_empty() {
                return;
            }
            let tasks = (pool.threads() * 4).min(list.len());
            pool.for_each_index(tasks, |t| {
                let lo = list.len() * t / tasks;
                let hi = list.len() * (t + 1) / tasks;
                for &v in &list[lo..hi] {
                    f(v);
                }
            });
        }
        FrontierData::Dense(bitmap) => {
            let words = bitmap.words();
            if words.is_empty() {
                return;
            }
            let tasks = (pool.threads() * 4).min(words.len());
            pool.for_each_index(tasks, |t| {
                let lo = words.len() * t / tasks;
                let hi = words.len() * (t + 1) / tasks;
                for (wi, &w) in words[lo..hi].iter().enumerate() {
                    let mut bits = w;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        f(((lo + wi) * 64 + b) as VertexId);
                    }
                }
            });
        }
    }
}

/// Applies `f` to every vertex `0..n`, in parallel.
pub fn vertex_map_all<F: Fn(VertexId) + Sync>(n: usize, pool: &Pool, f: F) {
    pool.for_each_chunk(n, pool.threads() * 4, |lo, hi| {
        for v in lo as VertexId..hi as VertexId {
            f(v);
        }
    });
}

/// Builds a dense frontier of all vertices in `0..n` satisfying `pred`
/// (used by PRDelta to select vertices whose accumulated delta exceeds the
/// propagation threshold).
pub fn frontier_from_predicate<F: Fn(VertexId) -> bool + Sync>(
    n: usize,
    pool: &Pool,
    out_degrees: &[u32],
    pred: F,
) -> Frontier {
    let num_words = n.div_ceil(64);
    let tasks = (pool.threads() * 4).min(num_words.max(1));
    let word_chunks: Vec<Vec<u64>> = pool.map_indices(tasks, |t| {
        let lo = num_words * t / tasks;
        let hi = num_words * (t + 1) / tasks;
        (lo..hi)
            .map(|wi| {
                let mut w = 0u64;
                for b in 0..64 {
                    let v = wi * 64 + b;
                    if v < n && pred(v as VertexId) {
                        w |= 1 << b;
                    }
                }
                w
            })
            .collect()
    });
    let bm = Bitmap::from_words(word_chunks.concat(), n);
    Frontier::from_dense(bm, out_degrees, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool() -> Pool {
        Pool::new(2)
    }

    #[test]
    fn vertex_map_visits_each_active_once() {
        let deg = vec![1u32; 300];
        let actives: Vec<u32> = (0..300).step_by(7).collect();
        let hits = AtomicU64::new(0);

        let sparse = Frontier::from_sparse(actives.clone(), 300, &deg);
        vertex_map(&sparse, &pool(), |v| {
            hits.fetch_add(v as u64 + 1, Ordering::Relaxed);
        });
        let expected: u64 = actives.iter().map(|&v| v as u64 + 1).sum();
        assert_eq!(hits.load(Ordering::Relaxed), expected);

        hits.store(0, Ordering::Relaxed);
        let dense = Frontier::from_dense(Bitmap::from_indices(300, &actives), &deg, &pool());
        vertex_map(&dense, &pool(), |v| {
            hits.fetch_add(v as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn vertex_map_all_covers_range() {
        let hits = AtomicU64::new(0);
        vertex_map_all(100, &pool(), |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn predicate_frontier() {
        let deg = vec![1u32; 130];
        let f = frontier_from_predicate(130, &pool(), &deg, |v| (64..70).contains(&v));
        assert_eq!(f.to_vertex_list(), vec![64, 65, 66, 67, 68, 69]);
        assert_eq!(f.degree_sum(), 6);
        // Word-boundary lengths, every thread split: the packed words are
        // exactly the scalar filter.
        for n in [0usize, 1, 63, 64, 65, 200] {
            let deg = vec![1u32; n];
            let pred = |v: VertexId| v.is_multiple_of(3) || v as usize == n - 1;
            let want: Vec<VertexId> = (0..n as VertexId).filter(|&v| pred(v)).collect();
            for threads in [1, 4] {
                let f = frontier_from_predicate(n, &Pool::new(threads), &deg, pred);
                assert_eq!(f.to_vertex_list(), want, "n={n} T={threads}");
            }
        }
    }

    #[test]
    fn empty_cases() {
        let f = Frontier::empty(0);
        vertex_map(&f, &pool(), |_| panic!("must not be called"));
    }
}
