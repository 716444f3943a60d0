//! Edge-weight generation.
//!
//! Bellman–Ford, SPMV and belief propagation need weighted graphs; the
//! synthetic data sets attach weights with these helpers. Deterministic
//! given the seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::edge_list::EdgeList;

/// Attaches independent uniform weights in `[lo, hi)` to every edge.
pub fn attach_uniform(el: &mut EdgeList, lo: f32, hi: f32, seed: u64) {
    assert!(lo < hi, "empty weight range");
    let mut rng = SmallRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..el.num_edges()).map(|_| rng.gen_range(lo..hi)).collect();
    el.set_weights(w);
}

/// Attaches integer-valued weights drawn uniformly from `1..=max`, stored
/// as `f32`. Shortest-path tests use integral weights so distances compare
/// exactly.
pub fn attach_integer(el: &mut EdgeList, max: u32, seed: u64) {
    assert!(max >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let w: Vec<f32> = (0..el.num_edges())
        .map(|_| rng.gen_range(1..=max) as f32)
        .collect();
    el.set_weights(w);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_in_range_and_deterministic() {
        let mut a = EdgeList::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let mut b = a.clone();
        attach_uniform(&mut a, 0.5, 2.0, 42);
        attach_uniform(&mut b, 0.5, 2.0, 42);
        assert_eq!(a.weights(), b.weights());
        for w in a.weights().unwrap() {
            assert!((0.5..2.0).contains(w));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = EdgeList::from_edges(2, [(0, 1); 32].to_vec().as_slice());
        let mut b = a.clone();
        attach_uniform(&mut a, 0.0, 1.0, 1);
        attach_uniform(&mut b, 0.0, 1.0, 2);
        assert_ne!(a.weights(), b.weights());
    }

    #[test]
    fn integer_weights_are_integral() {
        let mut el = EdgeList::from_edges(2, [(0, 1); 64].to_vec().as_slice());
        attach_integer(&mut el, 10, 7);
        for &w in el.weights().unwrap() {
            assert!((1.0..=10.0).contains(&w));
            assert_eq!(w.fract(), 0.0);
        }
    }
}
