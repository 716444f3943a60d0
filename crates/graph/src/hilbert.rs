//! Hilbert space-filling curve over the adjacency matrix.
//!
//! §IV.C of the paper sorts COO edge lists by the Hilbert index of the
//! `(src, dst)` coordinate, following Murray et al. (Naiad) and McSherry et
//! al. (COST). Traversing edges along the curve keeps both the source and
//! the destination coordinate within a small window at every scale, which
//! improves temporal locality on *both* the current and the next arrays —
//! the paper measures it as up to 16.2 % faster than source- or
//! destination-sorted orders once enough partitions remove atomics.
//!
//! # Encoding is table-driven
//!
//! Building the COO keys every edge once ([`crate::reorder`]), so
//! [`xy_to_d`] is the set-up path's inner loop. The classic encoder walks
//! one bit-pair per step: emit the quadrant digit, then swap and/or
//! complement every lower bit ("rotate and flip"). Swap and complement
//! commute, so what the loop carries from step to step is one of **four
//! orientations** — (swapped?, complemented?) — and the encoder is a
//! 4-state machine over bit-pairs. `STEP_TABLE` runs that machine
//! `PAIRS_PER_STEP` (4) bit-pairs at a time: indexed by
//! `(orientation, x nibble, y nibble)` it yields eight bits of distance
//! and the next orientation, 1024 `u16` entries (2 KiB, L1-resident)
//! generated at compile time from the one-bit-pair step. An `order` that
//! is not a multiple of the step width is padded with leading zero
//! bit-pairs: a `(0, 0)` pair emits digit 0 and toggles "swapped", so an
//! odd pad is undone by *starting* swapped — one loop serves every
//! `order` in `1..=32`. The per-bit loop survives only as the
//! `#[cfg(test)]` reference the table is checked against.
//!
//! `order` ≤ 32, so the distance fits in `u64`.

/// Maximum supported curve order (bits per coordinate).
pub const MAX_ORDER: u32 = 32;

/// Bit-pairs one [`STEP_TABLE`] lookup consumes.
const PAIRS_PER_STEP: u32 = 4;

/// Orientation bit: the lower bits' `x` and `y` are exchanged.
const SWAPPED: usize = 1;
/// Orientation bit: the lower bits of both coordinates are complemented.
const FLIPPED: usize = 2;

/// One step of the rotate-and-flip loop, on the orientation instead of on
/// the coordinates: maps the raw bit-pair `(xb, yb)` seen under
/// `orientation` to its base-4 curve digit and the orientation of
/// everything below it.
const fn step(orientation: usize, xb: usize, yb: usize) -> (usize, usize) {
    let flip = (orientation & FLIPPED != 0) as usize;
    let (rx, ry) = if orientation & SWAPPED != 0 {
        (yb ^ flip, xb ^ flip)
    } else {
        (xb ^ flip, yb ^ flip)
    };
    let mut next = orientation;
    if ry == 0 {
        if rx == 1 {
            next ^= FLIPPED;
        }
        next ^= SWAPPED;
    }
    ((3 * rx) ^ ry, next)
}

/// `STEP_TABLE[orientation << 8 | x_nibble << 4 | y_nibble]` is
/// `next_orientation << 8 | distance_byte`: [`PAIRS_PER_STEP`]
/// applications of [`step`], most significant bit-pair first. The next
/// orientation sits where the index wants it, so a lookup chain is
/// mask-or-load.
static STEP_TABLE: [u16; 1024] = {
    let mut table = [0u16; 1024];
    let mut i = 0;
    while i < table.len() {
        let (mut orientation, x, y) = (i >> 8, (i >> 4) & 0xF, i & 0xF);
        let mut d = 0;
        let mut bit = PAIRS_PER_STEP;
        while bit > 0 {
            bit -= 1;
            let (digit, next) = step(orientation, (x >> bit) & 1, (y >> bit) & 1);
            d = d << 2 | digit;
            orientation = next;
        }
        table[i] = (orientation << 8 | d) as u16;
        i += 1;
    }
    table
};

/// Maps a cell `(x, y)` on the `2^order`-sided grid to its distance along
/// the Hilbert curve.
///
/// # Panics
/// Panics (debug) if a coordinate does not fit in `order` bits or
/// `order > 32`.
#[inline]
pub fn xy_to_d(order: u32, x: u64, y: u64) -> u64 {
    debug_assert!((1..=MAX_ORDER).contains(&order));
    debug_assert!(x >> order == 0 && y >> order == 0);
    let steps = order.div_ceil(PAIRS_PER_STEP);
    let pad = steps * PAIRS_PER_STEP - order;
    // Entries carry the orientation in bits 8..10, as the index does.
    let mut entry = ((pad as usize & 1) * SWAPPED) << 8;
    let mut d: u64 = 0;
    for s in (0..steps).rev() {
        let shift = s * PAIRS_PER_STEP;
        let nibbles = ((x >> shift) & 0xF) << 4 | ((y >> shift) & 0xF);
        entry = STEP_TABLE[(entry & 0x300) | nibbles as usize] as usize;
        // At order 32 the eight bytes fill the word exactly; the first
        // shift moves zeros, so nothing is lost.
        d = d << 8 | (entry & 0xFF) as u64;
    }
    d
}

#[inline]
fn rotate(s: u64, x: &mut u64, y: &mut u64, rx: u64, ry: u64) {
    if ry == 0 {
        if rx == 1 {
            *x = s.wrapping_sub(1).wrapping_sub(*x);
            *y = s.wrapping_sub(1).wrapping_sub(*y);
        }
        std::mem::swap(x, y);
    }
}

/// The classic one-bit-pair-per-step rotate-and-flip encoder:
/// the reference [`xy_to_d`]'s table is tested against.
#[cfg(test)]
pub(crate) fn xy_to_d_bit_loop(order: u32, mut x: u64, mut y: u64) -> u64 {
    let side = 1u64 << order;
    let mut d: u64 = 0;
    let mut s: u64 = side >> 1;
    while s > 0 {
        let rx = u64::from(x & s > 0);
        let ry = u64::from(y & s > 0);
        // s*s*3 <= 3 * 2^62 < 2^64 for order <= 32; the running sum is a
        // valid curve distance and therefore never exceeds side^2 - 1.
        d += s * s * ((3 * rx) ^ ry);
        // The encode direction rotates about the full grid.
        rotate(side, &mut x, &mut y, rx, ry);
        s >>= 1;
    }
    d
}

/// Maps a distance `d` along the Hilbert curve back to its `(x, y)` cell.
pub fn d_to_xy(order: u32, d: u64) -> (u64, u64) {
    debug_assert!((1..=MAX_ORDER).contains(&order));
    let side = 1u64 << order;
    let (mut x, mut y) = (0u64, 0u64);
    let mut t = d;
    let mut s: u64 = 1;
    while s < side {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        // The decode direction rotates about the current sub-grid.
        rotate(s, &mut x, &mut y, rx, ry);
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    (x, y)
}

/// The smallest curve order whose grid covers `0..n` on both axes.
pub fn order_for(n: usize) -> u32 {
    if n <= 1 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()).max(1)
    }
}

/// Hilbert distance of an edge `(src, dst)` treated as a point of the
/// adjacency matrix of an `n`-vertex graph.
#[inline]
pub fn edge_key(order: u32, src: u32, dst: u32) -> u64 {
    xy_to_d(order, src as u64, dst as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order2_matches_reference() {
        // The canonical order-2 Hilbert curve visits the 4x4 grid as:
        //  0  1 14 15
        //  3  2 13 12
        //  4  7  8 11
        //  5  6  9 10
        // with x = column, y = row.
        let expected: [[u64; 4]; 4] =
            [[0, 1, 14, 15], [3, 2, 13, 12], [4, 7, 8, 11], [5, 6, 9, 10]];
        for (y, row) in expected.iter().enumerate() {
            for (x, &d) in row.iter().enumerate() {
                assert_eq!(xy_to_d(2, x as u64, y as u64), d, "({x},{y})");
            }
        }
    }

    #[test]
    fn bijective_small_orders() {
        for order in 1..=4u32 {
            let side = 1u64 << order;
            let mut seen = vec![false; (side * side) as usize];
            for x in 0..side {
                for y in 0..side {
                    let d = xy_to_d(order, x, y);
                    assert!(!seen[d as usize], "duplicate d={d}");
                    seen[d as usize] = true;
                    assert_eq!(d_to_xy(order, d), (x, y));
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn table_matches_bit_loop_on_whole_small_grids() {
        // Orders 1..=7 cover every pad (0..=3 leading zero bit-pairs, both
        // starting orientations) and a two-lookup chain, cell by cell.
        for order in 1..=7u32 {
            let side = 1u64 << order;
            for x in 0..side {
                for y in 0..side {
                    assert_eq!(
                        xy_to_d(order, x, y),
                        xy_to_d_bit_loop(order, x, y),
                        "order {order} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn consecutive_cells_are_adjacent() {
        // The defining locality property: successive curve positions are
        // Manhattan-distance-1 apart.
        let order = 5;
        let side = 1u64 << order;
        for d in 0..(side * side - 1) {
            let (x0, y0) = d_to_xy(order, d);
            let (x1, y1) = d_to_xy(order, d + 1);
            let dist = x0.abs_diff(x1) + y0.abs_diff(y1);
            assert_eq!(dist, 1, "d={d}: ({x0},{y0}) -> ({x1},{y1})");
        }
    }

    #[test]
    fn order_for_covers() {
        assert_eq!(order_for(0), 1);
        assert_eq!(order_for(1), 1);
        assert_eq!(order_for(2), 1);
        assert_eq!(order_for(3), 2);
        assert_eq!(order_for(4), 2);
        assert_eq!(order_for(5), 3);
        assert_eq!(order_for(1 << 20), 20);
        assert_eq!(order_for((1 << 20) + 1), 21);
    }

    #[test]
    fn max_order_roundtrip() {
        // Spot-check the 32-bit order used for real vertex ids.
        for &(x, y) in &[
            (0u64, 0u64),
            (u32::MAX as u64, 0),
            (0, u32::MAX as u64),
            (u32::MAX as u64, u32::MAX as u64),
            (123_456_789, 987_654_321),
        ] {
            let d = xy_to_d(32, x, y);
            assert_eq!(d_to_xy(32, d), (x, y));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::Just;

    /// Curve-visit index of the top-level quadrant holding `(x, y)`: the
    /// first term the encoder adds is `(side/2)² · ((3·rx) ^ ry)`, so the
    /// quadrant index in visit order is `(3·rx) ^ ry`.
    fn top_quadrant(order: u32, x: u64, y: u64) -> u64 {
        let half = 1u64 << (order - 1);
        let rx = u64::from(x & half > 0);
        let ry = u64::from(y & half > 0);
        (3 * rx) ^ ry
    }

    /// Strategy: a random curve order and a point on its grid.
    fn arb_point(min_order: u32) -> impl Strategy<Value = (u32, u64, u64)> {
        (min_order..=12u32).prop_flat_map(|o| {
            let side = 1u64 << o;
            (Just(o), 0..side, 0..side)
        })
    }

    /// Strategy: any supported order and a point on its grid.
    fn arb_point_any_order() -> impl Strategy<Value = (u32, u64, u64)> {
        (1..=MAX_ORDER).prop_flat_map(|o| {
            let last = u64::MAX >> (64 - o);
            (Just(o), 0..=last, 0..=last)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table-driven encoder is the bit loop, at every order —
        /// multiples of the step width, padded ones, and order 32 where
        /// the distance fills the whole word.
        #[test]
        fn table_matches_bit_loop(p in arb_point_any_order()) {
            let (order, x, y) = p;
            prop_assert_eq!(xy_to_d(order, x, y), xy_to_d_bit_loop(order, x, y));
        }

        #[test]
        fn roundtrip_random_orders(p in arb_point(1)) {
            let (order, x, y) = p;
            let d = xy_to_d(order, x, y);
            prop_assert!(d < (1u64 << order) * (1u64 << order));
            prop_assert_eq!(d_to_xy(order, d), (x, y));
        }

        #[test]
        fn roundtrip_max_order(x in 0u64..=u32::MAX as u64, y in 0u64..=u32::MAX as u64) {
            let d = xy_to_d(MAX_ORDER, x, y);
            prop_assert_eq!(d_to_xy(MAX_ORDER, d), (x, y));
        }

        #[test]
        fn distance_roundtrip(
            od in (1u32..=12).prop_flat_map(|o| (Just(o), 0..(1u64 << o) * (1u64 << o))),
        ) {
            let (order, d) = od;
            let (x, y) = d_to_xy(order, d);
            prop_assert_eq!(xy_to_d(order, x, y), d);
        }

        /// Every point of top-level quadrant q (in curve-visit order) keys
        /// into the contiguous quarter [q·side²/4, (q+1)·side²/4):
        /// edge_key is monotone in quadrant visit order, which is what
        /// makes a Hilbert-sorted edge slice recursively clustered.
        #[test]
        fn quadrants_are_contiguous_key_ranges(p in arb_point(2)) {
            let (order, x, y) = p;
            let quarter = (1u64 << order) * (1u64 << order) / 4;
            let q = top_quadrant(order, x, y);
            let key = edge_key(order, x as u32, y as u32);
            prop_assert!(q * quarter <= key && key < (q + 1) * quarter);
        }

        /// Any point of an earlier-visited quadrant precedes every point of
        /// a later-visited one.
        #[test]
        fn keys_ordered_across_quadrants(
            pq in (2u32..=12).prop_flat_map(|o| {
                let side = 1u64 << o;
                ((Just(o), 0..side, 0..side), (0..side, 0..side))
            }),
        ) {
            let ((order, x0, y0), (x1, y1)) = pq;
            let qa = top_quadrant(order, x0, y0);
            let qb = top_quadrant(order, x1, y1);
            if qa < qb {
                prop_assert!(
                    edge_key(order, x0 as u32, y0 as u32) < edge_key(order, x1 as u32, y1 as u32)
                );
            }
        }
    }
}
