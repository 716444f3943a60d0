//! Tolerant floating-point comparison helpers for cross-engine validation.
//!
//! Different traversal orders (push vs pull, partitioned vs whole) sum
//! floating-point contributions in different orders, so engines agree only
//! up to rounding. These helpers make the tolerance explicit.

/// Maximum elementwise discrepancy `|a - b| / (atol + rtol * |b|)`.
/// A result `<= 1.0` means "within tolerance".
pub fn max_scaled_diff_f64(a: &[f64], b: &[f64], rtol: f64, atol: f64) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs() / (atol + rtol * y.abs()))
        .fold(0.0, f64::max)
}

/// Asserts elementwise closeness of two `f64` vectors.
///
/// # Panics
/// Panics with the index and values of the worst mismatch.
pub fn assert_close_f64(a: &[f64], b: &[f64], rtol: f64, atol: f64) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let tol = atol + rtol * y.abs();
        assert!(
            (x - y).abs() <= tol,
            "index {i}: {x} vs {y} (diff {}, tol {tol})",
            (x - y).abs()
        );
    }
}

/// Asserts elementwise closeness of two `f32` vectors, treating equal
/// infinities as close.
#[cfg(test)]
pub(crate) fn assert_close_f32(a: &[f32], b: &[f32], rtol: f32, atol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        if x.is_infinite() || y.is_infinite() {
            assert_eq!(x, y, "index {i}: {x} vs {y}");
            continue;
        }
        let tol = atol + rtol * y.abs();
        assert!(
            (x - y).abs() <= tol,
            "index {i}: {x} vs {y} (diff {}, tol {tol})",
            (x - y).abs()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn close_vectors_pass() {
        assert_close_f64(&[1.0, 2.0], &[1.0 + 1e-12, 2.0 - 1e-12], 1e-9, 1e-12);
        assert_close_f32(
            &[f32::INFINITY, 1.0],
            &[f32::INFINITY, 1.0 + 1e-7],
            1e-5,
            1e-7,
        );
    }

    #[test]
    #[should_panic(expected = "index 1")]
    fn distant_vectors_fail() {
        assert_close_f64(&[1.0, 2.0], &[1.0, 2.5], 1e-9, 1e-12);
    }

    #[test]
    fn scaled_diff_reports_worst() {
        let d = max_scaled_diff_f64(&[1.0, 2.0], &[1.0, 2.0 + 2e-9], 1e-9, 0.0);
        assert!(d > 0.9 && d < 1.1, "{d}");
    }
}
