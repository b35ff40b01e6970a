//! Canonical-order float reductions.
//!
//! Float addition is not associative, so `.sum::<f64>()` over a container
//! answers differently depending on the iteration order feeding it. Under
//! the parallel simulation engine, per-vault partials arrive in worker
//! order — which is exactly the nondeterminism the D4 lint rule exists to
//! keep out of the deterministic crates. Every float reduction in those
//! crates routes through this module instead: the helpers fold strictly
//! left-to-right over the iterator handed to them, making the reduction
//! order part of the call site's contract (callers pass index-ascending
//! iterators; the double-run determinism suite pins the results).
//!
//! This file is the one place exempt from D4
//! ([`spacea-lint` rule D4](../../lint/src/rules.rs)); everything else
//! calls in.

/// Left-to-right sum of `f64` values, in exactly the iterator's order.
pub fn sum_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = 0.0f64;
    for v in values {
        acc += v;
    }
    acc
}

/// Maximum of `f64` values via [`f64::max`], folding left-to-right from
/// `f64::NEG_INFINITY` (so an empty iterator yields `NEG_INFINITY`, and
/// NaNs are skipped the way `f64::max` skips them).
pub fn max_f64(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = f64::NEG_INFINITY;
    for v in values {
        acc = acc.max(v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_match_the_iterator_order_exactly() {
        // A sequence chosen so reordering changes the rounded result:
        // (1e16 + 1.0) - 1e16 == 0.0 but (1e16 - 1e16) + 1.0 == 1.0.
        let forward = sum_f64([1e16, 1.0, -1e16]);
        let reordered = sum_f64([1e16, -1e16, 1.0]);
        assert_eq!(forward, 0.0);
        assert_eq!(reordered, 1.0);
        // And the helper is bit-identical to the explicit left fold.
        let xs = [0.1, 0.2, 0.3, 0.4, 0.7];
        let explicit = xs.iter().copied().fold(0.0f64, |a, b| a + b);
        assert_eq!(sum_f64(xs).to_bits(), explicit.to_bits());
    }

    #[test]
    fn empty_reductions_have_identity_results() {
        assert_eq!(sum_f64([]), 0.0);
        assert_eq!(max_f64([]), f64::NEG_INFINITY);
    }

    #[test]
    fn max_skips_nan_like_the_std_combinator() {
        assert_eq!(max_f64([1.0, f64::NAN, 3.0, 2.0]), 3.0);
    }
}
