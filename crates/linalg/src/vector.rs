//! Slice helpers shared by the models: dot products, norms, softmax, argmax.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Numerically stable softmax (subtracts the max before exponentiating).
///
/// Returns an empty vector for empty input.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let Some(max) = z.iter().copied().reduce(f64::max) else {
        return Vec::new();
    };
    let exps: Vec<f64> = z.iter().map(|&v| (v - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Index of the largest element (first on ties).
///
/// Returns `None` for empty input.
pub fn argmax(a: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in a.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Mean of a slice; 0.0 for empty input.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population standard deviation; 0.0 for empty input.
pub fn std_dev(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    (a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_lengths() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }
}
