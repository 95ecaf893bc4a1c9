//! Split-quality measures for the tree learners (§4.2: "Gini score to
//! determine how to split").

/// Gini impurity of a label distribution given raw class counts:
/// `1 − Σ p_k²`. Zero for a pure node, approaching `1 − 1/k` for a uniform
/// node over `k` classes.
pub fn gini(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_node_is_zero() {
        assert_eq!(gini(&[10, 0, 0]), 0.0);
        assert_eq!(gini(&[]), 0.0);
    }

    #[test]
    fn uniform_node_is_maximal() {
        // Two balanced classes: gini 0.5.
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        // Four balanced classes: gini 0.75.
        assert!((gini(&[2, 2, 2, 2]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn impurity_orders_by_mixedness() {
        let nearly_pure = gini(&[9, 1]);
        let mixed = gini(&[6, 4]);
        assert!(nearly_pure < mixed);
    }
}
