//! Classification metrics.

/// Fraction of matching predictions.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// Confusion matrix: `m[true][pred]` counts.
pub fn confusion_matrix(predictions: &[usize], labels: &[usize], classes: usize) -> Vec<Vec<u64>> {
    let mut m = vec![vec![0u64; classes]; classes];
    for (&p, &l) in predictions.iter().zip(labels) {
        m[l][p] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basics() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_counts_by_truth_row() {
        let m = confusion_matrix(&[0, 0, 1], &[0, 1, 1], 2);
        assert_eq!(m[0][0], 1);
        assert_eq!(m[1][0], 1);
        assert_eq!(m[1][1], 1);
        assert_eq!(m[0][1], 0);
    }

    #[test]
    fn perfect_predictions_score_one() {
        let labels = [0, 1, 2, 0, 1, 2];
        assert_eq!(accuracy(&labels, &labels), 1.0);
    }
}
