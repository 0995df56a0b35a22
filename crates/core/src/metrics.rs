//! Evaluation metrics: classification (accuracy, F1, ROC-AUC) and
//! regression (MAE, RMSE, R², MAPE), matching the paper's tables.

/// Classification metrics for the link-prediction task (Tables II/III/V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMetrics {
    /// Accuracy at threshold 0.5.
    pub accuracy: f64,
    /// F1 score of the positive class at threshold 0.5.
    pub f1: f64,
    /// Area under the ROC curve (rank-based, tie-aware).
    pub auc: f64,
}

/// Computes [`LinkMetrics`] from scores in `[0, 1]` and binary labels.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn link_metrics(scores: &[f32], labels: &[f32]) -> LinkMetrics {
    assert_eq!(scores.len(), labels.len(), "scores/labels length mismatch");
    assert!(!scores.is_empty(), "cannot compute metrics on an empty set");
    let mut tp = 0.0f64;
    let mut fp = 0.0f64;
    let mut tn = 0.0f64;
    let mut fn_ = 0.0f64;
    for (&s, &y) in scores.iter().zip(labels) {
        let pred = s >= 0.5;
        let pos = y >= 0.5;
        match (pred, pos) {
            (true, true) => tp += 1.0,
            (true, false) => fp += 1.0,
            (false, false) => tn += 1.0,
            (false, true) => fn_ += 1.0,
        }
    }
    let accuracy = (tp + tn) / (tp + tn + fp + fn_);
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    LinkMetrics {
        accuracy,
        f1,
        auc: roc_auc(scores, labels),
    }
}

/// Rank-based ROC-AUC (Mann–Whitney U with midranks for ties).
///
/// Returns 0.5 when either class is absent.
pub fn roc_auc(scores: &[f32], labels: &[f32]) -> f64 {
    let n = scores.len();
    let n_pos = labels.iter().filter(|&&y| y >= 0.5).count();
    let n_neg = n - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Midranks over tied score groups.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            if labels[k] >= 0.5 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - (n_pos as f64 * (n_pos as f64 + 1.0)) / 2.0;
    u / (n_pos as f64 * n_neg as f64)
}

/// Regression metrics (Tables VI/VII/VIII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegMetrics {
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Computes [`RegMetrics`] from predictions and targets.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn reg_metrics(preds: &[f32], targets: &[f32]) -> RegMetrics {
    assert_eq!(preds.len(), targets.len(), "preds/targets length mismatch");
    assert!(!preds.is_empty(), "cannot compute metrics on an empty set");
    let n = preds.len() as f64;
    let mae = preds
        .iter()
        .zip(targets)
        .map(|(&p, &y)| (p - y).abs() as f64)
        .sum::<f64>()
        / n;
    let mse = preds
        .iter()
        .zip(targets)
        .map(|(&p, &y)| ((p - y) as f64).powi(2))
        .sum::<f64>()
        / n;
    let mean_y = targets.iter().map(|&y| y as f64).sum::<f64>() / n;
    let ss_tot: f64 = targets.iter().map(|&y| (y as f64 - mean_y).powi(2)).sum();
    let ss_res: f64 = preds
        .iter()
        .zip(targets)
        .map(|(&p, &y)| ((y - p) as f64).powi(2))
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        0.0
    };
    RegMetrics {
        mae,
        rmse: mse.sqrt(),
        r2,
    }
}

/// Mean absolute percentage error (Fig. 4's energy-validation metric),
/// in percent. Zero-valued targets are skipped.
pub fn mape(preds: &[f64], targets: &[f64]) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for (&p, &y) in preds.iter().zip(targets) {
        if y != 0.0 {
            total += ((p - y) / y).abs();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        100.0 * total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier() {
        let m = link_metrics(&[0.9, 0.8, 0.1, 0.2], &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f1, 1.0);
        assert_eq!(m.auc, 1.0);
    }

    #[test]
    fn random_classifier_auc_half() {
        // All scores identical → AUC must be exactly 0.5 via midranks.
        let m = link_metrics(
            &[0.5; 10],
            &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        );
        assert!((m.auc - 0.5).abs() < 1e-9);
    }

    #[test]
    fn inverted_classifier_auc_zero() {
        let m = link_metrics(&[0.1, 0.9], &[1.0, 0.0]);
        assert_eq!(m.auc, 0.0);
        assert_eq!(m.accuracy, 0.0);
    }

    #[test]
    fn f1_handles_no_positive_predictions() {
        let m = link_metrics(&[0.1, 0.2], &[1.0, 0.0]);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn auc_with_ties_is_symmetric() {
        let scores = [0.3, 0.3, 0.7, 0.7];
        let labels = [0.0, 1.0, 0.0, 1.0];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn regression_metrics_hand_checked() {
        let m = reg_metrics(&[1.0, 2.0, 3.0], &[1.0, 2.0, 5.0]);
        assert!((m.mae - 2.0 / 3.0).abs() < 1e-9);
        assert!((m.rmse - (4.0f64 / 3.0).sqrt()).abs() < 1e-9);
        // ss_tot for targets mean 8/3: (1-8/3)² + (2-8/3)² + (5-8/3)²
        let mean: f64 = 8.0 / 3.0;
        let ss_tot = (1.0 - mean).powi(2) + (2.0 - mean).powi(2) + (5.0 - mean).powi(2);
        assert!((m.r2 - (1.0 - 4.0 / ss_tot)).abs() < 1e-9);
    }

    #[test]
    fn perfect_regression() {
        let m = reg_metrics(&[0.2, 0.4], &[0.2, 0.4]);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.r2, 1.0);
    }

    #[test]
    fn mape_basic() {
        assert!((mape(&[110.0, 90.0], &[100.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(mape(&[1.0], &[0.0]), 0.0);
    }
}
