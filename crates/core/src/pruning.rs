//! Weight-pruning baselines for the paper's comparisons:
//!
//! - **Unstructured magnitude pruning** (Fig. 1, Fig. 11): globally
//!   thresholds the smallest real-valued conv weights, then fine-tunes
//!   with the masks frozen. Irregular sparsity — quality baseline only
//!   (its hardware cost is modelled in `ringcnn-hw` after SparTen).
//! - **Structured (filter) pruning** (Fig. C-1, LeGR-like): removes whole
//!   output filters by a globally-normalized importance ranking.

use ringcnn_nn::layers::conv::Conv2d;
use ringcnn_nn::layers::structure::Sequential;

/// Applies global unstructured magnitude pruning to every real conv in
/// the model so that the kept fraction is `1/compression` (e.g.
/// `compression = 4.0` keeps 25% of the weights). Biases are untouched.
///
/// Returns the number of pruned weights.
///
/// # Panics
///
/// Panics if `compression < 1`.
pub fn global_magnitude_prune(model: &mut Sequential, compression: f64) -> usize {
    assert!(compression >= 1.0, "compression ratio must be ≥ 1");
    // Pass 1: gather all magnitudes.
    let mut mags: Vec<f32> = Vec::new();
    real_convs(model, &mut |conv| {
        mags.extend(conv.weights().data.iter().map(|w| w.abs()));
    });
    if mags.is_empty() {
        return 0;
    }
    let keep = ((mags.len() as f64 / compression).round() as usize).min(mags.len());
    let prune_count = mags.len() - keep;
    mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = if prune_count == 0 {
        -1.0
    } else {
        mags[prune_count - 1]
    };
    // Pass 2: install masks.
    let mut pruned = 0usize;
    real_convs(model, &mut |conv| {
        let mask: Vec<f32> = conv
            .weights()
            .data
            .iter()
            .map(|w| if w.abs() <= threshold { 0.0 } else { 1.0 })
            .collect();
        pruned += mask.iter().filter(|m| **m == 0.0).count();
        conv.set_mask(mask);
    });
    pruned
}

/// Structured filter pruning with a globally-normalized ranking (a
/// LeGR-like criterion): each output filter's L1 norm is normalized by
/// its layer's mean norm, the lowest-ranked `fraction` of all filters are
/// zeroed entirely (weights and bias), and masks freeze them for
/// fine-tuning.
///
/// Returns the number of removed filters.
pub fn structured_filter_prune(model: &mut Sequential, fraction: f64) -> usize {
    assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
    // Pass 1: collect normalized filter importances.
    let mut scores: Vec<f32> = Vec::new();
    real_convs(model, &mut |conv| {
        let per_filter = filter_norms(conv);
        let mean = per_filter.iter().sum::<f32>() / per_filter.len().max(1) as f32;
        scores.extend(per_filter.iter().map(|v| v / mean.max(1e-12)));
    });
    if scores.is_empty() {
        return 0;
    }
    let remove = (scores.len() as f64 * fraction).round() as usize;
    let mut sorted = scores.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = if remove == 0 {
        -1.0
    } else {
        sorted[remove - 1]
    };
    // Pass 2: zero the filters under the threshold.
    let mut removed = 0usize;
    real_convs(model, &mut |conv| {
        let per_filter = filter_norms(conv);
        let mean = per_filter.iter().sum::<f32>() / per_filter.len().max(1) as f32;
        let (co, ci, k) = (conv.co(), conv.ci(), conv.k());
        let mut mask = vec![1.0f32; co * ci * k * k];
        for (f, norm) in per_filter.iter().enumerate() {
            if norm / mean.max(1e-12) <= threshold {
                removed += 1;
                for v in mask[f * ci * k * k..(f + 1) * ci * k * k].iter_mut() {
                    *v = 0.0;
                }
                conv.bias_mut()[f] = 0.0;
            }
        }
        conv.set_mask(mask);
    });
    removed
}

/// Runs `f` on every real convolution of the model: pruning's subjects.
fn real_convs(model: &mut Sequential, f: &mut dyn FnMut(&mut Conv2d)) {
    model.for_each_layer_mut(&mut |l| {
        if let Some(conv) = l.as_any_mut().downcast_mut::<Conv2d>() {
            f(conv);
        }
    });
}

fn filter_norms(conv: &mut Conv2d) -> Vec<f32> {
    let (co, ci, k) = (conv.co(), conv.ci(), conv.k());
    let per = ci * k * k;
    (0..co)
        .map(|f| {
            conv.weights().data[f * per..(f + 1) * per]
                .iter()
                .map(|w| w.abs())
                .sum()
        })
        .collect()
}

/// Overall weight density of the real convs in a model (1.0 = dense).
pub fn model_density(model: &mut Sequential) -> f64 {
    let mut kept = 0usize;
    let mut total = 0usize;
    real_convs(model, &mut |conv| {
        let len = conv.weights().data.len();
        total += len;
        kept += (conv.density() * len as f64).round() as usize;
    });
    if total == 0 {
        1.0
    } else {
        kept as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;

    fn model() -> Sequential {
        let alg = Algebra::real();
        Sequential::new()
            .with(alg.conv(2, 8, 3, 1))
            .with_opt(alg.activation())
            .with(alg.conv(8, 2, 3, 2))
    }

    #[test]
    fn magnitude_prune_hits_target_density() {
        let mut m = model();
        let pruned = global_magnitude_prune(&mut m, 4.0);
        let d = model_density(&mut m);
        assert!((d - 0.25).abs() < 0.02, "density {d}");
        assert!(pruned > 0);
    }

    #[test]
    fn compression_one_prunes_nothing() {
        let mut m = model();
        let pruned = global_magnitude_prune(&mut m, 1.0);
        assert_eq!(pruned, 0);
        assert_eq!(model_density(&mut m), 1.0);
    }

    #[test]
    fn pruned_model_still_trains_and_respects_mask() {
        use ringcnn_tensor::prelude::*;
        let mut m = model();
        let _ = global_magnitude_prune(&mut m, 2.0);
        let xs = Tensor::random_uniform(Shape4::new(4, 2, 6, 6), 0.0, 1.0, 3);
        let cfg = TrainConfig {
            steps: 30,
            batch: 2,
            lr: 1e-2,
            decay_after: 0.9,
            seed: 1,
        };
        let _ = train_regression(&mut m, &xs, &xs, &cfg);
        let d = model_density(&mut m);
        assert!((d - 0.5).abs() < 0.02, "density after fine-tune {d}");
    }

    #[test]
    fn structured_prune_removes_whole_filters() {
        let mut m = model();
        let removed = structured_filter_prune(&mut m, 0.3);
        assert!(removed >= 2, "removed {removed}");
        // Density should drop noticeably (exact amount depends on which
        // layers the removed filters live in).
        let d = model_density(&mut m);
        assert!(d < 0.9, "density {d}");
    }

    #[test]
    fn pruning_reduces_effective_mults() {
        let mut m = model();
        let before = mults_per_input_pixel(&m);
        let _ = global_magnitude_prune(&mut m, 4.0);
        let after = mults_per_input_pixel(&m);
        assert!((before / after - 4.0).abs() < 0.2, "{before} -> {after}");
    }
}
