//! Minimal training loops for regression (imaging) and classification
//! (Appendix C), with the paper-style two-phase learning-rate schedule
//! (Table III: initial rate, decayed for the final fine-tune phase).

use crate::layer::Layer;
use crate::layers::structure::Sequential;
use crate::loss::{cross_entropy_loss, mse_loss};
use crate::optim::Adam;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ringcnn_tensor::prelude::*;

/// Training hyper-parameters (a CPU-scale analogue of Table III).
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Total gradient steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Learning rate is multiplied by 0.1 after this fraction of steps
    /// (the "polishment" phase).
    pub decay_after: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            steps: 300,
            batch: 4,
            lr: 2e-3,
            decay_after: 0.7,
            seed: 0,
        }
    }
}

/// Summary of one training run.
#[derive(Clone, Debug)]
pub struct TrainReport {
    /// Loss after each step.
    pub losses: Vec<f64>,
    /// Mean loss over the last 10% of steps.
    pub final_loss: f64,
}

/// Trains `model` to map `inputs[i] → targets[i]` under MSE.
///
/// `inputs`/`targets` are datasets stacked along the batch dimension.
///
/// # Panics
///
/// Panics if the two datasets have different item counts.
pub fn train_regression(
    model: &mut Sequential,
    inputs: &Tensor,
    targets: &Tensor,
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(
        inputs.shape().n,
        targets.shape().n,
        "paired datasets required"
    );
    train(model, inputs.shape().n, cfg, |model, idx| {
        let x = gather(inputs, idx);
        let y = gather(targets, idx);
        mse_loss(&model.forward(&x, true), &y)
    })
}

/// Trains a classifier on `(inputs, labels)`; returns per-step losses and
/// the final training accuracy sampled on the whole set.
pub fn train_classifier(
    model: &mut Sequential,
    inputs: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> TrainReport {
    assert_eq!(inputs.shape().n, labels.len(), "one label per item");
    train(model, labels.len(), cfg, |model, idx| {
        let x = gather(inputs, idx);
        let y: Vec<usize> = idx.iter().map(|i| labels[*i]).collect();
        let (loss, grad, _) = cross_entropy_loss(&model.forward(&x, true), &y);
        (loss, grad)
    })
}

/// The step loop over a dataset of `count` items: each step sets the
/// scheduled rate, draws a batch of indices, zeroes the gradients, and
/// back-propagates the `(loss, grad)` that `step` returns for the batch.
fn train(
    model: &mut Sequential,
    count: usize,
    cfg: &TrainConfig,
    mut step: impl FnMut(&mut Sequential, &[usize]) -> (f64, Tensor),
) -> TrainReport {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.lr);
    let mut losses = Vec::with_capacity(cfg.steps);
    for i in 0..cfg.steps {
        adam.lr = schedule(cfg, i);
        let idx: Vec<usize> = (0..cfg.batch).map(|_| rng.gen_range(0..count)).collect();
        model.zero_grads();
        let (loss, grad) = step(model, &idx);
        model.backward(&grad);
        adam.step(model);
        losses.push(loss);
    }
    let tail = (losses.len() / 10).max(1);
    let final_loss = losses[losses.len() - tail..].iter().sum::<f64>() / tail as f64;
    TrainReport { losses, final_loss }
}

/// Batched inference over a stacked dataset (inference mode, no caches).
pub fn predict(model: &mut Sequential, inputs: &Tensor) -> Tensor {
    model.forward(inputs, false)
}

/// Classification accuracy of `model` on a labelled set.
pub fn accuracy(model: &mut Sequential, inputs: &Tensor, labels: &[usize]) -> f64 {
    let logits = model.forward(inputs, false);
    let (_, _, correct) = cross_entropy_loss(&logits, labels);
    correct as f64 / labels.len().max(1) as f64
}

fn schedule(cfg: &TrainConfig, step: usize) -> f32 {
    if (step as f64) < cfg.decay_after * cfg.steps as f64 {
        cfg.lr
    } else {
        cfg.lr * 0.1
    }
}

fn gather(data: &Tensor, idx: &[usize]) -> Tensor {
    let items: Vec<Tensor> = idx.iter().map(|i| data.batch_item(*i)).collect();
    Tensor::stack_batches(&items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra_choice::Algebra;

    #[test]
    fn regression_reduces_loss_on_identity_task() {
        // Teach a 1-layer conv to pass its input through.
        let alg = Algebra::real();
        let mut model = Sequential::new().with(alg.conv(1, 1, 3, 42));
        let xs = Tensor::random_uniform(Shape4::new(8, 1, 6, 6), 0.0, 1.0, 1);
        let cfg = TrainConfig {
            steps: 200,
            batch: 4,
            lr: 5e-2,
            decay_after: 0.8,
            seed: 2,
        };
        let report = train_regression(&mut model, &xs, &xs, &cfg);
        assert!(
            report.final_loss < report.losses[0] * 0.1,
            "loss {} -> {}",
            report.losses[0],
            report.final_loss
        );
    }

    #[test]
    fn ring_model_learns_identity_too() {
        let alg = Algebra::ri_fh(2);
        let mut model = Sequential::new().with(alg.conv(2, 2, 3, 42));
        let xs = Tensor::random_uniform(Shape4::new(8, 2, 6, 6), 0.0, 1.0, 3);
        let cfg = TrainConfig {
            steps: 200,
            batch: 4,
            lr: 5e-2,
            decay_after: 0.8,
            seed: 4,
        };
        let report = train_regression(&mut model, &xs, &xs, &cfg);
        assert!(report.final_loss < report.losses[0] * 0.2);
    }

    #[test]
    fn classifier_learns_trivial_split() {
        // Two classes distinguished by mean intensity.
        let alg = Algebra::real();
        let mut model = Sequential::new()
            .with(alg.conv(1, 4, 3, 7))
            .with_opt(alg.activation())
            .with(Box::new(crate::layers::dense::GlobalAvgPool::new()))
            .with(Box::new(crate::layers::dense::Dense::new(4, 2, 8)));
        let bright = Tensor::random_uniform(Shape4::new(8, 1, 4, 4), 0.7, 1.0, 5);
        let dark = Tensor::random_uniform(Shape4::new(8, 1, 4, 4), 0.0, 0.3, 6);
        let xs = Tensor::stack_batches(&[bright, dark]);
        let labels: Vec<usize> = (0..16).map(|i| usize::from(i >= 8)).collect();
        let cfg = TrainConfig {
            steps: 150,
            batch: 8,
            lr: 2e-2,
            decay_after: 0.8,
            seed: 7,
        };
        let _ = train_classifier(&mut model, &xs, &labels, &cfg);
        assert!(accuracy(&mut model, &xs, &labels) > 0.9);
    }

    #[test]
    fn schedule_decays() {
        let cfg = TrainConfig {
            steps: 100,
            decay_after: 0.5,
            lr: 1.0,
            batch: 1,
            seed: 0,
        };
        assert_eq!(schedule(&cfg, 10), 1.0);
        assert!((schedule(&cfg, 60) - 0.1).abs() < 1e-6);
    }
}
