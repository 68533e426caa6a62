//! Optimizers: Adam and SGD-with-momentum, visiting layer parameters
//! through [`crate::layer::Layer::visit_params`].

use crate::layer::Layer;

/// Adam optimizer (Kingma & Ba) with per-parameter moment state.
///
/// State is keyed by visiting order, which is stable for a fixed model
/// structure.
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Applies one update step using the gradients currently accumulated
    /// in the model, then leaves gradients untouched (call
    /// [`Layer::zero_grads`] before the next accumulation).
    pub fn step(&mut self, model: &mut dyn Layer) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (m_all, v_all) = (&mut self.m, &mut self.v);
        let mut idx = 0usize;
        model.visit_params(&mut |group| {
            if m_all.len() <= idx {
                m_all.push(vec![0.0; group.values.len()]);
                v_all.push(vec![0.0; group.values.len()]);
            }
            let m = &mut m_all[idx];
            let v = &mut v_all[idx];
            assert_eq!(
                m.len(),
                group.values.len(),
                "model structure changed under Adam"
            );
            for i in 0..group.values.len() {
                let g = group.grads[i];
                m[i] = b1 * m[i] + (1.0 - b1) * g;
                v[i] = b2 * v[i] + (1.0 - b2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                group.values[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

/// Plain SGD with optional momentum.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates SGD; `momentum = 0` disables the velocity term.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update step.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let (lr, mu) = (self.lr, self.momentum);
        let vel = &mut self.velocity;
        let mut idx = 0usize;
        model.visit_params(&mut |group| {
            if vel.len() <= idx {
                vel.push(vec![0.0; group.values.len()]);
            }
            let v = &mut vel[idx];
            for i in 0..group.values.len() {
                v[i] = mu * v[i] + group.grads[i];
                group.values[i] -= lr * v[i];
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ParamGroup;
    use ringcnn_tensor::tensor::Tensor;

    struct Quad {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl Layer for Quad {
        fn name(&self) -> String {
            "quad".into()
        }
        fn forward_infer(&self, input: &Tensor) -> Tensor {
            input.clone()
        }
        fn backward(&mut self, dout: &Tensor) -> Tensor {
            dout.clone()
        }
        fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
            visitor(ParamGroup {
                values: &mut self.w,
                grads: &mut self.g,
            });
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Minimizes f(w) = ½‖w‖² whose gradient is w itself.
    fn run(optimizer: &mut dyn FnMut(&mut Quad), steps: usize) -> f32 {
        let mut layer = Quad {
            w: vec![1.0, -2.0, 3.0],
            g: vec![0.0; 3],
        };
        for _ in 0..steps {
            layer.g.copy_from_slice(&layer.w);
            optimizer(&mut layer);
        }
        layer.w.iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let final_norm = run(&mut |l| adam.step(l), 200);
        assert!(final_norm < 1e-4, "‖w‖² = {final_norm}");
    }

    #[test]
    fn sgd_with_momentum_converges() {
        let mut sgd = Sgd::new(0.05, 0.9);
        let final_norm = run(&mut |l| sgd.step(l), 200);
        assert!(final_norm < 1e-4, "‖w‖² = {final_norm}");
    }

    #[test]
    fn adam_state_is_per_parameter() {
        let mut adam = Adam::new(0.01);
        let mut layer = Quad {
            w: vec![1.0, 1.0],
            g: vec![1.0, 0.0],
        };
        adam.step(&mut layer);
        // Only the first parameter should move (second has zero grad).
        assert!(layer.w[0] < 1.0);
        assert_eq!(layer.w[1], 1.0);
    }
}
