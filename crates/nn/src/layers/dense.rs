//! Classification-head layers: global average pooling and a dense
//! (fully-connected) layer, used by the ResNet-style recognition models
//! of Appendix C.

use crate::init::he_std;
use crate::layer::{Layer, ParamGroup};
use ringcnn_tensor::prelude::*;
use ringcnn_tensor::tensor::Tensor as T;

/// Global average pooling: `[N, C, H, W] → [N, C, 1, 1]`.
#[derive(Default)]
pub struct GlobalAvgPool {
    cached_shape: Option<Shape4>,
}

impl GlobalAvgPool {
    /// Creates a pooling layer.
    pub fn new() -> Self {
        Self { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn name(&self) -> String {
        "global_avg_pool".into()
    }

    fn forward_train(&mut self, input: &T) -> T {
        self.cached_shape = Some(input.shape());
        self.forward_infer(input)
    }

    fn forward_infer(&self, input: &T) -> T {
        let s = input.shape();
        let mut out = T::zeros(Shape4::new(s.n, s.c, 1, 1));
        let inv = 1.0 / s.plane() as f32;
        for b in 0..s.n {
            for c in 0..s.c {
                *out.at_mut(b, c, 0, 0) = input.plane(b, c).iter().sum::<f32>() * inv;
            }
        }
        out
    }

    fn backward(&mut self, dout: &T) -> T {
        let s = self
            .cached_shape
            .take()
            .expect("backward without training forward");
        let mut din = T::zeros(s);
        let inv = 1.0 / s.plane() as f32;
        for b in 0..s.n {
            for c in 0..s.c {
                let g = dout.at(b, c, 0, 0) * inv;
                for v in din.plane_mut(b, c) {
                    *v = g;
                }
            }
        }
        din
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Fully-connected layer on `[N, C, 1, 1]` tensors.
pub struct Dense {
    ci: usize,
    co: usize,
    weights: Vec<f32>,
    dweights: Vec<f32>,
    bias: Vec<f32>,
    dbias: Vec<f32>,
    cached_input: Option<T>,
}

impl Dense {
    /// He-initialized dense layer.
    pub fn new(ci: usize, co: usize, seed: u64) -> Self {
        let std = he_std(ci);
        let init = T::random_normal(Shape4::new(1, 1, 1, ci * co), std, seed);
        Self {
            ci,
            co,
            weights: init.as_slice().to_vec(),
            dweights: vec![0.0; ci * co],
            bias: vec![0.0; co],
            dbias: vec![0.0; co],
            cached_input: None,
        }
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense({}->{})", self.ci, self.co)
    }

    fn forward_train(&mut self, input: &T) -> T {
        self.cached_input = Some(input.clone());
        self.forward_infer(input)
    }

    fn forward_infer(&self, input: &T) -> T {
        let s = input.shape();
        assert_eq!(
            (s.c, s.h, s.w),
            (self.ci, 1, 1),
            "dense expects [N,{},1,1]",
            self.ci
        );
        let mut out = T::zeros(Shape4::new(s.n, self.co, 1, 1));
        for b in 0..s.n {
            for o in 0..self.co {
                let mut acc = self.bias[o];
                for i in 0..self.ci {
                    acc += self.weights[o * self.ci + i] * input.at(b, i, 0, 0);
                }
                *out.at_mut(b, o, 0, 0) = acc;
            }
        }
        out
    }

    fn backward(&mut self, dout: &T) -> T {
        let input = self
            .cached_input
            .take()
            .expect("backward without training forward");
        let s = input.shape();
        let mut din = T::zeros(s);
        for b in 0..s.n {
            for o in 0..self.co {
                let g = dout.at(b, o, 0, 0);
                self.dbias[o] += g;
                for i in 0..self.ci {
                    self.dweights[o * self.ci + i] += g * input.at(b, i, 0, 0);
                    *din.at_mut(b, i, 0, 0) += g * self.weights[o * self.ci + i];
                }
            }
        }
        din
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
        visitor(ParamGroup {
            values: &mut self.weights,
            grads: &mut self.dweights,
        });
        visitor(ParamGroup {
            values: &mut self.bias,
            grads: &mut self.dbias,
        });
    }

    fn mults_per_pixel(&self) -> f64 {
        (self.ci * self.co) as f64
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_and_fd;

    #[test]
    fn pool_averages_planes() {
        let mut p = GlobalAvgPool::new();
        let x = T::from_vec(
            Shape4::new(1, 2, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0],
        );
        let y = p.forward(&x, true);
        assert_eq!(y.as_slice(), &[2.5, 10.0]);
        let d = p.backward(&T::from_vec(Shape4::new(1, 2, 1, 1), vec![4.0, 8.0]));
        assert_eq!(d.plane(0, 0), &[1.0; 4]);
        assert_eq!(d.plane(0, 1), &[2.0; 4]);
    }

    #[test]
    fn dense_forward_and_gradcheck() {
        let mut l = Dense::new(3, 2, 13);
        let x = T::random_uniform(Shape4::new(2, 3, 1, 1), -1.0, 1.0, 14);
        let dout = T::random_uniform(Shape4::new(2, 2, 1, 1), -1.0, 1.0, 15);
        let (an, fd) = input_gradient_and_fd(&mut l, (&x, &dout), [1, 2, 0, 0], 1e-3);
        assert!((fd - an).abs() < 1e-2);
    }
}
