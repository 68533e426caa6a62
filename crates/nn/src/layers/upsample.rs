//! Bicubic global-skip wrapper for super-resolution models:
//! `out = body(x) + bicubic↑(x)`.
//!
//! The network then only learns the residual above classical
//! interpolation, which makes small-scale training start from the
//! bicubic baseline instead of random output.

use crate::layer::{Layer, Node, SkipKind};
use crate::layers::structure::Sequential;
use crate::program::forward;
use ringcnn_imaging::degrade::{resize_bicubic_adjoint, upsample};
use ringcnn_tensor::tensor::Tensor;

/// `body(x) + bicubic_upsample(x, factor)`.
pub struct UpsampleResidual {
    body: Sequential,
    factor: usize,
    cached_in_hw: Option<(usize, usize)>,
}

impl UpsampleResidual {
    /// Wraps `body` (which must scale resolution by `factor`).
    pub fn new(body: Sequential, factor: usize) -> Self {
        Self {
            body,
            factor,
            cached_in_hw: None,
        }
    }

    /// The wrapped body.
    pub fn body_mut(&mut self) -> &mut Sequential {
        &mut self.body
    }

    /// The upsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Layer for UpsampleResidual {
    fn name(&self) -> String {
        format!("upsample_residual(x{})", self.factor)
    }

    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        let s = input.shape();
        self.cached_in_hw = Some((s.h, s.w));
        let mut out = self.body.forward_train(input);
        out.add_assign(&upsample(input, self.factor));
        out
    }

    fn describe(&self) -> Node<'_> {
        Node::Skip(&self.body, SkipKind::Bicubic(self.factor))
    }

    fn forward_infer(&self, input: &Tensor) -> Tensor {
        forward(self, input)
    }

    fn children_mut(&mut self) -> Option<&mut [Box<dyn Layer>]> {
        self.body.children_mut()
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let (h, w) = self
            .cached_in_hw
            .take()
            .expect("backward without training forward");
        let mut din = self.body.backward(dout);
        din.add_assign(&resize_bicubic_adjoint(dout, h, w));
        din
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Scales the weights of a conv layer (of any lowering) in place — used
/// to give residual branches a near-identity initialization.
pub fn scale_conv_weights(layer: &mut dyn Layer, factor: f32) {
    for w in layer.as_conv_mut().into_iter().flat_map(|c| c.params_mut()) {
        *w *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra_choice::Algebra;
    use crate::layer::input_gradient_and_fd;
    use crate::layers::shuffle::PixelShuffle;
    use ringcnn_tensor::prelude::*;

    fn up4_body() -> Sequential {
        let alg = Algebra::real();
        Sequential::new()
            .with(alg.conv(1, 16, 3, 1))
            .with(Box::new(PixelShuffle::new(4)))
    }

    #[test]
    fn output_includes_bicubic_skip() {
        let mut m = UpsampleResidual::new(up4_body(), 4);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 1);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), Shape4::new(1, 1, 16, 16));
        // Zero body → output is exactly bicubic.
        let mut zero_body = up4_body();
        zero_body.for_each_layer_mut(&mut |l| scale_conv_weights(l, 0.0));
        let mut m0 = UpsampleResidual::new(zero_body, 4);
        let y0 = m0.forward(&x, false);
        assert!(y0.mse(&upsample(&x, 4)) < 1e-12);
    }

    #[test]
    fn backward_gradcheck_through_skip() {
        let mut m = UpsampleResidual::new(up4_body(), 4);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 2);
        let dout = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), -1.0, 1.0, 3);
        let (an, fd) = input_gradient_and_fd(&mut m, (&x, &dout), [0, 0, 1, 2], 1e-2);
        assert!((fd - an).abs() < 3e-2, "fd {fd} vs {an}");
    }

    #[test]
    fn scale_conv_weights_hits_ring_convs() {
        let alg = Algebra::ri_fh(2);
        let mut conv = alg.conv(2, 2, 3, 4);
        scale_conv_weights(conv.as_mut(), 0.0);
        assert!(conv.name().starts_with("rconv3x3[RI2]"));
        let weights = conv.as_conv_mut().expect("a convolution").params_mut();
        assert!(weights.iter().all(|w| *w == 0.0));
    }
}
