//! Structural layers: [`Sequential`] composition and [`Residual`] blocks
//! (skip connections).
//!
//! A container exposes its children through [`Layer::children`] and
//! inherits the per-tree methods (`visit_params`, `set_conv_backend`, …)
//! as the trait's defaults over that hook.

use crate::layer::{forward_whole, visit_tree_mut, Layer};
use crate::runtime::TileHalo;
use ringcnn_tensor::tensor::Tensor as T;
use std::borrow::Cow;

/// A chain of layers applied in order. `Sequential` is itself a [`Layer`],
/// so blocks nest arbitrarily.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty chain.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends an optional layer (skipped when `None`).
    #[must_use]
    pub fn with_opt(mut self, layer: Option<Box<dyn Layer>>) -> Self {
        if let Some(l) = layer {
            self.layers.push(l);
        }
        self
    }

    /// Appends a layer in place.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Direct child access (for pruning/model surgery).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs a closure on every leaf layer of the tree in execution order
    /// (containers — nested [`Sequential`]s, [`Residual`]s, bicubic-skip
    /// wrappers — are descended, never handed to `f`).
    pub fn for_each_layer_mut(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        visit_tree_mut(self, &mut |layer| {
            if layer.children().is_none() {
                f(layer);
            }
        });
    }
}

impl Layer for Sequential {
    fn name(&self) -> String {
        format!("sequential[{}]", self.layers.len())
    }

    fn forward_train(&mut self, input: &T) -> T {
        // As in `forward_infer`, the first child reads the caller's
        // tensor (in `backward` below, the last child its gradient).
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut x = first.forward_train(input);
        for l in rest {
            x = l.forward_train(&x);
        }
        x
    }

    fn forward_infer(&self, input: &T) -> T {
        forward_whole(self, input)
    }

    fn forward_step(&self, input: Cow<'_, T>, tile: &mut TileHalo, _: usize) -> (T, bool) {
        // The first child reads the chain's input as the chain got it —
        // only an empty chain (the identity) has to copy a borrowed one —
        // and every later child is handed the tensor the chain owns.
        let mut x = input;
        let mut layers = self.layers.iter().peekable();
        while let Some(l) = layers.next() {
            // `conv → pixel_shuffle` is one step where both layers say
            // so: the engine writes where the shuffle would copy to.
            let behind = layers.peek().and_then(|next| next.pixel_shuffle_factor());
            let (y, absorbed) = l.forward_step(x, tile, behind.unwrap_or(1));
            if absorbed {
                layers.next();
            }
            x = Cow::Owned(y);
        }
        (x.into_owned(), false)
    }

    fn children(&self) -> Option<&[Box<dyn Layer>]> {
        Some(&self.layers)
    }

    fn children_mut(&mut self) -> Option<&mut [Box<dyn Layer>]> {
        Some(&mut self.layers)
    }

    fn backward(&mut self, dout: &T) -> T {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return dout.clone();
        };
        let mut d = last.backward(dout);
        for l in rest.iter_mut().rev() {
            d = l.backward(&d);
        }
        d
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Residual block: `out = x + body(x)` (shapes must match).
pub struct Residual {
    body: Sequential,
}

impl Residual {
    /// Wraps a body in a skip connection.
    pub fn new(body: Sequential) -> Self {
        Self { body }
    }

    /// The wrapped body.
    pub fn body_mut(&mut self) -> &mut Sequential {
        &mut self.body
    }
}

impl Layer for Residual {
    fn name(&self) -> String {
        format!("residual({})", self.body.name())
    }

    fn forward_train(&mut self, input: &T) -> T {
        let mut out = self.body.forward_train(input);
        out.add_assign(input);
        out
    }

    fn forward_infer(&self, input: &T) -> T {
        forward_whole(self, input)
    }

    fn forward_step(&self, input: Cow<'_, T>, tile: &mut TileHalo, _: usize) -> (T, bool) {
        // The skip is added over the region the body still wrote.
        let [top, left, ..] = tile.margin;
        let (mut out, _) = self.body.forward_step(Cow::Borrowed(&*input), tile, 1);
        out.add_window(&input, top - tile.margin[0], left - tile.margin[1]);
        (out, false)
    }

    // The skip path is pointwise, so the body's layers are all there is
    // to walk.
    fn children(&self) -> Option<&[Box<dyn Layer>]> {
        self.body.children()
    }

    fn children_mut(&mut self) -> Option<&mut [Box<dyn Layer>]> {
        self.body.children_mut()
    }

    fn backward(&mut self, dout: &T) -> T {
        let mut d = self.body.backward(dout);
        d.add_assign(dout);
        d
    }

    fn out_channels(&self, in_channels: usize) -> usize {
        let co = self.body.out_channels(in_channels);
        assert_eq!(co, in_channels, "residual body must preserve channels");
        co
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::input_gradient_and_fd;
    use crate::layers::activation::Relu;
    use crate::layers::conv::Conv2d;
    use ringcnn_tensor::prelude::*;

    #[test]
    fn sequential_chains_forward() {
        let mut m = Sequential::new()
            .with(Box::new(Conv2d::new(2, 4, 3, 1)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Conv2d::new(4, 2, 3, 2)));
        let x = T::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 9);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        assert_eq!(m.out_channels(2), 2);
    }

    #[test]
    fn residual_adds_skip() {
        let mut r = Residual::new(Sequential::new()); // empty body: out = 2x
        let x = T::from_vec(Shape4::new(1, 1, 1, 2), vec![1.0, 2.0]);
        let y = r.forward(&x, false);
        assert_eq!(y.as_slice(), &[2.0, 4.0]);
        let d = r.backward(&T::full(Shape4::new(1, 1, 1, 2), 1.0));
        assert_eq!(d.as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn sequential_backward_gradcheck() {
        let mut m = Sequential::new()
            .with(Box::new(Conv2d::new(2, 3, 3, 4)))
            .with(Box::new(Relu::new()))
            .with(Box::new(Conv2d::new(3, 2, 3, 5)));
        let x = T::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 10);
        let dout = T::random_uniform(Shape4::new(1, 2, 4, 4), -1.0, 1.0, 11);
        let (an, fd) = input_gradient_and_fd(&mut m, (&x, &dout), [0, 0, 1, 1], 1e-2);
        assert!((fd - an).abs() < 2e-2);
    }

    #[test]
    fn for_each_layer_recurses_into_residuals() {
        let mut m = Sequential::new()
            .with(Box::new(Conv2d::new(2, 2, 3, 1)))
            .with(Box::new(Residual::new(
                Sequential::new().with(Box::new(Conv2d::new(2, 2, 3, 2))),
            )));
        let mut names = Vec::new();
        m.for_each_layer_mut(&mut |l| names.push(l.name()));
        assert_eq!(names.len(), 2);
        assert!(names.iter().all(|n| n.starts_with("conv3x3")));
    }

    #[test]
    fn for_each_layer_recurses_into_upsample_residuals() {
        // Regression: pruning must reach convolutions inside the bicubic
        // global-skip wrapper used by SR models.
        use crate::layers::upsample::UpsampleResidual;
        let body = Sequential::new().with(Box::new(Conv2d::new(16, 16, 3, 1)));
        let mut m = Sequential::new().with(Box::new(UpsampleResidual::new(body, 1)));
        let mut names = Vec::new();
        m.for_each_layer_mut(&mut |l| names.push(l.name()));
        assert_eq!(names, vec!["conv3x3(16->16)".to_string()]);
    }
}
