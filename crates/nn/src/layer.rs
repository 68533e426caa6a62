//! The [`Layer`] trait: forward/backward computation with internally
//! owned parameters and gradients.
//!
//! The framework is deliberately simple — a layer caches whatever it needs
//! during [`Layer::forward_train`] and consumes those caches in
//! `backward`. Optimizers visit parameters through
//! [`Layer::visit_params`], which yields `(params, grads)` slice pairs in
//! a stable order.

use crate::backend::ConvBackend;
use crate::layers::conv::AnyConv;
use ringcnn_tensor::prelude::*;
use std::any::Any;
use std::borrow::Cow;

/// Mutable view of one parameter group and its gradient accumulator.
pub struct ParamGroup<'a> {
    /// Parameter values.
    pub values: &'a mut [f32],
    /// Gradient accumulator (same length).
    pub grads: &'a mut [f32],
}

/// What a layer is, as every walk over a model reads it
/// ([`Layer::describe`]): the tree defaults, the topology, the
/// multiplication count and the integer lowering are folds over it.
#[derive(Clone, Copy)]
pub enum Node<'a> {
    /// A chain: its children, run in order.
    Chain(&'a [Box<dyn Layer>]),
    /// `body(x)` plus a skip of `x`.
    Skip(&'a dyn Layer, SkipKind),
    /// A convolution, of any weight lowering.
    Conv(&'a dyn AnyConv),
    /// Component-wise ReLU.
    Relu,
    /// The directional ReLU `fH` over `n`-tuples.
    DRelu(usize),
    /// Depth-to-space by `r`.
    Shuffle(usize),
    /// Space-to-depth by `r`.
    Unshuffle(usize),
    /// A leaf no walk looks into (dense heads, pooling, test layers): it
    /// keeps the resolution and counts its own `mults_per_pixel`.
    Opaque,
}

/// What a [`Node::Skip`] adds to its body's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipKind {
    /// The input itself.
    Residual,
    /// The bicubic upsampling of the input by this factor.
    Bicubic(usize),
}

/// A differentiable network layer, owning its parameters and gradient
/// buffers. The contract, each part stated once:
///
/// - [`Layer::forward_infer`] is *the* inference forward. It runs through
///   `&self` and layers are `Sync`, so one model serves any number of
///   concurrent forwards (what `crate::runtime` fans out over the pool).
///   [`Layer::forward_train`] caches what [`Layer::backward`] consumes;
///   [`Layer::forward`] only dispatches between the two, so inference
///   through `&mut` cannot differ from inference through `&`.
/// - A layer whose inference kernel is derived from its parameters (a
///   packed weight plan, a ring convolution's transform-domain plan)
///   holds it in one lazily initialised cell: the first `forward_infer`
///   builds it — exactly once, however many threads race that call —
///   and [`Layer::prepare_inference`] only does so ahead of time. Every
///   `&mut` path to what the kernel was derived from (parameter
///   accessors, `visit_params`, `forward_train`, backend selection)
///   resets the cell, so a kernel can never go stale.
/// - A layer says what it is through [`Layer::describe`]; the read-only
///   defaults below and every walk over a model are folds over that
///   one description. A container also hands out its children through
///   [`Layer::children_mut`], for the `&mut` defaults.
/// - Ownership of activations: a tensor passed by reference is the
///   caller's and is never written. A forward of a container (and a
///   window the runtime streams, `crate::runtime`) compiles the tree into
///   one flat step program and runs it ([`crate::program`]): the program
///   owns every tensor a step returns and hands it to the next step for
///   good — element-wise layers work on it in place through
///   [`Layer::forward_step`] —, a window's margin is consumed there (a
///   convolution writes only what the rest of the program reads), and a
///   convolution on the streaming engine writes where the
///   [`Node::Shuffle`] behind it would copy to. Every step has the bits
///   of the plain leaf-by-leaf chain, which stays valid: walks that call
///   `forward_infer` on one leaf at a time see the same values.
pub trait Layer: Send + Sync {
    /// Short human-readable layer descriptor (e.g. `conv3x3(16->32)`).
    fn name(&self) -> String;

    /// What the layer is ([`Node`]). Default: [`Node::Opaque`].
    fn describe(&self) -> Node<'_> {
        Node::Opaque
    }

    /// [`Layer::forward_train`] when `train`, [`Layer::forward_infer`]
    /// otherwise. Not meant to be overridden.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.forward_train(input)
        } else {
            self.forward_infer(input)
        }
    }

    /// Training forward: computes the output and caches the activations
    /// [`Layer::backward`] needs. Default: the inference forward, for
    /// layers whose backward needs nothing from the forward pass.
    fn forward_train(&mut self, input: &Tensor) -> Tensor {
        self.forward_infer(input)
    }

    /// Inference forward through shared state: never mutates the layer,
    /// so many threads can run it on the same model concurrently.
    fn forward_infer(&self, input: &Tensor) -> Tensor;

    /// [`Layer::forward_infer`] over an activation as a program holds it:
    /// borrowed (the caller's, never written) or owned (given up: an
    /// element-wise layer works on it in place). Default: the borrowing
    /// forward.
    fn forward_step(&self, input: Cow<'_, Tensor>) -> Tensor {
        self.forward_infer(&input)
    }

    /// The direct children of a container layer, in execution order —
    /// `None` for a leaf (an empty container is still `Some(&mut [])`).
    fn children_mut(&mut self) -> Option<&mut [Box<dyn Layer>]> {
        None
    }

    /// Builds every inference kernel of the tree now instead of on the
    /// first [`Layer::forward_infer`] — a warm-up, never a requirement.
    fn prepare_inference(&mut self) {
        for child in self.children_mut().into_iter().flatten() {
            child.prepare_inference();
        }
    }

    /// Consumes cached activations, accumulates parameter gradients, and
    /// returns the gradient w.r.t. the input.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called without a prior training-mode
    /// forward pass.
    fn backward(&mut self, dout: &Tensor) -> Tensor;

    /// Visits every `(values, grads)` parameter group of the tree in a
    /// stable order. Default: the children's groups (none for a leaf).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(ParamGroup<'_>)) {
        for child in self.children_mut().into_iter().flatten() {
            child.visit_params(visitor);
        }
    }

    /// Sets all gradient accumulators to zero.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |g: ParamGroup<'_>| {
            for v in g.grads.iter_mut() {
                *v = 0.0;
            }
        });
    }

    /// Number of stored real-valued parameters.
    fn num_params(&mut self) -> usize {
        let mut count = 0;
        self.visit_params(&mut |g: ParamGroup<'_>| count += g.values.len());
        count
    }

    /// Real multiplications per input pixel under the fast algorithms
    /// (the efficiency axes of Fig. 1 and Fig. C-1): the description's
    /// [`crate::complexity::cost`]. Zero for an opaque leaf by default.
    fn mults_per_pixel(&self) -> f64 {
        crate::complexity::cost(self.describe()).0
    }

    /// Selects the convolution execution backend for inference forwards
    /// (see [`ConvBackend`]) on every convolution of the tree; layers
    /// without convolutions ignore it.
    fn set_conv_backend(&mut self, backend: ConvBackend) {
        for child in self.children_mut().into_iter().flatten() {
            child.set_conv_backend(backend);
        }
    }

    /// Downcasting support (used by pruning and model surgery).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The layer as a convolution of whatever weight lowering — what
    /// model surgery reads instead of downcasting to each convolution
    /// type. `None` for everything else.
    fn as_conv_mut(&mut self) -> Option<&mut dyn AnyConv> {
        None
    }
}

/// For the layers' gradient checks: what `backward` answers for input
/// element `at` under the loss `⟨layer(x), dout⟩`, and the central finite
/// difference of that loss over `± eps` — the two must agree.
#[cfg(test)]
pub(crate) fn input_gradient_and_fd(
    layer: &mut dyn Layer,
    (x, dout): (&Tensor, &Tensor),
    [n, c, y, w]: [usize; 4],
    eps: f32,
) -> (f32, f32) {
    let _ = layer.forward(x, true);
    let analytic = layer.backward(dout).at(n, c, y, w);
    let mut loss = |delta: f32| -> f32 {
        let mut moved = x.clone();
        *moved.at_mut(n, c, y, w) += delta;
        let out = layer.forward(&moved, false);
        let terms = out.as_slice().iter().zip(dout.as_slice());
        terms.map(|(a, b)| a * b).sum()
    };
    (analytic, (loss(eps) - loss(-eps)) / (2.0 * eps))
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        w: Vec<f32>,
        g: Vec<f32>,
    }

    impl Layer for Dummy {
        fn name(&self) -> String {
            "dummy".into()
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
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn default_helpers_work() {
        let mut d = Dummy {
            w: vec![1.0; 5],
            g: vec![2.0; 5],
        };
        assert_eq!(d.num_params(), 5);
        d.zero_grads();
        assert!(d.g.iter().all(|v| *v == 0.0));
        assert_eq!(d.mults_per_pixel(), 0.0);
        // The default step: the borrowing forward.
        let x = Tensor::zeros(Shape4::new(1, 1, 4, 4));
        assert_eq!(d.forward_step(Cow::Owned(x.clone())), x);
    }
}
