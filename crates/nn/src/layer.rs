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
use crate::runtime::TileHalo;
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
/// - A container exposes its direct children through
///   [`Layer::children`]; the tree walks and the per-tree defaults below
///   are built on it.
/// - Ownership of activations: a tensor passed by reference is the
///   caller's and is never written; a container owns every tensor a
///   child returns to it and hands it to the next child for good
///   through the one chain step, [`Layer::forward_step`] — the only
///   place an activation is mutated (element-wise layers work in place
///   on a tensor they are given), a tile's halo is consumed (a
///   convolution writes only what the rest of the chain reads) and a
///   layer writes where its successor would copy to (the convolution
///   in front of a [`Layer::pixel_shuffle_factor`]). Every step has the
///   bits of the plain leaf-by-leaf chain, which stays valid: walks that
///   call `forward_infer` on one leaf at a time see the same values.
pub trait Layer: Send + Sync {
    /// Short human-readable layer descriptor (e.g. `conv3x3(16->32)`).
    fn name(&self) -> String;

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

    /// One step of a chain: [`Layer::forward_infer`] over the activation
    /// as the chain holds it — borrowed (the caller's, never written) or
    /// owned (given up: an element-wise layer works on it in place) —
    /// inside `tile`, which the layer moves past itself. `shuffle` is the
    /// factor of the pixel shuffle standing behind the layer (1: none);
    /// the answer says whether the layer absorbed it, i.e. wrote every
    /// pixel where that shuffle would copy it to and moved `tile` past it
    /// too, so the chain skips it. A convolution on the streaming engine
    /// does, and leaves out the rim of `tile`'s margins the rest of the
    /// chain no longer reaches; a container threads `tile` through its
    /// children, its `forward_infer` being this walk over
    /// [`TileHalo::whole`]. Default: a [`TileHalo::leaf`] run over the
    /// whole tile — the halo is carried, the bits are the same.
    fn forward_step(
        &self,
        input: Cow<'_, Tensor>,
        tile: &mut TileHalo,
        _shuffle: usize,
    ) -> (Tensor, bool) {
        tile.leaf(self.kernel_radius(), self.spatial_scale());
        (self.forward_infer(&input), false)
    }

    /// `Some(r)` for the depth-to-space of factor `r`, the one layer its
    /// predecessor in a chain may absorb ([`Layer::forward_step`]).
    fn pixel_shuffle_factor(&self) -> Option<usize> {
        None
    }

    /// The direct children of a container layer, in execution order —
    /// `None` for a leaf (an empty container is still `Some(&[])`).
    fn children(&self) -> Option<&[Box<dyn Layer>]> {
        None
    }

    /// Mutable counterpart of [`Layer::children`].
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

    /// Spatial radius this layer reads around each output pixel, in this
    /// layer's *own input* resolution (`⌊k/2⌋` for a `k×k` convolution,
    /// 0 for pointwise layers; for a container, the reach of whatever it
    /// computes *beside* its children). The runtime composes these
    /// through shuffles into a whole-model receptive radius.
    fn kernel_radius(&self) -> usize {
        0
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

    /// Real multiplications per output pixel when executed with the
    /// layer's fast algorithm (used for the computation-efficiency axes
    /// of Fig. 1 and Fig. C-1). Zero for parameter-free leaves; for a
    /// container the plain sum over its children, which ignores spatial
    /// rescaling inside the chain — model builders get exact accounting
    /// from `complexity::mults_per_input_pixel`.
    fn mults_per_pixel(&self) -> f64 {
        self.children()
            .into_iter()
            .flatten()
            .map(|child| child.mults_per_pixel())
            .sum()
    }

    /// Output channel count given the input channel count: unchanged by
    /// default for a leaf, threaded through the children of a container.
    fn out_channels(&self, in_channels: usize) -> usize {
        self.children()
            .into_iter()
            .flatten()
            .fold(in_channels, |c, child| child.out_channels(c))
    }

    /// Spatial scale factor of the layer (2 for ×2 pixel shuffle, ½ for
    /// unshuffle, 1 otherwise) — numerator/denominator pair.
    fn spatial_scale(&self) -> (usize, usize) {
        (1, 1)
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
    /// calibration and model surgery read instead of downcasting to each
    /// convolution type. `None` for everything else.
    fn as_conv_mut(&mut self) -> Option<&mut dyn AnyConv> {
        None
    }
}

/// [`Layer::forward_step`] over a whole image the caller keeps: the
/// `forward_infer` of every layer whose one inference body is its step.
pub fn forward_whole<L: Layer + ?Sized>(layer: &L, input: &Tensor) -> Tensor {
    let whole = &mut TileHalo::whole();
    layer.forward_step(Cow::Borrowed(input), whole, 1).0
}

/// Visits `layer` and every layer below it, a container before its
/// children, siblings in execution order: the one recursion behind
/// `Sequential::for_each_layer_mut` and `runtime::model_topology`.
pub fn visit_tree_mut(layer: &mut dyn Layer, f: &mut dyn FnMut(&mut dyn Layer)) {
    f(layer);
    for child in layer.children_mut().into_iter().flatten() {
        visit_tree_mut(child.as_mut(), f);
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
        assert_eq!(d.out_channels(7), 7);
        // The default step: a pointwise leaf over the whole tile, no
        // shuffle absorbed.
        let (x, mut tile) = (
            Tensor::zeros(Shape4::new(1, 1, 4, 4)),
            TileHalo::new([2; 4], 2),
        );
        let (y, absorbed) = d.forward_step(Cow::Owned(x.clone()), &mut tile, 2);
        assert_eq!((y, absorbed, tile), (x, false, TileHalo::new([2; 4], 2)));
    }
}
