//! Convolution execution backends: how a (ring) convolution layer lowers
//! its forward pass onto real arithmetic.
//!
//! Every backend computes the same function (the equivalence suite in
//! `tests/conv_backends.rs` enforces agreement within `1e-4`, and the
//! dense kernels agree bit for bit); they differ only in speed:
//!
//! - [`ConvBackend::Naive`] — the six-deep reference loop of
//!   `ringcnn_tensor::conv::conv2d_forward`; ring layers first expand
//!   their weights onto the isomorphic real convolution (eq. (4)).
//! - [`ConvBackend::Im2col`] — the streaming im2col/GEMM engine of
//!   `ringcnn_tensor::im2col`; same lowering, weights planned once at
//!   `prepare_inference`, the patch matrix packed per column chunk.
//! - [`ConvBackend::Transform`] — the transform-domain fast engine
//!   (eqs. (6)–(8)): weights are pre-transformed once (`g̃ = Tg·g`),
//!   inputs pass through `Tx`, `m` component-wise real convolutions run
//!   in the transformed domain, and `Tz` reconstructs the output —
//!   `m` real multiplications per ring MAC instead of `n²`.

use ringcnn_algebra::ring::Ring;

/// Selects the forward-convolution kernel of a layer or a whole model.
///
/// Training always flows through the naive lowering (backward reuses the
/// reference kernels); the backend governs inference
/// (`forward(…, train = false)`).
///
/// # Examples
///
/// ```
/// use ringcnn_nn::backend::ConvBackend;
/// use ringcnn_nn::prelude::*;
/// use ringcnn_algebra::ring::{Ring, RingKind};
/// use ringcnn_tensor::prelude::*;
///
/// // Automatic selection per ring: diagonal rings (identity transforms)
/// // run im2col; rings whose fast algorithm saves multiplications
/// // (m < n²) run the transform-domain engine.
/// assert_eq!(ConvBackend::auto_for(&Ring::from_kind(RingKind::Ri(4))), ConvBackend::Im2col);
/// assert_eq!(ConvBackend::auto_for(&Ring::from_kind(RingKind::Rh(4))), ConvBackend::Transform);
///
/// // Model builders inherit the algebra's backend (auto by default)…
/// let alg = Algebra::with_fcw(RingKind::Rh(4)).with_backend(ConvBackend::Naive);
/// let mut model = Sequential::new().with(alg.conv(8, 8, 3, 1));
///
/// // …and any model can be re-targeted after construction.
/// model.set_conv_backend(ConvBackend::Transform);
/// let x = Tensor::zeros(Shape4::new(1, 8, 6, 6));
/// assert_eq!(model.forward(&x, false).shape().c, 8);
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ConvBackend {
    /// Reference six-deep loop nest (`conv2d_forward`).
    #[default]
    Naive,
    /// im2col packed per column chunk inside the blocked GEMM driver
    /// (`conv2d_forward_packed`).
    Im2col,
    /// Transform-domain fast ring convolution (`FastRingConv`); dense
    /// real convolutions degenerate to [`ConvBackend::Im2col`] (the real
    /// field's transforms are identities).
    Transform,
}

impl ConvBackend {
    /// The backend a ring should run on: [`ConvBackend::Transform`] when
    /// its registered fast algorithm actually saves real multiplications
    /// (`m < n²`), [`ConvBackend::Im2col`] otherwise (the real field,
    /// diagonal `RI` rings whose transforms are identities, and rings
    /// like the quaternions whose registered algorithm is the trivial
    /// `m = n²` one).
    pub fn auto_for(ring: &Ring) -> ConvBackend {
        let n = ring.n();
        if n > 1 && !ring.is_diagonal() && ring.fast().m() < n * n {
            ConvBackend::Transform
        } else {
            ConvBackend::Im2col
        }
    }

    /// All three backends, in documentation order.
    pub fn all() -> [ConvBackend; 3] {
        [
            ConvBackend::Naive,
            ConvBackend::Im2col,
            ConvBackend::Transform,
        ]
    }

    /// Short lowercase label (bench/report identifier).
    pub fn label(&self) -> &'static str {
        match self {
            ConvBackend::Naive => "naive",
            ConvBackend::Im2col => "im2col",
            ConvBackend::Transform => "transform",
        }
    }
}

impl std::fmt::Display for ConvBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_algebra::ring::RingKind;

    #[test]
    fn auto_selection_per_ring() {
        // Diagonal / real: no transform to exploit.
        for kind in [
            RingKind::Ri(1),
            RingKind::Ri(2),
            RingKind::Ri(4),
            RingKind::Ri(8),
        ] {
            assert_eq!(
                ConvBackend::auto_for(&Ring::from_kind(kind)),
                ConvBackend::Im2col
            );
        }
        // Proper rings with m < n²: transform engine.
        for kind in [
            RingKind::Rh(2),
            RingKind::Complex,
            RingKind::Rh(4),
            RingKind::Ro4,
            RingKind::Rh4I,
            RingKind::Rh4II,
            RingKind::Ro4I,
            RingKind::Ro4II,
        ] {
            assert_eq!(
                ConvBackend::auto_for(&Ring::from_kind(kind)),
                ConvBackend::Transform,
                "{kind:?}"
            );
        }
        // Quaternions only register the trivial m = n² algorithm.
        assert_eq!(
            ConvBackend::auto_for(&Ring::from_kind(RingKind::Quaternion)),
            ConvBackend::Im2col
        );
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(ConvBackend::default(), ConvBackend::Naive);
        let labels: Vec<_> = ConvBackend::all().iter().map(|b| b.to_string()).collect();
        assert_eq!(labels, ["naive", "im2col", "transform"]);
    }
}
