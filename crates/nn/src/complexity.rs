//! Model-level computation accounting: real multiplications per *network
//! input pixel*, correctly weighting layers that run at rescaled
//! resolutions (after pixel shuffle/unshuffle, at any depth of nesting).

use crate::layer::{Layer, Node};

/// `(real multiplications per input pixel, output pixels per input
/// pixel)` of a described layer, each child of a chain counted at the
/// resolution it runs: the fold behind [`Layer::mults_per_pixel`].
pub fn cost(node: Node<'_>) -> (f64, f64) {
    let of = |layer: &dyn Layer| match layer.describe() {
        Node::Opaque => (layer.mults_per_pixel(), 1.0),
        node => cost(node),
    };
    match node {
        Node::Chain(layers) => layers.iter().fold((0.0, 1.0), |(mults, area), l| {
            let (m, a) = of(l.as_ref());
            (mults + m * area, area * a)
        }),
        Node::Skip(body, _) => of(body),
        Node::Conv(c) => (c.parts().0.mults_per_pixel(), 1.0),
        Node::Shuffle(r) => (0.0, (r * r) as f64),
        Node::Unshuffle(r) => (0.0, 1.0 / (r * r) as f64),
        Node::Relu | Node::DRelu(_) | Node::Opaque => (0.0, 1.0),
    }
}

/// The real multiplications each input pixel of the network costs
/// ([`Layer::mults_per_pixel`] of the whole model).
pub fn mults_per_input_pixel(model: &dyn Layer) -> f64 {
    model.mults_per_pixel()
}

/// Giga-multiplications for a full frame of the given size (e.g. one
/// Full-HD frame), a convenient axis for the Fig. 1 tradeoff plot.
pub fn gmults_per_frame(model: &dyn Layer, width: usize, height: usize) -> f64 {
    mults_per_input_pixel(model) * (width * height) as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra_choice::Algebra;
    use crate::layers::shuffle::{PixelShuffle, PixelUnshuffle};
    use crate::layers::structure::Sequential;

    #[test]
    fn unshuffle_discounts_later_layers() {
        let alg = Algebra::real();
        // conv at full res: 1→4, 3x3 = 36 mults/px.
        let flat = Sequential::new().with(alg.conv(1, 4, 3, 1));
        assert_eq!(mults_per_input_pixel(&flat), 36.0);
        // Same conv after 2x unshuffle runs on 4x fewer pixels but 4x
        // more input channels: 4·4·9/4 = 36 too.
        let pu = Sequential::new()
            .with(Box::new(PixelUnshuffle::new(2)))
            .with(alg.conv(4, 4, 3, 1));
        assert_eq!(mults_per_input_pixel(&pu), 144.0 / 4.0);
    }

    #[test]
    fn shuffle_amplifies_later_layers() {
        let alg = Algebra::real();
        let m = Sequential::new()
            .with(alg.conv(1, 16, 3, 1)) // 144 at 1x
            .with(Box::new(PixelShuffle::new(2)))
            .with(alg.conv(4, 1, 3, 2)); // 36 at 4x pixels
        assert_eq!(mults_per_input_pixel(&m), 144.0 + 36.0 * 4.0);
    }

    #[test]
    fn ring_reduces_mult_count_by_fast_m() {
        let real = &Algebra::real();
        let ring = &Algebra::ri_fh(4);
        let a = Sequential::new().with(real.conv(8, 8, 3, 1));
        let b = Sequential::new().with(ring.conv(8, 8, 3, 1));
        let ratio = mults_per_input_pixel(&a) / mults_per_input_pixel(&b);
        assert!(
            (ratio - 4.0).abs() < 1e-9,
            "RI4 gives 4x fewer mults, got {ratio}"
        );
    }

    #[test]
    fn gmults_scales_with_frame() {
        let alg = Algebra::real();
        let m = Sequential::new().with(alg.conv(1, 1, 3, 1));
        let g = gmults_per_frame(&m, 1000, 1000);
        assert!((g - 9e-3).abs() < 1e-12);
    }
}
