//! SRResNet \[31\] miniature and its complexity-reduction variants, the
//! workload of the paper's motivating Fig. 1 (weight pruning vs DWC vs
//! depth/channel shrinking vs RingCNN).

use crate::algebra_choice::Algebra;
use crate::layers::conv::DepthwiseConv2d;
use crate::layers::shuffle::PixelShuffle;
use crate::layers::structure::{Residual, Sequential};

/// SRResNet configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SrResNetConfig {
    /// Residual blocks in the trunk.
    pub blocks: usize,
    /// Feature channels.
    pub channels: usize,
    /// Replace each 3×3 conv with depth-wise 3×3 + point-wise 1×1
    /// (the low-rank DWC baseline of Fig. 1).
    pub depthwise: bool,
}

impl SrResNetConfig {
    /// Small CPU-friendly default (blocks=3, channels=16, dense).
    pub fn tiny() -> Self {
        Self {
            blocks: 3,
            channels: 16,
            depthwise: false,
        }
    }

    /// Depth-reduced variant (shrinks `blocks`, keeps channels).
    #[must_use]
    pub fn with_blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Channel-reduced variant (shrinks `channels`, keeps depth).
    #[must_use]
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    /// Depth-wise-convolution variant.
    #[must_use]
    pub fn with_depthwise(mut self) -> Self {
        self.depthwise = true;
        self
    }
}

fn conv3x3(alg: &Algebra, cfg: &SrResNetConfig, ci: usize, co: usize, seed: u64) -> Sequential {
    if cfg.depthwise {
        // DWC lowering: depth-wise 3×3 then point-wise 1×1. The depth-wise
        // layer is built directly (not through the algebra), so it inherits
        // the algebra's conv backend explicitly.
        let mut dw = Box::new(DepthwiseConv2d::new(ci, 3, seed));
        dw.set_backend(alg.conv_backend());
        Sequential::new()
            .with(dw)
            .with(alg.conv(ci, co, 1, seed.wrapping_add(500)))
    } else {
        Sequential::new().with(alg.conv(ci, co, 3, seed))
    }
}

/// Builds a ×4 SRResNet miniature over the given algebra.
///
/// Structure: head conv + activation, `blocks` residual blocks inside a
/// long skip, two ×2 pixel-shuffle upsampling stages, tail conv.
pub fn srresnet(alg: &Algebra, cfg: SrResNetConfig, channels_io: usize, seed: u64) -> Sequential {
    let c = cfg.channels;
    let mut trunk = Sequential::new();
    for i in 0..cfg.blocks {
        let s = seed + 100 * (i as u64 + 1);
        let body = Sequential::new()
            .with(Box::new(conv3x3(alg, &cfg, c, c, s)))
            .with_opt(alg.activation())
            .with(Box::new(conv3x3(alg, &cfg, c, c, s + 1)));
        trunk = trunk.with(Box::new(Residual::new(body)));
    }
    trunk = trunk.with(Box::new(conv3x3(alg, &cfg, c, c, seed + 7)));
    Sequential::new()
        .with(Box::new(conv3x3(alg, &cfg, channels_io, c, seed)))
        .with_opt(alg.activation())
        .with(Box::new(Residual::new(trunk)))
        .with(Box::new(conv3x3(alg, &cfg, c, 4 * c, seed + 8)))
        .with(Box::new(PixelShuffle::new(2)))
        .with_opt(alg.activation())
        .with(Box::new(conv3x3(alg, &cfg, c, 4 * c, seed + 9)))
        .with(Box::new(PixelShuffle::new(2)))
        .with_opt(alg.activation())
        .with(Box::new(conv3x3(alg, &cfg, c, channels_io, seed + 10)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use ringcnn_tensor::prelude::*;

    #[test]
    fn srresnet_upscales_by_four() {
        let mut m = srresnet(&Algebra::real(), SrResNetConfig::tiny(), 1, 5);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 6, 4), 0.0, 1.0, 1);
        assert_eq!(m.forward(&x, false).shape(), Shape4::new(1, 1, 24, 16));
    }

    #[test]
    fn depthwise_variant_has_fewer_mults() {
        let mut dense = srresnet(&Algebra::real(), SrResNetConfig::tiny(), 1, 5);
        let mut dwc = srresnet(
            &Algebra::real(),
            SrResNetConfig::tiny().with_depthwise(),
            1,
            5,
        );
        assert!(dwc.mults_per_pixel() < dense.mults_per_pixel());
        // Still runs.
        let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 2);
        assert_eq!(dwc.forward(&x, false).shape(), Shape4::new(1, 1, 16, 16));
        let _ = dense.forward(&x, false);
    }

    #[test]
    fn ring_variant_matches_shapes() {
        let mut m = srresnet(&Algebra::ri_fh(4), SrResNetConfig::tiny(), 1, 5);
        let x = Tensor::random_uniform(Shape4::new(1, 1, 4, 4), 0.0, 1.0, 3);
        assert_eq!(m.forward(&x, false).shape(), Shape4::new(1, 1, 16, 16));
    }

    #[test]
    fn config_variants() {
        let base = SrResNetConfig::tiny();
        assert_eq!(base.with_blocks(1).blocks, 1);
        assert_eq!(base.with_channels(8).channels, 8);
        assert!(base.with_depthwise().depthwise);
    }
}
