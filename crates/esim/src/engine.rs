//! The RCONV engine (Fig. 7): a channel-wise 2-D computing array that
//! produces a 4×2-pixel tile of all (32/n) output `n`-tuples from all
//! (32/n) input tuples in one cycle, with the on-the-fly directional ReLU
//! of Fig. 8 at its output.
//!
//! The engine computes nothing here: integer addition is associative, so
//! its tile order cannot change a result, and the integers are those of
//! `QuantizedModel`. What is modelled is the work — cycles and
//! multiplications per convolution, from the convolution and the shape
//! of its input alone.

use ringcnn_quant::quantized::QConv;
use ringcnn_tensor::prelude::Shape4;
use serde::{Deserialize, Serialize};

/// Engine geometry (the eCNN/eRingCNN tile).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngineGeometry {
    /// Real channels processed per cycle (32).
    pub lanes: usize,
    /// Tile height (4).
    pub tile_h: usize,
    /// Tile width (2).
    pub tile_w: usize,
}

impl Default for EngineGeometry {
    fn default() -> Self {
        Self {
            lanes: 32,
            tile_h: 4,
            tile_w: 2,
        }
    }
}

/// Cycle/work accounting of one engine pass.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct EnginePass {
    /// Cycles consumed.
    pub cycles: u64,
    /// Physical multiplications performed.
    pub physical_mults: u64,
    /// Equivalent real-valued multiplications served.
    pub equivalent_mults: u64,
}

impl EnginePass {
    /// The pass of `conv` over an input of shape `input`: one cycle per
    /// (tile × output lane group × input lane group) triple — the
    /// engine's dataflow.
    ///
    /// `n` is the ring dimension of the accelerator configuration: the
    /// physical component-wise multipliers do `k²·lanes²/n` products per
    /// tile pixel a cycle, and serve `n×` as many equivalent real MACs.
    pub fn of_conv(conv: &QConv, input: Shape4, geom: &EngineGeometry, n: usize) -> Self {
        let tiles = input.n * input.h.div_ceil(geom.tile_h) * input.w.div_ceil(geom.tile_w);
        let groups = conv.co().div_ceil(geom.lanes) * conv.ci().div_ceil(geom.lanes);
        let cycles = (tiles * groups) as u64;
        let tile_px = (geom.tile_h * geom.tile_w) as u64;
        let per_cycle =
            (geom.lanes * geom.lanes / n) as u64 * (conv.k() * conv.k()) as u64 * tile_px;
        let physical_mults = cycles * per_cycle;
        Self {
            cycles,
            physical_mults,
            equivalent_mults: physical_mults * n as u64,
        }
    }
}

impl std::ops::AddAssign for EnginePass {
    fn add_assign(&mut self, p: Self) {
        self.cycles += p.cycles;
        self.physical_mults += p.physical_mults;
        self.equivalent_mults += p.equivalent_mults;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;
    use ringcnn_quant::prelude::*;
    use ringcnn_tensor::prelude::Tensor;

    fn first_conv(alg: &Algebra) -> QConv {
        let mut model = Sequential::new()
            .with(alg.conv(4, 8, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(8, 4, 3, 4));
        let calib = Tensor::random_uniform(Shape4::new(2, 4, 8, 8), 0.0, 1.0, 5);
        let qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
        match &qm.layers()[0] {
            QLayer::Conv(c) => c.clone(),
            _ => panic!("expected conv first"),
        }
    }

    #[test]
    fn cycle_count_matches_tiling_formula() {
        let conv = first_conv(&Algebra::ri_fh(2));
        let pass = EnginePass::of_conv(
            &conv,
            Shape4::new(2, 4, 8, 8),
            &EngineGeometry::default(),
            2,
        );
        // 8×8 image → 2×4 tiles; 4→8 channels fit one lane group;
        // 2 batch items.
        assert_eq!(pass.cycles, 2 * 2 * 4);
    }

    #[test]
    fn physical_work_halves_with_n2() {
        let (geom, s) = (EngineGeometry::default(), Shape4::new(2, 4, 8, 8));
        let real = EnginePass::of_conv(&first_conv(&Algebra::real()), s, &geom, 1);
        let ring = EnginePass::of_conv(&first_conv(&Algebra::ri_fh(2)), s, &geom, 2);
        assert_eq!(real.physical_mults, 2 * ring.physical_mults);
    }
}
