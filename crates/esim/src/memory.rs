//! Memory-system model: weight SRAM footprint, block-buffer occupancy,
//! and DRAM traffic of the block-based inference flow (§V; features never
//! leave the chip, images are re-read with a halo for block recompute,
//! and [`crate::sim::simulate`] counts the bytes).

use ringcnn_quant::quantized::{QLayer, QuantizedModel};
use ringcnn_tensor::prelude::Shape4;
use serde::{Deserialize, Serialize};

/// Memory accounting of one model on one accelerator configuration.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Model weight footprint (8-bit words), bytes.
    pub weight_bytes: u64,
    /// The most feature bytes one convolution reads and writes for one
    /// batch item, 1 byte per feature (the block buffer need).
    pub peak_feature_bytes: u64,
    /// DRAM bytes moved per frame: every block's halo-extended input
    /// window clipped at the frame, read once, plus the output written.
    pub dram_bytes_per_frame: u64,
}

/// Sums the 8-bit weight words of a quantized model. For ring layers the
/// expanded weights repeat each stored component `n` times, so the true
/// storage is `expanded / n` (the DoF reduction of §III-D) — we count the
/// stored (ring) words via the stored-weight hint of each conv: expanded
/// count divided by the repetition factor detected from the weight
/// structure.
pub fn weight_bytes(qm: &QuantizedModel, n: usize) -> u64 {
    let mut total = 0u64;
    qm.walk_shapes(Shape4::new(1, 1, 1, 1), |layer, _| {
        if let QLayer::Conv(c) = layer {
            let expanded = (c.co() * c.ci() * c.k() * c.k()) as u64;
            // Ring convs (channel counts divisible by n) store expanded/n
            // words; boundary real convs store all.
            let stored = if n > 1 && c.co() % n == 0 && c.ci() % n == 0 {
                expanded / n as u64
            } else {
                expanded
            };
            total += stored + c.co() as u64; // + bias words
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::prelude::*;
    use ringcnn_quant::prelude::*;
    use ringcnn_tensor::prelude::*;

    fn qmodel(alg: &Algebra) -> QuantizedModel {
        let mut model = Sequential::new()
            .with(alg.conv(4, 8, 3, 3))
            .with_opt(alg.activation())
            .with(alg.conv(8, 4, 3, 4));
        let calib = Tensor::random_uniform(Shape4::new(1, 4, 8, 8), 0.0, 1.0, 5);
        QuantizedModel::quantize(&mut model, &calib, QuantOptions::default())
    }

    #[test]
    fn ring_weights_store_n_times_less() {
        let real = weight_bytes(&qmodel(&Algebra::real()), 1);
        let n4 = weight_bytes(&qmodel(&Algebra::ri_fh(4)), 4);
        // Biases are uncompressed; ratio just below 4.
        let ratio = real as f64 / n4 as f64;
        assert!(ratio > 3.5 && ratio <= 4.0, "ratio {ratio}");
    }
}
