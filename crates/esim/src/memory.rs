//! Memory-system model: weight SRAM footprint, block-buffer occupancy,
//! and DRAM traffic of the block-based inference flow (§V; features never
//! leave the chip, images are re-read with a halo for block recompute,
//! and [`crate::sim::simulate`] counts the bytes).

use ringcnn_quant::quantized::{QLayer, QuantizedModel};
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

/// Sums the 8-bit weight words of a quantized model, one per bias
/// included. A conv counts as a ring conv, storing `expanded / n` words
/// (the DoF reduction of §III-D), when both its channel counts divide by
/// `n` — the rule by which `Algebra::conv` lowers onto the ring, restated
/// here, not read from the weights. Any other conv counts at its expanded
/// size, a depth-wise one at its dense expansion, zero taps included.
pub fn weight_bytes(qm: &QuantizedModel, n: usize) -> u64 {
    let mut total = 0u64;
    for step in qm.program() {
        if let QLayer::Conv(c) = step.layer {
            let expanded = (c.co() * c.ci() * c.k() * c.k()) as u64;
            let stored = if n > 1 && c.co() % n == 0 && c.ci() % n == 0 {
                expanded / n as u64
            } else {
                expanded
            };
            total += stored + c.co() as u64;
        }
    }
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

    #[test]
    fn dense_models_count_their_stored_parameters() {
        use ringcnn_nn::models::ernet::{dn_ernet_pu, sr4_ernet, ErNetConfig};
        use ringcnn_nn::models::srresnet::{srresnet, SrResNetConfig};
        let calib = Tensor::random_uniform(Shape4::new(1, 1, 16, 16), 0.0, 1.0, 7);
        let counted = |mut model: Sequential, n| {
            let qm = QuantizedModel::quantize(&mut model, &calib, QuantOptions::default());
            (weight_bytes(&qm, n), model.num_params() as u64)
        };
        for (alg, n) in [
            (Algebra::real(), 1),
            (Algebra::ri_fh(2), 2),
            (Algebra::ri_fh(4), 4),
        ] {
            let models = [
                ("DnERNet-PU", dn_ernet_pu(&alg, ErNetConfig::tiny(), 1, 1)),
                ("SR4ERNet", sr4_ernet(&alg, ErNetConfig::tiny(), 1, 2)),
                ("SRResNet", srresnet(&alg, SrResNetConfig::tiny(), 1, 3)),
            ];
            for (name, model) in models {
                let (words, params) = counted(model, n);
                assert_eq!(words, params, "{name} at n = {n}");
            }
        }
        // The known gap: a depth-wise conv is counted at its dense
        // expansion, not at the taps it stores.
        let dwc = srresnet(
            &Algebra::ri_fh(4),
            SrResNetConfig::tiny().with_depthwise(),
            1,
            4,
        );
        assert_eq!(counted(dwc, 4), (7_179, 2_859));
    }
}
