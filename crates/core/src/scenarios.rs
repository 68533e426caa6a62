//! Application scenarios and throughput targets of the paper's
//! evaluation: Gaussian denoising and ×4 super-resolution at Full-HD
//! 30 fps (HD30) and 4K-UHD 30 fps (UHD30).

use ringcnn_nn::algebra_choice::Algebra;
use ringcnn_nn::layers::structure::Sequential;
use ringcnn_nn::models::ernet::{dn_ernet_pu, sr4_ernet, ErNetConfig};
use serde::{Deserialize, Serialize};

/// An imaging task.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Scenario {
    /// Gaussian denoising at the given σ (0–255 scale).
    Denoise {
        /// Noise standard deviation on the 0–255 scale.
        sigma: f64,
    },
    /// ×4 single-image super-resolution.
    Sr4,
}

impl Scenario {
    /// Short identifier for tables.
    pub fn label(&self) -> String {
        match self {
            Scenario::Denoise { sigma } => format!("Dn(σ={sigma})"),
            Scenario::Sr4 => "SR×4".to_string(),
        }
    }
}

/// A throughput target: the frame rate/size the accelerator must sustain,
/// which bounds how large a model it can afford (Table IV's HD30/UHD30).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThroughputTarget {
    /// Full HD (1920×1080) at 30 fps.
    Hd30,
    /// 4K UHD (3840×2160) at 30 fps.
    Uhd30,
}

impl ThroughputTarget {
    /// Frame pixels per second the target demands.
    pub fn pixels_per_second(&self) -> f64 {
        match self {
            ThroughputTarget::Hd30 => 1920.0 * 1080.0 * 30.0,
            ThroughputTarget::Uhd30 => 3840.0 * 2160.0 * 30.0,
        }
    }

    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ThroughputTarget::Hd30 => "HD30",
            ThroughputTarget::Uhd30 => "UHD30",
        }
    }

    /// The compact ERNet configuration affordable at this target
    /// (CPU-scale stand-ins for the paper's depth/width-optimized
    /// configurations; UHD30 affords roughly a quarter of HD30's
    /// compute per pixel, hence the shallower model).
    pub fn ernet_config(&self) -> ErNetConfig {
        match self {
            ThroughputTarget::Hd30 => ErNetConfig {
                b: 3,
                r: 2,
                n_extra: 0,
                width: 16,
            },
            ThroughputTarget::Uhd30 => ErNetConfig {
                b: 1,
                r: 2,
                n_extra: 0,
                width: 8,
            },
        }
    }
}

/// Builds the ERNet-style model for a scenario at a throughput target.
///
/// SR models are wrapped in a bicubic global skip so the network learns
/// the residual above classical interpolation (standard practice; makes
/// small-scale training start from the bicubic baseline).
pub fn build_model(
    scenario: Scenario,
    target: ThroughputTarget,
    algebra: &Algebra,
    seed: u64,
) -> Sequential {
    let cfg = target.ernet_config();
    match scenario {
        Scenario::Denoise { .. } => dn_ernet_pu(algebra, cfg, 1, seed),
        Scenario::Sr4 => with_bicubic_skip(sr4_ernet(algebra, cfg, 1, seed), 4),
    }
}

/// Wraps an ×`factor` upscaling body with a bicubic global skip.
pub fn with_bicubic_skip(body: Sequential, factor: usize) -> Sequential {
    Sequential::new().with(Box::new(
        ringcnn_nn::layers::upsample::UpsampleResidual::new(body, factor),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_nn::complexity::mults_per_input_pixel;
    use ringcnn_nn::layer::Layer;
    use ringcnn_tensor::prelude::*;

    #[test]
    fn uhd_model_is_cheaper_than_hd_model() {
        let alg = Algebra::real();
        let hd = build_model(Scenario::Sr4, ThroughputTarget::Hd30, &alg, 1);
        let uhd = build_model(Scenario::Sr4, ThroughputTarget::Uhd30, &alg, 1);
        assert!(mults_per_input_pixel(&uhd) < mults_per_input_pixel(&hd));
    }

    #[test]
    fn scenario_models_run() {
        let alg = Algebra::ri_fh(2);
        let mut dn = build_model(
            Scenario::Denoise { sigma: 25.0 },
            ThroughputTarget::Uhd30,
            &alg,
            2,
        );
        let x = Tensor::random_uniform(Shape4::new(1, 1, 8, 8), 0.0, 1.0, 1);
        assert_eq!(dn.forward(&x, false).shape(), x.shape());
        let mut sr = build_model(Scenario::Sr4, ThroughputTarget::Uhd30, &alg, 2);
        assert_eq!(sr.forward(&x, false).shape(), Shape4::new(1, 1, 32, 32));
    }

    #[test]
    fn labels() {
        assert_eq!(Scenario::Sr4.label(), "SR×4");
        assert_eq!(ThroughputTarget::Hd30.label(), "HD30");
        assert!(
            ThroughputTarget::Uhd30.pixels_per_second()
                > ThroughputTarget::Hd30.pixels_per_second()
        );
    }
}
