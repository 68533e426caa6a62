//! Energy-per-pixel modeling: the quality-energy tradeoff curves of
//! Fig. 15 and the throughput-scaled operating points of Table VII.

use crate::accelerator::{layout_report, AcceleratorConfig};
use crate::params::TechParams;
use serde::{Deserialize, Serialize};

/// One operating point on a quality-energy curve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnergyPoint {
    /// Accelerator name.
    pub accelerator: String,
    /// Model compute demand, equivalent real multiplications per pixel
    /// (the *uncompressed* model's count — the accelerator's sparsity
    /// serves it with n× fewer physical operations).
    pub equivalent_mults_per_pixel: f64,
    /// Pixels per second the accelerator sustains for this model.
    pub pixels_per_second: f64,
    /// Energy per output pixel, nJ.
    pub nj_per_pixel: f64,
}

/// Computes the operating point of `cfg` running a model of the given
/// equivalent complexity.
///
/// The engines retire `equivalent_macs_per_cycle` equivalent MACs per
/// cycle at full utilization, so a model needing `M` equivalent mults per
/// pixel sustains `clock · macs / M` pixels/s; energy per pixel is
/// `power / rate`.
pub fn operating_point(
    cfg: &AcceleratorConfig,
    equivalent_mults_per_pixel: f64,
    t: &TechParams,
) -> EnergyPoint {
    let report = layout_report(cfg, t);
    let macs_per_sec = cfg.equivalent_macs_per_cycle() as f64 * cfg.clock_hz;
    let pixels_per_second = macs_per_sec / equivalent_mults_per_pixel.max(1.0);
    EnergyPoint {
        accelerator: cfg.name.clone(),
        equivalent_mults_per_pixel,
        pixels_per_second,
        nj_per_pixel: report.power_w / pixels_per_second * 1e9,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TechParams {
        TechParams::tsmc40()
    }

    #[test]
    fn n4_uses_less_energy_per_pixel_than_n2() {
        // Fig. 15: at the same model complexity the lower-power n4 design
        // wins on energy per pixel.
        let m = 500_000.0;
        let e2 = operating_point(&AcceleratorConfig::eringcnn_n2(), m, &t());
        let e4 = operating_point(&AcceleratorConfig::eringcnn_n4(), m, &t());
        assert!(e4.nj_per_pixel < e2.nj_per_pixel);
        // Equal equivalent throughput ⇒ equal pixel rate.
        assert!((e2.pixels_per_second - e4.pixels_per_second).abs() < 1.0);
    }

    #[test]
    fn both_beat_ecnn_on_energy() {
        let m = 500_000.0;
        let ecnn = operating_point(&AcceleratorConfig::ecnn(), m, &t());
        let e2 = operating_point(&AcceleratorConfig::eringcnn_n2(), m, &t());
        assert!(e2.nj_per_pixel < ecnn.nj_per_pixel);
    }

    #[test]
    fn energy_ratio_n2_to_n4_matches_table7_shape() {
        // Table VII implies an n2:n4 energy ratio of 4.59/2.71 ≈ 1.69 at
        // the FFDNet-level Full-HD 20 fps operating point (167 MHz).
        let clock = 167.0e6;
        let m = 850_000.0; // FFDNet-level equivalent mults/pixel (arbitrary common value)
        let e2 = operating_point(&AcceleratorConfig::eringcnn(2, clock), m, &t());
        let e4 = operating_point(&AcceleratorConfig::eringcnn(4, clock), m, &t());
        let ratio = e2.nj_per_pixel / e4.nj_per_pixel;
        assert!((1.45..=1.95).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn throughput_scales_inversely_with_model_size() {
        let cfg = AcceleratorConfig::eringcnn_n2();
        let small = operating_point(&cfg, 100_000.0, &t());
        let large = operating_point(&cfg, 400_000.0, &t());
        assert!((small.pixels_per_second / large.pixels_per_second - 4.0).abs() < 1e-6);
    }

    #[test]
    fn uhd30_supported_at_moderate_model_size() {
        // 4K UHD 30 fps needs 248.8 Mpixel/s; with 41 TOPS equivalent the
        // affordable model is ~82k equivalent mults/pixel.
        let cfg = AcceleratorConfig::eringcnn_n4();
        let p = operating_point(&cfg, 82_000.0, &t());
        assert!(
            p.pixels_per_second > 3840.0 * 2160.0 * 30.0,
            "{}",
            p.pixels_per_second
        );
    }
}
