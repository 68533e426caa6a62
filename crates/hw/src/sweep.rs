//! Design-space exploration beyond the paper's two build points: sweeps
//! eRingCNN-style configurations over ring dimension and clock, projecting
//! where the returns of algebraic sparsity saturate (the paper's
//! conclusion hints at n = 8 via Fig. 11's 8× compression point).

use crate::accelerator::{layout_report, AcceleratorConfig};
use crate::params::TechParams;
use serde::{Deserialize, Serialize};

/// One sweep point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Ring dimension.
    pub n: usize,
    /// Clock, MHz.
    pub clock_mhz: f64,
    /// Total area, mm².
    pub area_mm2: f64,
    /// Total power, W.
    pub power_w: f64,
    /// Equivalent TOPS.
    pub tops: f64,
    /// Equivalent TOPS per watt.
    pub tops_per_watt: f64,
    /// Share of the chip that is *not* convolution engines (the fixed
    /// overhead that eventually dominates as n grows).
    pub overhead_fraction: f64,
}

/// Sweeps ring dimensions at the reference clock.
pub fn sweep_n(ns: &[usize], t: &TechParams) -> Vec<SweepPoint> {
    ns.iter()
        .map(|&n| {
            let cfg = AcceleratorConfig::eringcnn(n, t.clock_hz);
            let r = layout_report(&cfg, t);
            let conv_area = r.breakdown[0].area_mm2;
            SweepPoint {
                n,
                clock_mhz: cfg.clock_hz / 1e6,
                area_mm2: r.area_mm2,
                power_w: r.power_w,
                tops: r.tops_equivalent,
                tops_per_watt: r.tops_per_watt,
                overhead_fraction: 1.0 - conv_area / r.area_mm2,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_named_configs() {
        let t = TechParams::tsmc40();
        let pts = sweep_n(&[1, 2, 4], &t);
        let named2 = layout_report(&AcceleratorConfig::eringcnn_n2(), &t);
        assert!((pts[1].area_mm2 - named2.area_mm2).abs() < 1e-9);
        let named4 = layout_report(&AcceleratorConfig::eringcnn_n4(), &t);
        assert!((pts[2].power_w - named4.power_w).abs() < 1e-9);
    }

    #[test]
    fn returns_diminish_with_n() {
        // Power keeps dropping with n, but the non-conv overhead fraction
        // grows — the architectural message of Fig. 14 extrapolated.
        let t = TechParams::tsmc40();
        let pts = sweep_n(&[1, 2, 4, 8, 16], &t);
        for w in pts.windows(2) {
            assert!(w[1].power_w < w[0].power_w, "power must fall with n");
            assert!(
                w[1].overhead_fraction > w[0].overhead_fraction,
                "fixed overheads must dominate as n grows"
            );
        }
        // Efficiency gains shrink: the TOPS/W step from n=8 to n=16 is
        // smaller than from n=1 to n=2 in absolute terms of power saved.
        let save_12 = pts[0].power_w - pts[1].power_w;
        let save_816 = pts[3].power_w - pts[4].power_w;
        assert!(save_12 > 4.0 * save_816);
    }
}
