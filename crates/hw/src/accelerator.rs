//! Whole-accelerator model: eCNN (the real-valued backbone) and the two
//! eRingCNN configurations, producing Table V (layout), Table VI
//! (breakdowns) and Fig. 14 (efficiency vs eCNN).

use crate::engine::{estimate_engine, multipliers, EngineEstimate, ENGINE_TAPS};
use crate::params::TechParams;
use ringcnn_algebra::relu::Nonlinearity;
use ringcnn_algebra::ring::{Ring, RingKind};
use serde::{Deserialize, Serialize};

/// Configuration of one accelerator instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Display name.
    pub name: String,
    /// Ring used by the convolution engines.
    pub ring: RingKind,
    /// Non-linearity hardware.
    pub nonlinearity: Nonlinearity,
    /// Weight SRAM capacity, KB.
    pub weight_mem_kb: f64,
    /// Clock, Hz.
    pub clock_hz: f64,
}

impl AcceleratorConfig {
    /// The eCNN backbone (real-valued, MICRO'19 \[21\]).
    pub fn ecnn() -> Self {
        Self {
            name: "eCNN".into(),
            ring: RingKind::Ri(1),
            nonlinearity: Nonlinearity::ComponentWise,
            weight_mem_kb: 1280.0,
            clock_hz: 250.0e6,
        }
    }

    /// eRingCNN over `RI_n` at `clock_hz`, for any power-of-two `n ≤ 32`
    /// (`n = 1` is [`AcceleratorConfig::ecnn`] at that clock). Weight
    /// memory scales as `1/n` from the eCNN 1280 KB with the paper's 1.5×
    /// no-compression margin: 960 KB at n = 2, 480 KB at n = 4.
    pub fn eringcnn(n: usize, clock_hz: f64) -> Self {
        assert!(
            n.is_power_of_two() && n <= 32,
            "n must be a power of two ≤ 32"
        );
        if n == 1 {
            return Self {
                clock_hz,
                ..Self::ecnn()
            };
        }
        Self {
            name: format!("eRingCNN-n{n}"),
            ring: RingKind::Ri(n),
            nonlinearity: Nonlinearity::DirectionalH,
            weight_mem_kb: 1280.0 * 1.5 / n as f64,
            clock_hz,
        }
    }

    /// eRingCNN with n = 2 (50% sparsity) at 250 MHz.
    pub fn eringcnn_n2() -> Self {
        Self::eringcnn(2, 250.0e6)
    }

    /// eRingCNN with n = 4 (75% sparsity) at 250 MHz.
    pub fn eringcnn_n4() -> Self {
        Self::eringcnn(4, 250.0e6)
    }

    /// Ring dimension (1 = eCNN, the real-valued backbone).
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// Physical real multipliers across both conv engines (3×3 + 1×1).
    pub fn physical_multipliers(&self) -> usize {
        let ring = Ring::from_kind(self.ring);
        let (n, m) = (ring.n(), ring.fast().m());
        multipliers(n, m, ENGINE_TAPS) + multipliers(n, m, 1)
    }

    /// Equivalent real-valued MACs per cycle (what the uncompressed model
    /// would need): always the eCNN 81920 regardless of `n`.
    pub fn equivalent_macs_per_cycle(&self) -> usize {
        multipliers(1, 1, ENGINE_TAPS) + multipliers(1, 1, 1)
    }

    /// Equivalent TOPS (2 ops per MAC) at the configured clock.
    pub fn equivalent_tops(&self) -> f64 {
        self.equivalent_macs_per_cycle() as f64 * self.clock_hz * 2.0 / 1e12
    }
}

/// One component row of the breakdown (Table VI).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Component name.
    pub component: String,
    /// Area, mm².
    pub area_mm2: f64,
    /// Power, W.
    pub power_w: f64,
}

/// Full layout-level report (Table V + Table VI).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayoutReport {
    /// Configuration name.
    pub name: String,
    /// Total area, mm².
    pub area_mm2: f64,
    /// Total power, W.
    pub power_w: f64,
    /// Equivalent TOPS.
    pub tops_equivalent: f64,
    /// Equivalent energy efficiency, TOPS/W.
    pub tops_per_watt: f64,
    /// Component breakdown.
    pub breakdown: Vec<BreakdownRow>,
}

/// Models one accelerator configuration.
pub fn layout_report(cfg: &AcceleratorConfig, t: &TechParams) -> LayoutReport {
    let ring = Ring::from_kind(cfg.ring);
    let clock_ratio = cfg.clock_hz / t.clock_hz;
    // 3×3 engine modeled in detail; the 1×1 engine is the same structure
    // with one tap.
    let e3: EngineEstimate = estimate_engine(&ring, cfg.nonlinearity, 8, t);
    let e1_area = e3.area_mm2 / ENGINE_TAPS as f64;
    let e1_power = e3.power_w / ENGINE_TAPS as f64;
    let conv_area = e3.area_mm2 + e1_area;
    let conv_power = (e3.power_w + e1_power) * clock_ratio;

    let wmem_area = cfg.weight_mem_kb * t.sram_area_per_kb;
    let fixed_area = t.fixed_area_mm2;
    let fixed_power = t.fixed_power_w * clock_ratio;

    let area = conv_area + wmem_area + fixed_area;
    let power = conv_power + fixed_power;
    let tops = cfg.equivalent_tops();
    LayoutReport {
        name: cfg.name.clone(),
        area_mm2: area,
        power_w: power,
        tops_equivalent: tops,
        tops_per_watt: tops / power,
        breakdown: vec![
            BreakdownRow {
                component: "convolution engines".into(),
                area_mm2: conv_area,
                power_w: conv_power,
            },
            BreakdownRow {
                component: "weight memory".into(),
                area_mm2: wmem_area,
                power_w: 0.12 * clock_ratio,
            },
            BreakdownRow {
                component: "block buffer + datapath + control".into(),
                area_mm2: fixed_area,
                power_w: (fixed_power - 0.12 * clock_ratio).max(0.0),
            },
        ],
    }
}

/// Fig. 14: engine-level and whole-chip area/energy efficiencies of a
/// configuration relative to eCNN at equal equivalent throughput.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EfficiencyVsEcnn {
    /// Configuration name.
    pub name: String,
    /// Conv-engine area efficiency.
    pub engine_area: f64,
    /// Conv-engine energy efficiency.
    pub engine_energy: f64,
    /// Whole-accelerator area efficiency.
    pub chip_area: f64,
    /// Whole-accelerator energy efficiency.
    pub chip_energy: f64,
}

/// Computes Fig. 14 for one configuration.
pub fn efficiency_vs_ecnn(cfg: &AcceleratorConfig, t: &TechParams) -> EfficiencyVsEcnn {
    let base = layout_report(&AcceleratorConfig::ecnn(), t);
    let ours = layout_report(cfg, t);
    let conv = |r: &LayoutReport| (r.breakdown[0].area_mm2, r.breakdown[0].power_w);
    let (ba, bp) = conv(&base);
    let (oa, op) = conv(&ours);
    EfficiencyVsEcnn {
        name: cfg.name.clone(),
        engine_area: ba / oa,
        engine_energy: bp / op,
        chip_area: base.area_mm2 / ours.area_mm2,
        chip_energy: base.power_w / ours.power_w,
    }
}

/// DRAM bandwidth demand of the block-based inference flow for 4K UHD
/// 30 fps: input + output images at 8 bits per pixel per channel, with
/// the block-recompute overhead factor of eCNN's flow (features never
/// leave the chip).
pub fn dram_bandwidth_gbs(overlap_overhead: f64) -> f64 {
    let pixels = 3840.0 * 2160.0 * 30.0;
    // 3-channel input + 3-channel output + ~1.7× block-halo recompute
    // reads on the input side.
    (pixels * 3.0 * (1.0 + overlap_overhead) + pixels * 3.0) / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ACC_BITS;

    fn t() -> TechParams {
        TechParams::tsmc40()
    }

    #[test]
    fn table5_matches_paper_within_tolerance() {
        // Paper Table V: n2 = 33.73 mm² / 3.76 W; n4 = 23.36 mm² / 2.22 W.
        let n2 = layout_report(&AcceleratorConfig::eringcnn_n2(), &t());
        let n4 = layout_report(&AcceleratorConfig::eringcnn_n4(), &t());
        assert!(
            (n2.area_mm2 - 33.73).abs() / 33.73 < 0.10,
            "n2 area {}",
            n2.area_mm2
        );
        assert!(
            (n2.power_w - 3.76).abs() / 3.76 < 0.10,
            "n2 power {}",
            n2.power_w
        );
        assert!(
            (n4.area_mm2 - 23.36).abs() / 23.36 < 0.10,
            "n4 area {}",
            n4.area_mm2
        );
        assert!(
            (n4.power_w - 2.22).abs() / 2.22 < 0.12,
            "n4 power {}",
            n4.power_w
        );
    }

    #[test]
    fn ecnn_matches_published_numbers() {
        let e = layout_report(&AcceleratorConfig::ecnn(), &t());
        assert!(
            (e.area_mm2 - 55.23).abs() / 55.23 < 0.10,
            "area {}",
            e.area_mm2
        );
        assert!(
            (e.power_w - 6.94).abs() / 6.94 < 0.10,
            "power {}",
            e.power_w
        );
        assert!((e.tops_equivalent - 40.96).abs() < 0.1);
    }

    #[test]
    fn fig14_efficiencies_match_paper_shape() {
        // Paper: n2 engines 2.08×/2.00×, chip 1.64×/1.85×;
        //        n4 engines 3.77×/3.84×, chip 2.36×/3.12×.
        let n2 = efficiency_vs_ecnn(&AcceleratorConfig::eringcnn_n2(), &t());
        let n4 = efficiency_vs_ecnn(&AcceleratorConfig::eringcnn_n4(), &t());
        assert!(
            (1.85..=2.25).contains(&n2.engine_area),
            "n2 engine area {}",
            n2.engine_area
        );
        assert!(
            (1.8..=2.2).contains(&n2.engine_energy),
            "n2 engine energy {}",
            n2.engine_energy
        );
        assert!(
            (3.4..=4.1).contains(&n4.engine_area),
            "n4 engine area {}",
            n4.engine_area
        );
        assert!(
            (3.4..=4.2).contains(&n4.engine_energy),
            "n4 engine energy {}",
            n4.engine_energy
        );
        // Whole-chip gains are smaller than engine gains (fixed overheads).
        assert!(n2.chip_area < n2.engine_area);
        assert!(n2.chip_energy < n2.engine_energy);
        assert!(n4.chip_area < n4.engine_area);
        assert!(n4.chip_energy < n4.engine_energy);
        // And n4 beats n2 everywhere.
        assert!(n4.chip_energy > n2.chip_energy);
    }

    #[test]
    fn physical_multiplier_counts() {
        assert_eq!(AcceleratorConfig::ecnn().physical_multipliers(), 81920);
        assert_eq!(
            AcceleratorConfig::eringcnn_n2().physical_multipliers(),
            40960
        );
        assert_eq!(
            AcceleratorConfig::eringcnn_n4().physical_multipliers(),
            20480
        );
    }

    #[test]
    fn eringcnn_rejects_bad_n() {
        let r = std::panic::catch_unwind(|| AcceleratorConfig::eringcnn(3, 250e6));
        assert!(r.is_err());
    }

    #[test]
    fn equivalent_tops_is_41_for_all() {
        for cfg in [
            AcceleratorConfig::ecnn(),
            AcceleratorConfig::eringcnn_n2(),
            AcceleratorConfig::eringcnn_n4(),
        ] {
            assert!((cfg.equivalent_tops() - 40.96).abs() < 0.01, "{}", cfg.name);
        }
    }

    #[test]
    fn dram_bandwidth_near_paper_value() {
        // Paper: 1.93 GB/s for 4K UHD applications.
        let bw = dram_bandwidth_gbs(0.7);
        assert!((bw - 1.93).abs() < 0.4, "bandwidth {bw}");
    }

    #[test]
    fn drelu_overhead_grows_with_n() {
        // Table VI: the directional ReLU is 3.4% of the 3×3 engine for
        // n=2 and 8.9% for n=4.
        let tech = t();
        let with = |kind: RingKind, nl: Nonlinearity| {
            estimate_engine(&Ring::from_kind(kind), nl, 8, &tech).area_mm2
        };
        let n2_frac = 1.0
            - with(RingKind::Ri(2), Nonlinearity::None)
                / with(RingKind::Ri(2), Nonlinearity::DirectionalH);
        let n4_frac = 1.0
            - with(RingKind::Ri(4), Nonlinearity::None)
                / with(RingKind::Ri(4), Nonlinearity::DirectionalH);
        assert!(n4_frac > n2_frac, "n4 {n4_frac} vs n2 {n2_frac}");
        assert!(
            (0.01..=0.07).contains(&n2_frac),
            "n2 drelu fraction {n2_frac}"
        );
        assert!(
            (0.04..=0.14).contains(&n4_frac),
            "n4 drelu fraction {n4_frac}"
        );
    }

    #[test]
    fn acc_bits_constant_is_sane() {
        assert_eq!(ACC_BITS, 24);
    }
}
