//! Published competitor numbers (cited constants) and the comparison
//! tables against them: Table VII (Diffy) and Table VIII
//! (SparTen / TIE / CirCNN).
//!
//! Competitor silicon cannot be re-synthesized here; the paper's own
//! comparisons rely on the numbers their publications report, which we
//! hardcode with provenance. Our side of each table comes from the
//! analytical model (`accelerator`/`energy`).

use crate::accelerator::{layout_report, AcceleratorConfig};
use crate::energy::operating_point;
use crate::params::TechParams;
use serde::{Deserialize, Serialize};

/// A row of Table VIII: sparsity-accelerator comparison.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SparsityAcceleratorRow {
    /// Design name.
    pub name: String,
    /// Sparsity approach.
    pub approach: String,
    /// Compression ratio exploited.
    pub compression: String,
    /// Equivalent energy efficiency, TOPS/W (synthesis level).
    pub equivalent_tops_per_watt: f64,
    /// Source of the number.
    pub provenance: String,
}

/// Published constants (from the RingCNN paper text and the cited
/// publications).
pub mod published {
    /// SparTen \[16\] physical efficiency on 45 nm (paper §I).
    pub const SPARTEN_PHYSICAL_TOPS_W: f64 = 0.43;
    /// SparTen equivalent efficiency after sparsity (paper §VI-C).
    pub const SPARTEN_EQUIVALENT_TOPS_W: f64 = 2.7;
    /// CirCNN \[13\] equivalent efficiency at 66× compression (§VI-C).
    pub const CIRCNN_EQUIVALENT_TOPS_W: f64 = 10.0;
    /// CirCNN compression ratio (AlexNet, §I).
    pub const CIRCNN_COMPRESSION: f64 = 66.0;
    /// eRingCNN equivalent efficiency range quoted at synthesis level
    /// (§VI-C): 19.1–28.4 TOPS/W.
    pub const ERINGCNN_SYNTH_RANGE: (f64, f64) = (19.1, 28.4);
    /// Energy-efficiency gains over Diffy at FFDNet-level Full-HD 20 fps
    /// (§VI-C, Table VII): n2 = 2.71×, n4 = 4.59×.
    pub const VS_DIFFY: (f64, f64) = (2.71, 4.59);
    /// Diffy operating clock for the Table VII comparison.
    pub const DIFFY_COMPARISON_CLOCK_HZ: f64 = 167.0e6;
    /// TSMC 40 vs 65 nm scaling used to project Diffy (footnote 1):
    /// 2.35× gate density, 0.5× power at equal speed.
    pub const NM65_TO_40_DENSITY: f64 = 2.35;
    /// Power scaling 65 nm → 40 nm.
    pub const NM65_TO_40_POWER: f64 = 0.5;
}

/// Generates Table VIII: our modeled rows plus cited competitor rows.
pub fn table8(t: &TechParams) -> Vec<SparsityAcceleratorRow> {
    let mut rows = vec![
        SparsityAcceleratorRow {
            name: "SparTen".into(),
            approach: "natural (unstructured)".into(),
            compression: "~6x activations+weights".into(),
            equivalent_tops_per_watt: published::SPARTEN_EQUIVALENT_TOPS_W,
            provenance: "MICRO'19 [16], as cited in RingCNN §VI-C".into(),
        },
        SparsityAcceleratorRow {
            name: "TIE (CONV layers)".into(),
            approach: "low-rank (tensor train)".into(),
            compression: "low on CONV".into(),
            equivalent_tops_per_watt: f64::NAN,
            provenance: "ISCA'19 [12]; RingCNN reports qualitative CONV inefficiency".into(),
        },
        SparsityAcceleratorRow {
            name: "CirCNN".into(),
            approach: "full-rank (block-circulant)".into(),
            compression: format!("{}x", published::CIRCNN_COMPRESSION),
            equivalent_tops_per_watt: published::CIRCNN_EQUIVALENT_TOPS_W,
            provenance: "MICRO'17 [13], as cited in RingCNN §VI-C".into(),
        },
    ];
    for cfg in [
        AcceleratorConfig::eringcnn_n2(),
        AcceleratorConfig::eringcnn_n4(),
    ] {
        // Synthesis-level comparison: conv engines dominate; use engine
        // power as the synthesis proxy (the paper compares synthesis
        // results because competitors only report those).
        let report = layout_report(&cfg, t);
        let engine_power = report.breakdown[0].power_w;
        rows.push(SparsityAcceleratorRow {
            name: cfg.name.clone(),
            approach: "algebraic (ring tensors)".into(),
            compression: format!("{}x", cfg.n()),
            equivalent_tops_per_watt: report.tops_equivalent / engine_power,
            provenance: "this model (synthesis proxy: conv engines)".into(),
        });
    }
    rows
}

/// A row of Table VII: computational-imaging accelerator comparison at
/// the FFDNet-level Full-HD 20 fps target.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DiffyComparisonRow {
    /// Design name.
    pub name: String,
    /// Power at the operating point, W.
    pub power_w: f64,
    /// Energy per pixel, nJ.
    pub nj_per_pixel: f64,
    /// Energy efficiency relative to Diffy.
    pub efficiency_vs_diffy: f64,
}

/// Generates Table VII. The Diffy energy rate is back-derived from the
/// paper's published ratios (its RTL is not available); our two rows are
/// model outputs, so the *ratio between them* is the reproduced claim.
pub fn table7(t: &TechParams) -> Vec<DiffyComparisonRow> {
    let clock = published::DIFFY_COMPARISON_CLOCK_HZ;
    let pixels_per_second = 1920.0 * 1080.0 * 20.0;
    // FFDNet-level equivalent complexity at Full-HD 20 fps with the
    // engines at 167 MHz: mults/pixel = macs/s ÷ pixel rate.
    let n2 = AcceleratorConfig::eringcnn(2, clock);
    let mults_per_pixel = n2.equivalent_macs_per_cycle() as f64 * clock / pixels_per_second;
    let p2 = operating_point(&n2, mults_per_pixel, t);
    let n4 = AcceleratorConfig::eringcnn(4, clock);
    let p4 = operating_point(&n4, mults_per_pixel, t);
    // Diffy anchor: paper ratio 2.71× against our n2 point.
    let diffy_nj = p2.nj_per_pixel * published::VS_DIFFY.0;
    vec![
        DiffyComparisonRow {
            name: "Diffy (projected 40 nm)".into(),
            power_w: diffy_nj * 1e-9 * pixels_per_second,
            nj_per_pixel: diffy_nj,
            efficiency_vs_diffy: 1.0,
        },
        DiffyComparisonRow {
            name: "eRingCNN-n2 @167 MHz".into(),
            power_w: p2.nj_per_pixel * 1e-9 * pixels_per_second,
            nj_per_pixel: p2.nj_per_pixel,
            efficiency_vs_diffy: diffy_nj / p2.nj_per_pixel,
        },
        DiffyComparisonRow {
            name: "eRingCNN-n4 @167 MHz".into(),
            power_w: p4.nj_per_pixel * 1e-9 * pixels_per_second,
            nj_per_pixel: p4.nj_per_pixel,
            efficiency_vs_diffy: diffy_nj / p4.nj_per_pixel,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TechParams {
        TechParams::tsmc40()
    }

    #[test]
    fn table8_shows_algebraic_sparsity_winning() {
        let rows = table8(&t());
        let ours_min = rows
            .iter()
            .filter(|r| r.name.starts_with("eRingCNN"))
            .map(|r| r.equivalent_tops_per_watt)
            .fold(f64::INFINITY, f64::min);
        assert!(ours_min > published::SPARTEN_EQUIVALENT_TOPS_W * 3.0);
        assert!(ours_min > published::CIRCNN_EQUIVALENT_TOPS_W);
    }

    #[test]
    fn our_efficiency_within_2x_of_paper_synthesis_range() {
        // Paper: equivalent 19.1–28.4 TOPS/W at synthesis level. Our model
        // is calibrated to *post-layout* power (time-based, with
        // parasitics), which runs systematically higher than synthesis
        // estimates; we accept a 2× band around the paper range and
        // record the exact gap in EXPERIMENTS.md.
        let rows = table8(&t());
        for r in rows.iter().filter(|r| r.name.starts_with("eRingCNN")) {
            assert!(
                (published::ERINGCNN_SYNTH_RANGE.0 * 0.5..=published::ERINGCNN_SYNTH_RANGE.1 * 1.3)
                    .contains(&r.equivalent_tops_per_watt),
                "{}: {}",
                r.name,
                r.equivalent_tops_per_watt
            );
        }
    }

    #[test]
    fn table7_ratio_between_configs_matches_paper() {
        // The independent reproduction claim: n4/n2 energy-efficiency
        // ratio ≈ 4.59/2.71 = 1.69.
        let rows = table7(&t());
        let n2 = rows.iter().find(|r| r.name.contains("n2")).unwrap();
        let n4 = rows.iter().find(|r| r.name.contains("n4")).unwrap();
        let ratio = n4.efficiency_vs_diffy / n2.efficiency_vs_diffy;
        let want = published::VS_DIFFY.1 / published::VS_DIFFY.0;
        assert!(
            (ratio / want - 1.0).abs() < 0.15,
            "ratio {ratio} vs paper {want}"
        );
        // The n2 row is the anchor by construction.
        assert!((n2.efficiency_vs_diffy - published::VS_DIFFY.0).abs() < 1e-9);
    }

    #[test]
    fn rows_have_provenance() {
        for r in table8(&t()) {
            assert!(!r.provenance.is_empty());
        }
    }
}
