//! Synthesis-level model of a 32-channel 3×3 FRCONV engine for any ring
//! (the Fig. 12 comparison): component-wise multipliers at the widened
//! `wx × wg` operands, transform adders, and — for `(RI, fH)` — the
//! on-the-fly directional-ReLU block.

use crate::params::TechParams;
use ringcnn_algebra::relu::Nonlinearity;
use ringcnn_algebra::ring::{Ring, RingKind};
use serde::{Deserialize, Serialize};

/// Engine geometry shared by all Fig. 12 points: 32 real input and output
/// channels, 3×3 filters, a 4×2-pixel tile per cycle (the eCNN tile).
pub const ENGINE_REAL_CHANNELS: usize = 32;
/// Spatial tile computed per cycle.
pub const ENGINE_TILE_PIXELS: usize = 8;
/// Kernel taps.
pub const ENGINE_TAPS: usize = 9;
/// Accumulator width (8-bit products over 32×9 terms).
pub const ACC_BITS: u32 = 24;

/// Internal width of the on-the-fly directional-ReLU unit over `n`-tuples
/// (a power of two): the accumulator, `log₂n` bits of butterfly growth
/// and 5 bits of Q-format alignment.
pub fn fh_bits(n: usize) -> u32 {
    ACC_BITS + n.ilog2() + 5
}

/// Area/power estimate for one engine configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineEstimate {
    /// Ring variant.
    pub ring: RingKind,
    /// Non-linearity built into the engine.
    pub nonlinearity: Nonlinearity,
    /// Real multipliers instantiated.
    pub multipliers: usize,
    /// Engine area, mm².
    pub area_mm2: f64,
    /// Engine power at the reference clock, W.
    pub power_w: f64,
    /// Area efficiency vs the real-valued engine (same throughput).
    pub area_efficiency: f64,
}

/// Models the 3×3 engine for `ring` with `w`-bit features/weights.
pub fn estimate_engine(
    ring: &Ring,
    nonlinearity: Nonlinearity,
    w: u32,
    t: &TechParams,
) -> EngineEstimate {
    let n = ring.n();
    let tuples = ENGINE_REAL_CHANNELS / n;
    let m = ring.fast().m();
    let wx = w + ring.fast().data_bit_growth();
    let wg = w + ring.fast().filter_bit_growth();

    // Component-wise product array: tuples² units × m mults × taps × tile.
    let mults = tuples * tuples * m * ENGINE_TAPS * ENGINE_TILE_PIXELS;
    let mut area = mults as f64 * t.mac_area(wx, wg, ACC_BITS);
    let mut power = mults as f64 * t.mac_power(wx, wg, ACC_BITS);

    // Transform adders, amortized per element (eq. (12)):
    //  - Tx once per input tuple per tile pixel,
    //  - Tz once per output tuple per tile pixel,
    //  - Tg once per weight load (negligible at inference, excluded).
    let tx_adds = adds_of(ring.fast().tx().as_slice(), m, n);
    let tz_adds = adds_of(ring.fast().tz().as_slice(), n, m);
    let transform_adders = (tuples * ENGINE_TILE_PIXELS) as f64 * (tx_adds + tz_adds) as f64;
    area += transform_adders * t.adder_area_per_bit * f64::from(wx.max(ACC_BITS));
    power += transform_adders * t.adder_power_per_bit * f64::from(wx.max(ACC_BITS));

    // Directional-ReLU block (Fig. 8): per output tuple per tile pixel,
    // two FWHT butterflies (2·n·log2 n adders), 2n align/requant
    // shifters, pipeline registers between the three stages, and n
    // saturating rounders — internal width `fh_bits(n)`.
    if matches!(
        nonlinearity,
        Nonlinearity::DirectionalH | Nonlinearity::DirectionalO4
    ) && n > 1
    {
        let units = (tuples * ENGINE_TILE_PIXELS) as f64;
        let butterfly_adders = (2 * n) as f64 * (n as f64).log2().ceil();
        let wb = f64::from(fh_bits(n));
        let adder_bits = butterfly_adders * wb;
        let shifter_bits = 2.0 * n as f64 * wb;
        let reg_bits = 3.0 * n as f64 * wb;
        let sat_bits = n as f64 * wb; // saturation/rounding as adder-class logic
        let unit_area = (adder_bits + sat_bits) * t.adder_area_per_bit
            + shifter_bits * t.shifter_area_per_bit
            + reg_bits * t.reg_area_per_bit;
        let unit_power = (adder_bits + sat_bits) * t.adder_power_per_bit
            + shifter_bits * t.shifter_power_per_bit
            + reg_bits * t.reg_power_per_bit;
        area += units * unit_area * t.drelu_logic_factor;
        power += units * unit_power * t.drelu_logic_factor;
    }

    EngineEstimate {
        ring: ring.kind(),
        nonlinearity,
        multipliers: mults,
        area_mm2: area / 1e6,
        power_w: power / 1e6,
        area_efficiency: 0.0, // filled by the caller relative to real
    }
}

/// Adders implied by a transform matrix: non-zeros minus one per row
/// (an s-term row needs s−1 adders), per application.
fn adds_of(mat: &[f64], rows: usize, cols: usize) -> usize {
    let mut adds = 0usize;
    for r in 0..rows {
        let nnz = (0..cols).filter(|c| mat[r * cols + c] != 0.0).count();
        adds += nnz.saturating_sub(1);
    }
    adds
}

/// The Fig. 12 sweep: every Table-I ring engine plus the real-valued
/// baseline and the proposed `(RI, fH)`, with efficiencies relative to
/// the real engine.
pub fn fig12_engines(w: u32) -> Vec<EngineEstimate> {
    let t = TechParams::tsmc40();
    let real = estimate_engine(
        &Ring::from_kind(RingKind::Ri(1)),
        Nonlinearity::ComponentWise,
        w,
        &t,
    );
    let mut out = Vec::new();
    let mut push = |kind: RingKind, nl: Nonlinearity| {
        let mut e = estimate_engine(&Ring::from_kind(kind), nl, w, &t);
        e.area_efficiency = real.area_mm2 / e.area_mm2;
        out.push(e);
    };
    push(RingKind::Ri(1), Nonlinearity::ComponentWise);
    push(RingKind::Rh(2), Nonlinearity::ComponentWise);
    push(RingKind::Complex, Nonlinearity::ComponentWise);
    push(RingKind::Ri(2), Nonlinearity::DirectionalH);
    push(RingKind::Rh(4), Nonlinearity::ComponentWise);
    push(RingKind::Ro4, Nonlinearity::ComponentWise);
    push(RingKind::Rh4I, Nonlinearity::ComponentWise);
    push(RingKind::Rh4II, Nonlinearity::ComponentWise);
    push(RingKind::Ro4I, Nonlinearity::ComponentWise);
    push(RingKind::Ro4II, Nonlinearity::ComponentWise);
    push(RingKind::Ri(4), Nonlinearity::DirectionalH);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringcnn_algebra::fast::bit_growth;

    fn eff(kind: RingKind, nl: Nonlinearity) -> f64 {
        fig12_engines(8)
            .into_iter()
            .find(|e| e.ring == kind && e.nonlinearity == nl)
            .unwrap()
            .area_efficiency
    }

    #[test]
    fn ri_fh_has_best_area_efficiency_per_n() {
        // §VI-A / Fig. 12: (RI, fH) provides the smallest area among the
        // same-n rings despite the directional-ReLU block.
        let ri4 = eff(RingKind::Ri(4), Nonlinearity::DirectionalH);
        for kind in [
            RingKind::Rh(4),
            RingKind::Ro4,
            RingKind::Rh4I,
            RingKind::Rh4II,
        ] {
            assert!(
                ri4 > eff(kind, Nonlinearity::ComponentWise),
                "(RI4,fH) must beat {kind:?}"
            );
        }
        let ri2 = eff(RingKind::Ri(2), Nonlinearity::DirectionalH);
        for kind in [RingKind::Rh(2), RingKind::Complex] {
            assert!(ri2 > eff(kind, Nonlinearity::ComponentWise));
        }
    }

    #[test]
    fn ri_fh_efficiency_near_n() {
        let ri2 = eff(RingKind::Ri(2), Nonlinearity::DirectionalH);
        let ri4 = eff(RingKind::Ri(4), Nonlinearity::DirectionalH);
        assert!((1.8..=2.1).contains(&ri2), "n=2 engine efficiency {ri2}");
        assert!((3.3..=4.1).contains(&ri4), "n=4 engine efficiency {ri4}");
    }

    #[test]
    fn circulant_and_hadamard_engines_trail_ri4() {
        // Paper: (RI,fH) provides 1.8×/1.5× area efficiency over the
        // CirCNN-alike RH4-I and HadaNet-alike RH4.
        let ri4 = eff(RingKind::Ri(4), Nonlinearity::DirectionalH);
        let rh4i = eff(RingKind::Rh4I, Nonlinearity::ComponentWise);
        let rh4 = eff(RingKind::Rh(4), Nonlinearity::ComponentWise);
        let vs_circnn = ri4 / rh4i;
        let vs_hadanet = ri4 / rh4;
        assert!(
            (1.4..=2.2).contains(&vs_circnn),
            "vs CirCNN-alike {vs_circnn}"
        );
        assert!(
            (1.2..=1.9).contains(&vs_hadanet),
            "vs HadaNet-alike {vs_hadanet}"
        );
    }

    #[test]
    fn multiplier_counts_scale_with_m() {
        let t = TechParams::tsmc40();
        let real = estimate_engine(
            &Ring::from_kind(RingKind::Ri(1)),
            Nonlinearity::ComponentWise,
            8,
            &t,
        );
        assert_eq!(real.multipliers, 32 * 32 * 9 * 8);
        let ri4 = estimate_engine(
            &Ring::from_kind(RingKind::Ri(4)),
            Nonlinearity::DirectionalH,
            8,
            &t,
        );
        assert_eq!(ri4.multipliers, real.multipliers / 4);
        let circ = estimate_engine(
            &Ring::from_kind(RingKind::Rh4I),
            Nonlinearity::ComponentWise,
            8,
            &t,
        );
        assert_eq!(circ.multipliers, 8 * 8 * 5 * 9 * 8);
    }

    #[test]
    fn bit_growth_feeds_the_model() {
        // Sanity: RH4 engines pay for 10-bit operands.
        let ring = Ring::from_kind(RingKind::Rh(4));
        assert_eq!(bit_growth(ring.fast().tx()), 2);
    }
}
