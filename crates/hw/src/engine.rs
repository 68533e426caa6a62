//! The RCONV engine (Fig. 7): a channel-wise 2-D computing array that
//! produces a 4×2-pixel tile of all (32/n) output `n`-tuples from all
//! (32/n) input tuples in one cycle, `m` real products per ring MAC,
//! with the on-the-fly directional ReLU of Fig. 8 at its output.
//!
//! One multiplier count ([`multipliers`]) sizes the engine everywhere: the
//! synthesis-level estimate of a 3×3 FRCONV engine for any ring (the
//! Fig. 12 comparison: component-wise multipliers at the widened
//! `wx × wg` operands, transform adders, and — for `(RI, fH)` — the
//! directional-ReLU block), the accelerator's multiplier counts, and the
//! work of one convolution on the engine ([`EnginePass`]).

use crate::params::TechParams;
use ringcnn_algebra::relu::Nonlinearity;
use ringcnn_algebra::ring::{Ring, RingKind};
use serde::{Deserialize, Serialize};

/// Real input and output channels of the engine (the eCNN width).
pub const ENGINE_REAL_CHANNELS: usize = 32;
/// Spatial tile computed per cycle, rows × columns (the eCNN tile).
pub const ENGINE_TILE: (usize, usize) = (4, 2);
/// Pixels of the tile.
pub const ENGINE_TILE_PIXELS: usize = ENGINE_TILE.0 * ENGINE_TILE.1;
/// Kernel taps of the 3×3 engine.
pub const ENGINE_TAPS: usize = 9;
/// Accumulator width (8-bit products over 32×9 terms).
pub const ACC_BITS: u32 = 24;

/// Internal width of the on-the-fly directional-ReLU unit over `n`-tuples
/// (a power of two): the accumulator, `log₂n` bits of butterfly growth
/// and 5 bits of Q-format alignment.
pub fn fh_bits(n: usize) -> u32 {
    ACC_BITS + n.ilog2() + 5
}

/// Real multipliers of an engine over a ring of dimension `n` whose fast
/// algorithm takes `m` products, for `taps`-tap filters: every pair of
/// the (32/n) input and output tuples, `m` products each, at every tap
/// and tile pixel. The real field (`n = m = 1`) counts the equivalent
/// real MACs the engine serves.
pub fn multipliers(n: usize, m: usize, taps: usize) -> usize {
    let tuples = ENGINE_REAL_CHANNELS / n;
    tuples * tuples * m * taps * ENGINE_TILE_PIXELS
}

/// Cycle/work accounting of one engine pass.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnginePass {
    /// Cycles consumed.
    pub cycles: u64,
    /// Physical multiplications performed.
    pub physical_mults: u64,
    /// Equivalent real-valued multiplications served.
    pub equivalent_mults: u64,
}

impl EnginePass {
    /// The pass of a `co ← ci` convolution with `k×k` filters computing
    /// an output region of `items` planes of `h × w` pixels on the engine
    /// over `ring`: one cycle per (tile × output lane group × input lane
    /// group) triple — the engine's dataflow — each cycle using every
    /// multiplier of a `k²`-tap engine.
    pub fn of_conv(
        ring: &Ring,
        (co, ci, k): (usize, usize, usize),
        (items, h, w): (usize, usize, usize),
    ) -> Self {
        let (tile_h, tile_w) = ENGINE_TILE;
        let tiles = items * h.div_ceil(tile_h) * w.div_ceil(tile_w);
        let groups = co.div_ceil(ENGINE_REAL_CHANNELS) * ci.div_ceil(ENGINE_REAL_CHANNELS);
        let cycles = (tiles * groups) as u64;
        let taps = k * k;
        Self {
            cycles,
            physical_mults: cycles * multipliers(ring.n(), ring.fast().m(), taps) as u64,
            equivalent_mults: cycles * multipliers(1, 1, taps) as u64,
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

    // Component-wise product array.
    let mults = multipliers(n, m, ENGINE_TAPS);
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

    #[test]
    fn cycle_count_matches_tiling_formula() {
        let pass = EnginePass::of_conv(&Ring::from_kind(RingKind::Ri(2)), (8, 4, 3), (2, 8, 8));
        // 8×8 image → 2×4 tiles; 4→8 channels fit one lane group;
        // 2 batch items.
        assert_eq!(pass.cycles, 2 * 2 * 4);
    }

    #[test]
    fn physical_work_halves_with_n2() {
        let pass = |kind| EnginePass::of_conv(&Ring::from_kind(kind), (8, 4, 3), (2, 8, 8));
        let (real, ring) = (pass(RingKind::Ri(1)), pass(RingKind::Ri(2)));
        assert_eq!(real.physical_mults, 2 * ring.physical_mults);
        assert_eq!(real.equivalent_mults, ring.equivalent_mults);
    }

    /// The cycle model and the area model describe one engine: a 3×3 and
    /// a 1×1 pass of 32 → 32 channels over one tile keep every multiplier
    /// of both conv engines busy for one cycle each.
    #[test]
    fn one_tile_charges_the_accelerators_multipliers() {
        use crate::accelerator::AcceleratorConfig;
        let (tile_h, tile_w) = ENGINE_TILE;
        for cfg in [
            AcceleratorConfig::ecnn(),
            AcceleratorConfig::eringcnn_n2(),
            AcceleratorConfig::eringcnn_n4(),
        ] {
            let ring = Ring::from_kind(cfg.ring);
            let mut pass = EnginePass::of_conv(&ring, (32, 32, 3), (1, tile_h, tile_w));
            pass += EnginePass::of_conv(&ring, (32, 32, 1), (1, tile_h, tile_w));
            let want = EnginePass {
                cycles: 2,
                physical_mults: cfg.physical_multipliers() as u64,
                equivalent_mults: cfg.equivalent_macs_per_cycle() as u64,
            };
            assert_eq!(pass, want, "{}", cfg.name);
        }
    }
}
