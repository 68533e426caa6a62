//! The load-time proof of the integer pipeline: structural validation of
//! an untrusted chain and, on the same walk, the largest magnitude any
//! input can drive each stage to, held to the widths of the eRingCNN
//! datapath the paper prices — a model that outgrows them does not load
//! ([`LaneProof`], `QuantizedModel::validate`).

use super::*;
use ringcnn_hw::engine::{fh_bits, ACC_BITS};

/// What a stage of the proof's walk computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// The quantized input.
    Input,
    /// A convolution's accumulators.
    Conv,
    /// A directional ReLU's butterflies.
    DRelu,
    /// A residual's aligned sum.
    Add,
    /// An upsample-residual's aligned sum.
    UpsampleAdd,
}

/// One stage of the walk: where it is in the model — its index in the
/// layer list, dotted into residual bodies (`0.3.1`; empty for the
/// input) —, what it is, and the largest magnitude any input can drive
/// it to.
#[derive(Clone, Debug, PartialEq)]
pub struct ProofStage {
    /// Layer index, dotted into nested bodies.
    pub path: String,
    /// What the stage computes.
    pub kind: StageKind,
    /// Its worst-case magnitude.
    pub worst: u128,
}

impl std::fmt::Display for ProofStage {
    /// `0.3.1 fH`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            StageKind::Input => return f.write_str("the input"),
            StageKind::Conv => "conv",
            StageKind::DRelu => "fH",
            StageKind::Add => "add",
            StageKind::UpsampleAdd => "upsample add",
        };
        write!(f, "{} {kind}", self.path)
    }
}

/// What the load-time proof found (see [`QuantizedModel::lane_proof`]).
#[derive(Clone, Debug, PartialEq)]
pub struct LaneProof {
    /// The largest magnitude [`LaneProof::stage`] can reach.
    pub worst: u128,
    /// The stage with the largest worst-case magnitude of the chain.
    pub stage: String,
    /// Every stage of the walk, in chain order.
    pub stages: Vec<ProofStage>,
}

impl std::fmt::Display for LaneProof {
    /// The registry's log line: `integer lanes i32, store i8, worst case
    /// 2^21.6 at 0.3.1 fH`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (log2, at) = ((self.worst as f64).log2(), &self.stage);
        write!(
            f,
            "integer lanes i32, store i8, worst case 2^{log2:.1} at {at}"
        )
    }
}

/// Serving bound on stored fracs: an 8-bit fit of the tiniest clamped
/// range (`1e-12`) lands at frac 46; 64 covers every reachable format
/// while keeping alignment-shift spreads far from the rails.
const MAX_STORED_FRAC: i32 = 64;
/// Per-output-channel tap bound (`ci·k²`): a million taps per pixel is
/// beyond any imaging model and still overflow-safe.
const MAX_TAPS: usize = 1 << 20;

pub(super) fn validate_format(f: QFormat, what: &str) -> Result<(), String> {
    if !(2..=STORED_BITS).contains(&f.bits) {
        return Err(format!("{what}: bits {} outside 2..={STORED_BITS}", f.bits));
    }
    if f.frac.unsigned_abs() > MAX_STORED_FRAC.unsigned_abs() {
        return Err(format!(
            "{what}: frac {} outside ±{MAX_STORED_FRAC}",
            f.frac
        ));
    }
    Ok(())
}

fn validate_formats(fs: &[QFormat], what: &str) -> Result<(), String> {
    if fs.is_empty() {
        return Err(format!("{what}: empty format list"));
    }
    for f in fs {
        validate_format(*f, what)?;
    }
    Ok(())
}

/// `|bias| + Σ_ci (Σ_taps |w|)·bound[ci]` per output channel: the largest
/// magnitude its accumulator can reach.
fn conv_acc_bounds(c: &QConv, acc_frac: &[i32], bounds: &[u128]) -> Vec<u128> {
    let (taps, row) = (c.k * c.k, c.ci * c.k * c.k);
    let channel = |co: usize| {
        let mut acc = u128::from(bias_at(c, co, acc_frac[co]).unsigned_abs());
        let taps_of = c.weights[co * row..(co + 1) * row].chunks(taps.max(1));
        for (w, bound) in taps_of.zip(bounds) {
            let mass: u128 = w.iter().map(|w| u128::from(w.unsigned_abs())).sum();
            acc = acc.saturating_add(mass.saturating_mul(*bound));
        }
        acc
    };
    (0..c.co).map(channel).collect()
}

/// `2^(bits−1)`, the largest magnitude a (validated) format stores.
fn rail(f: QFormat) -> u128 {
    f.rails().0.unsigned_abs().into()
}

fn rails(formats: &[QFormat]) -> Vec<u128> {
    formats.iter().map(|f| rail(*f)).collect()
}

/// The largest magnitude a value of at most `bound` has after a
/// requantizer's shift from `from_frac` to `to_frac` (exact to the left,
/// saturating; one above the truncation to the right, where it rounds).
fn shifted(bound: u128, from_frac: i32, to_frac: i32) -> u128 {
    let d = (i64::from(to_frac) - i64::from(from_frac)).unsigned_abs();
    let d = d.min(128) as u32;
    if to_frac < from_frac {
        bound.checked_shr(d).unwrap_or(0) + 1
    } else if d >= bound.leading_zeros() {
        u128::MAX
    } else {
        bound << d
    }
}

/// The width a stage must stay inside, `2^(bits − 1)`, and what has it:
/// a conv's accumulator has [`ACC_BITS`], a directional ReLU's
/// butterflies the [`fh_bits`] of its unit, everything else — and any
/// unit wider than that — the `i32` lane the chain computes in.
fn width(kind: StageKind, n: usize) -> (u32, &'static str) {
    match kind {
        StageKind::Conv => (ACC_BITS, "accumulator"),
        StageKind::DRelu if fh_bits(n) <= 32 => (fh_bits(n), "fH unit"),
        _ => (32, "lane"),
    }
}

impl LaneProof {
    /// Walks `layers` from `c` input channels in `format`: the proof, or
    /// the chain's first inconsistency or first stage that outgrows its
    /// width.
    pub(super) fn of(format: QFormat, c: usize, layers: &[QLayer]) -> Result<Self, String> {
        let mut proof = Self {
            worst: 0,
            stage: String::new(),
            stages: Vec::new(),
        };
        proof.note(rail(format), "", StageKind::Input, 1)?;
        let (formats, bounds) = (vec![format; c], vec![rail(format); c]);
        validate_chain(layers, formats, bounds, "", &mut proof)?;
        Ok(proof)
    }

    /// The stage of `kind` at `path` (over `n`-tuples) can reach
    /// `magnitude`: refused at or above its [`width`], else on record.
    fn note(
        &mut self,
        magnitude: u128,
        path: &str,
        kind: StageKind,
        n: usize,
    ) -> Result<(), String> {
        let stage = ProofStage {
            path: path.into(),
            kind,
            worst: magnitude,
        };
        let (bits, unit) = width(kind, n);
        if magnitude >= 1 << (bits - 1) {
            let log2 = (magnitude as f64).log2();
            return Err(format!(
                "{stage}: worst case 2^{log2:.1} exceeds the {bits}-bit {unit}"
            ));
        }
        if magnitude > self.worst {
            (self.worst, self.stage) = (magnitude, stage.to_string());
        }
        self.stages.push(stage);
        Ok(())
    }
}

/// Walks the chain with the running per-channel formats — the ones the
/// `run_*` functions would see, derived by the same rules — and beside
/// each the largest magnitude (`bounds`) any input can drive that
/// channel to, noting every stage's worst case in `walk`; returns the
/// output formats and bounds, or the first inconsistency or stage that
/// outgrows its width. `path` prefixes
/// the layer index of a nested body, and every format error names the
/// stage.
fn validate_chain(
    layers: &[QLayer],
    mut formats: Vec<QFormat>,
    mut bounds: Vec<u128>,
    path: &str,
    walk: &mut LaneProof,
) -> Result<(Vec<QFormat>, Vec<u128>), String> {
    for (i, l) in layers.iter().enumerate() {
        let (c, at) = (formats.len(), format!("{path}{i}"));
        match l {
            QLayer::Conv(conv) => {
                if conv.ci != c {
                    return Err(format!(
                        "layer {i}: conv expects {} channels, chain carries {c}",
                        conv.ci
                    ));
                }
                if conv.co == 0 || conv.k == 0 {
                    return Err(format!("layer {i}: conv with zero co/k"));
                }
                let taps = c.checked_mul(conv.k).and_then(|t| t.checked_mul(conv.k));
                let Some(taps) = taps.filter(|t| *t <= MAX_TAPS) else {
                    return Err(format!(
                        "layer {i}: {c}·{}² taps per output channel exceed {MAX_TAPS}",
                        conv.k
                    ));
                };
                if conv.weights.len() != conv.co.saturating_mul(taps) {
                    return Err(format!(
                        "layer {i}: conv weight table has {} entries, wants {}·{taps}",
                        conv.weights.len(),
                        conv.co
                    ));
                }
                if conv.bias.len() != conv.co {
                    return Err(format!("layer {i}: conv bias length mismatch"));
                }
                validate_format(conv.w_format, &format!("{at} conv weight format"))?;
                // Weight *values* must fit the declared format: the parse
                // holds them to `i8`, a narrower format holds them tighter.
                let (wmin, wmax) = conv.w_format.rails();
                let outside = |w: &&i8| !(wmin..=wmax).contains(&i64::from(**w));
                if let Some(w) = conv.weights.iter().find(outside) {
                    return Err(format!(
                        "layer {i}: weight {w} outside the declared {}-bit format",
                        conv.w_format.bits
                    ));
                }
                // Biases are f64-bit-encoded reals; they must decode to
                // something finite and model-sized (the runtime rail in
                // `bias_at` is the backstop, this is the up-front check).
                for b in &conv.bias {
                    let raw = f64::from_bits(*b as u64);
                    if !raw.is_finite() || raw.abs() > 1e9 {
                        return Err(format!("layer {i}: bias decodes to {raw}"));
                    }
                }
                if let Some(r) = &conv.requant {
                    if r.len() != conv.co {
                        return Err(format!("layer {i}: requant table length mismatch"));
                    }
                    validate_formats(r, &format!("{at} conv requant format"))?;
                } else {
                    // An accumulator-keeping conv must hand its wide
                    // accumulator straight to a directional ReLU (the
                    // only consumer calibrated for it); anything else
                    // would feed unbounded integers into 8-bit stages.
                    match layers.get(i + 1) {
                        Some(QLayer::DRelu(_)) => {}
                        _ => {
                            return Err(format!(
                                "layer {i}: accumulator-keeping conv is not \
                                 followed by a directional ReLU"
                            ))
                        }
                    }
                }
                if let Some(a) = conv.align_input {
                    validate_format(a, &format!("{at} conv align format"))?;
                    (formats, bounds) = (vec![a; c], vec![rail(a); c]);
                }
                let acc_frac = conv_acc_fracs(conv, &formats, conv.support())
                    .map_err(|e| format!("layer {i}: {e}"))?;
                let acc = conv_acc_bounds(conv, &acc_frac, &bounds);
                let worst = acc.iter().copied().max().unwrap_or(0);
                walk.note(worst, &at, StageKind::Conv, 1)?;
                formats = conv_out_formats(conv, &acc_frac);
                bounds = conv.requant.as_ref().map_or(acc, |fmts| rails(fmts));
            }
            QLayer::Relu => {}
            QLayer::DRelu(d) => {
                if d.n == 0 || !d.n.is_power_of_two() {
                    return Err(format!(
                        "layer {i}: directional ReLU tuple size {} is not a power of two",
                        d.n
                    ));
                }
                if c % d.n != 0 {
                    return Err(format!(
                        "layer {i}: {c} channels not a multiple of tuple size {}",
                        d.n
                    ));
                }
                if let DReluMode::MacBased { mid } = &d.mode {
                    validate_format(*mid, &format!("{at} fH mid format"))?;
                }
                validate_formats(&d.out_formats, &format!("{at} fH output format"))?;
                // Per tuple: S = Σ_l bound_l << (max frac − frac_l) bounds
                // everything up to the first butterfly's output; the
                // second butterfly sums `n` of what is in front of it.
                let tuples = formats.chunks(d.n).zip(bounds.chunks(d.n));
                let worst = tuples.map(|(f, b)| {
                    let max_frac = f.iter().map(|f| f.frac).max().expect("n > 0");
                    let aligned = f.iter().zip(b).map(|(f, b)| shifted(*b, f.frac, max_frac));
                    let s = aligned.fold(0u128, u128::saturating_add);
                    match &d.mode {
                        DReluMode::OnTheFly => s.saturating_mul(d.n as u128),
                        DReluMode::MacBased { mid } => s.max(d.n as u128 * rail(*mid)),
                    }
                });
                let worst = worst.max().unwrap_or(0);
                walk.note(worst, &at, StageKind::DRelu, d.n)?;
                formats = expand_formats(&d.out_formats, c);
                bounds = rails(&formats);
            }
            QLayer::Shuffle(r) => {
                if r.checked_mul(*r).is_none_or(|rr| rr == 0 || c % rr != 0) {
                    return Err(format!("layer {i}: cannot shuffle {c} channels by {r}"));
                }
                formats = shuffle_formats(&formats, *r);
                bounds = rails(&formats);
            }
            QLayer::Unshuffle(r) => {
                if *r == 0 {
                    return Err(format!("layer {i}: unshuffle factor 0"));
                }
                // Refused before its per-channel tables grow `r²`-fold:
                // no conv reads more than `MAX_TAPS` channels.
                let out = r.checked_mul(*r).and_then(|rr| rr.checked_mul(c));
                if out.is_none_or(|out| out > MAX_TAPS) {
                    return Err(format!(
                        "layer {i}: unshuffling {c} channels by {r} passes {MAX_TAPS} channels"
                    ));
                }
                formats = unshuffle_formats(&formats, *r);
                bounds = unshuffle_formats(&bounds, *r);
            }
            QLayer::Residual(res) => {
                let nested = format!("{at}.");
                let (fb, bb) =
                    validate_chain(&res.body, formats.clone(), bounds.clone(), &nested, walk)?;
                if fb.len() != c {
                    let co = fb.len();
                    return Err(format!("layer {i}: residual body maps {c} → {co} channels"));
                }
                validate_formats(&res.out_formats, &format!("{at} residual output format"))?;
                let out = expand_formats(&res.out_formats, c);
                // Both operands aligned to the output frac, then summed.
                let aligned =
                    |f: &[QFormat], b: &[u128], ch: usize| shifted(b[ch], f[ch].frac, out[ch].frac);
                let sums = (0..c)
                    .map(|ch| aligned(&fb, &bb, ch).saturating_add(aligned(&formats, &bounds, ch)));
                let worst = sums.max().unwrap_or(0);
                walk.note(worst, &at, StageKind::Add, 1)?;
                (bounds, formats) = (rails(&out), out);
            }
            QLayer::UpsampleResidual(ur) => {
                if ur.factor == 0 {
                    return Err(format!("layer {i}: upsample factor 0"));
                }
                let nested = format!("{at}.");
                let (fb, bb) = validate_chain(&ur.body, formats, bounds, &nested, walk)?;
                validate_formats(&ur.out_formats, &format!("{at} upsample output format"))?;
                let out = expand_formats(&ur.out_formats, fb.len());
                // The skip arrives quantized at the output format.
                let sums = (0..fb.len()).map(|ch| {
                    shifted(bb[ch], fb[ch].frac, out[ch].frac).saturating_add(rail(out[ch]))
                });
                let worst = sums.max().unwrap_or(0);
                walk.note(worst, &at, StageKind::UpsampleAdd, 1)?;
                (bounds, formats) = (rails(&out), out);
            }
        }
    }
    Ok((formats, bounds))
}
