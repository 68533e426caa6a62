//! Everything outside the GEMM runs over whole planes; this suite ties
//! each plane-wise path of the float pipeline to its per-element
//! definition **bit for bit** (`to_bits`, never a tolerance): the
//! directional ReLU's three passes against the per-tuple oracle entry
//! points of `DirectionalRelu`, the row butterfly against the per-tuple
//! transforms, and the pixel shuffles against their index formula. (The
//! integer twins live in `tests/quant_backend.rs`.)

use ringcnn::prelude::*;
use ringcnn_algebra::relu::DirectionalRelu;
use ringcnn_algebra::transforms::{fwht_f32, fwht_i64, fwht_planes};

/// For every `n`-tuple of an NCHW shape — batch item, channel group,
/// pixel — the flat indices of its `n` components: the gather the layers
/// did per pixel before they went plane-wise.
fn tuple_indices(s: Shape4, n: usize) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    for b in 0..s.n {
        for g in 0..s.c / n {
            for p in 0..s.plane() {
                all.push((0..n).map(|l| s.index(b, g * n + l, 0, 0) + p).collect());
            }
        }
    }
    all
}

/// Runs the per-tuple oracle `f` over every tuple of `buffers` (gathered
/// from each, scattered back to each).
fn per_tuple<const K: usize>(
    s: Shape4,
    n: usize,
    mut buffers: [&mut Tensor; K],
    mut f: impl FnMut([&mut [f32]; K]),
) {
    for idx in tuple_indices(s, n) {
        let mut tuples: [Vec<f32>; K] =
            std::array::from_fn(|k| idx.iter().map(|i| buffers[k].as_slice()[*i]).collect());
        f(tuples.each_mut().map(|t| t.as_mut_slice()));
        for (buffer, tuple) in buffers.iter_mut().zip(&tuples) {
            for (i, v) in idx.iter().zip(tuple) {
                buffer.as_mut_slice()[*i] = *v;
            }
        }
    }
}

/// Random features with the values a vector loop is most likely to treat
/// differently from a scalar one sprinkled in.
fn features(s: Shape4, seed: u64) -> Tensor {
    let mut t = Tensor::random_uniform(s, -2.0, 2.0, seed);
    let special = [
        -0.0,
        0.0,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        f32::MIN_POSITIVE,
    ];
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if (i + seed as usize) % 5 == 0 {
            *v = special[(i / 5 + seed as usize) % special.len()];
        }
    }
    t
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

type Build = fn() -> DirectionalRelu;

/// How to build every directional ReLU the layers use, by label.
const INSTANCES: [(&str, Build); 4] = [
    ("fH2", || DirectionalRelu::fh(2)),
    ("fH4", || DirectionalRelu::fh(4)),
    ("fH8", || DirectionalRelu::fh(8)),
    ("fO4", DirectionalRelu::fo4),
];

/// Plane sizes 1, 7 and 37·31 = 1147, which is more than one block of
/// pixels for every `n` and a multiple of none.
const PLANES: [(usize, usize); 3] = [(1, 1), (1, 7), (37, 31)];

#[test]
fn directional_relu_layer_matches_the_per_tuple_oracle_bit_for_bit() {
    for (label, build) in INSTANCES {
        let f = build();
        let n = f.n();
        for (h, w) in PLANES {
            let s = Shape4::new(2, 2 * n, h, w);
            let x = features(s, 3 + h as u64);
            let dout = features(s, 11 + w as u64);
            let mut layer = DirectionalReluLayer::new(build());

            let mut want = x.clone();
            per_tuple(s, n, [&mut want], |[y]| f.forward(y));
            let got = layer.forward_infer(&x);
            assert_eq!(bits(&got), bits(&want), "{label} {h}x{w}: forward_infer");

            let (mut want, mut hidden) = (x.clone(), Tensor::zeros(s));
            per_tuple(s, n, [&mut want, &mut hidden], |[y, hid]| {
                f.forward_with_hidden(y, hid)
            });
            let got = layer.forward(&x, true);
            assert_eq!(bits(&got), bits(&want), "{label} {h}x{w}: forward_train");

            // The oracle's backward reads the oracle's hidden, the
            // layer's its own cached one: equal gradients on inputs full
            // of signed zeros mean equal hidden signs as well.
            let mut want = dout.clone();
            per_tuple(s, n, [&mut want, &mut hidden], |[d, hid]| {
                f.backward(hid, d)
            });
            let got = layer.backward(&dout);
            assert_eq!(bits(&got), bits(&want), "{label} {h}x{w}: backward");
        }
    }
}

#[test]
fn plane_forms_keep_the_hidden_pre_activation_of_the_oracle() {
    for (label, build) in INSTANCES {
        let f = build();
        let n = f.n();
        for (h, w) in PLANES {
            // One tuple of channels: the `n` contiguous planes a layer
            // hands to the plane forms.
            let s = Shape4::new(1, n, h, w);
            let x = features(s, 29 + h as u64);
            let (mut want, mut want_hidden) = (x.clone(), Tensor::zeros(s));
            per_tuple(s, n, [&mut want, &mut want_hidden], |[y, hid]| {
                f.forward_with_hidden(y, hid)
            });
            let (mut got, mut got_hidden) = (x.clone(), Tensor::zeros(s));
            f.forward_planes_with_hidden(got.as_mut_slice(), got_hidden.as_mut_slice());
            assert_eq!(bits(&got), bits(&want), "{label} {h}x{w}: output");
            assert_eq!(
                bits(&got_hidden),
                bits(&want_hidden),
                "{label} {h}x{w}: hidden"
            );
        }
    }
}

#[test]
fn row_butterfly_is_the_per_tuple_transform_on_every_column() {
    for n in [1usize, 2, 4, 8] {
        // Rows longer than the columns transformed: the tail of every
        // row must come back untouched.
        let (stride, len) = (13, 9);
        let f = features(Shape4::new(1, n, 1, stride), 5);
        let i: Vec<i64> = f
            .as_slice()
            .iter()
            .map(|v| (v.clamp(-2.0, 2.0) * 1e6) as i64)
            .collect();
        let (mut got_f, mut got_i) = (f.as_slice().to_vec(), i.clone());
        fwht_planes(&mut got_f, n, stride, len);
        fwht_planes(&mut got_i, n, stride, len);
        for p in 0..stride {
            let column = |buf: &[f32]| (0..n).map(|l| buf[l * stride + p]).collect::<Vec<_>>();
            let column_i = |buf: &[i64]| (0..n).map(|l| buf[l * stride + p]).collect::<Vec<_>>();
            let (mut want_f, mut want_i) = (column(f.as_slice()), column_i(&i));
            if p < len {
                fwht_f32(&mut want_f);
                fwht_i64(&mut want_i);
            }
            let as_bits = |c: Vec<f32>| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(as_bits(column(&got_f)), as_bits(want_f), "n={n} p={p}");
            assert_eq!(column_i(&got_i), want_i, "n={n} p={p}");
        }
    }
}

#[test]
fn pixel_shuffles_follow_the_index_formula_and_invert_each_other() {
    for r in [2usize, 3] {
        // Non-square, two batch items, two output channels.
        let low = Shape4::new(2, 2 * r * r, 5, 3);
        let x = features(low, r as u64);
        let up = PixelShuffle::apply(&x, r);
        assert_eq!(up.shape(), Shape4::new(2, 2, 5 * r, 3 * r));
        for b in 0..low.n {
            for ic in 0..low.c {
                let (oc, ry, rx) = (ic / (r * r), ic / r % r, ic % r);
                for y in 0..low.h {
                    for xx in 0..low.w {
                        assert_eq!(
                            up.at(b, oc, y * r + ry, xx * r + rx).to_bits(),
                            x.at(b, ic, y, xx).to_bits(),
                            "r={r} b={b} ic={ic} y={y} x={xx}"
                        );
                    }
                }
            }
        }
        let down = PixelUnshuffle::apply(&up, r);
        assert_eq!(down.shape(), low);
        assert_eq!(bits(&down), bits(&x), "r={r}: unshuffle inverts shuffle");
    }
}

/// The windowed skip add and the crop behind it follow their index
/// formulas: a region inside the source, whole rows of it, all of it.
#[test]
fn windowed_add_and_crop_follow_the_index_formula() {
    use ringcnn_nn::layers::shuffle::cropped;
    let src = features(Shape4::new(2, 3, 6, 7), 13);
    for (y0, x0, h, w) in [(1, 2, 4, 3), (2, 0, 3, 7), (0, 0, 6, 7)] {
        let base = features(Shape4::new(2, 3, h, w), 14);
        let mut sum = base.clone();
        sum.add_window(&src, y0, x0);
        let cut = [y0, x0, 6 - y0 - h, 7 - x0 - w];
        let (shape, crop) = cropped(src.as_slice(), src.shape(), cut);
        assert_eq!(shape, base.shape());
        for (i, (got, kept)) in sum.as_slice().iter().zip(&crop).enumerate() {
            let (x, y, p) = (i % w, i / w % h, i / (w * h));
            let from = src.at(p / 3, p % 3, y0 + y, x0 + x);
            assert_eq!(kept.to_bits(), from.to_bits(), "crop at {i}");
            let want = base.as_slice()[i] + from;
            assert_eq!(got.to_bits(), want.to_bits(), "sum at {i}");
        }
    }
    // Equal shapes: `add_assign`.
    let (mut a, mut b) = (src.clone(), src.clone());
    a.add_window(&src, 0, 0);
    b.add_assign(&src);
    assert_eq!(bits(&a), bits(&b));
}
