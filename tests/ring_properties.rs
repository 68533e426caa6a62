//! Property-based tests of the ring algebra: the ring axioms, fast
//! algorithms, FRCONV/RCONV equivalence, and gradient correctness, over
//! randomized inputs.

use proptest::prelude::*;
use ringcnn::prelude::*;
use ringcnn_nn::layers::ring_conv::RingConv2d;

fn all_kinds() -> Vec<RingKind> {
    let mut v = RingKind::table_one();
    v.push(RingKind::Ri(1));
    v.push(RingKind::Ri(8));
    v.push(RingKind::Rh(8));
    v
}

fn tuple_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-3.0f64..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Distributivity: g·(x + y) = g·x + g·y for every ring.
    #[test]
    fn multiplication_distributes(seed in 0u64..1000) {
        for kind in all_kinds() {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let mk = |off: u64| -> Vec<f64> {
                (0..n).map(|i| ((seed + off) as f64 * 0.37 + i as f64 * 0.91).sin()).collect()
            };
            let (g, x, y) = (mk(1), mk(2), mk(3));
            let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
            let lhs = ring.mul_f64(&g, &xy);
            let gx = ring.mul_f64(&g, &x);
            let gy = ring.mul_f64(&g, &y);
            for i in 0..n {
                prop_assert!((lhs[i] - gx[i] - gy[i]).abs() < 1e-9, "{kind:?}");
            }
        }
    }

    /// Associativity on random triples for every ring (including the
    /// non-commutative quaternions).
    #[test]
    fn multiplication_associates(a in tuple_strategy(4), b in tuple_strategy(4), c in tuple_strategy(4)) {
        for kind in [RingKind::Ri(4), RingKind::Rh(4), RingKind::Ro4, RingKind::Rh4I,
                     RingKind::Rh4II, RingKind::Ro4I, RingKind::Ro4II, RingKind::Quaternion] {
            let ring = Ring::from_kind(kind);
            let ab_c = ring.mul_f64(&ring.mul_f64(&a, &b), &c);
            let a_bc = ring.mul_f64(&a, &ring.mul_f64(&b, &c));
            for i in 0..4 {
                prop_assert!((ab_c[i] - a_bc[i]).abs() < 1e-6, "{kind:?}: {ab_c:?} vs {a_bc:?}");
            }
        }
    }

    /// The fast algorithm computes exactly the direct product.
    #[test]
    fn fast_equals_direct(seed in 0u64..10_000) {
        for kind in all_kinds() {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let g: Vec<f64> = (0..n).map(|i| ((seed * 31 + i as u64) as f64 * 0.123).sin()).collect();
            let x: Vec<f64> = (0..n).map(|i| ((seed * 17 + i as u64) as f64 * 0.456).cos()).collect();
            let direct = ring.mul_f64(&g, &x);
            let fast = ring.mul_fast_f64(&g, &x);
            for i in 0..n {
                prop_assert!((direct[i] - fast[i]).abs() < 1e-6, "{kind:?}");
            }
        }
    }

    /// Commutativity for all commutative rings (everything but H).
    #[test]
    fn commutative_rings_commute(a in tuple_strategy(4), b in tuple_strategy(4)) {
        for kind in [RingKind::Rh(4), RingKind::Ro4, RingKind::Rh4I, RingKind::Ri(4)] {
            let ring = Ring::from_kind(kind);
            let ab = ring.mul_f64(&a, &b);
            let ba = ring.mul_f64(&b, &a);
            for i in 0..4 {
                prop_assert!((ab[i] - ba[i]).abs() < 1e-9, "{kind:?}");
            }
        }
    }

    /// The directional ReLU is positively homogeneous:
    /// fH(t·y) = t·fH(y) for t > 0.
    #[test]
    fn directional_relu_homogeneous(y in tuple_strategy(4), t in 0.1f64..4.0) {
        let f = DirectionalRelu::fh(4);
        let mut a: Vec<f32> = y.iter().map(|v| *v as f32).collect();
        let mut b: Vec<f32> = y.iter().map(|v| (*v * t) as f32).collect();
        f.forward(&mut a);
        f.forward(&mut b);
        for i in 0..4 {
            prop_assert!((f64::from(b[i]) - t * f64::from(a[i])).abs() < 1e-2 * t.max(1.0));
        }
    }

    /// FRCONV equals RCONV on random weights/inputs for every ring.
    #[test]
    fn frconv_equals_rconv(seed in 0u64..500) {
        for kind in [RingKind::Ri(2), RingKind::Complex, RingKind::Rh(4), RingKind::Ro4I] {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let mut layer = RingConv2d::new(ring.clone(), n, 2 * n, 3, seed);
            for (i, b) in layer.bias_mut().iter_mut().enumerate() {
                *b = (i as f32) * 0.01;
            }
            let x = Tensor::random_uniform(Shape4::new(1, n, 4, 4), -1.0, 1.0, seed + 1);
            let want = ringcnn_nn::layer::Layer::forward(&mut layer, &x, false);
            let got = FastRingConv::new(&ring, layer.ring_weights(), 1, 2, 3, layer.bias()).forward(&x);
            prop_assert!(want.mse(&got) < 1e-8, "{kind:?} mse {}", want.mse(&got));
        }
    }
}

/// Table I rings that are knowingly non-associative. The paper's search
/// (§III-C) filters sign patterns to those with commuting basis matrices,
/// so this list is expected to stay empty; if a future variant is added
/// that is not associative, document it here and it is exempted from
/// `table_one_rings_are_associative` (its non-associativity is then
/// asserted instead, so the list cannot rot).
const KNOWN_NON_ASSOCIATIVE: &[RingKind] = &[];

fn tuple_from_seed(n: usize, seed: u64, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((seed * 31 + salt * 7 + i as u64) as f64 * 0.631).sin() * 2.0)
        .collect()
}

/// Associativity `(a·b)·c = a·(b·c)` over every Table I variant — or, for
/// rings on the documented exception list, a witness that associativity
/// genuinely fails (condition (C1)-adjacent: the search only admits
/// associative sign patterns).
#[test]
fn table_one_rings_are_associative() {
    for kind in RingKind::table_one() {
        let ring = Ring::from_kind(kind);
        let n = ring.n();
        let mut witness = false;
        for seed in 0..200u64 {
            let a = tuple_from_seed(n, seed, 1);
            let b = tuple_from_seed(n, seed, 2);
            let c = tuple_from_seed(n, seed, 3);
            let ab_c = ring.mul_f64(&ring.mul_f64(&a, &b), &c);
            let a_bc = ring.mul_f64(&a, &ring.mul_f64(&b, &c));
            let err = ab_c
                .iter()
                .zip(&a_bc)
                .map(|(l, r)| (l - r).abs())
                .fold(0.0f64, f64::max);
            if KNOWN_NON_ASSOCIATIVE.contains(&kind) {
                witness |= err > 1e-6;
            } else {
                assert!(
                    err < 1e-6,
                    "{kind:?}: associativity violated by {err:.2e} (seed {seed})"
                );
            }
        }
        if KNOWN_NON_ASSOCIATIVE.contains(&kind) {
            assert!(
                witness,
                "{kind:?} is documented non-associative but no witness was found"
            );
        }
    }
}

/// Solves `e·x = x` for all `x` by least squares over the bilinear map
/// (the map `e ↦ [e·δ_0 … e·δ_{n-1}]` is linear in `e`); returns `None`
/// when the residual shows no identity exists.
fn solve_identity(ring: &Ring) -> Option<Vec<f64>> {
    let n = ring.n();
    // Column k of L is the stacked products δ_k·δ_j; target is stacked δ_j.
    let rows = n * n;
    let mut l = vec![0.0f64; rows * n];
    let mut b = vec![0.0f64; rows];
    for j in 0..n {
        let mut dj = vec![0.0; n];
        dj[j] = 1.0;
        b[j * n + j] = 1.0;
        for k in 0..n {
            let mut dk = vec![0.0; n];
            dk[k] = 1.0;
            let prod = ring.mul_f64(&dk, &dj);
            for i in 0..n {
                l[(j * n + i) * n + k] = prod[i];
            }
        }
    }
    // Normal equations (LᵀL)e = Lᵀb, solved with the algebra crate's
    // pivoted solver (n ≤ 4 for Table I).
    let mut ata = Mat::zeros(n, n);
    let mut atb = vec![0.0f64; n];
    for r in 0..n {
        for c in 0..n {
            ata[(r, c)] = (0..rows).map(|i| l[i * n + r] * l[i * n + c]).sum();
        }
        atb[r] = (0..rows).map(|i| l[i * n + r] * b[i]).sum();
    }
    let e = ata.solve(&atb)?;
    // Residual of the original system decides existence.
    let resid = (0..rows)
        .map(|i| ((0..n).map(|k| l[i * n + k] * e[k]).sum::<f64>() - b[i]).abs())
        .fold(0.0f64, f64::max);
    (resid < 1e-9).then_some(e)
}

/// Every Table I ring has a two-sided multiplicative identity (the unity
/// structure of condition (C1)): `e·x = x·e = x` on random tuples.
#[test]
fn table_one_rings_have_multiplicative_identity() {
    for kind in RingKind::table_one() {
        let ring = Ring::from_kind(kind);
        let n = ring.n();
        let e = solve_identity(&ring)
            .unwrap_or_else(|| panic!("{kind:?}: no multiplicative identity exists"));
        for seed in 0..100u64 {
            let x = tuple_from_seed(n, seed, 4);
            let ex = ring.mul_f64(&e, &x);
            let xe = ring.mul_f64(&x, &e);
            for i in 0..n {
                assert!((ex[i] - x[i]).abs() < 1e-9, "{kind:?}: e·x ≠ x (e = {e:?})");
                assert!((xe[i] - x[i]).abs() < 1e-9, "{kind:?}: x·e ≠ x (e = {e:?})");
            }
        }
    }
}

/// A full multiplication table check: the isomorphic matrix of a product
/// is the product of isomorphic matrices (Lemma B.1), for every ring.
#[test]
fn isomorphic_matrices_multiply() {
    for kind in all_kinds() {
        let ring = Ring::from_kind(kind);
        let n = ring.n();
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3 + 0.7).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9 - 0.2).cos()).collect();
        let c = ring.mul_f64(&a, &b);
        let ma = ring.isomorphic_matrix(&a);
        let mb = ring.isomorphic_matrix(&b);
        let mc = ring.isomorphic_matrix(&c);
        assert!(ma.matmul(&mb).approx_eq(&mc, 1e-9), "{kind:?}: C != A·B");
    }
}

/// A ring conv's lowered weight table holds, tap by tap, what
/// `Ring::expand_weights_f32` makes of the tap's ring weights — bit for
/// bit, on every Table-I ring and the extra tuple sizes above, zeros of
/// both signs included.
#[test]
fn lowered_ring_weights_are_the_expanded_taps_bit_for_bit() {
    for kind in all_kinds() {
        let ring = Ring::from_kind(kind);
        let (n, k, ci_t) = (ring.n(), 3, 2);
        let mut rc = RingConv2d::new(ring.clone(), ci_t * n, 3 * n, k, 5);
        rc.ring_weights_mut()[..2].copy_from_slice(&[0.0, -0.0]);
        let lowered = rc.expand_real_weights();
        for (t, g) in rc.ring_weights().chunks(n).enumerate() {
            let [cot, cit, ky, kx] = [t / (k * k) / ci_t, t / (k * k) % ci_t, t / k % k, t % k];
            for (at, want) in ring.expand_weights_f32(g).iter().enumerate() {
                let got = lowered.data[lowered.index(cot * n + at / n, cit * n + at % n, ky, kx)];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind:?}: tap {t}, entry {at}"
                );
            }
        }
    }
}
