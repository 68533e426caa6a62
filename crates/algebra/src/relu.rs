//! Ring non-linearities: the conventional component-wise ReLU `fcw` and
//! the paper's novel **directional ReLU** `fdir(y) = U·fcw(V·y)` (§III-E),
//! including the Hadamard instance `fH(y) = H·fcw(H·y)` and the
//! Householder instance `fO4(y) = O·fcw(O·y)`.
//!
//! Each entry point of [`DirectionalRelu`] has two forms. The per-tuple
//! ones (`forward`, `forward_with_hidden`, `backward`) take one `n`-tuple
//! and are the slow oracle. The plane forms (`*_planes`) take the `n`
//! contiguous planes one tuple of channels occupies in an NCHW tensor
//! and run the same arithmetic per pixel in the same order, one pass per
//! row over an L1-sized block of pixels: the loops vectorize across
//! pixels, nothing is allocated, and the results are bit-identical to
//! the oracle's (`tests/planewise.rs` compares `to_bits`).

use crate::mat::Mat;
use crate::transforms::{fwht_f32, fwht_planes, hadamard, householder_o4};

/// Elements of one block of the plane forms: the `n` rows of a block
/// (`BLOCK / n` pixels each) and the mat-vec forms' stack scratch of the
/// same size are 8 KiB each, L1-resident across the passes over them.
const BLOCK: usize = 2048;

/// Component-wise ReLU on an `n`-tuple slice (eq. (5)).
pub fn fcw_forward(y: &mut [f32]) {
    for v in y {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward of the component-wise ReLU given the *pre-activation* input.
pub fn fcw_backward(y_pre: &[f32], dy: &mut [f32]) {
    for (d, y) in dy.iter_mut().zip(y_pre) {
        if *y <= 0.0 {
            *d = 0.0;
        }
    }
}

/// Which directional non-linearity a layer applies to its `n`-tuples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Nonlinearity {
    /// No non-linearity (linear layer).
    None,
    /// Component-wise ReLU `fcw` (eq. (5)).
    ComponentWise,
    /// Directional ReLU `fH(y) = H·fcw(H·y)` (eq. (10)).
    DirectionalH,
    /// Directional ReLU `fO4(y) = O·fcw(O·y)` (n = 4 only).
    DirectionalO4,
}

impl Nonlinearity {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Nonlinearity::None => "linear",
            Nonlinearity::ComponentWise => "fcw",
            Nonlinearity::DirectionalH => "fH",
            Nonlinearity::DirectionalO4 => "fO4",
        }
    }
}

/// A directional ReLU `f(y) = U·fcw(V·y)` over `n`-tuples.
///
/// The generic form keeps `U` and `V` explicit; [`DirectionalRelu::fh`]
/// and [`DirectionalRelu::fo4`] build the paper's two instances. The
/// forward pass on power-of-two Hadamard instances uses the butterfly
/// (FWHT) network, mirroring the hardware of Fig. 8.
///
/// # Examples
///
/// ```
/// use ringcnn_algebra::relu::DirectionalRelu;
/// let f = DirectionalRelu::fh(2);
/// let mut y = [1.0f32, -3.0];
/// f.forward(&mut y);
/// // Hy = (-2, 4) → relu → (0, 4) → H·(0,4) = (4, -4)
/// assert_eq!(y, [4.0, -4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct DirectionalRelu {
    u: Mat,
    v: Mat,
    u32s: Vec<f32>,
    v32s: Vec<f32>,
    /// `Uᵗ` and `Vᵗ`, row-major, for the plane form of the backward.
    ut32s: Vec<f32>,
    vt32s: Vec<f32>,
    n: usize,
    hadamard_fast: bool,
}

impl DirectionalRelu {
    /// Generic constructor from mixing matrices `U` (output) and `V`
    /// (input direction).
    ///
    /// # Panics
    ///
    /// Panics if `U` and `V` are not square of equal size.
    pub fn new(u: Mat, v: Mat) -> Self {
        assert_eq!(u.rows(), u.cols(), "U must be square");
        assert_eq!(v.rows(), v.cols(), "V must be square");
        assert_eq!(u.rows(), v.rows(), "U and V sizes must agree");
        let n = u.rows();
        let to32 = |m: &Mat| m.as_slice().iter().map(|x| *x as f32).collect::<Vec<f32>>();
        let hadamard_fast = n.is_power_of_two() && {
            let h = hadamard(n);
            u.approx_eq(&h, 0.0) && v.approx_eq(&h, 0.0)
        };
        Self {
            u32s: to32(&u),
            v32s: to32(&v),
            ut32s: to32(&u.transposed()),
            vt32s: to32(&v.transposed()),
            u,
            v,
            n,
            hadamard_fast,
        }
    }

    /// The paper's `fH`: `U = V = H` (Hadamard), eq. (10).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn fh(n: usize) -> Self {
        let h = hadamard(n);
        Self::new(h.clone(), h)
    }

    /// The alternative `fO4`: `U = V = O` (reflected Householder, n = 4).
    pub fn fo4() -> Self {
        let o = householder_o4();
        Self::new(o.clone(), o)
    }

    /// Tuple length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether this is `fH` (`U = V = H`), the unit the butterfly runs.
    pub fn is_hadamard(&self) -> bool {
        self.hadamard_fast
    }

    /// The output mixing matrix `U`.
    pub fn u(&self) -> &Mat {
        &self.u
    }

    /// The input direction matrix `V`.
    pub fn v(&self) -> &Mat {
        &self.v
    }

    /// In-place forward on one `n`-tuple.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `y.len() != n`.
    #[inline]
    pub fn forward(&self, y: &mut [f32]) {
        debug_assert_eq!(y.len(), self.n);
        if self.hadamard_fast {
            fwht_f32(y);
            fcw_forward(y);
            fwht_f32(y);
            return;
        }
        let mut tmp = vec![0.0f32; self.n];
        matvec32(&self.v32s, y, &mut tmp);
        fcw_forward(&mut tmp);
        matvec32(&self.u32s, &tmp, y);
    }

    /// Forward that also returns the hidden pre-activation `V·y` needed by
    /// [`DirectionalRelu::backward`].
    pub fn forward_with_hidden(&self, y: &mut [f32], hidden: &mut [f32]) {
        debug_assert_eq!(y.len(), self.n);
        debug_assert_eq!(hidden.len(), self.n);
        matvec32(&self.v32s, y, hidden);
        let mut act = hidden.to_vec();
        fcw_forward(&mut act);
        matvec32(&self.u32s, &act, y);
    }

    /// In-place backward: maps upstream `d` (gradient w.r.t. the output)
    /// to the gradient w.r.t. the input, given the pre-activation
    /// `hidden = V·y` captured in the forward pass:
    /// `∂L/∂y = Vᵗ·(1[hidden > 0] ∘ (Uᵗ·d))`.
    pub fn backward(&self, hidden: &[f32], d: &mut [f32]) {
        debug_assert_eq!(d.len(), self.n);
        let mut tmp = vec![0.0f32; self.n];
        matvec32_transposed(&self.u32s, d, &mut tmp, self.n);
        for (t, h) in tmp.iter_mut().zip(hidden) {
            if *h <= 0.0 {
                *t = 0.0;
            }
        }
        matvec32_transposed(&self.v32s, &tmp, d, self.n);
    }

    /// [`DirectionalRelu::forward`] on every pixel of one tuple of
    /// channels: `planes` holds the tuple's `n` planes back to back. A
    /// Hadamard pair runs butterfly · `fcw` · butterfly in place; any
    /// other `U`/`V` (`fO4`) a plane-wise mat-vec in the per-tuple
    /// accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `planes.len()` is not a multiple of `n`.
    pub fn forward_planes(&self, planes: &mut [f32]) {
        if !self.hadamard_fast {
            return self.mix_planes(planes, None);
        }
        let n = self.n;
        let plane = plane_len(planes.len(), n);
        for p0 in (0..plane).step_by(BLOCK / n) {
            let len = (BLOCK / n).min(plane - p0);
            let block = &mut planes[p0..];
            fwht_planes(block, n, plane, len);
            for l in 0..n {
                fcw_forward(&mut block[l * plane..l * plane + len]);
            }
            fwht_planes(block, n, plane, len);
        }
    }

    /// [`DirectionalRelu::forward_with_hidden`] on every pixel of one
    /// tuple of channels (`planes` and `hidden` both hold `n` planes):
    /// always the mat-vec form, so a training forward accumulates in
    /// the order it always has.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ or are not a multiple of `n`.
    pub fn forward_planes_with_hidden(&self, planes: &mut [f32], hidden: &mut [f32]) {
        assert_eq!(planes.len(), hidden.len());
        self.mix_planes(planes, Some(hidden));
    }

    /// `planes ← U·fcw(V·planes)` block by block, keeping `V·planes`
    /// in `hidden` when asked.
    fn mix_planes(&self, planes: &mut [f32], mut hidden: Option<&mut [f32]>) {
        let n = self.n;
        let plane = plane_len(planes.len(), n);
        let mut scratch = [0.0f32; BLOCK];
        for p0 in (0..plane).step_by(BLOCK / n) {
            let len = (BLOCK / n).min(plane - p0);
            let tmp = &mut scratch[..n * len];
            self.mat_rows(&self.v32s, false, (&planes[p0..], plane), (tmp, len), len);
            if let Some(hidden) = hidden.as_deref_mut() {
                for l in 0..n {
                    hidden[l * plane + p0..][..len].copy_from_slice(&tmp[l * len..][..len]);
                }
            }
            fcw_forward(tmp);
            self.mat_rows(
                &self.u32s,
                false,
                (tmp, len),
                (&mut planes[p0..], plane),
                len,
            );
        }
    }

    /// [`DirectionalRelu::backward`] on every pixel of one tuple of
    /// channels: `hidden` is what
    /// [`DirectionalRelu::forward_planes_with_hidden`] kept, `d` the
    /// upstream gradient's `n` planes, replaced by the input gradient's.
    ///
    /// # Panics
    ///
    /// Panics if the two lengths differ or are not a multiple of `n`.
    pub fn backward_planes(&self, hidden: &[f32], d: &mut [f32]) {
        assert_eq!(hidden.len(), d.len());
        let n = self.n;
        let plane = plane_len(d.len(), n);
        let mut scratch = [0.0f32; BLOCK];
        for p0 in (0..plane).step_by(BLOCK / n) {
            let len = (BLOCK / n).min(plane - p0);
            let tmp = &mut scratch[..n * len];
            self.mat_rows(&self.ut32s, true, (&d[p0..], plane), (tmp, len), len);
            for l in 0..n {
                fcw_backward(&hidden[l * plane + p0..][..len], &mut tmp[l * len..][..len]);
            }
            self.mat_rows(&self.vt32s, true, (tmp, len), (&mut d[p0..], plane), len);
        }
    }

    /// [`matvec32`] with `m` on `len` pixels at once, rows given as
    /// `(buffer, stride)`: `out_i[p] = Σ_j m[i·n + j]·x_j[p]`, every pixel
    /// accumulating from `+0.0` over `j` ascending as `matvec32` does. On
    /// a transposed matrix with `skip_zeros` (terms whose input is zero
    /// are left out, not added as `±0`) it is [`matvec32_transposed`],
    /// which accumulates every output over the inputs ascending too.
    fn mat_rows(
        &self,
        m: &[f32],
        skip_zeros: bool,
        (x, xs): (&[f32], usize),
        (out, os): (&mut [f32], usize),
        len: usize,
    ) {
        let n = self.n;
        for i in 0..n {
            let acc = &mut out[i * os..i * os + len];
            acc.fill(0.0);
            for j in 0..n {
                let a = m[i * n + j];
                for (o, b) in acc.iter_mut().zip(&x[j * xs..j * xs + len]) {
                    if !(skip_zeros && *b == 0.0) {
                        *o += a * b;
                    }
                }
            }
        }
    }
}

/// Pixels per plane of a buffer holding `n` planes back to back.
fn plane_len(total: usize, n: usize) -> usize {
    assert!(n <= BLOCK, "tuple size {n} exceeds the block of {BLOCK}");
    assert_eq!(total % n, 0, "{total} elements are not {n} whole planes");
    total / n
}

#[inline]
fn matvec32(m: &[f32], x: &[f32], out: &mut [f32]) {
    let n = x.len();
    for (i, o) in out.iter_mut().enumerate() {
        let row = &m[i * n..(i + 1) * n];
        let mut acc = 0.0f32;
        for (a, b) in row.iter().zip(x) {
            acc += a * b;
        }
        *o = acc;
    }
}

#[inline]
fn matvec32_transposed(m: &[f32], x: &[f32], out: &mut [f32], n: usize) {
    for o in out.iter_mut() {
        *o = 0.0;
    }
    for (i, xv) in x.iter().enumerate() {
        if *xv == 0.0 {
            continue;
        }
        let row = &m[i * n..(i + 1) * n];
        for (o, a) in out.iter_mut().zip(row) {
            *o += a * xv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcw_clamps_negatives() {
        let mut y = [1.0, -2.0, 0.0, 3.0];
        fcw_forward(&mut y);
        assert_eq!(y, [1.0, 0.0, 0.0, 3.0]);
    }

    #[test]
    fn fcw_backward_masks_gradient() {
        let pre = [1.0, -2.0, 0.0, 3.0];
        let mut d = [5.0, 5.0, 5.0, 5.0];
        fcw_backward(&pre, &mut d);
        assert_eq!(d, [5.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn fh_matches_explicit_matrices() {
        for n in [2usize, 4, 8] {
            let f = DirectionalRelu::fh(n);
            let h = hadamard(n);
            let y: Vec<f32> = (0..n).map(|i| (i as f32) - 1.5).collect();
            let mut fast = y.clone();
            f.forward(&mut fast);
            // Reference: H relu(H y) in f64.
            let y64: Vec<f64> = y.iter().map(|v| f64::from(*v)).collect();
            let mut hy = h.matvec(&y64);
            for v in &mut hy {
                *v = v.max(0.0);
            }
            let want = h.matvec(&hy);
            for i in 0..n {
                assert!((f64::from(fast[i]) - want[i]).abs() < 1e-4, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn fh_positive_tuples_scale_by_n() {
        // If all components of H·y are positive, fH(y) = H·H·y = n·y.
        let f = DirectionalRelu::fh(4);
        let mut y = [10.0f32, 1.0, 1.0, 1.0]; // Hy = (13, 9, 9, 9) > 0
        f.forward(&mut y);
        assert_eq!(y, [40.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn fo4_differs_from_fh() {
        let fh = DirectionalRelu::fh(4);
        let fo = DirectionalRelu::fo4();
        let mut a = [1.0f32, -2.0, 0.5, 3.0];
        let mut b = a;
        fh.forward(&mut a);
        fo.forward(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let f = DirectionalRelu::fh(4);
        let y0 = [0.7f32, -1.3, 2.1, 0.4];
        let upstream = [1.0f32, -0.5, 0.25, 2.0];
        // Analytic gradient.
        let mut out = y0;
        let mut hidden = [0.0f32; 4];
        f.forward_with_hidden(&mut out, &mut hidden);
        let mut grad = upstream;
        f.backward(&hidden, &mut grad);
        // Finite differences of L = Σ upstream_i · f(y)_i.
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut yp = y0;
            yp[i] += eps;
            let mut ym = y0;
            ym[i] -= eps;
            f.forward(&mut yp);
            f.forward(&mut ym);
            let lp: f32 = yp.iter().zip(&upstream).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.iter().zip(&upstream).map(|(a, b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[i]).abs() < 1e-2,
                "component {i}: fd {fd} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn forward_with_hidden_matches_forward() {
        let f = DirectionalRelu::fo4();
        let mut a = [0.3f32, -0.8, 1.2, -0.1];
        let mut b = a;
        let mut hidden = [0.0f32; 4];
        f.forward(&mut a);
        f.forward_with_hidden(&mut b, &mut hidden);
        for i in 0..4 {
            assert!((a[i] - b[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn nonlinearity_labels() {
        assert_eq!(Nonlinearity::DirectionalH.label(), "fH");
        assert_eq!(Nonlinearity::ComponentWise.label(), "fcw");
    }
}
