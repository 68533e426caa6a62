//! Structured ±1 transforms used by ring fast algorithms and the
//! directional ReLU: the Hadamard matrix `H` and the reflected Householder
//! matrix `O` of §III-C.

use crate::mat::Mat;
use std::ops::{Add, Sub};

/// Natural-ordered (Sylvester) Hadamard matrix of size `n × n`.
///
/// `H_ik = (-1)^popcount(i & k)`; symmetric, entries ±1, `H·H = n·I`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
///
/// # Examples
///
/// ```
/// use ringcnn_algebra::transforms::hadamard;
/// let h = hadamard(4);
/// assert!(h.matmul(&h).approx_eq(&ringcnn_algebra::mat::Mat::identity(4).scaled(4.0), 1e-12));
/// ```
pub fn hadamard(n: usize) -> Mat {
    assert!(
        n.is_power_of_two(),
        "Hadamard order must be a power of two, got {n}"
    );
    let mut h = Mat::zeros(n, n);
    for i in 0..n {
        for k in 0..n {
            let bits = (i & k).count_ones();
            h[(i, k)] = if bits % 2 == 0 { 1.0 } else { -1.0 };
        }
    }
    h
}

/// The reflected Householder matrix of the paper:
/// `O = 2·L1·(I − 2vv^t)` with `v = ½(1,1,1,1)^t` and
/// `L1 = diag(1, −1, −1, −1)`.
///
/// Entries are ±1 and `O·O^t = 4·I`.
///
/// # Examples
///
/// ```
/// use ringcnn_algebra::transforms::householder_o4;
/// let o = householder_o4();
/// let oot = o.matmul(&o.transposed());
/// assert!(oot.approx_eq(&ringcnn_algebra::mat::Mat::identity(4).scaled(4.0), 1e-12));
/// ```
pub fn householder_o4() -> Mat {
    let v = [0.5, 0.5, 0.5, 0.5];
    let l1 = [1.0, -1.0, -1.0, -1.0];
    let mut o = Mat::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            let house = if i == j { 1.0 } else { 0.0 } - 2.0 * v[i] * v[j];
            o[(i, j)] = 2.0 * l1[i] * house;
        }
    }
    o
}

/// The butterfly network of Fig. 8 over `n` (a power of two) *rows* of
/// `len` elements each, in place: row `l` is
/// `rows[l·stride .. l·stride + len]`, and every column of the `n × len`
/// block is multiplied by [`hadamard`]`(n)` in `n·log₂n` adds — `h = 1,
/// 2, 4, …` stages, each pairing rows `j` and `j + h` into
/// `(x + y, x − y)`. One row pair is one pass over two contiguous slices,
/// so the compiler vectorizes across the columns (pixels); the arithmetic
/// per column is the per-tuple transform's, in the same order, which
/// makes the plane-wise directional ReLU bit-identical to the per-tuple
/// one. [`fwht_f32`] and [`fwht_i64`] are the `len = 1` case.
///
/// # Panics
///
/// Panics if `n` is not a power of two, if rows overlap (`len > stride`
/// with more than one row) or if `rows` is too short to hold them.
pub fn fwht_planes<T>(rows: &mut [T], n: usize, stride: usize, len: usize)
where
    T: Copy + Add<Output = T> + Sub<Output = T>,
{
    assert!(
        n.is_power_of_two(),
        "FWHT length must be a power of two, got {n}"
    );
    assert!(
        n == 1 || len <= stride,
        "rows of {len} overlap at stride {stride}"
    );
    assert!((n - 1) * stride + len <= rows.len(), "rows out of bounds");
    let mut h = 1;
    while h < n {
        let mut i = 0;
        while i < n {
            for j in i..i + h {
                let (lo, hi) = rows.split_at_mut((j + h) * stride);
                for (x, y) in lo[j * stride..j * stride + len]
                    .iter_mut()
                    .zip(&mut hi[..len])
                {
                    let (a, b) = (*x, *y);
                    *x = a + b;
                    *y = a - b;
                }
            }
            i += h * 2;
        }
        h *= 2;
    }
}

/// In-place fast Walsh–Hadamard transform of a length-`n` (power of two)
/// buffer of `f32`. Equivalent to multiplying by [`hadamard`]`(n)` but in
/// `O(n log n)` adds — [`fwht_planes`] over one column.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fwht_f32(data: &mut [f32]) {
    fwht_planes(data, data.len(), 1, 1);
}

/// In-place fast Walsh–Hadamard transform over `i64` (bit-exact fixed-point
/// path used by the accelerator simulator) — [`fwht_planes`] over one
/// column.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fwht_i64(data: &mut [i64]) {
    fwht_planes(data, data.len(), 1, 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hadamard_is_symmetric_and_orthogonal() {
        for n in [1usize, 2, 4, 8] {
            let h = hadamard(n);
            assert!(h.approx_eq(&h.transposed(), 0.0), "H{n} symmetric");
            let hh = h.matmul(&h);
            assert!(
                hh.approx_eq(&Mat::identity(n).scaled(n as f64), 1e-12),
                "H{n}·H{n} = nI"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hadamard_rejects_non_power_of_two() {
        let _ = hadamard(3);
    }

    #[test]
    fn householder_entries_are_plus_minus_one() {
        let o = householder_o4();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (o[(i, j)].abs() - 1.0).abs() < 1e-12,
                    "entry ({i},{j}) = {}",
                    o[(i, j)]
                );
            }
        }
    }

    #[test]
    fn householder_matches_paper_formula() {
        // O = L1 (2I - J): first row (1,-1,-1,-1), others (1,1,..,-1 at i,..)
        let o = householder_o4();
        let expect = Mat::from_rows(&[
            &[1.0, -1.0, -1.0, -1.0],
            &[1.0, -1.0, 1.0, 1.0],
            &[1.0, 1.0, -1.0, 1.0],
            &[1.0, 1.0, 1.0, -1.0],
        ]);
        assert!(o.approx_eq(&expect, 1e-12), "O = {o:?}");
    }

    #[test]
    fn fwht_matches_matrix_multiply() {
        for n in [2usize, 4, 8] {
            let h = hadamard(n);
            let input: Vec<f64> = (0..n).map(|i| (i as f64) * 0.7 - 1.3).collect();
            let want = h.matvec(&input);
            let mut got: Vec<f32> = input.iter().map(|v| *v as f32).collect();
            fwht_f32(&mut got);
            for (g, w) in got.iter().zip(&want) {
                assert!((*g as f64 - w).abs() < 1e-4, "n={n}");
            }
            let mut got_i: Vec<i64> = (0..n as i64).map(|i| 3 * i - 4).collect();
            let want_i = h.matvec(&got_i.iter().map(|v| *v as f64).collect::<Vec<_>>());
            fwht_i64(&mut got_i);
            for (g, w) in got_i.iter().zip(&want_i) {
                assert_eq!(*g as f64, *w, "i64 n={n}");
            }
        }
    }

    #[test]
    fn fwht_involution_up_to_scale() {
        let mut v = vec![1.0f32, -2.0, 3.5, 0.25];
        let orig = v.clone();
        fwht_f32(&mut v);
        fwht_f32(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert!((*a - 4.0 * *b).abs() < 1e-5);
        }
    }
}
