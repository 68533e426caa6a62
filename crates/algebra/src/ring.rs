//! The [`Ring`] type: a concrete ring algebra over real `n`-tuples with a
//! bilinear multiplication, ready for use as the elementary arithmetic of
//! a CNN (§III of the paper).

use crate::fast::FastAlgorithm;
use crate::mat::{Mat, EPS};
use crate::signperm::SignPerm;
use crate::tensor3::Tensor3;
use serde::{Deserialize, Serialize};

/// Identifier of a ring variant from the paper's Table I (plus the real
/// field and the n = 8 extensions used in the pruning comparison, Fig. 11).
///
/// `Ri(1)` is the real field; `Rh`/`Ri` accept any power-of-two dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RingKind {
    /// Component-wise (diagonal) ring `RI_n`; identity transforms,
    /// maximal hardware efficiency, no information mixing.
    Ri(usize),
    /// Hadamard-diagonalized ring `RH_n` (HadaNet-alike); `G_ij = g_{i⊕j}`.
    Rh(usize),
    /// The complex field `C` (n = 2).
    Complex,
    /// The quaternions `H` (n = 4, non-commutative).
    Quaternion,
    /// Householder-diagonalized grank-4 ring `RO4` (n = 4).
    Ro4,
    /// Circulant (CirCNN-alike) grank-5 ring `RH4-I` (n = 4).
    Rh4I,
    /// Second Hadamard-related grank-5 ring `RH4-II` (n = 4).
    Rh4II,
    /// First Householder-related grank-5 ring `RO4-I` (n = 4).
    Ro4I,
    /// Second Householder-related grank-5 ring `RO4-II` (n = 4).
    Ro4II,
}

impl RingKind {
    /// Ring dimension `n`.
    pub fn n(&self) -> usize {
        match self {
            RingKind::Ri(n) | RingKind::Rh(n) => *n,
            RingKind::Complex => 2,
            _ => 4,
        }
    }

    /// Human-readable name matching the paper's notation.
    pub fn label(&self) -> String {
        match self {
            RingKind::Ri(1) => "R (real)".to_string(),
            RingKind::Ri(n) => format!("RI{n}"),
            RingKind::Rh(n) => format!("RH{n}"),
            RingKind::Complex => "C".to_string(),
            RingKind::Quaternion => "H".to_string(),
            RingKind::Ro4 => "RO4".to_string(),
            RingKind::Rh4I => "RH4-I".to_string(),
            RingKind::Rh4II => "RH4-II".to_string(),
            RingKind::Ro4I => "RO4-I".to_string(),
            RingKind::Ro4II => "RO4-II".to_string(),
        }
    }

    /// All Table-I ring variants at the paper's two sparsity settings.
    pub fn table_one() -> Vec<RingKind> {
        vec![
            RingKind::Ri(2),
            RingKind::Rh(2),
            RingKind::Complex,
            RingKind::Ri(4),
            RingKind::Rh(4),
            RingKind::Ro4,
            RingKind::Rh4I,
            RingKind::Rh4II,
            RingKind::Ro4I,
            RingKind::Ro4II,
            RingKind::Quaternion,
        ]
    }
}

impl std::fmt::Display for RingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One addend of the bilinear form: `z[i] += c · g[k] · x[j]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MacTerm {
    /// Output component.
    pub i: u8,
    /// Weight component.
    pub k: u8,
    /// Input component.
    pub j: u8,
    /// Coefficient (±1 for all rings in this crate).
    pub c: f32,
}

/// A concrete ring algebra over real `n`-tuples.
///
/// Construct via [`Ring::from_kind`] or the named constructors in
/// [`crate::variants`].
///
/// # Examples
///
/// ```
/// use ringcnn_algebra::ring::{Ring, RingKind};
/// let c = Ring::from_kind(RingKind::Complex);
/// let mut z = [0.0f32; 2];
/// c.mac_f32(&[1.0, 2.0], &[3.0, 4.0], &mut z);
/// assert_eq!(z, [-5.0, 10.0]); // (1+2i)(3+4i)
/// ```
#[derive(Clone, Debug)]
pub struct Ring {
    kind: RingKind,
    n: usize,
    /// `None` for diagonal rings (`RI`, real field), whose `P` is not a
    /// Latin square.
    sign_perm: Option<SignPerm>,
    terms: Vec<MacTerm>,
    fast: FastAlgorithm,
    diagonal: bool,
}

impl Ring {
    /// Builds the ring for a [`RingKind`].
    pub fn from_kind(kind: RingKind) -> Ring {
        crate::variants::build(kind)
    }

    /// Internal constructor from a proper `(S, P)` pair plus a fast
    /// algorithm (verified by debug assertion).
    pub(crate) fn from_sign_perm(kind: RingKind, sp: SignPerm, fast: FastAlgorithm) -> Ring {
        let n = sp.n();
        let tensor = sp.indexing_tensor();
        let mut terms = Vec::new();
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    let v = tensor.get(i, k, j);
                    if v != 0.0 {
                        terms.push(MacTerm {
                            i: i as u8,
                            k: k as u8,
                            j: j as u8,
                            c: v as f32,
                        });
                    }
                }
            }
        }
        debug_assert!(
            fast.verifies(&sp, 1e-6),
            "fast algorithm mismatch for {kind:?}"
        );
        Ring {
            kind,
            n,
            sign_perm: Some(sp),
            terms,
            fast,
            diagonal: false,
        }
    }

    /// Internal constructor for diagonal rings.
    pub(crate) fn diagonal(kind: RingKind, n: usize) -> Ring {
        let terms = (0..n)
            .map(|i| MacTerm {
                i: i as u8,
                k: i as u8,
                j: i as u8,
                c: 1.0,
            })
            .collect();
        let id = Mat::identity(n);
        let fast = FastAlgorithm::new(id.clone(), id.clone(), id);
        Ring {
            kind,
            n,
            sign_perm: None,
            terms,
            fast,
            diagonal: true,
        }
    }

    /// The identifying kind.
    pub fn kind(&self) -> RingKind {
        self.kind
    }

    /// Ring dimension `n` (tuple length).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Degrees of freedom of the isomorphic matrix `G` (always `n`:
    /// the weight-storage advantage over the `n²` of a real matrix).
    pub fn dof(&self) -> usize {
        self.n
    }

    /// Whether the multiplication is component-wise (identity transforms).
    pub fn is_diagonal(&self) -> bool {
        self.diagonal
    }

    /// The `(S, P)` structure, when the ring is a proper (Latin-square)
    /// ring; `None` for diagonal rings.
    pub fn sign_perm(&self) -> Option<&SignPerm> {
        self.sign_perm.as_ref()
    }

    /// The bilinear MAC terms of the multiplication.
    pub fn terms(&self) -> &[MacTerm] {
        &self.terms
    }

    /// The attached fast algorithm.
    pub fn fast(&self) -> &FastAlgorithm {
        &self.fast
    }

    /// The indexing tensor `M`.
    pub fn indexing_tensor(&self) -> Tensor3 {
        if let Some(sp) = &self.sign_perm {
            sp.indexing_tensor()
        } else {
            let mut t = Tensor3::zeros(self.n, self.n, self.n);
            for i in 0..self.n {
                t.set(i, i, i, 1.0);
            }
            t
        }
    }

    /// Isomorphic matrix `G(g)` over `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != n`.
    pub fn isomorphic_matrix(&self, g: &[f64]) -> Mat {
        assert_eq!(g.len(), self.n);
        if let Some(sp) = &self.sign_perm {
            sp.isomorphic_matrix(g)
        } else {
            Mat::diag(g)
        }
    }

    /// Whether `G(g)` is symmetric for every `g` (true for `RI`, `RH`,
    /// `RO4`); such rings have the ring-form gradient `∇x = g · ∇z`
    /// (§IV-B).
    pub fn has_symmetric_g(&self) -> bool {
        if self.diagonal {
            return true;
        }
        let sp = self.sign_perm.as_ref().expect("proper ring");
        for i in 0..self.n {
            for j in 0..self.n {
                if sp.perm(i, j) != sp.perm(j, i) || sp.sign(i, j) != sp.sign(j, i) {
                    return false;
                }
            }
        }
        true
    }

    /// Fused multiply-accumulate on `f32` tuples: `acc += g · x`.
    ///
    /// This is the hot path used by ring convolution.
    ///
    /// # Panics
    ///
    /// Panics (debug) if slice lengths differ from `n`.
    #[inline]
    pub fn mac_f32(&self, g: &[f32], x: &[f32], acc: &mut [f32]) {
        debug_assert_eq!(g.len(), self.n);
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(acc.len(), self.n);
        if self.diagonal {
            for i in 0..self.n {
                acc[i] += g[i] * x[i];
            }
            return;
        }
        for t in &self.terms {
            acc[t.i as usize] += t.c * g[t.k as usize] * x[t.j as usize];
        }
    }

    /// Ring product on `f64` tuples (returns `g · x`).
    pub fn mul_f64(&self, g: &[f64], x: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; self.n];
        for t in &self.terms {
            z[t.i as usize] += f64::from(t.c) * g[t.k as usize] * x[t.j as usize];
        }
        z
    }

    /// Ring product via the fast algorithm (transform, component-wise
    /// product, reconstruction).
    pub fn mul_fast_f64(&self, g: &[f64], x: &[f64]) -> Vec<f64> {
        self.fast.multiply(g, x)
    }

    /// Input gradient in ring form, `∇x = g · ∇z`, valid only for rings
    /// with symmetric `G` (§IV-B). Provided to cross-check the
    /// real-valued-expansion backprop.
    ///
    /// # Panics
    ///
    /// Panics if the ring does not have symmetric `G`.
    pub fn grad_input_ring_form(&self, g: &[f64], dz: &[f64]) -> Vec<f64> {
        assert!(
            self.has_symmetric_g(),
            "ring-form input gradient requires symmetric G"
        );
        self.mul_f64(g, dz)
    }

    /// Expands a ring weight tuple into the `n × n` real matrix `G` as
    /// `f32` (used to lower a ring convolution onto a real convolution).
    pub fn expand_weights_f32(&self, g: &[f32]) -> Vec<f32> {
        let g64: Vec<f64> = g.iter().map(|v| f64::from(*v)).collect();
        let gm = self.isomorphic_matrix(&g64);
        let mut out = vec![0.0f32; self.n * self.n];
        for i in 0..self.n {
            for j in 0..self.n {
                out[i * self.n + j] = gm[(i, j)] as f32;
            }
        }
        out
    }

    /// Verifies algebraic soundness: the fast algorithm matches `M`, and
    /// (for proper rings) unity/commutativity/associativity as claimed.
    pub fn self_check(&self) -> Result<(), String> {
        if !self
            .fast
            .tensor()
            .distance(&self.indexing_tensor())
            .is_finite()
        {
            return Err("fast tensor not finite".into());
        }
        if self.fast.tensor().distance(&self.indexing_tensor()) > 1e-6 {
            return Err(format!("{}: fast algorithm does not compute M", self.kind));
        }
        if let Some(sp) = &self.sign_perm {
            if !sp.is_latin_square() {
                return Err(format!("{}: P is not a Latin square", self.kind));
            }
            if !sp.is_associative() {
                return Err(format!("{}: multiplication is not associative", self.kind));
            }
            if self.kind != RingKind::Quaternion && !sp.is_commutative() {
                return Err(format!("{}: multiplication is not commutative", self.kind));
            }
        }
        // Unity: (1,0,…,0) for proper rings; the all-ones tuple for the
        // diagonal (component-wise) rings.
        let mut one = vec![0.0; self.n];
        if self.diagonal {
            one.fill(1.0);
        } else {
            one[0] = 1.0;
        }
        let x: Vec<f64> = (0..self.n).map(|i| 0.37 * (i as f64) - 0.81).collect();
        let left = self.mul_f64(&one, &x);
        let right = self.mul_f64(&x, &one);
        for i in 0..self.n {
            if (left[i] - x[i]).abs() > EPS || (right[i] - x[i]).abs() > EPS {
                return Err(format!("{}: (1,0,…,0) is not a unity", self.kind));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_field_is_degenerate_ri() {
        let r = Ring::from_kind(RingKind::Ri(1));
        assert_eq!(r.n(), 1);
        let mut acc = [0.0f32];
        r.mac_f32(&[3.0], &[4.0], &mut acc);
        assert_eq!(acc, [12.0]);
    }

    #[test]
    fn mac_matches_mul_for_all_kinds() {
        for kind in RingKind::table_one() {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let g: Vec<f32> = (0..n).map(|i| 0.5 * i as f32 - 0.7).collect();
            let x: Vec<f32> = (0..n).map(|i| -0.3 * i as f32 + 1.1).collect();
            let mut acc = vec![0.0f32; n];
            ring.mac_f32(&g, &x, &mut acc);
            let z = ring.mul_f64(
                &g.iter().map(|v| f64::from(*v)).collect::<Vec<_>>(),
                &x.iter().map(|v| f64::from(*v)).collect::<Vec<_>>(),
            );
            for i in 0..n {
                assert!((f64::from(acc[i]) - z[i]).abs() < 1e-5, "{kind:?} comp {i}");
            }
        }
    }

    #[test]
    fn ring_form_gradient_matches_expansion_for_symmetric_rings() {
        for kind in [
            RingKind::Ri(4),
            RingKind::Rh(4),
            RingKind::Ro4,
            RingKind::Rh(2),
        ] {
            let ring = Ring::from_kind(kind);
            assert!(ring.has_symmetric_g(), "{kind:?} should have symmetric G");
            let n = ring.n();
            let g: Vec<f64> = (0..n).map(|i| 0.4 * i as f64 - 0.9).collect();
            let dz: Vec<f64> = (0..n).map(|i| 1.0 - 0.5 * i as f64).collect();
            let ring_form = ring.grad_input_ring_form(&g, &dz);
            let expansion = ring.isomorphic_matrix(&g).transposed().matvec(&dz);
            for i in 0..n {
                assert!((ring_form[i] - expansion[i]).abs() < 1e-12, "{kind:?}[{i}]");
            }
        }
    }

    #[test]
    fn complex_is_not_symmetric() {
        assert!(!Ring::from_kind(RingKind::Complex).has_symmetric_g());
        assert!(!Ring::from_kind(RingKind::Quaternion).has_symmetric_g());
    }

    #[test]
    fn all_kinds_pass_self_check() {
        for kind in RingKind::table_one() {
            Ring::from_kind(kind).self_check().unwrap();
        }
    }

    #[test]
    fn fast_multiplication_agrees_with_direct() {
        for kind in RingKind::table_one() {
            let ring = Ring::from_kind(kind);
            let n = ring.n();
            let g: Vec<f64> = (0..n).map(|i| (i as f64) * 0.77 - 1.0).collect();
            let x: Vec<f64> = (0..n).map(|i| (i as f64) * -0.31 + 0.5).collect();
            let direct = ring.mul_f64(&g, &x);
            let fast = ring.mul_fast_f64(&g, &x);
            for i in 0..n {
                assert!(
                    (direct[i] - fast[i]).abs() < 1e-6,
                    "{kind:?} comp {i}: {direct:?} vs {fast:?}"
                );
            }
        }
    }

    #[test]
    fn expand_weights_matches_isomorphic_matrix() {
        let ring = Ring::from_kind(RingKind::Rh(4));
        let g = [1.0f32, 2.0, 3.0, 4.0];
        let flat = ring.expand_weights_f32(&g);
        // G_ij = g_{i xor j}
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(flat[i * 4 + j], g[i ^ j]);
            }
        }
    }

    #[test]
    fn kind_labels_are_paper_notation() {
        assert_eq!(RingKind::Ri(4).label(), "RI4");
        assert_eq!(RingKind::Rh4I.label(), "RH4-I");
        assert_eq!(RingKind::Ri(1).label(), "R (real)");
        assert_eq!(RingKind::Quaternion.label(), "H");
    }
}
