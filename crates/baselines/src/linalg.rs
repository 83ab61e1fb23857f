//! Small dense linear algebra for the PCA baseline: symmetric matrices and
//! the cyclic Jacobi eigensolver. Written from scratch — the covariance
//! matrices here are at most a few hundred columns wide (Arrhythmia: 274),
//! well inside Jacobi's comfort zone, and the implementation is simple
//! enough to verify by property tests (orthonormality, reconstruction).

/// A dense symmetric matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    a: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of size `n × n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn zeros(n: usize) -> Self {
        assert!(n > 0, "matrix must be non-empty");
        Self {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Builds from a full row-major buffer, symmetrising `(A + Aᵀ)/2`.
    ///
    /// # Panics
    /// Panics if `buf.len() != n*n`.
    pub fn from_buffer(n: usize, buf: Vec<f64>) -> Self {
        assert_eq!(buf.len(), n * n, "buffer size mismatch");
        let mut m = Self { n, a: buf };
        for i in 0..n {
            for j in (i + 1)..n {
                let avg = (m.get(i, j) + m.get(j, i)) / 2.0;
                m.set(i, j, avg);
                m.set(j, i, avg);
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Element assignment (callers must maintain symmetry themselves).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
    }

    /// Sum of squares of all off-diagonal elements (Jacobi convergence
    /// criterion).
    fn off_diagonal_norm(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    s += self.get(i, j) * self.get(i, j);
                }
            }
        }
        s
    }
}

/// Eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// `vectors[k]` is the unit eigenvector for `values[k]`.
    pub vectors: Vec<Vec<f64>>,
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix.
///
/// Runs sweeps of Givens rotations until the off-diagonal norm falls below
/// `1e-12 · ‖A‖` or 100 sweeps elapse (far more than needed — Jacobi
/// converges quadratically). Eigenpairs are returned in descending
/// eigenvalue order.
pub fn jacobi_eigen(mut m: SymMatrix) -> EigenDecomposition {
    let n = m.n();
    // Eigenvector accumulator starts as identity.
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let scale: f64 = (0..n)
        .map(|i| (0..n).map(|j| m.get(i, j).abs()).sum::<f64>())
        .fold(0.0, f64::max)
        .max(1e-300);
    let tol = 1e-24 * scale * scale;

    for _sweep in 0..100 {
        if m.off_diagonal_norm() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Update the matrix: A ← Jᵀ A J.
                for k in 0..n {
                    let akp = m.get(k, p);
                    let akq = m.get(k, q);
                    m.set(k, p, c * akp - s * akq);
                    m.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = m.get(p, k);
                    let aqk = m.get(q, k);
                    m.set(p, k, c * apk - s * aqk);
                    m.set(q, k, s * apk + c * aqk);
                }
                // Accumulate rotations into V.
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, Vec<f64>)> = (0..n)
        .map(|k| {
            let val = m.get(k, k);
            let vec: Vec<f64> = (0..n).map(|i| v[i * n + k]).collect();
            (val, vec)
        })
        .collect();
    pairs.sort_by(|a, b| b.0.total_cmp(&a.0));
    EigenDecomposition {
        values: pairs.iter().map(|p| p.0).collect(),
        vectors: pairs.into_iter().map(|p| p.1).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn diagonal_matrix_eigen() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 3.0);
        m.set(1, 1, 1.0);
        m.set(2, 2, 2.0);
        let e = jacobi_eigen(m);
        assert!((e.values[0] - 3.0).abs() < 1e-10);
        assert!((e.values[1] - 2.0).abs() < 1e-10);
        assert!((e.values[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
        let m = SymMatrix::from_buffer(2, vec![2.0, 1.0, 1.0, 2.0]);
        let e = jacobi_eigen(m);
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
        let v0 = &e.vectors[0];
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        // A random-ish symmetric matrix.
        let n = 6;
        let mut buf = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let v = ((i * 7 + j * 13) % 11) as f64 / 11.0 + if i == j { 2.0 } else { 0.0 };
                buf[i * n + j] = v;
            }
        }
        let e = jacobi_eigen(SymMatrix::from_buffer(n, buf));
        for a in 0..n {
            for b in 0..n {
                let d = dot(&e.vectors[a], &e.vectors[b]);
                let expected = if a == b { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-8, "({a},{b}): {d}");
            }
        }
    }

    #[test]
    fn reconstruction_from_eigenpairs() {
        // A = Σ λ_k v_k v_kᵀ must reproduce the original matrix.
        let buf = vec![
            4.0, 1.0, 0.5, //
            1.0, 3.0, 0.2, //
            0.5, 0.2, 2.0,
        ];
        let m = SymMatrix::from_buffer(3, buf.clone());
        let e = jacobi_eigen(m);
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += e.values[k] * e.vectors[k][i] * e.vectors[k][j];
                }
                assert!((acc - buf[i * 3 + j]).abs() < 1e-8, "A[{i}][{j}]");
            }
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let buf = vec![5.0, 2.0, 2.0, 1.0];
        let e = jacobi_eigen(SymMatrix::from_buffer(2, buf));
        assert!((e.values.iter().sum::<f64>() - 6.0).abs() < 1e-10);
    }

    #[test]
    fn from_buffer_symmetrises() {
        let m = SymMatrix::from_buffer(2, vec![1.0, 2.0, 4.0, 1.0]);
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        SymMatrix::zeros(0);
    }
}
