//! Sample moments and small dense linear algebra for the control-variate
//! estimators.
//!
//! [`Moments`] takes every mean and covariance both fits need from one pass
//! over the sample. The covariance matrices involved have dimension equal to
//! the number of control variates (a handful), so a straightforward `f64`
//! implementation with partial-pivoting Gaussian elimination is entirely
//! sufficient.

use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// An identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows).map(|r| (0..self.cols).map(|c| self.get(r, c) * x[c]).sum()).collect()
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` when the matrix is (numerically) singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        // augmented matrix
        let mut a = vec![0.0f64; n * (n + 1)];
        for r in 0..n {
            for c in 0..n {
                a[r * (n + 1) + c] = self.get(r, c);
            }
            a[r * (n + 1) + n] = b[r];
        }
        for col in 0..n {
            // pivot
            let mut pivot = col;
            for r in (col + 1)..n {
                if a[r * (n + 1) + col].abs() > a[pivot * (n + 1) + col].abs() {
                    pivot = r;
                }
            }
            if a[pivot * (n + 1) + col].abs() < 1e-12 {
                return None;
            }
            if pivot != col {
                for c in 0..=n {
                    a.swap(col * (n + 1) + c, pivot * (n + 1) + c);
                }
            }
            let diag = a[col * (n + 1) + col];
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[r * (n + 1) + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for c in col..=n {
                    a[r * (n + 1) + c] -= factor * a[col * (n + 1) + c];
                }
            }
        }
        Some((0..n).map(|r| a[r * (n + 1) + n] / a[r * (n + 1) + r]).collect())
    }

    /// Ridge-regularised copy: adds `lambda` to the diagonal. Used to keep the
    /// control-variate covariance matrix well conditioned when two controls
    /// are (nearly) collinear.
    pub fn ridge(&self, lambda: f64) -> Matrix {
        assert_eq!(self.rows, self.cols);
        let mut out = self.clone();
        for i in 0..self.rows {
            out.set(i, i, out.get(i, i) + lambda);
        }
        out
    }
}

/// Means and unbiased covariances of a sample's series — series 0 is `y`,
/// series `1 + i` is control `i` — from one pass over the observations for
/// the sums and one over the centred series for every square and
/// cross-product, four accumulators abreast.
///
/// Every entry equals [`covariance`] of its pair of series bit for bit: each
/// sum and each product accumulator adds its terms in observation order from
/// `Sum for f64`'s start value (−0.0), every product is
/// `(a − mean_a)·(b − mean_b)` with the means taken as `sum / n`, and a
/// sample of fewer than two observations has covariance `0.0`. Reusing one
/// `Moments` across samples reuses its buffers.
#[derive(Debug, Clone, Default)]
pub struct Moments {
    n: usize,
    /// Number of series: `y` plus the controls.
    series: usize,
    /// Per series, its sample mean.
    means: Vec<f64>,
    /// `series × series` covariances, row-major, both triangles filled.
    cov: Vec<f64>,
    /// Every series minus its mean, series after series.
    centred: Vec<f64>,
    /// The `(a, b)` series pairs with `a ≤ b`, in accumulation order.
    pairs: Vec<(usize, usize)>,
}

/// Independent accumulators a moment pass advances together, so each sum
/// keeps its own serial order while the sums overlap in the pipeline.
const LANES: usize = 4;

/// `Σ_t term(lane, t)` over `t in 0..n` for every lane, each from −0.0 in
/// `t` order.
fn lane_sums(n: usize, term: impl Fn(usize, usize) -> f64) -> [f64; LANES] {
    let mut sums = [-0.0; LANES];
    for t in 0..n {
        for (lane, sum) in sums.iter_mut().enumerate() {
            *sum += term(lane, t);
        }
    }
    sums
}

impl Moments {
    /// The moments of `y` and `controls` (each parallel to `y`).
    pub fn of<S: AsRef<[f64]>>(y: &[f64], controls: &[S]) -> Self {
        let mut moments = Moments::default();
        moments.compute(y, controls);
        moments
    }

    /// Recomputes the moments in place for a new sample.
    pub fn compute<S: AsRef<[f64]>>(&mut self, y: &[f64], controls: &[S]) {
        let n = y.len();
        let k = controls.len() + 1;
        let series = |s: usize| if s == 0 { y } else { controls[s - 1].as_ref() };
        for s in 1..k {
            assert_eq!(series(s).len(), n, "every control series must be parallel to y");
        }
        self.n = n;
        self.series = k;
        // The sums, `LANES` series at a time (spare lanes repeat the last).
        self.means.clear();
        for first in (0..k).step_by(LANES) {
            let columns: [&[f64]; LANES] = std::array::from_fn(|lane| &series((first + lane).min(k - 1))[..n]);
            let sums = lane_sums(n, |lane, t| columns[lane][t]);
            self.means.extend(sums.iter().take(k - first).map(|sum| sum / n as f64));
        }
        self.centred.clear();
        for (s, &mean) in self.means.iter().enumerate() {
            self.centred.extend(series(s).iter().map(|v| v - mean));
        }
        // Every centred product, `LANES` pairs of series at a time.
        self.pairs.clear();
        self.pairs.extend((0..k).flat_map(|a| (a..k).map(move |b| (a, b))));
        self.cov.clear();
        self.cov.resize(k * k, 0.0);
        let column = |s: usize| &self.centred[s * n..][..n];
        for block in self.pairs.chunks(LANES) {
            let columns: [(&[f64], &[f64]); LANES] = std::array::from_fn(|lane| {
                let (a, b) = block[lane.min(block.len() - 1)];
                (column(a), column(b))
            });
            let sums = lane_sums(n, |lane, t| columns[lane].0[t] * columns[lane].1[t]);
            for (&(a, b), sum) in block.iter().zip(sums) {
                let v = if n < 2 { 0.0 } else { sum / (n - 1) as f64 };
                self.cov[a * k + b] = v;
                self.cov[b * k + a] = v;
            }
        }
    }

    /// Number of observations.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sample mean of series `s` (0 is `y`, `1 + i` is control `i`).
    pub fn mean(&self, s: usize) -> f64 {
        self.means[s]
    }

    /// Sample covariance of series `a` and `b` (0 is `y`, `1 + i` is
    /// control `i`).
    pub fn cov(&self, a: usize, b: usize) -> f64 {
        self.cov[a * self.series + b]
    }
}

/// Sample covariance between two equally long series.
pub fn covariance(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "covariance length mismatch");
    Moments::of(x, &[y]).cov(0, 1)
}

/// Sample variance of a series (unbiased, divisor `n - 1`).
pub fn variance(x: &[f64]) -> f64 {
    Moments::of::<&[f64]>(x, &[]).cov(0, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_returns_rhs() {
        let m = Matrix::identity(3);
        let x = m.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3
        let m = Matrix { rows: 2, cols: 2, data: vec![2.0, 1.0, 1.0, 3.0] };
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_requires_pivoting() {
        // zero on the leading diagonal forces a row swap
        let m = Matrix { rows: 2, cols: 2, data: vec![0.0, 1.0, 1.0, 0.0] };
        let x = m.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let m = Matrix { rows: 2, cols: 2, data: vec![1.0, 2.0, 2.0, 4.0] };
        assert!(m.solve(&[1.0, 2.0]).is_none());
        // ridge regularisation restores solvability
        assert!(m.ridge(1e-3).solve(&[1.0, 2.0]).is_some());
    }

    #[test]
    fn solve_recovers_matvec_input() {
        let m = Matrix { rows: 3, cols: 3, data: vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0] };
        let x_true = vec![0.3, -1.2, 2.5];
        let b = m.matvec(&x_true);
        let x = m.solve(&b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn covariance_and_variance() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0];
        assert!((covariance(&x, &y) - 2.0 * variance(&x)).abs() < 1e-12);
        assert!((variance(&x) - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(variance(&[1.0]), 0.0);
        // anti-correlated series have negative covariance
        let z: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(covariance(&x, &z) < 0.0);
    }
}
