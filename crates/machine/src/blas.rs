//! Reference BLAS kernels used by the interpreter for [`loop_ir::BlasCall`]
//! nodes, plus the roofline-style cost of a tuned library call.
//!
//! The paper's idiom detection replaces recognized BLAS-3 loop nests with
//! vendor library calls; here the "library" is a cache-blocked Rust
//! implementation (for numerical results) and a near-peak roofline estimate
//! (for the cost model).

use loop_ir::nest::BlasKind;

use crate::config::MachineConfig;
use crate::error::{MachineError, Result};

const BLOCK: usize = 64;

/// Runs one library call into `out`: the one dispatch both executors share,
/// with `dims` and `inputs` in the kernel's argument order.
///
/// # Errors
/// [`MachineError::UnknownArray`] when the call lists fewer inputs than its
/// kernel reads.
pub(crate) fn run_call(
    kind: BlasKind,
    dims: &[i64],
    alpha: f64,
    beta: f64,
    inputs: &[Vec<f64>],
    out: &mut [f64],
) -> Result<()> {
    let input = |i: usize| {
        inputs
            .get(i)
            .map(Vec::as_slice)
            .ok_or_else(|| MachineError::UnknownArray(format!("blas input {i}")))
    };
    let d = |i: usize| dims[i] as usize;
    match kind {
        BlasKind::Gemm => dgemm(d(0), d(1), d(2), alpha, input(0)?, input(1)?, beta, out),
        BlasKind::Syrk => dsyrk(d(0), d(1), alpha, input(0)?, beta, out),
        BlasKind::Syr2k => dsyr2k(d(0), d(1), alpha, input(0)?, input(1)?, beta, out),
        BlasKind::Gemv => dgemv(d(0), d(1), alpha, input(0)?, input(1)?, beta, out),
    }
    Ok(())
}

/// `C = beta * C + alpha * A * B` with `A` of shape `m×k`, `B` of shape
/// `k×n`, `C` of shape `m×n`, all row-major.
#[allow(clippy::too_many_arguments)] // canonical BLAS signature
pub fn dgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
) {
    assert!(a.len() >= m * k, "A is too small");
    assert!(b.len() >= k * n, "B is too small");
    assert!(c.len() >= m * n, "C is too small");
    if beta != 1.0 {
        for v in c.iter_mut().take(m * n) {
            *v *= beta;
        }
    }
    for ib in (0..m).step_by(BLOCK) {
        let iend = (ib + BLOCK).min(m);
        for kb in (0..k).step_by(BLOCK) {
            let kend = (kb + BLOCK).min(k);
            for jb in (0..n).step_by(BLOCK) {
                let jend = (jb + BLOCK).min(n);
                for i in ib..iend {
                    for kk in kb..kend {
                        let aik = alpha * a[i * k + kk];
                        let brow = &b[kk * n..kk * n + n];
                        let crow = &mut c[i * n..i * n + n];
                        for j in jb..jend {
                            crow[j] += aik * brow[j];
                        }
                    }
                }
            }
        }
    }
}

/// `C = beta * C + alpha * A * A^T` (full update of the symmetric result),
/// `A` of shape `n×k`, `C` of shape `n×n`, row-major.
pub fn dsyrk(n: usize, k: usize, alpha: f64, a: &[f64], beta: f64, c: &mut [f64]) {
    assert!(a.len() >= n * k, "A is too small");
    assert!(c.len() >= n * n, "C is too small");
    if beta != 1.0 {
        for v in c.iter_mut().take(n * n) {
            *v *= beta;
        }
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * a[j * k + kk];
            }
            c[i * n + j] += alpha * acc;
        }
    }
}

/// `C = beta * C + alpha * (A * B^T + B * A^T)`, `A`/`B` of shape `n×k`,
/// `C` of shape `n×n`, row-major.
pub fn dsyr2k(n: usize, k: usize, alpha: f64, a: &[f64], b: &[f64], beta: f64, c: &mut [f64]) {
    assert!(a.len() >= n * k, "A is too small");
    assert!(b.len() >= n * k, "B is too small");
    assert!(c.len() >= n * n, "C is too small");
    if beta != 1.0 {
        for v in c.iter_mut().take(n * n) {
            *v *= beta;
        }
    }
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * b[j * k + kk] + b[i * k + kk] * a[j * k + kk];
            }
            c[i * n + j] += alpha * acc;
        }
    }
}

/// `y = beta * y + alpha * A * x`, `A` of shape `m×n`, row-major.
pub fn dgemv(m: usize, n: usize, alpha: f64, a: &[f64], x: &[f64], beta: f64, y: &mut [f64]) {
    assert!(a.len() >= m * n, "A is too small");
    assert!(x.len() >= n, "x is too small");
    assert!(y.len() >= m, "y is too small");
    for i in 0..m {
        let mut acc = 0.0;
        for j in 0..n {
            acc += a[i * n + j] * x[j];
        }
        y[i] = beta * y[i] + alpha * acc;
    }
}

/// Estimated execution time (seconds) of a tuned BLAS call performing `flops`
/// floating-point operations and streaming `bytes` of matrix data, using
/// `threads` cores of `machine`.
///
/// The estimate is a roofline: the call runs at `blas_efficiency` of peak
/// unless memory streaming dominates.
pub fn blas_call_time(machine: &MachineConfig, flops: f64, bytes: f64, threads: usize) -> f64 {
    let threads = threads.max(1).min(machine.cores);
    let compute =
        flops / (machine.peak_flops_per_core() * machine.blas_efficiency * threads as f64);
    let memory = bytes / machine.bandwidth_with_threads(threads);
    compute.max(memory) + machine.parallel_overhead * threads.saturating_sub(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn naive_gemm(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        b: &[f64],
        beta: f64,
        c: &[f64],
    ) -> Vec<f64> {
        let mut out = c.to_vec();
        for v in out.iter_mut() {
            *v *= beta;
        }
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    out[i * n + j] += alpha * a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        out
    }

    fn pattern(len: usize, seed: u64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97) as f64 / 10.0)
            .collect()
    }

    #[test]
    fn blocked_gemm_matches_naive() {
        let (m, n, k) = (37, 29, 53);
        let a = pattern(m * k, 1);
        let b = pattern(k * n, 2);
        let c0 = pattern(m * n, 3);
        let mut c = c0.clone();
        dgemm(m, n, k, 1.5, &a, &b, 0.5, &mut c);
        let expected = naive_gemm(m, n, k, 1.5, &a, &b, 0.5, &c0);
        for (x, y) in c.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn syrk_is_symmetric() {
        let (n, k) = (17, 9);
        let a = pattern(n * k, 5);
        let mut c = vec![0.0; n * n];
        dsyrk(n, k, 1.0, &a, 0.0, &mut c);
        for i in 0..n {
            for j in 0..n {
                assert!((c[i * n + j] - c[j * n + i]).abs() < 1e-12);
            }
        }
        // diagonal entries are sums of squares, hence non-negative.
        for i in 0..n {
            assert!(c[i * n + i] >= 0.0);
        }
    }

    #[test]
    fn syr2k_matches_direct_formula() {
        let (n, k) = (8, 5);
        let a = pattern(n * k, 7);
        let b = pattern(n * k, 11);
        let mut c = vec![1.0; n * n];
        dsyr2k(n, k, 2.0, &a, &b, 3.0, &mut c);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[j * k + kk] + b[i * k + kk] * a[j * k + kk];
                }
                let expected = 3.0 + 2.0 * acc;
                assert!((c[i * n + j] - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gemv_matches_direct_formula() {
        let (m, n) = (6, 4);
        let a = pattern(m * n, 13);
        let x = pattern(n, 17);
        let mut y = vec![2.0; m];
        dgemv(m, n, 1.0, &a, &x, 0.5, &mut y);
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * n + j] * x[j];
            }
            assert!((y[i] - (1.0 + acc)).abs() < 1e-9);
        }
    }

    #[test]
    fn blas_time_is_roofline_limited() {
        let m = MachineConfig::xeon_e5_2680v3();
        // Compute-bound: 2*1000^3 flops on tiny data.
        let t_compute = blas_call_time(&m, 2e9, 24e6, 1);
        assert!(t_compute > 2e9 / m.peak_flops_per_core() * 0.9);
        // Memory-bound: few flops on lots of data.
        let t_memory = blas_call_time(&m, 1e6, 8e9, 1);
        assert!(t_memory >= 8e9 / m.dram_bandwidth * 0.99);
        // More threads help.
        assert!(blas_call_time(&m, 2e9, 24e6, 8) < t_compute);
    }
}
