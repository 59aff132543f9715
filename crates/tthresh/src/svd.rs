//! Truncated SVD by power iteration with deflation — the linear-algebra
//! substrate of the tthresh-style compressor, written from scratch.
//!
//! For an `m × n` matrix `A`, each singular triplet is found by iterating
//! `v ← normalize(Aᵀ(A v))` (never forming `AᵀA`), extracting
//! `σ = |A v|`, `u = A v / σ`, then deflating `A ← A − σ u vᵀ`. Iteration
//! stops when the accumulated energy reaches the requested fraction of
//! `‖A‖²_F` or the rank cap is hit.

/// One singular triplet.
#[derive(Debug, Clone)]
pub struct Triplet {
    /// Singular value.
    pub sigma: f64,
    /// Left singular vector (length m).
    pub u: Vec<f64>,
    /// Right singular vector (length n).
    pub v: Vec<f64>,
}

fn matvec(a: &[f64], m: usize, n: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(out.len(), m);
    for (i, o) in out.iter_mut().enumerate() {
        let row = &a[i * n..(i + 1) * n];
        *o = row.iter().zip(x).map(|(r, xi)| r * xi).sum();
    }
}

fn matvec_t(a: &[f64], m: usize, n: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), m);
    debug_assert_eq!(out.len(), n);
    out.fill(0.0);
    for i in 0..m {
        let row = &a[i * n..(i + 1) * n];
        let xi = x[i];
        for (o, r) in out.iter_mut().zip(row) {
            *o += r * xi;
        }
    }
}

fn norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Frobenius norm of a matrix stored row-major.
pub fn frobenius(a: &[f64]) -> f64 {
    norm(a)
}

/// Compute the leading singular triplets of `a` (row-major `m × n`) until
/// the captured energy reaches `energy_fraction` of `‖A‖²_F` or `max_rank`
/// triplets have been extracted. Returns the triplets and the residual
/// Frobenius norm.
pub fn truncated_svd(
    a: &[f64],
    m: usize,
    n: usize,
    energy_fraction: f64,
    max_rank: usize,
) -> (Vec<Triplet>, f64) {
    debug_assert_eq!(a.len(), m * n);
    let total_energy: f64 = a.iter().map(|v| v * v).sum();
    if total_energy == 0.0 {
        return (Vec::new(), 0.0);
    }
    let target_residual = total_energy * (1.0 - energy_fraction).max(0.0);
    let mut work = a.to_vec();
    let mut triplets = Vec::new();
    let mut residual_energy = total_energy;
    let mut tmp_m = vec![0.0; m];
    let mut v = vec![0.0; n];
    let cap = max_rank.min(m.min(n));

    while triplets.len() < cap && residual_energy > target_residual.max(total_energy * 1e-24) {
        // Deterministic varied start vector to avoid orthogonal-start stalls.
        for (j, vj) in v.iter_mut().enumerate() {
            *vj = 1.0 + ((j * 2654435761usize.wrapping_add(triplets.len() * 97)) % 1000) as f64
                / 1000.0;
        }
        let nv = norm(&v);
        for vj in v.iter_mut() {
            *vj /= nv;
        }
        let mut sigma = 0.0f64;
        for _ in 0..60 {
            matvec(&work, m, n, &v, &mut tmp_m);
            matvec_t(&work, m, n, &tmp_m, &mut v);
            let nv = norm(&v);
            if nv < 1e-300 {
                break;
            }
            for vj in v.iter_mut() {
                *vj /= nv;
            }
            let new_sigma = nv.sqrt();
            if (new_sigma - sigma).abs() <= 1e-12 * new_sigma.max(1e-300) {
                sigma = new_sigma;
                break;
            }
            sigma = new_sigma;
        }
        if sigma < 1e-300 {
            break;
        }
        matvec(&work, m, n, &v, &mut tmp_m);
        let sig = norm(&tmp_m);
        if sig < 1e-300 {
            break;
        }
        let u: Vec<f64> = tmp_m.iter().map(|x| x / sig).collect();
        // Deflate.
        for i in 0..m {
            let ui = u[i] * sig;
            let row = &mut work[i * n..(i + 1) * n];
            for (r, vj) in row.iter_mut().zip(&v) {
                *r -= ui * vj;
            }
        }
        residual_energy = work.iter().map(|x| x * x).sum();
        triplets.push(Triplet {
            sigma: sig,
            u,
            v: v.clone(),
        });
    }
    (triplets, residual_energy.max(0.0).sqrt())
}

/// Reconstruct `U S Vᵀ` back into a row-major `m × n` matrix. `m × n` is a
/// decoder's stream-declared geometry, so the matrix is charged to the memory
/// budget and its allocation may be refused.
pub fn reconstruct(triplets: &[Triplet], m: usize, n: usize) -> pressio_core::Result<Vec<f64>> {
    let mut out = pressio_core::alloc::try_zeroed_vec::<f64>(m * n)?;
    for t in triplets {
        for i in 0..m {
            let ui = t.u[i] * t.sigma;
            let row = &mut out[i * n..(i + 1) * n];
            for (o, vj) in row.iter_mut().zip(&t.v) {
                *o += ui * vj;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rank_matrix(m: usize, n: usize, rank: usize) -> Vec<f64> {
        // Sum of `rank` outer products with distinct scales.
        let mut a = vec![0.0; m * n];
        for r in 0..rank {
            let scale = 10.0 / (r + 1) as f64;
            for i in 0..m {
                let ui = ((i * (r + 3)) as f64 * 0.37).sin();
                for j in 0..n {
                    let vj = ((j * (r + 5)) as f64 * 0.23).cos();
                    a[i * n + j] += scale * ui * vj;
                }
            }
        }
        a
    }

    #[test]
    fn exact_rank_recovery() {
        let (m, n, rank) = (24, 18, 3);
        let a = rank_matrix(m, n, rank);
        let (triplets, residual) = truncated_svd(&a, m, n, 1.0 - 1e-14, 10);
        assert!(triplets.len() <= rank + 1, "found {}", triplets.len());
        assert!(residual <= 1e-6 * frobenius(&a), "residual {residual}");
        let back = reconstruct(&triplets, m, n).unwrap();
        let err: f64 = a
            .iter()
            .zip(&back)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(err <= 1e-6 * frobenius(&a));
    }

    #[test]
    fn singular_values_are_decreasing() {
        let a = rank_matrix(30, 30, 8);
        let (triplets, _) = truncated_svd(&a, 30, 30, 0.9999, 8);
        for w in triplets.windows(2) {
            assert!(w[0].sigma >= w[1].sigma * 0.999, "{} then {}", w[0].sigma, w[1].sigma);
        }
    }

    #[test]
    fn singular_vectors_are_unit_norm() {
        let a = rank_matrix(20, 25, 4);
        let (triplets, _) = truncated_svd(&a, 20, 25, 0.999, 6);
        for t in &triplets {
            assert!((norm(&t.u) - 1.0).abs() < 1e-9);
            assert!((norm(&t.v) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn energy_fraction_controls_residual() {
        let a = rank_matrix(32, 32, 16);
        let total = frobenius(&a);
        let (_, loose) = truncated_svd(&a, 32, 32, 0.90, 32);
        let (_, tight) = truncated_svd(&a, 32, 32, 0.9999, 32);
        assert!(tight < loose);
        assert!(loose <= total * 0.32 + 1e-12, "loose {loose} vs {total}");
    }

    #[test]
    fn zero_matrix_is_rank_zero() {
        let a = vec![0.0; 12 * 9];
        let (triplets, residual) = truncated_svd(&a, 12, 9, 0.999, 5);
        assert!(triplets.is_empty());
        assert_eq!(residual, 0.0);
    }

    #[test]
    fn rank_cap_respected() {
        let a = rank_matrix(20, 20, 10);
        let (triplets, _) = truncated_svd(&a, 20, 20, 1.0, 3);
        assert_eq!(triplets.len(), 3);
    }
}
