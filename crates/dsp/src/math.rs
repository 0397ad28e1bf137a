//! Special functions for error-rate analysis.
//!
//! The analysis crate expresses envelope-detection error rates through the
//! Gaussian Q-function, the Marcum Q₁ function and the modified Bessel
//! function I₀. Implementations follow the standard references (Abramowitz &
//! Stegun; Numerical Recipes): accuracy targets are ~1e-7 absolute, far
//! below the Monte-Carlo resolution of any experiment in this repository.
//!
//! [`randn`], the workspace's one Gaussian sampler, lives here too, so the
//! channel, ambient and device models draw noise through one transform.

use rand::Rng;

/// Error function `erf(x)`.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function `erfc(x)` with ≲1.2e-7 absolute error
/// (Numerical Recipes rational Chebyshev fit), exact symmetry
/// `erfc(-x) = 2 - erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587
                                        + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`.
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of [`q_func`] on `(0, 1)` by bisection (≈1e-10 accuracy).
///
/// Out-of-range probabilities clamp to ±∞-ish sentinels (±40).
pub fn q_inv(p: f64) -> f64 {
    if p <= 0.0 {
        return 40.0;
    }
    if p >= 1.0 {
        return -40.0;
    }
    let (mut lo, mut hi) = (-40.0f64, 40.0f64);
    // Q is strictly decreasing.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if q_func(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Modified Bessel function of the first kind, order zero, `I₀(x)`
/// (A&S 9.8.1/9.8.2 polynomial fits, ≲1.6e-7 relative).
pub fn bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        let t = (x / 3.75) * (x / 3.75);
        1.0 + t * (3.5156229
            + t * (3.0899424
                + t * (1.2067492 + t * (0.2659732 + t * (0.0360768 + t * 0.0045813)))))
    } else {
        let t = 3.75 / ax;
        (ax.exp() / ax.sqrt())
            * (0.39894228
                + t * (0.01328592
                    + t * (0.00225319
                        + t * (-0.00157565
                            + t * (0.00916281
                                + t * (-0.02057706
                                    + t * (0.02635537 + t * (-0.01647633 + t * 0.00392377))))))))
    }
}

/// Natural log of `I₀(x)` — avoids overflow of `I₀` for large arguments.
pub fn ln_bessel_i0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 3.75 {
        bessel_i0(x).ln()
    } else {
        let t = 3.75 / ax;
        let poly = 0.39894228
            + t * (0.01328592
                + t * (0.00225319
                    + t * (-0.00157565
                        + t * (0.00916281
                            + t * (-0.02057706
                                + t * (0.02635537 + t * (-0.01647633 + t * 0.00392377)))))));
        ax - 0.5 * ax.ln() + poly.ln()
    }
}

/// Marcum Q-function of order 1, `Q₁(a, b)`.
///
/// Computed by the canonical Poisson-mixture series
/// `Q₁(a,b) = Σₖ pois(k; a²/2) · P(Poisson(b²/2) ≤ k)`, with a Gaussian
/// asymptotic `Q(b − a)` for very large arguments where the series would
/// need thousands of terms. Non-coherent OOK/energy detection error rates
/// are expressed directly in this function.
pub fn marcum_q1(a: f64, b: f64) -> f64 {
    let a = a.abs();
    let b = b.abs();
    if b == 0.0 {
        return 1.0;
    }
    if a == 0.0 {
        return (-b * b / 2.0).exp();
    }
    // Asymptotic regime: both arguments large → Gaussian approximation.
    if a * b > 700.0 {
        return q_func(b - a);
    }
    let x = a * a / 2.0; // Poisson mean for k
    let y = b * b / 2.0; // Poisson mean for j
    // pois(k; x) iteratively; cdf_y = P(Poisson(y) ≤ k) accumulated alongside.
    let mut pk = (-x).exp(); // pois(0; x)
    let mut pj = (-y).exp(); // pois(k; y), starts at j = 0
    let mut cdf_y = pj; // P(Poisson(y) ≤ 0)
    let mut sum = pk * cdf_y;
    let max_iter = 4000;
    for k in 1..=max_iter {
        pk *= x / k as f64;
        pj *= y / k as f64;
        cdf_y += pj;
        let term = pk * cdf_y.min(1.0);
        sum += term;
        if term < 1e-15 && k as f64 > x {
            break;
        }
    }
    sum.clamp(0.0, 1.0)
}

/// Natural logarithm of the factorial, `ln(n!)`, via Stirling for n > 20.
pub fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= 20 {
        let mut acc = 0.0f64;
        for k in 2..=n {
            acc += (k as f64).ln();
        }
        return acc;
    }
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
}

/// Binomial tail `P(X ≥ k)` for `X ~ Binomial(n, p)` — used for
/// majority-vote repetition-code error rates. Numerically stable via log
/// factorials.
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return 1.0;
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let mut sum = 0.0;
    for i in k..=n {
        let ln_c = ln_factorial(n) - ln_factorial(i) - ln_factorial(n - i);
        sum += (ln_c + i as f64 * ln_p + (n - i) as f64 * ln_q).exp();
    }
    sum.clamp(0.0, 1.0)
}

/// Draws one standard normal sample (Box–Muller transform).
///
/// The second Box–Muller output is intentionally discarded to keep the
/// consumer's RNG stream position independent of call history. Every
/// golden in the repository depends on this draw order and operation
/// sequence.
pub fn randn<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn randn_moments() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let n = 200_000;
        let mut mean = 0.0;
        let mut var = 0.0;
        for _ in 0..n {
            let x = randn(&mut rng);
            mean += x;
            var += x * x;
        }
        mean /= n as f64;
        var = var / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn erf_known_values() {
        // Reference values to 7 digits; the rational fit is ~1.2e-7 absolute.
        assert!((erf(0.0)).abs() < 2e-7);
        assert!((erf(1.0) - 0.8427008).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953223).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427008).abs() < 1e-6);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn q_known_values() {
        assert!((q_func(0.0) - 0.5).abs() < 1e-7);
        assert!((q_func(1.0) - 0.1586553).abs() < 1e-6);
        assert!((q_func(3.0) - 1.349898e-3).abs() < 1e-7);
        assert!((q_func(-1.0) - 0.8413447).abs() < 1e-6);
    }

    #[test]
    fn q_inv_round_trips() {
        for &p in &[0.4, 0.1, 1e-2, 1e-4, 1e-6] {
            let x = q_inv(p);
            assert!((q_func(x) - p).abs() / p < 1e-5, "p = {p}");
        }
    }

    #[test]
    fn bessel_i0_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-9);
        assert!((bessel_i0(1.0) - 1.2660658).abs() < 1e-6);
        assert!((bessel_i0(5.0) - 27.239872).abs() / 27.239872 < 1e-6);
    }

    #[test]
    fn ln_bessel_i0_no_overflow() {
        let v = ln_bessel_i0(800.0);
        // ln I0(x) ≈ x − ln(2πx)/2 for large x.
        let approx = 800.0 - 0.5 * (2.0 * std::f64::consts::PI * 800.0).ln();
        assert!((v - approx).abs() < 0.01, "{v} vs {approx}");
        assert!(bessel_i0(800.0).is_infinite()); // raw form overflows, as expected
    }

    #[test]
    fn marcum_edge_cases() {
        assert!((marcum_q1(0.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((marcum_q1(3.0, 0.0) - 1.0).abs() < 1e-12);
        // Q1(0, b) = exp(−b²/2).
        for &b in &[0.5, 1.0, 2.0] {
            assert!((marcum_q1(0.0, b) - (-b * b / 2.0f64).exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn marcum_matches_monte_carlo() {
        // Independent verification: Q₁(a,b) = P(√((a+X)² + Y²) > b) for
        // standard normal X, Y. Uses a seeded RNG so the test is stable.
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xFDB5_0001);
        let gauss = |rng: &mut rand_chacha::ChaCha8Rng| -> f64 {
            // Box–Muller.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        for &(a, b) in &[(1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 4.0), (0.5, 3.0)] {
            let n = 400_000;
            let mut hits = 0u64;
            for _ in 0..n {
                let x: f64 = a + gauss(&mut rng);
                let y: f64 = gauss(&mut rng);
                if (x * x + y * y).sqrt() > b {
                    hits += 1;
                }
            }
            let mc = hits as f64 / n as f64;
            let got = marcum_q1(a, b);
            assert!(
                (got - mc).abs() < 4e-3,
                "Q1({a},{b}) = {got}, Monte Carlo = {mc}"
            );
        }
    }

    #[test]
    fn marcum_matches_neumann_series() {
        // Second independent check via the closed form for equal arguments:
        // Q₁(a,a) = ½·[1 + e^{−a²}·I₀(a²)].
        let expect = 0.5 * (1.0 + (-1.0f64).exp() * bessel_i0(1.0));
        let got = marcum_q1(1.0, 1.0);
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
    }

    #[test]
    fn marcum_monotonicity() {
        // Increasing a increases Q1; increasing b decreases it.
        assert!(marcum_q1(2.0, 1.5) > marcum_q1(1.0, 1.5));
        assert!(marcum_q1(1.5, 2.0) < marcum_q1(1.5, 1.0));
    }

    #[test]
    fn marcum_asymptotic_joins_smoothly() {
        // Around the switchover a·b ≈ 700 the two methods should agree.
        let a = 26.0;
        let b = 27.0;
        let series = {
            // force series by staying just under the cutoff
            marcum_q1(a, b)
        };
        let gauss = q_func(b - a);
        assert!((series - gauss).abs() < 5e-3, "{series} vs {gauss}");
    }

    #[test]
    fn ln_factorial_matches_direct() {
        let mut acc = 1.0f64;
        for n in 1..=25u64 {
            acc *= n as f64;
            assert!(
                (ln_factorial(n) - acc.ln()).abs() < 1e-6,
                "n = {n}"
            );
        }
    }

    #[test]
    fn binomial_tail_sanity() {
        // Fair coin, 5 flips, P(≥3 heads) = 0.5 by symmetry.
        assert!((binomial_tail(5, 3, 0.5) - 0.5).abs() < 1e-9);
        // P(≥0) = 1, P(> n) = 0.
        assert!((binomial_tail(7, 0, 0.3) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_tail(7, 8, 0.3), 0.0);
        // Repetition-3 majority error with p=0.1: 3p²(1−p) + p³ = 0.028.
        assert!((binomial_tail(3, 2, 0.1) - 0.028).abs() < 1e-9);
    }
}
