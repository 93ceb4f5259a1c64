//! Balls-into-bins analysis (paper §4.1, Theorem 3, Appendix A).
//!
//! The load balancer must send every subORAM the *same* number of requests
//! `B`, computed from public information only: the number of (deduplicated,
//! randomly distributed) requests `R`, the number of subORAMs `S`, and the
//! security parameter `λ`. Theorem 3 derives, via a Chernoff + union bound
//! solved with the Lambert-W function, the smallest `B` such that the
//! probability that any subORAM receives more than `B` requests is below
//! `2^-λ`:
//!
//! ```text
//! f(R,S) = min(R, μ · exp[ W₀(e⁻¹(γ/μ − 1)) + 1 ])
//!   where μ = R/S,  γ = ln(S · 2^λ)
//! ```
//!
//! This module implements `W₀` ([`lambert_w0`]), the bound ([`batch_size`]),
//! the Chernoff overflow-probability certificate ([`overflow_probability`]),
//! an exact binomial tail for small cases ([`exact_overflow_probability`]),
//! and the derived quantities the paper plots in Figures 3 and 4
//! ([`dummy_overhead`], [`epoch_capacity`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lambert;

pub use lambert::lambert_w0;

/// The paper's default security parameter.
pub const LAMBDA_DEFAULT: u32 = 128;

/// Theorem 3: the per-subORAM batch size `f(R, S)` for security parameter
/// `lambda`, as an exact integer (ceiling of the real-valued bound, capped at
/// `R`).
///
/// ```
/// use snoopy_binning::batch_size;
/// // 100K requests over 10 subORAMs at λ=128: each subORAM receives a batch
/// // a little above the mean load of 10K — never more, except with
/// // probability < 2^-128.
/// let b = batch_size(100_000, 10, 128);
/// assert!(b > 10_000 && b < 20_000);
/// ```
///
/// `lambda = 0` means "no security margin": the batch size is the expected
/// load `⌈R/S⌉` (the paper's "no security" line in Figure 4).
///
/// Returns 0 when `R == 0`. Panics if `S == 0`.
pub fn batch_size(r: u64, s: u64, lambda: u32) -> u64 {
    assert!(s > 0, "need at least one subORAM");
    if r == 0 {
        return 0;
    }
    if lambda == 0 {
        return r.div_ceil(s);
    }
    let mu = r as f64 / s as f64;
    // γ = ln(S · 2^λ) = ln S + λ ln 2 — computed in log space to avoid overflow.
    let gamma = (s as f64).ln() + lambda as f64 * std::f64::consts::LN_2;
    let arg = (gamma / mu - 1.0) * (-1.0f64).exp();
    // arg >= -1/e always holds because gamma >= 0 (see module docs).
    let w = lambert_w0(arg);
    let bound = mu * (w + 1.0).exp();
    // Ceil with a tiny epsilon guard against FP wobble just below an integer.
    let b = (bound - 1e-9).ceil().max(1.0) as u64;
    b.min(r)
}

/// The Chernoff + union-bound certificate: an upper bound on the probability
/// that *any* of the `S` subORAMs receives more than `b` of the `R` distinct,
/// uniformly-hashed requests. This is the quantity Theorem 3 drives below
/// `2^-λ`. Returned as a natural-log probability (`ln Pr`), which stays
/// representable even when the probability underflows `f64`.
pub fn ln_overflow_probability(r: u64, s: u64, b: u64) -> f64 {
    if b >= r {
        return f64::NEG_INFINITY; // overflow impossible
    }
    if s == 0 || r == 0 {
        return f64::NEG_INFINITY;
    }
    let mu = r as f64 / s as f64;
    let k = b as f64;
    if k <= mu {
        return 0.0; // bound is vacuous (ln 1)
    }
    let delta = k / mu - 1.0;
    // ln Pr[X >= (1+δ)μ] <= μ(δ - (1+δ)ln(1+δ))
    let ln_single = mu * (delta - (1.0 + delta) * (1.0 + delta).ln());
    // Union bound over S subORAMs.
    ((s as f64).ln() + ln_single).min(0.0)
}

/// [`ln_overflow_probability`] exponentiated (0 when it underflows).
pub fn overflow_probability(r: u64, s: u64, b: u64) -> f64 {
    ln_overflow_probability(r, s, b).exp()
}

/// Exact upper-tail probability `P[Binomial(n, p) >= k]`, computed stably in
/// log space. Used by the two-tier hash table parameter derivation
/// (`snoopy-ohash`) to evaluate per-bucket overflow probabilities.
///
/// The terms are summed in increasing order and the sum stops once the
/// terms can no longer change it: past the mode they only shrink, and a term
/// below `2^-60` of the running sum is under half its last place, so adding
/// it (or any later term) rounds back to the same value. The result is
/// bit-identical to summing all `n + 1` terms, at `O(k + tail length)` cost
/// instead of `O(n)`.
pub fn binomial_tail(n: u64, p: f64, k: u64) -> f64 {
    if k == 0 {
        return 1.0;
    }
    if k > n || p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let mode = n as f64 * p;
    let negligible = 2f64.powi(-60);
    let mut ln_choose = 0.0f64;
    let mut tail = 0.0f64;
    for i in 0..=n {
        if i > 0 {
            ln_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
        }
        if i >= k {
            let term = (ln_choose + i as f64 * ln_p + (n - i) as f64 * ln_q).exp();
            tail += term;
            // From i ≥ n·p on, each term is smaller than the one before.
            if i as f64 >= mode && term <= tail * negligible {
                break;
            }
        }
    }
    tail.min(1.0)
}

/// Chernoff certificate for a real-valued mean: `ln P[X >= k]` where `X` is a
/// sum of independent (or negatively associated) indicators with mean `mu`.
/// Returns 0.0 (`ln 1`) when the bound is vacuous (`k <= mu`).
pub fn chernoff_ln_tail(mu: f64, k: f64) -> f64 {
    if mu <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if k <= mu {
        return 0.0;
    }
    let delta = k / mu - 1.0;
    mu * (delta - (1.0 + delta) * (1.0 + delta).ln())
}

/// Exact probability that a Binomial(r, 1/s) exceeds `b`, union-bounded over
/// `s` bins, computed in log space. Exponential in nothing, linear in `r` —
/// usable for the validation ranges in tests (`r` up to ~10⁵).
pub fn exact_overflow_probability(r: u64, s: u64, b: u64) -> f64 {
    if b >= r || r == 0 {
        return 0.0;
    }
    let p = 1.0 / s as f64;
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    // ln C(r, k) via lgamma-style accumulation.
    let mut ln_choose = 0.0f64; // ln C(r, 0)
    let mut tail = 0.0f64;
    for k in 0..=r {
        if k > 0 {
            ln_choose += ((r - k + 1) as f64).ln() - (k as f64).ln();
        }
        if k > b {
            let ln_term = ln_choose + k as f64 * ln_p + (r - k) as f64 * ln_q;
            tail += ln_term.exp();
        }
    }
    (tail * s as f64).min(1.0)
}

/// Figure 3's y-axis: the fractional dummy overhead `(S·B − R) / R` for `R`
/// real (distinct) requests over `S` subORAMs. A value of 0.5 means one dummy
/// for every two real requests.
pub fn dummy_overhead(r: u64, s: u64, lambda: u32) -> f64 {
    if r == 0 {
        return 0.0;
    }
    let b = batch_size(r, s, lambda);
    ((s * b) as f64 - r as f64) / r as f64
}

/// Figure 4's y-axis: the largest number of *real* requests `R` such that the
/// per-subORAM batch `f(R,S)` stays within `per_suboram_capacity` (the paper
/// assumes each subORAM can absorb ≤ 1K requests per epoch). Binary search
/// over the monotone `R ↦ f(R,S)`.
pub fn epoch_capacity(s: u64, lambda: u32, per_suboram_capacity: u64) -> u64 {
    let mut lo = 0u64;
    let mut hi = s * per_suboram_capacity; // f(R,S) >= R/S, so R can't exceed this
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if batch_size(mid, s, lambda) <= per_suboram_capacity {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batch_size_zero_requests() {
        assert_eq!(batch_size(0, 5, 128), 0);
    }

    #[test]
    #[should_panic(expected = "at least one subORAM")]
    fn batch_size_zero_suborams_panics() {
        batch_size(10, 0, 128);
    }

    #[test]
    fn batch_size_no_security_is_mean() {
        assert_eq!(batch_size(1000, 10, 0), 100);
        assert_eq!(batch_size(1001, 10, 0), 101);
    }

    #[test]
    fn batch_size_capped_at_r() {
        // For tiny R the Chernoff bound exceeds R and must be capped.
        for r in 1..50u64 {
            let b = batch_size(r, 10, 128);
            assert!(b <= r, "B={b} > R={r}");
            assert!(b >= 1);
        }
        // Small request counts relative to the security parameter cap exactly.
        assert_eq!(batch_size(10, 2, 128), 10);
    }

    #[test]
    fn batch_size_at_least_mean() {
        for (r, s) in [(10_000u64, 10u64), (100_000, 20), (1_000_000, 7)] {
            let b = batch_size(r, s, 128);
            assert!(b as f64 >= r as f64 / s as f64);
        }
    }

    #[test]
    fn batch_size_certified_by_chernoff() {
        // The returned B must make the union-bounded overflow probability
        // cryptographically negligible whenever B < R.
        for (r, s) in [(100_000u64, 10u64), (1_000_000, 20), (50_000, 2), (500_000, 16)] {
            let b = batch_size(r, s, 128);
            if b < r {
                let lnp = ln_overflow_probability(r, s, b);
                let threshold = -(128.0 * std::f64::consts::LN_2);
                assert!(
                    lnp <= threshold + 1e-6,
                    "R={r} S={s} B={b}: ln p = {lnp} > -λ ln 2 = {threshold}"
                );
            }
        }
    }

    #[test]
    fn batch_size_is_tight() {
        // One less than the bound should violate the certificate (the bound
        // is the *smallest* integer passing Chernoff, modulo ceiling slack).
        let (r, s) = (1_000_000u64, 10u64);
        let b = batch_size(r, s, 128);
        let lnp_minus = ln_overflow_probability(r, s, b.saturating_sub(2));
        let threshold = -(128.0 * std::f64::consts::LN_2);
        assert!(lnp_minus > threshold, "bound is far from tight: B={b}, ln p(B-2) = {lnp_minus}");
    }

    #[test]
    fn overhead_decreases_with_r() {
        // Figure 3: dummy overhead shrinks as real request volume grows.
        let s = 10;
        let o1 = dummy_overhead(1_000, s, 128);
        let o2 = dummy_overhead(10_000, s, 128);
        let o3 = dummy_overhead(100_000, s, 128);
        assert!(o1 >= o2 && o2 >= o3, "{o1} {o2} {o3}");
    }

    #[test]
    fn overhead_increases_with_s() {
        // Figure 3: more subORAMs ⇒ proportionally more dummies.
        let r = 10_000;
        let o2 = dummy_overhead(r, 2, 128);
        let o10 = dummy_overhead(r, 10, 128);
        let o20 = dummy_overhead(r, 20, 128);
        assert!(o2 <= o10 && o10 <= o20, "{o2} {o10} {o20}");
    }

    #[test]
    fn capacity_grows_sublinearly_with_s() {
        // Figure 4: capacity grows with S but slower than the plaintext line.
        let caps: Vec<u64> = (1..=20).map(|s| epoch_capacity(s, 128, 1000)).collect();
        for w in caps.windows(2) {
            assert!(w[1] >= w[0], "capacity must be monotone in S: {caps:?}");
        }
        // Strictly below the no-security (plaintext) capacity S * 1000 for S > 1.
        for (i, &c) in caps.iter().enumerate() {
            let s = i as u64 + 1;
            if s > 1 {
                assert!(c < s * 1000, "S={s}: {c}");
            }
            assert_eq!(epoch_capacity(s, 0, 1000), s * 1000);
        }
        // λ=80 capacity sits between λ=128 and λ=0.
        for s in [2u64, 10, 20] {
            let c128 = epoch_capacity(s, 128, 1000);
            let c80 = epoch_capacity(s, 80, 1000);
            assert!(c80 >= c128, "S={s}");
            assert!(c80 <= s * 1000);
        }
    }

    #[test]
    fn exact_tail_sanity() {
        // Binomial(10, 1/2) > 5 has probability 0.376953125; times s=2 bins.
        let p = exact_overflow_probability(10, 2, 5);
        assert!((p - 2.0 * 0.376953125).abs() < 1e-9, "{p}");
        assert_eq!(exact_overflow_probability(10, 2, 10), 0.0);
    }

    #[test]
    fn chernoff_dominates_exact() {
        // The certificate must upper-bound the exact union-bounded tail.
        for (r, s) in [(1_000u64, 4u64), (5_000, 10), (20_000, 16)] {
            for b_mult in [1.2f64, 1.5, 2.0] {
                let b = ((r as f64 / s as f64) * b_mult) as u64;
                let exact = exact_overflow_probability(r, s, b);
                let chernoff = overflow_probability(r, s, b);
                assert!(
                    chernoff + 1e-12 >= exact,
                    "R={r} S={s} B={b}: chernoff {chernoff} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn empirical_overflow_within_bound() {
        // Simulate hashing with a real keyed hash at a *small* λ and check the
        // observed overflow rate does not exceed the analytic bound grossly.
        use snoopy_crypto::rng::RngCore;
        use snoopy_crypto::SipHash24;
        let (r, s, lambda) = (2_000u64, 8u64, 10u32);
        let b = batch_size(r, s, lambda);
        let bound = overflow_probability(r, s, b).max(2f64.powi(-(lambda as i32)));
        let trials = 2_000;
        let mut overflows = 0;
        let mut rng = snoopy_crypto::Prg::from_entropy();
        for _ in 0..trials {
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let h = SipHash24::new(&key);
            let mut counts = vec![0u64; s as usize];
            for x in 0..r {
                counts[h.bin_u64(x, s as usize)] += 1;
            }
            if counts.iter().any(|&c| c > b) {
                overflows += 1;
            }
        }
        let rate = overflows as f64 / trials as f64;
        // Allow generous slack: the Chernoff bound is loose but must not be
        // violated by an order of magnitude.
        assert!(rate <= (bound * 20.0).max(0.01), "empirical {rate} vs bound {bound}");
    }

    #[test]
    fn figure3_shape() {
        // The Figure 3 points EXPERIMENTS.md quotes (λ=128), pinned exactly:
        // (S, R) → (f(R,S), overhead % to one decimal). The curve's direction
        // in R and in S is `overhead_decreases_with_r` / `_increases_with_s`.
        for (s, r, b, pct) in [
            (2u64, 10_000u64, 5_975u64, "19.5"),
            (20, 10_000, 833, "66.6"),
            (20, 500, 120, "380.0"),
        ] {
            assert_eq!(batch_size(r, s, 128), b, "S={s} R={r}");
            assert_eq!(format!("{:.1}", dummy_overhead(r, s, 128) * 100.0), pct, "S={s} R={r}");
        }
    }

    #[test]
    fn figure4_shape() {
        // The S=20 points EXPERIMENTS.md quotes: λ=0 is exactly the plaintext
        // line S·1000, λ=128 falls to 12.6K. The ordering between the lines
        // for every S is `capacity_grows_sublinearly_with_s`.
        assert_eq!(epoch_capacity(20, 0, 1000), 20_000);
        assert_eq!(epoch_capacity(20, 128, 1000), 12_610);
    }

    /// `binomial_tail` without the early stop: every term summed.
    fn binomial_tail_full(n: u64, p: f64, k: u64) -> f64 {
        if k == 0 || k > n {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
        let (mut ln_choose, mut tail) = (0.0f64, 0.0f64);
        for i in 0..=n {
            if i > 0 {
                ln_choose += ((n - i + 1) as f64).ln() - (i as f64).ln();
            }
            if i >= k {
                tail += (ln_choose + i as f64 * ln_p + (n - i) as f64 * ln_q).exp();
            }
        }
        tail.min(1.0)
    }

    #[test]
    fn binomial_tail_early_stop_is_bit_exact() {
        // The hash-table derivation's shapes (p = 1/m1, k = z1) and a few
        // far from them, tails near 1 and underflowing to 0 included.
        for n in [1u64, 2, 31, 32, 218, 1506, 4095, 8191] {
            let mut ps: Vec<f64> = (1..14).map(|e| 1.0 / (1u64 << e) as f64).collect();
            ps.extend([0.3, 0.7, 0.999]);
            for p in ps {
                for k in (0..=40).chain([64, 200, n / 2, n]) {
                    let (fast, full) = (binomial_tail(n, p, k), binomial_tail_full(n, p, k));
                    assert_eq!(fast.to_bits(), full.to_bits(), "n={n} p={p} k={k}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn binomial_tail_matches_full_sum(n in 1u64..10_000, m in 1u64..20_000, k in 0u64..64) {
            let p = 1.0 / m as f64;
            prop_assert_eq!(binomial_tail(n, p, k).to_bits(), binomial_tail_full(n, p, k).to_bits());
        }

        #[test]
        fn batch_size_monotone_in_r(r in 1u64..1_000_000, s in 1u64..64) {
            let b1 = batch_size(r, s, 128);
            let b2 = batch_size(r + r / 10 + 1, s, 128);
            prop_assert!(b2 >= b1);
        }

        #[test]
        fn batch_size_bounds(r in 1u64..10_000_000, s in 1u64..128, lambda in prop::sample::select(vec![0u32, 40, 80, 128])) {
            let b = batch_size(r, s, lambda);
            prop_assert!(b >= 1);
            prop_assert!(b <= r);
            prop_assert!(b as f64 >= (r as f64 / s as f64) - 1.0);
        }

        #[test]
        fn larger_lambda_larger_batch(r in 100u64..1_000_000, s in 2u64..64) {
            let b80 = batch_size(r, s, 80);
            let b128 = batch_size(r, s, 128);
            prop_assert!(b128 >= b80);
        }
    }
}
