//! Deterministic random-number utilities.
//!
//! Every public entry point in this workspace takes a `u64` seed; all
//! randomness flows from it so experiments are exactly reproducible. Seeds for
//! independent streams (per trial, per component) are derived with a SplitMix64
//! mixer, the standard way to expand one seed into many decorrelated ones.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The RNG type used throughout the simulators.
///
/// `SmallRng` is a fast non-cryptographic generator; population-protocol
/// simulations draw billions of variates, so speed matters and cryptographic
/// strength does not. The paper's model assumes agents read *uniform random
/// bits*; `SmallRng` is the engine's stand-in for that random tape.
pub type SimRng = SmallRng;

/// Creates the simulation RNG for a given seed.
pub fn rng_from_seed(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// SplitMix64 finalizer: a bijective mixer with good avalanche behaviour.
///
/// Used to derive decorrelated child seeds from `(base, stream)` pairs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent child seed from a base seed and a stream index.
///
/// `derive_seed(s, i) != derive_seed(s, j)` for `i != j` (the mixer is a
/// bijection applied to distinct inputs), so trials never share a stream.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Samples a geometric random variable with success probability 1/2.
///
/// Defined as in the paper: the number of fair-coin flips up to and including
/// the first heads, so the support is `{1, 2, 3, ...}` and the expectation
/// is 2. This is the distribution every agent samples for `logSize2` and `gr`.
pub fn geometric_half(rng: &mut impl Rng) -> u64 {
    let mut count = 1;
    // Draw 64 coin flips at a time; the position of the first set bit is the
    // number of failures observed in this block.
    loop {
        let block: u64 = rng.gen();
        if block != 0 {
            return count + block.trailing_zeros() as u64;
        }
        count += 64;
    }
}

/// Samples a geometric random variable with success probability `p` in (0,1].
///
/// Support `{1, 2, ...}`; expectation `1/p`. Used by the analysis crate's
/// Monte-Carlo checks of the general tail bounds (Lemma D.5).
pub fn geometric(p: f64, rng: &mut impl Rng) -> u64 {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1], got {p}");
    if p >= 1.0 {
        return 1;
    }
    // Inversion method: ceil(ln U / ln(1-p)) is geometric on {1, 2, ...}.
    // ln_1p keeps the denominator accurate for tiny p, where computing
    // (1.0 - p).ln() would round to 0 and overflow the run length.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let g = (u.ln() / (-p).ln_1p()).ceil();
    if g < 1.0 {
        1
    } else {
        g as u64
    }
}

/// Natural log of the gamma function for `x > 0` (Lanczos approximation,
/// `g = 7`, 9 coefficients; relative error below `1e-13` over the range the
/// samplers use).
///
/// Drives the log-binomial-coefficient computations of the bulk samplers
/// below and the batched simulator's birthday-collision CDF.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)] // published Lanczos constants, kept verbatim
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_59,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let z = x - 1.0;
    let mut sum = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        sum += c / (z + i as f64);
    }
    let base = z + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * base.ln() - base + sum.ln()
}

/// Entries below this are served from the precomputed `ln k!` table; larger
/// arguments use the Stirling series (whose error is far below f64 epsilon
/// by then).
const LN_FACT_TABLE_SIZE: usize = 4096;

/// Lazily built table of `ln k!` for `k < LN_FACT_TABLE_SIZE`, each entry
/// computed independently with [`ln_gamma`] so no rounding error accumulates.
static LN_FACT: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();

#[inline]
fn ln_fact_table() -> &'static [f64] {
    LN_FACT.get_or_init(|| {
        (0..LN_FACT_TABLE_SIZE)
            .map(|k| ln_gamma(k as f64 + 1.0))
            .collect()
    })
}

/// `k as f64`, through a signed conversion: x86-64 without AVX-512
/// converts a signed integer in one instruction and an unsigned one in a
/// six-instruction sequence. Below 2⁶³ both round the same integer, so the
/// result has the same bits.
#[inline(always)]
fn to_f64(k: u64) -> f64 {
    debug_assert!(k <= i64::MAX as u64);
    k as i64 as f64
}

/// `x as u64` for a non-negative `x` below 2⁶³, through a signed
/// conversion: the unsigned one adds a second conversion and its
/// saturation checks.
#[inline(always)]
fn to_u64(x: f64) -> u64 {
    debug_assert!((0.0..9.2e18).contains(&x));
    x as i64 as u64
}

/// `ln k!` in O(1): table lookup below 4096, Stirling series above.
///
/// This is the hot scalar under every chop-down hypergeometric draw
/// (9 evaluations per pmf-at-mode), so it avoids the full Lanczos sum: the
/// Stirling tail `1/(12x) - 1/(360x³)` already has relative error below
/// `1e-16` for `x ≥ 4096`.
#[inline]
pub fn ln_factorial(k: u64) -> f64 {
    let table = ln_fact_table();
    if (k as usize) < table.len() {
        table[k as usize]
    } else {
        const HALF_LN_TWO_PI: f64 = 0.918_938_533_204_672_7;
        let x = to_f64(k) + 1.0;
        let inv = 1.0 / x;
        let inv2 = inv * inv;
        (x - 0.5) * x.ln() - x + HALF_LN_TWO_PI + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0))
    }
}

/// `ln C(n, k)`: log binomial coefficient.
#[inline]
fn ln_choose(n: u64, k: u64) -> f64 {
    debug_assert!(k <= n);
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Shared two-sided "chop-down from the mode" inversion.
///
/// Given the pmf value at the mode and multiplicative ratios
/// `pmf(x+1)/pmf(x)` and `pmf(x-1)/pmf(x)`, walks outward from the mode
/// accumulating probability until the uniform draw `u` is consumed. Expected
/// work is `O(σ)` of the distribution, and no pmf is ever computed far from
/// the mode, so nothing underflows even when the support is huge.
///
/// The cursors are `f64`, so a step converts no integer: the ratio closures
/// take the cursor as `f64` and combine it with operands their caller
/// converted once per draw. Every value involved is an integer below 2⁵³,
/// so each is exact in `f64` and the walk returns the same bits as one on
/// `u64` cursors.
fn chop_down_from_mode(
    mode: u64,
    pmf_mode: f64,
    support: (u64, u64),
    ratio_up: impl Fn(f64) -> f64,
    ratio_down: impl Fn(f64) -> f64,
    u: f64,
) -> u64 {
    debug_assert!((support.0..=support.1).contains(&mode));
    let (lo_s, hi_s) = (to_f64(support.0), to_f64(support.1));
    let mut acc = pmf_mode;
    if u < acc {
        return mode;
    }
    let (mut lo, mut hi) = (to_f64(mode), to_f64(mode));
    let (mut p_lo, mut p_hi) = (pmf_mode, pmf_mode);
    loop {
        let mut advanced = false;
        if hi < hi_s {
            p_hi *= ratio_up(hi);
            hi += 1.0;
            acc += p_hi;
            if u < acc {
                return to_u64(hi);
            }
            advanced = true;
        }
        if lo > lo_s {
            p_lo *= ratio_down(lo);
            lo -= 1.0;
            acc += p_lo;
            if u < acc {
                return to_u64(lo);
            }
            advanced = true;
        }
        if !advanced {
            // The walk covered the entire support and `u` still exceeded
            // the accumulated mass. The mode pmf carries a relative error
            // of up to ~1e-7 at T = 10⁷ and ~1e-6 at 10⁸ (cancellation
            // among the Stirling terms of `ln_pmf_mode`; see the test
            // `mode_pmf_error_is_a_few_ulps_of_ln_total_factorial`), so
            // the total can fall short of 1 by as much. Return the mode
            // as the highest-mass value.
            return mode;
        }
    }
}

/// Samples `Binomial(n, p)`: successes in `n` independent trials of
/// probability `p`.
///
/// Exact inversion from the mode in `O(√(n p (1-p)))` expected time; no
/// normal approximation is involved, so small counts are exactly
/// distributed — the batched simulator relies on this to never oversample a
/// state's population.
pub fn binomial(n: u64, p: f64, rng: &mut impl Rng) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    if n == 0 || p == 0.0 {
        return 0;
    }
    if p == 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    // The exactness condition of the `f64` walk: every operand below is an
    // integer no larger than `n + 1`.
    debug_assert!(n < 1 << 53);
    let (mode, ln_pmf_mode) = binomial_mode(n, p);
    let odds = p / (1.0 - p);
    let nf = to_f64(n);
    let u: f64 = rng.gen();
    chop_down_from_mode(
        mode,
        ln_pmf_mode.exp(),
        (0, n),
        |x| ((nf - x) / (x + 1.0)) * odds,
        |x| (x / (nf - x + 1.0)) / odds,
        u,
    )
}

/// The mode of `Binomial(n, p)` for `p ≤ 1/2`, and `ln pmf(mode)`.
#[inline]
fn binomial_mode(n: u64, p: f64) -> (u64, f64) {
    let mode = to_u64(to_f64(n + 1) * p).min(n);
    let ln_pmf_mode =
        ln_choose(n, mode) + to_f64(mode) * p.ln() + to_f64(n - mode) * (1.0 - p).ln();
    (mode, ln_pmf_mode)
}

/// Marked items among `s` drawn one at a time without replacement from
/// `total` items of which `marked` are marked. With `y` marked among the
/// first `i`, item `i` is marked with probability
/// `(marked − y) / (total − i)`, decided by an exact integer draw, so the
/// count is exactly hypergeometric.
#[inline]
fn count_marked_one_by_one(total: u64, s: u64, marked: u64, rng: &mut impl Rng) -> u64 {
    let mut y = 0;
    for i in 0..s {
        y += u64::from(rng.gen_range(0..total - i) < marked - y);
    }
    y
}

/// Largest smallest side `s` that [`hypergeometric`] draws item by item
/// instead of inverting the pmf from its mode.
const SEQ_MAX: u64 = 16;

/// Samples `Hypergeometric(total, successes, draws)`: the number of marked
/// items among `draws` drawn without replacement from a population of
/// `total` items of which `successes` are marked.
///
/// The draw is the top-left cell `x` of a 2×2 table with row sums
/// `(K, T−K)` = `(successes, total − successes)` and column sums
/// `(d, T−d)` = `(draws, total − draws)`, and every cell of that table is
/// itself hypergeometric in its own row and column sums. So
/// `H(T, K, d) = H(T, d, K)`; complementing the marked set turns `x` into
/// the cell `d − x ~ H(T, T−K, d)`; complementing the drawn set turns it
/// into `K − x ~ H(T, K, T−d)`. With the smallest side
/// `s = min(K, T−K, d, T−d)`, one of these cells has `s` as a margin, and
/// the sampler takes one of two exact branches:
///
/// * `s ≤ SEQ_MAX` (16): draw `s` items one at a time with integer-only
///   uniform draws (Lemire rejection, so no rounding), `O(s)` time;
/// * otherwise: inversion from the mode (chop-down), `O(σ)` expected time.
///
/// This is the workhorse of the batched simulator: every batch realizes
/// its multivariate state-count splits as iterated conditional
/// hypergeometric draws, most of them tiny.
pub fn hypergeometric(total: u64, successes: u64, draws: u64, rng: &mut impl Rng) -> u64 {
    assert!(
        successes <= total && draws <= total,
        "hypergeometric parameters out of range: total {total}, successes {successes}, draws {draws}"
    );
    // Degenerate corners short-circuit (and keep the mode formula safe).
    if draws == 0 || successes == 0 {
        return 0;
    }
    if successes == total {
        return draws;
    }
    if draws == total {
        return successes;
    }
    let (misses, undrawn) = (total - successes, total - draws);
    let s = successes.min(misses).min(draws).min(undrawn);
    if s <= SEQ_MAX {
        // Draw the `s` items of the cell's smallest margin; map back to `x`.
        return if s == draws {
            count_marked_one_by_one(total, s, successes, rng)
        } else if s == successes {
            count_marked_one_by_one(total, s, draws, rng)
        } else if s == misses {
            draws - count_marked_one_by_one(total, s, draws, rng)
        } else {
            successes - count_marked_one_by_one(total, s, successes, rng)
        };
    }
    // The exactness condition of the `f64` walk: every operand below is an
    // integer of magnitude at most `total + 1`.
    debug_assert!(total < 1 << 53);
    let (support, mode, ln_pmf_mode) = hypergeometric_mode(total, successes, draws);
    let (sf, df) = (to_f64(successes), to_f64(draws));
    // `misses − draws` as a float: negative when the drawn side outnumbers
    // the misses, which only moves the support's lower end above 0.
    let gap = to_f64(misses) - df;
    let u: f64 = rng.gen();
    chop_down_from_mode(
        mode,
        ln_pmf_mode.exp(),
        support,
        |x| ((sf - x) * (df - x)) / ((x + 1.0) * (gap + x + 1.0)),
        |x| (x * (gap + x)) / ((sf - x + 1.0) * (df - x + 1.0)),
        u,
    )
}

/// The support of `Hypergeometric(total, successes, draws)`, its mode, and
/// `ln pmf(mode)`: where [`hypergeometric`]'s chop-down walk starts.
#[inline]
fn hypergeometric_mode(total: u64, successes: u64, draws: u64) -> ((u64, u64), u64, f64) {
    let lo_s = (draws + successes).saturating_sub(total);
    let hi_s = draws.min(successes);
    let mode = to_u64(to_f64(draws + 1) * to_f64(successes + 1) / to_f64(total + 2));
    let mode = mode.clamp(lo_s, hi_s);
    let ln_pmf_mode = ln_choose(successes, mode) + ln_choose(total - successes, draws - mode)
        - ln_choose(total, draws);
    ((lo_s, hi_s), mode, ln_pmf_mode)
}

/// Samples a multinomial split with replacement: `draws` independent trials
/// over categories with (unnormalized, non-negative) `weights`, realized as
/// iterated conditional binomial draws.
pub fn multinomial_conditional(draws: u64, weights: &[f64], rng: &mut impl Rng) -> Vec<u64> {
    let mut weight_left: f64 = weights.iter().sum();
    assert!(
        weight_left > 0.0 && weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative with positive sum"
    );
    let mut draws_left = draws;
    let mut out = vec![0u64; weights.len()];
    for (i, &w) in weights.iter().enumerate() {
        if draws_left == 0 {
            break;
        }
        if i + 1 == weights.len() {
            out[i] = draws_left;
            break;
        }
        let p = (w / weight_left).clamp(0.0, 1.0);
        let x = binomial(draws_left, p, rng);
        out[i] = x;
        draws_left -= x;
        weight_left -= w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_distinct_streams() {
        let base = 42;
        let seeds: Vec<u64> = (0..100).map(|i| derive_seed(base, i)).collect();
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "streams {i} and {j} collide");
            }
        }
    }

    #[test]
    fn derive_seed_distinct_bases() {
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn splitmix_is_not_identity() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), 1);
    }

    #[test]
    fn geometric_half_mean_is_two() {
        let mut rng = rng_from_seed(7);
        let trials = 200_000;
        let sum: u64 = (0..trials).map(|_| geometric_half(&mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean} far from 2");
    }

    #[test]
    fn geometric_half_support_starts_at_one() {
        let mut rng = rng_from_seed(3);
        for _ in 0..10_000 {
            assert!(geometric_half(&mut rng) >= 1);
        }
    }

    #[test]
    fn geometric_general_matches_half() {
        let mut rng = rng_from_seed(11);
        let trials = 200_000;
        let sum: u64 = (0..trials).map(|_| geometric(0.5, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean} far from 2");
    }

    #[test]
    fn geometric_general_mean_one_over_p() {
        let mut rng = rng_from_seed(13);
        let p = 0.2;
        let trials = 200_000;
        let sum: u64 = (0..trials).map(|_| geometric(p, &mut rng)).sum();
        let mean = sum as f64 / trials as f64;
        assert!((mean - 5.0).abs() < 0.06, "mean {mean} far from 5");
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let mut rng = rng_from_seed(17);
        for _ in 0..100 {
            assert_eq!(geometric(1.0, &mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "p must be in (0, 1]")]
    fn geometric_rejects_zero_p() {
        let mut rng = rng_from_seed(19);
        geometric(0.0, &mut rng);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng_from_seed(5);
        let mut b = rng_from_seed(5);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(0.5) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        // ln 100! computed directly.
        let direct: f64 = (1..=100u64).map(|k| (k as f64).ln()).sum();
        assert!((ln_gamma(101.0) - direct).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_agrees_with_ln_gamma_across_boundary() {
        // Spot-check the table region, the Stirling region, and the seam.
        for k in [
            0u64, 1, 2, 10, 100, 4094, 4095, 4096, 4097, 100_000, 10_000_000,
        ] {
            let exact = ln_gamma(k as f64 + 1.0);
            let fast = ln_factorial(k);
            let tol = 1e-11 * exact.abs().max(1.0);
            assert!(
                (fast - exact).abs() < tol,
                "ln {k}! : fast {fast} vs ln_gamma {exact}"
            );
        }
    }

    /// Checks an empirical mean against its exact value within 3σ of the
    /// sample-mean distribution (σ_mean = sd / √trials).
    fn assert_mean_within_3_sigma(samples: &[f64], mean: f64, variance: f64, label: &str) {
        let trials = samples.len() as f64;
        let empirical = samples.iter().sum::<f64>() / trials;
        let sigma_mean = (variance / trials).sqrt();
        assert!(
            (empirical - mean).abs() < 3.0 * sigma_mean.max(1e-12),
            "{label}: empirical mean {empirical} vs expected {mean} ± {sigma_mean}"
        );
        // Variance sanity: within 20% (loose; 3σ bounds on sample variance
        // would need fourth moments).
        if variance > 0.0 {
            let emp_var = samples
                .iter()
                .map(|x| (x - empirical) * (x - empirical))
                .sum::<f64>()
                / (trials - 1.0);
            assert!(
                (emp_var - variance).abs() < 0.2 * variance,
                "{label}: empirical var {emp_var} vs expected {variance}"
            );
        }
    }

    #[test]
    fn binomial_moments() {
        let mut rng = rng_from_seed(101);
        let (n, p) = (400u64, 0.3);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| binomial(n, p, &mut rng) as f64)
            .collect();
        let mean = n as f64 * p;
        let var = n as f64 * p * (1.0 - p);
        assert_mean_within_3_sigma(&samples, mean, var, "binomial(400, 0.3)");
    }

    #[test]
    fn binomial_high_p_uses_complement() {
        let mut rng = rng_from_seed(103);
        let (n, p) = (50u64, 0.9);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| binomial(n, p, &mut rng) as f64)
            .collect();
        assert_mean_within_3_sigma(
            &samples,
            n as f64 * p,
            n as f64 * p * (1.0 - p),
            "binomial(50, 0.9)",
        );
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = rng_from_seed(105);
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        assert_eq!(binomial(10, 0.0, &mut rng), 0);
        assert_eq!(binomial(10, 1.0, &mut rng), 10);
        for _ in 0..1000 {
            assert!(binomial(5, 0.5, &mut rng) <= 5);
        }
    }

    #[test]
    fn hypergeometric_moments() {
        let mut rng = rng_from_seed(107);
        let (total, successes, draws) = (1_000_000u64, 400_000u64, 900u64);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| hypergeometric(total, successes, draws, &mut rng) as f64)
            .collect();
        let p = successes as f64 / total as f64;
        let mean = draws as f64 * p;
        let fpc = (total - draws) as f64 / (total - 1) as f64;
        let var = draws as f64 * p * (1.0 - p) * fpc;
        assert_mean_within_3_sigma(&samples, mean, var, "hypergeometric(1e6, 4e5, 900)");
    }

    #[test]
    fn hypergeometric_small_population_moments() {
        let mut rng = rng_from_seed(109);
        let (total, successes, draws) = (60u64, 25u64, 40u64);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| hypergeometric(total, successes, draws, &mut rng) as f64)
            .collect();
        let p = successes as f64 / total as f64;
        let fpc = (total - draws) as f64 / (total - 1) as f64;
        assert_mean_within_3_sigma(
            &samples,
            draws as f64 * p,
            draws as f64 * p * (1.0 - p) * fpc,
            "hypergeometric(60, 25, 40)",
        );
    }

    #[test]
    fn hypergeometric_respects_support() {
        let mut rng = rng_from_seed(111);
        // (total, successes, draws): one per small-side orientation (the
        // smallest side is draws, successes, misses, undrawn), a tie, and a
        // chop-down case. Support is [draws + successes - total,
        // min(draws, successes)].
        for (total, successes, draws) in [
            (20u64, 12u64, 5u64),
            (20, 5, 12),
            (20, 15, 10),
            (20, 12, 17),
            (40, 34, 36),
            (30, 14, 16),
            (60, 25, 40),
        ] {
            let support = (draws + successes).saturating_sub(total)..=draws.min(successes);
            for _ in 0..5_000 {
                let x = hypergeometric(total, successes, draws, &mut rng);
                assert!(
                    support.contains(&x),
                    "H({total}, {successes}, {draws}) out of support {support:?}: {x}"
                );
            }
        }
        assert_eq!(hypergeometric(10, 10, 4, &mut rng), 4);
        assert_eq!(hypergeometric(10, 4, 10, &mut rng), 4);
        assert_eq!(hypergeometric(10, 0, 5, &mut rng), 0);
        assert_eq!(hypergeometric(10, 5, 0, &mut rng), 0);
    }

    /// Draws `Hypergeometric(total, successes, draws)` 100,000 times from
    /// `seed` and checks the counts against the exact pmf with Pearson's
    /// chi-square test at significance 1e-4. The pmf comes from
    /// [`ln_gamma`], independently of the sampler's `ln k!` table; bins
    /// are pooled left to right until each expects at least 5 draws.
    fn assert_matches_exact_pmf(total: u64, successes: u64, draws: u64, seed: u64) {
        const TRIALS: u64 = 100_000;
        let ln_choose_exact = |n: u64, k: u64| {
            ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
        };
        let lo = (draws + successes).saturating_sub(total);
        let hi = draws.min(successes);
        let mut observed = vec![0u64; (hi - lo + 1) as usize];
        let mut rng = rng_from_seed(seed);
        for _ in 0..TRIALS {
            let x = hypergeometric(total, successes, draws, &mut rng);
            assert!((lo..=hi).contains(&x), "out of support: {x}");
            observed[(x - lo) as usize] += 1;
        }
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let (mut expected, mut seen) = (0.0, 0.0);
        for (x, &count) in (lo..=hi).zip(&observed) {
            let ln_pmf = ln_choose_exact(successes, x)
                + ln_choose_exact(total - successes, draws - x)
                - ln_choose_exact(total, draws);
            expected += ln_pmf.exp() * TRIALS as f64;
            seen += count as f64;
            if expected >= 5.0 {
                bins.push((expected, seen));
                (expected, seen) = (0.0, 0.0);
            }
        }
        let last = bins.last_mut().expect("support expects at least 5 draws");
        last.0 += expected;
        last.1 += seen;
        assert!(bins.len() >= 2, "H({total}, {successes}, {draws}): one bin");
        let chi2: f64 = bins.iter().map(|&(e, o)| (o - e) * (o - e) / e).sum();
        // Upper 1e-4 quantile of chi-square(dof), Wilson–Hilferty.
        let dof = (bins.len() - 1) as f64;
        let z = 3.719;
        let h = 2.0 / (9.0 * dof);
        let critical = dof * (1.0 - h + z * h.sqrt()).powi(3);
        assert!(
            chi2 < critical,
            "H({total}, {successes}, {draws}): chi-square {chi2:.1} ≥ {critical:.1} ({dof} dof)"
        );
    }

    #[test]
    fn hypergeometric_small_side_matches_exact_pmf_in_every_orientation() {
        // The smallest side s is draws, successes, misses, undrawn.
        assert_matches_exact_pmf(1_000, 400, 10, 201);
        assert_matches_exact_pmf(1_000, 7, 300, 202);
        assert_matches_exact_pmf(1_000, 990, 300, 203);
        assert_matches_exact_pmf(1_000, 300, 988, 204);
        // Small populations, where sampling without replacement matters
        // most, and a tie between successes and undrawn.
        assert_matches_exact_pmf(40, 25, 30, 205);
        assert_matches_exact_pmf(30, 14, 16, 206);
    }

    #[test]
    fn hypergeometric_matches_exact_pmf_across_the_branch_seam() {
        assert_eq!(SEQ_MAX, 16);
        // s = SEQ_MAX is drawn item by item; s = SEQ_MAX + 1 by chop-down.
        assert_matches_exact_pmf(1_000, 400, 16, 207);
        assert_matches_exact_pmf(1_000, 400, 17, 208);
    }

    #[test]
    fn hypergeometric_chop_down_matches_exact_pmf() {
        assert_matches_exact_pmf(10_000, 4_000, 900, 209);
    }

    #[test]
    fn signed_conversions_match_unsigned_ones() {
        for k in [
            0u64,
            1,
            4_095,
            10_000_001,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 62) + 12_345,
            i64::MAX as u64,
        ] {
            assert_eq!(to_f64(k).to_bits(), (k as f64).to_bits(), "to_f64({k})");
        }
        for x in [
            0.0,
            0.5,
            1.0,
            16.99,
            2_000.0,
            9_007_199_254_740_991.0,
            9.1e18,
        ] {
            assert_eq!(to_u64(x), x as u64, "to_u64({x})");
        }
    }

    /// The chop-down walk on `u64` cursors, with ratio closures that
    /// convert their operands at every step: the reference that
    /// [`chop_down_from_mode`] must match bit for bit.
    fn chop_down_u64_reference(
        mode: u64,
        pmf_mode: f64,
        (lo_s, hi_s): (u64, u64),
        ratio_up: impl Fn(u64) -> f64,
        ratio_down: impl Fn(u64) -> f64,
        u: f64,
    ) -> u64 {
        let mut acc = pmf_mode;
        if u < acc {
            return mode;
        }
        let (mut lo, mut hi) = (mode, mode);
        let (mut p_lo, mut p_hi) = (pmf_mode, pmf_mode);
        loop {
            let mut advanced = false;
            if hi < hi_s {
                p_hi *= ratio_up(hi);
                hi += 1;
                acc += p_hi;
                if u < acc {
                    return hi;
                }
                advanced = true;
            }
            if lo > lo_s {
                p_lo *= ratio_down(lo);
                lo -= 1;
                acc += p_lo;
                if u < acc {
                    return lo;
                }
                advanced = true;
            }
            if !advanced {
                return mode;
            }
        }
    }

    /// [`hypergeometric`] with its chop-down branch on the `u64` reference
    /// walk; every other branch is delegated unchanged.
    fn hypergeometric_reference(total: u64, successes: u64, draws: u64, rng: &mut SimRng) -> u64 {
        let s = successes
            .min(total - successes)
            .min(draws)
            .min(total - draws);
        if s <= SEQ_MAX {
            return hypergeometric(total, successes, draws, rng);
        }
        let misses = total - successes;
        let (support, mode, ln_pmf_mode) = hypergeometric_mode(total, successes, draws);
        let u: f64 = rng.gen();
        chop_down_u64_reference(
            mode,
            ln_pmf_mode.exp(),
            support,
            |x| {
                ((successes - x) as f64 * (draws - x) as f64)
                    / ((x + 1) as f64 * (misses + x + 1 - draws) as f64)
            },
            |x| {
                (x as f64 * (misses + x - draws) as f64)
                    / ((successes - x + 1) as f64 * (draws - x + 1) as f64)
            },
            u,
        )
    }

    /// [`binomial`] on the `u64` reference walk.
    fn binomial_reference(n: u64, p: f64, rng: &mut SimRng) -> u64 {
        if n == 0 || p == 0.0 {
            return 0;
        }
        if p == 1.0 {
            return n;
        }
        if p > 0.5 {
            return n - binomial_reference(n, 1.0 - p, rng);
        }
        let (mode, ln_pmf_mode) = binomial_mode(n, p);
        let odds = p / (1.0 - p);
        let u: f64 = rng.gen();
        chop_down_u64_reference(
            mode,
            ln_pmf_mode.exp(),
            (0, n),
            |x| ((n - x) as f64 / (x + 1) as f64) * odds,
            |x| (x as f64 / (n - x + 1) as f64) / odds,
            u,
        )
    }

    /// Draws `DRAWS` values from `sampler` and from `reference`, each on
    /// its own copy of the stream of `seed`, and requires them equal draw
    /// for draw.
    fn assert_same_draws(
        label: &str,
        seed: u64,
        sampler: impl Fn(&mut SimRng) -> u64,
        reference: impl Fn(&mut SimRng) -> u64,
    ) {
        const DRAWS: usize = 2_000;
        let (mut rng, mut ref_rng) = (rng_from_seed(seed), rng_from_seed(seed));
        for i in 0..DRAWS {
            let (got, want) = (sampler(&mut rng), reference(&mut ref_rng));
            assert_eq!(got, want, "{label}: draw {i} of seed {seed} differs");
        }
    }

    #[test]
    fn f64_walk_draws_what_the_u64_walk_draws() {
        let mut shapes: Vec<(u64, u64, u64)> = vec![
            // The `SEQ_MAX` seam, in each orientation of the smallest side.
            (1_000, 400, SEQ_MAX),
            (1_000, 400, SEQ_MAX + 1),
            (1_000, SEQ_MAX + 1, 400),
            (1_000, 1_000 - SEQ_MAX - 1, 400),
            (1_000, 400, 1_000 - SEQ_MAX - 1),
            // Fill shapes, `T ≤ 4096`: the drawn side outnumbering the
            // misses puts the support's lower end above 0.
            (2_000, 90, 1_000),
            (626, 313, 300),
            (4_096, 2_048, 2_048),
            (300, 250, 200),
            (60, 25, 40),
        ];
        // Population shapes: `d ≈ 2000` agents from `T = 10⁷` and `10⁸`.
        for total in [10_000_000u64, 100_000_000] {
            for successes in [17, 1_000, 45_000, 1_000_000, total / 2] {
                for draws in [1_999, 2_000, 2_001] {
                    shapes.push((total, successes, draws));
                }
            }
        }
        for (i, &(total, successes, draws)) in shapes.iter().enumerate() {
            assert_same_draws(
                &format!("hypergeometric({total}, {successes}, {draws})"),
                300 + i as u64,
                |rng| hypergeometric(total, successes, draws, rng),
                |rng| hypergeometric_reference(total, successes, draws, rng),
            );
        }
        for (i, n) in [17u64, 1_000, 100_000, 1_000_000].into_iter().enumerate() {
            for (j, p) in [0.001, 0.3, 0.5, 0.7, 0.999].into_iter().enumerate() {
                assert_same_draws(
                    &format!("binomial({n}, {p})"),
                    400 + (10 * i + j) as u64,
                    |rng| binomial(n, p, rng),
                    |rng| binomial_reference(n, p, rng),
                );
            }
        }
    }

    /// `ln pmf(x)` of `Hypergeometric(total, successes, draws)` as a
    /// compensated (Neumaier) sum of logarithms of ratios near 1 in size:
    /// `pmf(x) = Π_{j<x} (K−j)/(T−j) · Π_{j<d−x} (T−K−j)/(T−x−j) · C(d, x)`,
    /// with `C(d, x) = Π_{j<x} (d−j)/(x−j)`. No term is large, so nothing
    /// cancels; the error is a few ulps of the result per term.
    fn ln_pmf_reference(total: u64, successes: u64, draws: u64, x: u64) -> f64 {
        let ln_ratio = |a: u64, b: u64| (a as f64 / b as f64).ln();
        let terms = (0..x)
            .map(|j| ln_ratio(successes - j, total - j) + ln_ratio(draws - j, x - j))
            .chain((0..draws - x).map(|j| ln_ratio(total - successes - j, total - x - j)));
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for t in terms {
            let next = sum + t;
            carry += if sum.abs() >= t.abs() {
                (sum - next) + t
            } else {
                (t - next) + sum
            };
            sum = next;
        }
        sum + carry
    }

    #[test]
    fn mode_pmf_error_is_a_few_ulps_of_ln_total_factorial() {
        // `ln_pmf_mode` sums six Stirling terms of size up to `ln T!`
        // (1.5e8 at T = 10⁷, 1.7e9 at 10⁸) whose rounding errors survive
        // the cancellation. Each bound is ~4 ulps of `ln T!`: 1e-7 at
        // T = 10⁷ and 1e-6 at 10⁸, where one ulp is already 2.4e-7.
        for (total, bound) in [(10_000_000u64, 1e-7), (100_000_000, 1e-6)] {
            for successes in [17, 1_000, 45_000, 1_000_000, total / 2] {
                for draws in [1_999, 2_000, 2_001] {
                    let (_, mode, ln_pmf_mode) = hypergeometric_mode(total, successes, draws);
                    let reference = ln_pmf_reference(total, successes, draws, mode);
                    let error = (ln_pmf_mode - reference).abs();
                    assert!(
                        error < bound,
                        "H({total}, {successes}, {draws}): ln pmf(mode) {ln_pmf_mode} is \
                         {error:.2e} from the reference {reference}"
                    );
                }
            }
        }
    }

    #[test]
    fn multinomial_conditional_is_conserving_and_unbiased() {
        let mut rng = rng_from_seed(115);
        let weights = [2.0f64, 5.0, 3.0];
        let draws = 120u64;
        let trials = 20_000;
        let mut sums = [0f64; 3];
        for _ in 0..trials {
            let split = multinomial_conditional(draws, &weights, &mut rng);
            assert_eq!(split.iter().sum::<u64>(), draws);
            for (i, &x) in split.iter().enumerate() {
                sums[i] += x as f64;
            }
        }
        let wsum: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let mean = sums[i] / trials as f64;
            let p = w / wsum;
            let expect = draws as f64 * p;
            let sigma_mean = (draws as f64 * p * (1.0 - p) / trials as f64).sqrt();
            assert!(
                (mean - expect).abs() < 3.0 * sigma_mean,
                "class {i}: mean {mean} vs {expect} ± {sigma_mean}"
            );
        }
    }

    #[test]
    fn samplers_are_deterministic_given_seed() {
        let run = |seed| {
            let mut rng = rng_from_seed(seed);
            (
                binomial(1000, 0.25, &mut rng),
                hypergeometric(10_000, 3_000, 500, &mut rng),
                hypergeometric(10_000, 3_000, 5, &mut rng),
            )
        };
        assert_eq!(run(9), run(9));
    }
}
