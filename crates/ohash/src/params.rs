//! Bucket-size derivation for the two-tier table.
//!
//! Given `n` batch entries and security parameter `λ`, choose:
//!
//! * `m1` tier-1 buckets of size `z1` — small buckets, *non*-negligible
//!   per-bucket overflow (overflow spills to tier 2);
//! * `n2_cap` — a cap on total tier-1 overflow such that
//!   `P[overflow > n2_cap] ≤ 2^-λ`. Overflow indicators for balls-into-bins
//!   are negatively associated, so the Chernoff bound applies with mean
//!   `n · q` where `q = P[Binomial(n−1, 1/m1) ≥ z1]` (the probability a given
//!   item lands in a bucket already holding `z1` others);
//! * `m2` tier-2 buckets of size `z2`, sized with the paper's Theorem 3 bound
//!   so that tier-2 overflow is itself negligible.
//!
//! **Which certified table.** Every candidate the search visits carries both
//! certificates, so the choice among them is a pure cost question. A batch
//! pays for its table twice: once to build it (per tier, a bitonic sort
//! and a compaction of its rows — the `n` batch rows, then the `n2_cap`
//! spill rows — and an expansion into its slots; then one compaction to
//! extract the batch) and once in the scan, where each of the partition's `objects`
//! probes `z1 + z2` slots. [`TableParams::derive`] returns the candidate
//! with the least predicted work:
//!
//! ```text
//! NS_PER_SORT_EXCHANGE · Σ sort exchanges
//!   + NS_PER_SWAP · Σ compaction and expansion swaps
//!   + NS_PER_SCAN_SLOT · objects · (z1 + z2)
//! ```
//!
//! The exchange and swap counts are exact for `snoopy-obliv`'s networks at
//! the table's public lengths. The three constants were measured once with
//! 160-byte values (see their docs) and are fixed here, with no runtime
//! calibration, so the choice is a function of the public `(n, objects, λ)`
//! only. No sort runs over filler slots, so a slot of either tier costs
//! only its share of two `O(T log T)` networks (placement and extraction):
//! when the partition is much larger than the batch the choice moves toward
//! the lookup-minimal table, and when it is not, a small tier 2 still wins.

use snoopy_binning::{batch_size, binomial_tail, chernoff_ln_tail};

/// Nanoseconds per compare-exchange of two table slots in a construction
/// sort: `osort_by` over slot-shaped elements (two `u64`s and a `Request`
/// with a 160-byte value, compared by two keys) at 10^3–1.6·10^4 elements,
/// release build, on a 2-core x86-64 box (23–27 ns).
const NS_PER_SORT_EXCHANGE: f64 = 24.0;
/// Nanoseconds per conditional swap of the build's compactions and
/// expansions and the extraction's compaction, measured in place: the
/// whole build plus extraction, less its sorts at the constant above, per
/// swap, over 27 certified tables at n = 256–2 683 (best of 21 builds
/// each; the median table read 23–25 ns in five runs, and `ocompact` and
/// `oexpand` alone run at 21–26 ns). Set above that median because the
/// per-slot passes — filler values, the value slab, extraction's copies —
/// grow with the slot count, not with the swap count, so the median
/// underprices the largest tables: at 30 ns every pick that moved is
/// measured no slower than the one it replaced (DESIGN §6.3); at 24 ns
/// batch_mem's n = 1 507 pick moved to a table that was not faster.
const NS_PER_SWAP: f64 = 30.0;
/// Nanoseconds per slot an object probes in the scan: the slope of
/// [`crate::OHashTable::access`] time over `z1 + z2` = 18–70 at 160-byte
/// values and 2^14 objects, same box (12–13.5 ns).
const NS_PER_SCAN_SLOT: f64 = 13.0;

/// Tier-1 bucket sizes the search tries.
const Z1_CHOICES: [usize; 7] = [4, 6, 8, 12, 16, 24, 32];
/// Tier-1 load factors the search tries: `m1·z1 ≈ f·n` slots.
const LOAD_FACTORS: [usize; 4] = [1, 2, 4, 8];
/// Tier-2 memory cap, in slots per batch entry.
const TIER2_SLOTS_PER_ENTRY: usize = 8;

/// Derived two-tier table parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableParams {
    /// Batch size the table is built for.
    pub n: usize,
    /// Tier-1 bucket count.
    pub m1: usize,
    /// Tier-1 bucket size.
    pub z1: usize,
    /// Public cap on tier-1 overflow (tier-2 input size).
    pub n2_cap: usize,
    /// Tier-2 bucket count.
    pub m2: usize,
    /// Tier-2 bucket size.
    pub z2: usize,
    /// Security parameter.
    pub lambda: u32,
}

impl TableParams {
    /// Total entries in the table (tier 1 + tier 2).
    pub fn total_slots(&self) -> usize {
        self.m1 * self.z1 + self.m2 * self.z2
    }

    /// Entries scanned per lookup.
    pub fn lookup_cost(&self) -> usize {
        self.z1 + self.z2
    }

    /// Derives parameters for a batch of `n` distinct entries that a
    /// partition of `objects` stored objects will be scanned against, at
    /// security level `lambda`: the certified table with the least
    /// predicted build + scan + extract time. Both sizes are public. Panics
    /// if `n == 0`.
    pub fn derive(n: usize, objects: usize, lambda: u32) -> TableParams {
        candidates(n, lambda)
            .into_iter()
            .map(|p| (p.predicted_ns(objects), p))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("parameter search must succeed")
            .1
    }

    /// Predicted nanoseconds one batch spends in this table when a
    /// partition of `objects` objects is scanned against it: construction,
    /// the scan's `objects · (z1 + z2)` slot probes, and extraction.
    fn predicted_ns(&self, objects: usize) -> f64 {
        let (n, t1, cap, t2) = (self.n, self.m1 * self.z1, self.n2_cap, self.m2 * self.z2);
        // Each tier sorts its rows, compacts the placed ones and expands
        // them into its slots: the n batch rows into t1, the cap spill rows
        // into t2. Extraction compacts the whole table.
        let sorts = sort_exchanges(n) + sort_exchanges(cap);
        let swaps = compact_swaps(n)
            + expand_swaps(t1)
            + compact_swaps(cap)
            + expand_swaps(t2)
            + compact_swaps(t1 + t2);
        NS_PER_SORT_EXCHANGE * sorts as f64
            + NS_PER_SWAP * swaps as f64
            + NS_PER_SCAN_SLOT * (objects as f64) * self.lookup_cost() as f64
    }
}

/// Every certified two-tier table for `n` entries at level `lambda`, in a
/// fixed order: each meets the Chernoff `2^-λ` overflow cap and sizes tier 2
/// with Theorem 3 within `8n` slots. Batches of at most 32 entries get one
/// bucket holding everything, which is both cheapest and trivially safe.
fn candidates(n: usize, lambda: u32) -> Vec<TableParams> {
    assert!(n > 0, "cannot build a table for an empty batch");
    if n <= 32 {
        return vec![TableParams { n, m1: 1, z1: n, n2_cap: 1, m2: 1, z2: 1, lambda }];
    }
    let tier2_cap = TIER2_SLOTS_PER_ENTRY * n;
    let mut out = Vec::new();
    for z1 in Z1_CHOICES {
        if z1 >= n {
            continue;
        }
        for f in LOAD_FACTORS {
            // Expected bucket load z1 / f.
            let m1 = (f * n).div_ceil(z1).next_power_of_two();
            let n2_cap = overflow_cap(n, m1, z1, lambda);
            if n2_cap == 0 || n2_cap >= n {
                continue;
            }
            let mut m2 = 1usize;
            while m2 <= tier2_cap.next_power_of_two() {
                let z2 = batch_size(n2_cap as u64, m2 as u64, lambda) as usize;
                if m2 * z2 <= tier2_cap {
                    out.push(TableParams { n, m1, z1, n2_cap, m2, z2, lambda });
                }
                m2 *= 2;
            }
        }
    }
    out
}

/// Smallest cap `k` with `P[total tier-1 overflow > k] ≤ 2^-λ`, via the
/// Chernoff certificate over mean `n·q`. Returns 0 if no cap below `n` works.
fn overflow_cap(n: usize, m1: usize, z1: usize, lambda: u32) -> usize {
    let q = binomial_tail(n as u64 - 1, 1.0 / m1 as f64, z1 as u64);
    let mu = n as f64 * q;
    let threshold = -(lambda as f64) * std::f64::consts::LN_2;
    // Exponential-then-binary search for the smallest adequate k.
    let ok = |k: usize| chernoff_ln_tail(mu, k as f64) <= threshold;
    let mut hi = 1usize;
    while hi < n && !ok(hi) {
        hi *= 2;
    }
    if !ok(hi) {
        return 0;
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if ok(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Largest power of two strictly below `n` (`n ≥ 2`): the split point of
/// both the bitonic merge and the compaction network.
fn pow2_below(n: usize) -> usize {
    1 << (usize::BITS - 1 - (n - 1).leading_zeros())
}

/// Compare-exchanges of `snoopy_obliv::sort::osort_by` on `n` elements.
fn sort_exchanges(n: usize) -> u64 {
    /// `(S(k), S(k + 1))`: both halves of `k` and of `k + 1` lie in
    /// `{⌊k/2⌋, ⌊k/2⌋ + 1}`, so one pair per level suffices.
    fn pair(k: usize) -> (u64, u64) {
        if k == 0 {
            return (0, 0);
        }
        let (a, b) = pair(k / 2);
        if k.is_multiple_of(2) {
            (2 * a + merge_exchanges(k), a + b + merge_exchanges(k + 1))
        } else {
            (a + b + merge_exchanges(k), 2 * b + merge_exchanges(k + 1))
        }
    }
    pair(n).0
}

/// Compare-exchanges of the bitonic merge of `n` elements.
fn merge_exchanges(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let m = pow2_below(n);
    // A power-of-two merge is (m/2)·log2(m) exchanges.
    (n - m) as u64 + (m / 2) as u64 * u64::from(m.trailing_zeros()) + merge_exchanges(n - m)
}

/// Conditional swaps of `snoopy_obliv::expand::oexpand` on `n` elements:
/// `Σ (n − 2^j)` over its `⌈log2 n⌉` levels.
fn expand_swaps(n: usize) -> u64 {
    let levels = if n < 2 { 0 } else { usize::BITS - (n - 1).leading_zeros() };
    u64::from(levels) * n as u64 - ((1u64 << levels) - 1)
}

/// Conditional swaps of `snoopy_obliv::compact::ocompact` on `n` elements.
fn compact_swaps(n: usize) -> u64 {
    if n < 2 {
        return 0;
    }
    let n2 = pow2_below(n);
    let n1 = n - n2;
    // The power-of-two off-center half is (n2/2)·log2(n2) swaps.
    n1 as u64 + compact_swaps(n1) + (n2 / 2) as u64 * u64::from(n2.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snoopy_obliv::ct::Choice;
    use snoopy_obliv::trace;

    /// The paper's regime: the partition is many times the batch (§8).
    fn paper_objects(n: usize) -> usize {
        16 * n
    }

    /// The table that minimises `z1 + z2` (then slots) at tier-1 load
    /// factor 2 — the choice before the cost model.
    fn lookup_minimal(n: usize) -> TableParams {
        let by_lookup = |p: &&TableParams| (p.lookup_cost(), p.total_slots());
        let all = candidates(n, 128);
        let half_loaded = all.iter().filter(|p| p.m1 == (2 * n).div_ceil(p.z1).next_power_of_two());
        *half_loaded.min_by_key(by_lookup).unwrap()
    }

    /// Does `p` meet the Chernoff certificate on the tier-1 overflow cap?
    fn cap_certified(p: &TableParams) -> bool {
        let q = binomial_tail(p.n as u64 - 1, 1.0 / p.m1 as f64, p.z1 as u64);
        let lnp = chernoff_ln_tail(p.n as f64 * q, p.n2_cap as f64);
        lnp <= -(p.lambda as f64) * std::f64::consts::LN_2 + 1e-6
    }

    #[test]
    fn derives_for_paper_batch_size() {
        let p = TableParams::derive(4096, paper_objects(4096), 128);
        assert_eq!(p.n, 4096);
        assert!(p.m1.is_power_of_two());
        assert!(p.z1 * p.m1 >= p.n, "tier 1 must be able to hold the bulk");
        assert!(p.n2_cap < p.n, "overflow cap must be a small fraction of n");
        assert!(p.z2 > 0 && p.m2 > 0);
        // The whole point: lookups scan far fewer entries than the batch.
        assert!(p.lookup_cost() < p.n / 10, "lookup cost {}", p.lookup_cost());
    }

    #[test]
    fn two_tier_beats_single_tier_lookup_cost() {
        // Single-tier comparison: buckets sized for negligible overflow
        // directly. Minimize over bucket counts as a fair baseline.
        for n in [1 << 12, 1 << 14, 1 << 16] {
            let p = TableParams::derive(n, paper_objects(n), 128);
            let mut single_best = usize::MAX;
            let mut m = 1usize;
            while m <= 4 * n {
                let z = batch_size(n as u64, m as u64, 128) as usize;
                if m * z <= 8 * n {
                    single_best = single_best.min(z);
                }
                m *= 2;
            }
            assert!(
                p.lookup_cost() <= single_best,
                "n={n}: two-tier {} vs single-tier {}",
                p.lookup_cost(),
                single_best
            );
        }
    }

    #[test]
    fn small_batches_degenerate_to_one_bucket() {
        for n in [1usize, 2, 16, 32] {
            for objects in [0, 1, n, 1 << 20] {
                let p = TableParams::derive(n, objects, 128);
                assert_eq!(p.m1, 1);
                assert_eq!(p.z1, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn zero_panics() {
        TableParams::derive(0, 1, 128);
    }

    #[test]
    fn overflow_cap_monotone_in_lambda() {
        let c80 = overflow_cap(4096, 1024, 8, 80);
        let c128 = overflow_cap(4096, 1024, 8, 128);
        assert!(c128 >= c80);
        assert!(c80 > 0);
    }

    #[test]
    fn certificate_holds_at_derived_params() {
        let p = TableParams::derive(4096, paper_objects(4096), 128);
        assert!(cap_certified(&p), "{p:?}");
    }

    #[test]
    fn total_slots_and_lookup_cost_consistent() {
        let p = TableParams::derive(1000, 1000, 128);
        assert_eq!(p.total_slots(), p.m1 * p.z1 + p.m2 * p.z2);
        assert_eq!(p.lookup_cost(), p.z1 + p.z2);
    }

    #[test]
    fn network_counts_match_the_kernels() {
        // Each compare-exchange and each compaction swap records one touch
        // per element it moves (a swap: one), after one phase marker.
        for n in [0usize, 1, 2, 3, 5, 8, 33, 100, 257, 1000] {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            let (_, t) = trace::capture(|| snoopy_obliv::sort::osort(&mut v));
            assert_eq!(t.len() as u64, 1 + 2 * sort_exchanges(n), "sort n={n}");
            let mut keep: Vec<Choice> = (0..n).map(|i| Choice::from_bool(i % 3 == 0)).collect();
            let (_, t) = trace::capture(|| snoopy_obliv::compact::ocompact(&mut v, &mut keep));
            assert_eq!(t.len() as u64, 1 + compact_swaps(n), "compact n={n}");
            let targets: Vec<u64> = (0..n as u64).collect();
            let (_, t) =
                trace::capture(|| snoopy_obliv::expand::oexpand(&mut v, &targets, &mut keep));
            assert_eq!(t.len() as u64, 1 + expand_swaps(n), "expand n={n}");
        }
    }

    #[test]
    fn benchmark_shapes_pick_small_tier2_tables() {
        // batch_mem's per-subORAM shape: R ≈ 2 090 requests make batches of
        // n = 1 507 against 2 048 objects. The lookup-minimal table spends
        // 10 240 tier-2 slots on an overflow cap of 31 entries.
        let before = lookup_minimal(1507);
        assert_eq!(
            (before.m1, before.z1, before.n2_cap, before.m2, before.z2),
            (256, 16, 31, 512, 20)
        );
        let p = TableParams::derive(1507, 2048, 128);
        assert_eq!((p.m1, p.z1, p.n2_cap, p.m2, p.z2), (128, 24, 40, 1, 40));
        assert_eq!((before.total_slots(), p.total_slots()), (14_336, 3_112));
        assert!(p.predicted_ns(2048) < before.predicted_ns(2048) / 2.0);
    }

    proptest! {
        #[test]
        fn derivation_is_certified_deterministic_and_cost_aware(
            n in 33usize..8193,
            exp in 0u32..21,
            mantissa in any::<u64>(),
        ) {
            // Objects log-uniform over 1..=2^20, so partitions both near
            // and far above the batch size come up.
            let objects = ((1usize << exp) | (mantissa as usize & ((1 << exp) - 1))).min(1 << 20);
            let p = TableParams::derive(n, objects, 128);
            prop_assert_eq!(p.n, n);
            prop_assert!(cap_certified(&p), "Chernoff cap fails: {:?}", p);
            prop_assert_eq!(p.z2, batch_size(p.n2_cap as u64, p.m2 as u64, 128) as usize);
            prop_assert!(p.m1.is_power_of_two());
            prop_assert!(p.m2 * p.z2 <= 8 * n, "tier 2 over its cap: {:?}", p);
            prop_assert!(p.n2_cap < n);
            prop_assert_eq!(TableParams::derive(n, objects, 128), p);
            if objects <= 2 * n {
                // A partition at most twice the batch never pays for a
                // table many times the batch.
                prop_assert!(p.total_slots() <= 4 * n, "{} slots for n={}: {:?}", p.total_slots(), n, p);
            }
            if objects >= 64 * n {
                // A partition much bigger than the batch weights the scan:
                // lookups stay within a third of the lookup-minimal table
                // (the worst case over every n in range is 1.28×, at 64n).
                let min = lookup_minimal(n).lookup_cost();
                prop_assert!(
                    3 * p.lookup_cost() <= 4 * min,
                    "lookup {} vs minimal {} at n={} objects={}", p.lookup_cost(), min, n, objects
                );
            }
        }
    }
}
