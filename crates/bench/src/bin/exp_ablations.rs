//! Ablations of the design choices DESIGN.md calls out, measured on the real
//! implementations:
//!
//! 1. **Compaction**: Goodrich-style `O(n log n)` vs. the sort-based
//!    `O(n log² n)` fallback (§4.2.1's choice).
//! 2. **Hash table**: two-tier vs. single-tier — construction time and
//!    per-lookup scan width (§5's central argument).
//! 3. **Sorting network**: bitonic vs. Batcher's odd-even merge.
//! 4. **SubORAM storage**: in-enclave vs. AEAD-sealed external (the §7
//!    integrity/streaming tax), each the median of 5 warm batches.

use snoopy_bench::{fmt, print_table, time_ms, write_csv};
use snoopy_crypto::Key256;
use snoopy_enclave::wire::{Request, StoredObject};
use snoopy_obliv::compact::{ocompact, ocompact_by_sort};
use snoopy_obliv::ct::{ct_lt_u64, Choice, Cmov};
use snoopy_obliv::sort::osort;
use snoopy_obliv::trace::{self, Region, TraceEvent};
use snoopy_ohash::single::SingleTierTable;
use snoopy_ohash::{OHashTable, TableParams};
use snoopy_suboram::SubOram;

fn main() {
    compaction();
    hash_tables();
    sorting_networks();
    storage_backends();
}

fn compaction() {
    let mut rows = Vec::new();
    for pow in [10u32, 12, 14, 16] {
        let n = 1usize << pow;
        let data: Vec<u64> = (0..n as u64).collect();
        let keep: Vec<Choice> = (0..n).map(|i| Choice::from_bool(i % 3 != 0)).collect();
        let (_, goodrich) = time_ms(|| {
            let mut v = data.clone();
            let mut k = keep.clone();
            ocompact(&mut v, &mut k);
            v
        });
        let (_, sorty) = time_ms(|| {
            let mut v = data.clone();
            let mut k = keep.clone();
            ocompact_by_sort(&mut v, &mut k);
            v
        });
        rows.push(vec![n.to_string(), fmt(goodrich), fmt(sorty), fmt(sorty / goodrich)]);
    }
    print_table(
        "Ablation 1: oblivious compaction — Goodrich O(n log n) vs sort-based O(n log² n)",
        &["n", "goodrich (ms)", "sort-based (ms)", "ratio"],
        &rows,
    );
    write_csv("exp_ablation_compaction", &["n", "goodrich_ms", "sort_ms", "ratio"], &rows);
}

fn hash_tables() {
    let key = Key256([3u8; 32]);
    let mut rows = Vec::new();
    for pow in [10u32, 12, 14] {
        let n = 1usize << pow;
        let batch: Vec<Request> = (0..n as u64).map(|i| Request::read(i * 3, 160, 0, i)).collect();
        // The two-tier table sized for the paper's regime: a partition of
        // 16 objects per batch entry.
        let params = TableParams::derive(n, 16 * n, 128);
        let (_, two_ms) =
            time_ms(|| OHashTable::construct_with_params(batch.clone(), &key, params).unwrap());
        let (one, one_ms) =
            time_ms(|| SingleTierTable::construct(batch.clone(), &key, 128).unwrap());
        let two_cost = params.lookup_cost();
        rows.push(vec![
            n.to_string(),
            fmt(two_ms),
            fmt(one_ms),
            two_cost.to_string(),
            one.bucket_size().to_string(),
        ]);
    }
    print_table(
        "Ablation 2: two-tier vs single-tier oblivious hash table (§5), 16 objects per entry",
        &[
            "batch",
            "2-tier build (ms)",
            "1-tier build (ms)",
            "2-tier lookup slots",
            "1-tier lookup slots",
        ],
        &rows,
    );
    write_csv(
        "exp_ablation_hash_tables",
        &["batch", "two_build_ms", "one_build_ms", "two_lookup", "one_lookup"],
        &rows,
    );
}

fn sorting_networks() {
    let mut rows = Vec::new();
    for pow in [10u32, 13, 16] {
        let n = 1usize << pow;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
        let (_, bitonic) = time_ms(|| {
            let mut v = data.clone();
            osort(&mut v);
            v
        });
        let (_, odd_even) = time_ms(|| {
            let mut v = data.clone();
            osort_odd_even_u64(&mut v);
            v
        });
        rows.push(vec![n.to_string(), fmt(bitonic), fmt(odd_even)]);
    }
    print_table(
        "Ablation 3: bitonic vs odd-even merge sorting networks (u64 keys)",
        &["n", "bitonic (ms)", "odd-even (ms)"],
        &rows,
    );
    write_csv("exp_ablation_sorts", &["n", "bitonic_ms", "odd_even_ms"], &rows);
}

fn storage_backends() {
    let key = Key256([9u8; 32]);
    let mut rows = Vec::new();
    for pow in [12u32, 14] {
        let n = 1u64 << pow;
        let objects: Vec<StoredObject> =
            (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), 160)).collect();
        let batch: Vec<Request> = (0..256u64).map(|i| Request::read(i * 7, 160, 0, i)).collect();
        let mut inenc = SubOram::new_in_enclave(objects.clone(), 160, key.clone(), 128);
        let in_ms = warm_median_ms(|| inenc.batch_access(batch.clone()).unwrap());
        let mut ext = SubOram::new_external(objects, 160, key.clone(), 128);
        let ext_ms = warm_median_ms(|| ext.batch_access(batch.clone()).unwrap());
        rows.push(vec![n.to_string(), fmt(in_ms), fmt(ext_ms), fmt(ext_ms / in_ms)]);
    }
    print_table(
        "Ablation 4: subORAM storage — in-enclave vs AEAD-sealed external (batch 256)",
        &["objects", "in-enclave (ms)", "sealed external (ms)", "integrity tax"],
        &rows,
    );
    write_csv("exp_ablation_storage", &["objects", "in_ms", "ext_ms", "ratio"], &rows);
}

/// Median of 5 timed calls of `f`, after one untimed warm-up call.
fn warm_median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    f();
    let mut runs: Vec<f64> = (0..5).map(|_| time_ms(&mut f).1).collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
}

/// Batcher's odd-even merge sort on `u64`s: the other `O(n log² n)`
/// network, the ablation's point of comparison for bitonic. It runs the
/// power-of-two network of the next size up and skips every comparator
/// whose upper index falls outside the array (out-of-range elements behave
/// as +infinity, which never move), so the pattern depends only on `n`.
fn osort_odd_even_u64(items: &mut [u64]) {
    trace::record(TraceEvent::Phase(0x4f45)); // "OE" marker
    let n = items.len();
    let padded = n.next_power_of_two();
    let mut p = 1usize;
    while p < padded {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < padded {
                for i in 0..k.min(padded - j - k) {
                    let (a, b) = (i + j, i + j + k);
                    if a / (2 * p) == b / (2 * p) && b < n {
                        trace::record(TraceEvent::Touch { region: Region::Sort, index: a });
                        trace::record(TraceEvent::Touch { region: Region::Sort, index: b });
                        let (head, tail) = items.split_at_mut(b);
                        let gt = ct_lt_u64(tail[0], head[a]);
                        head[a].cswap(&mut tail[0], gt);
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn odd_even_sorts_small_cases() {
        for n in 0..=33usize {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            osort_odd_even_u64(&mut v);
            assert_eq!(v, (0..n as u64).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn odd_even_trace_fixed_for_n() {
        let run = |mut v: Vec<u64>| trace::capture(|| osort_odd_even_u64(&mut v)).1.fingerprint();
        assert_eq!(run(vec![3, 1, 2, 9, 5]), run(vec![0, 0, 0, 0, 0]));
    }

    proptest! {
        #[test]
        fn odd_even_matches_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..300)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            osort_odd_even_u64(&mut v);
            prop_assert_eq!(v, expected);
        }
    }
}
