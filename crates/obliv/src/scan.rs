//! Oblivious linear-scan accessors.
//!
//! The simplest oblivious primitive: to read or write one element at a
//! *secret* index, touch every element and select with compare-and-set. Used
//! for small secret-indexed tables (access-control rows, Path ORAM position
//! map blocks, planner-internal state) where `O(n)` per access is acceptable
//! because `n` is small.

use crate::ct::{ct_eq_u64, Choice, Cmov};
use crate::trace::{self, Region, TraceEvent};

/// Obliviously reads `items[secret_idx]` by scanning the whole slice.
/// The slice must be non-empty; `default` seeds the accumulator and is
/// returned if `secret_idx` is out of range.
pub fn oget<T: Cmov + Clone>(items: &[T], secret_idx: u64, default: T) -> T {
    let mut out = default;
    for (i, item) in items.iter().enumerate() {
        trace::record(TraceEvent::Touch { region: Region::Get, index: i });
        let hit = ct_eq_u64(i as u64, secret_idx);
        out.cmov(item, hit);
    }
    out
}

/// Obliviously writes `value` into `items[secret_idx]` by scanning the slice.
pub fn oput<T: Cmov>(items: &mut [T], secret_idx: u64, value: &T) {
    for (i, item) in items.iter_mut().enumerate() {
        trace::record(TraceEvent::Touch { region: Region::Put, index: i });
        let hit = ct_eq_u64(i as u64, secret_idx);
        item.cmov(value, hit);
    }
}

/// Obliviously finds the value associated with `key` in a `(key, value)`
/// table, returning `default` when absent. Scans the entire table.
pub fn olookup<V: Cmov + Clone>(table: &[(u64, V)], key: u64, default: V) -> V {
    let mut out = default;
    for (i, (k, v)) in table.iter().enumerate() {
        trace::record(TraceEvent::Touch { region: Region::Lookup, index: i });
        out.cmov(v, ct_eq_u64(*k, key));
    }
    out
}

/// Obliviously marks the *first* occurrence of each distinct `key` in a slice
/// already sorted by key: returns a vector of choices where `out[i]` is true
/// iff `keys[i] != keys[i-1]` (with `out[0]` true for non-empty input). This
/// is the duplicate-detection scan used by the load balancer (§4.2.2 step ➍).
pub fn first_occurrence_flags(keys: &[u64]) -> Vec<Choice> {
    let mut flags = Vec::with_capacity(keys.len());
    let mut prev: u64 = 0;
    let mut have_prev = Choice::FALSE;
    for (i, &k) in keys.iter().enumerate() {
        trace::record(TraceEvent::Touch { region: Region::FirstOccurrence, index: i });
        let same = ct_eq_u64(k, prev).and(have_prev);
        flags.push(same.not());
        prev = k;
        have_prev = Choice::TRUE;
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;

    #[test]
    fn oget_reads_correctly() {
        let items = vec![10u64, 20, 30, 40];
        for i in 0..4 {
            assert_eq!(oget(&items, i as u64, 0), items[i]);
        }
        assert_eq!(oget(&items, 99, 7), 7, "out of range returns default");
    }

    #[test]
    fn oput_writes_correctly() {
        let mut items = vec![0u64; 4];
        oput(&mut items, 2, &55);
        assert_eq!(items, vec![0, 0, 55, 0]);
        oput(&mut items, 99, &1); // out of range: no-op
        assert_eq!(items, vec![0, 0, 55, 0]);
    }

    #[test]
    fn olookup_finds_values() {
        let table = vec![(5u64, 50u64), (9, 90), (2, 20)];
        assert_eq!(olookup(&table, 9, 0), 90);
        assert_eq!(olookup(&table, 7, 1234), 1234);
    }

    #[test]
    fn first_occurrence_flags_marks_duplicates() {
        let keys = vec![1u64, 1, 2, 3, 3, 3, 4];
        let flags = first_occurrence_flags(&keys);
        let got: Vec<bool> = flags.iter().map(|c| c.declassify()).collect();
        assert_eq!(got, vec![true, false, true, true, false, false, true]);
    }

    #[test]
    fn first_occurrence_empty_and_zero_key() {
        assert!(first_occurrence_flags(&[]).is_empty());
        // Key 0 first element must still be marked "first" (have_prev=false).
        let flags = first_occurrence_flags(&[0, 0, 1]);
        let got: Vec<bool> = flags.iter().map(|c| c.declassify()).collect();
        assert_eq!(got, vec![true, false, true]);
    }

    #[test]
    fn scan_traces_independent_of_secret_index() {
        let items = vec![1u64, 2, 3, 4, 5];
        let (_, t1) = trace::capture(|| oget(&items, 0, 0));
        let (_, t2) = trace::capture(|| oget(&items, 4, 0));
        assert_eq!(t1, t2);
    }
}
