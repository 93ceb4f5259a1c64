//! Order-preserving oblivious expansion — the inverse of compaction.
//!
//! The items of a length-`T` array sit in a prefix; each *real* item carries
//! a secret target position, and the targets strictly increase in item
//! order. Expansion moves every real item to its target and leaves fillers
//! everywhere else, without revealing the targets. Compaction routes marked
//! items down to a prefix; expansion routes a prefix back out. Padding a
//! secret number of rows into a public layout (the subORAM's hash-table
//! tiers, the balancer's `S·B` batch slots) reduces to it, so only the real
//! rows ever pass through a sort.
//!
//! **Network.** Item `i` must travel the offset `d_i = target_i − i`, which
//! is `0` for a filler. For `j` from `⌈log2 T⌉ − 1` down to `0`, and for `i`
//! from `T − 1 − 2^j` down to `0`, the network swaps slots `i` and `i + 2^j`
//! iff bit `j` of the offset still carried by the item at `i` is set; the
//! moved item carries its offset with bit `j` cleared. That is `O(T log T)`
//! conditional swaps, `Σ_j (T − 2^j)` in all.
//!
//! **Why it is collision-free.** Offsets are non-decreasing in item order
//! (`d_{i+1} − d_i = target_{i+1} − target_i − 1 ≥ 0`), and this network is
//! Goodrich's low-to-high left-shift compaction run backwards: compaction
//! moves an item left by `2^j` at level `j` exactly when bit `j` of its
//! remaining distance is set, and never lands it on a kept item. Reversing
//! every step of that schedule therefore never moves an item onto another
//! one either. Within a level, slots are visited from the top down, so the
//! destination `i + 2^j` has already had its turn: if its item had to move,
//! it has moved on and left a filler behind. The exhaustive test below
//! checks every target set for `T ≤ 12` slot by slot.
//!
//! **Why its trace is a function of `T` only.** Which slot pairs are visited,
//! and in what order, depends on `T` alone; the offsets feed only the
//! condition bit of each swap. The network is serial — every level is a
//! chain of dependent swaps — so it runs the same at every thread count.

use crate::ct::{Choice, Cmov};
use crate::trace::{self, Region, TraceEvent};

/// Routes the real items of `items` to their targets, in place.
///
/// Contract (public lengths, secret values): `items`, `targets` and `real`
/// have one length `T`; the items with `real` set form a prefix, and their
/// targets strictly increase and are `< T`. Targets of non-real items are
/// ignored. Afterwards every real item sits at its target, and `real` —
/// permuted alongside the items, as [`crate::compact::ocompact`] permutes
/// its keep bits — tags exactly the target slots. Inputs that break the
/// contract are scrambled, not detected.
///
/// The access pattern depends only on `T`.
pub fn oexpand<T: Cmov>(items: &mut [T], targets: &[u64], real: &mut [Choice]) {
    let n = items.len();
    assert_eq!(targets.len(), n, "one target per item");
    assert_eq!(real.len(), n, "one real bit per item");
    trace::record(TraceEvent::Phase(0x4558)); // "EX" marker
                                              // Remaining offsets: target − position for reals, 0 for fillers.
    let mut dist: Vec<u64> =
        (0..n).map(|i| targets[i].wrapping_sub(i as u64) & real[i].mask()).collect();
    for j in (0..levels(n)).rev() {
        let step = 1usize << j;
        for i in (0..n - step).rev() {
            trace::record(TraceEvent::Touch { region: Region::Expand, index: i });
            let d = dist[i];
            let b = Choice::from_lsb(d >> j);
            dist[i] = d & !(step as u64);
            let (head, tail) = items.split_at_mut(i + step);
            head[i].cswap(&mut tail[0], b);
            let (head, tail) = dist.split_at_mut(i + step);
            head[i].cswap(&mut tail[0], b);
            let (head, tail) = real.split_at_mut(i + step);
            head[i].cswap(&mut tail[0], b);
        }
    }
}

/// `⌈log2 n⌉`: the levels of the expansion network on `n` slots (offsets
/// are below `n`).
fn levels(n: usize) -> u32 {
    if n < 2 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ct::{ct_eq_u64, Choice};
    use proptest::prelude::*;

    /// Expands `items` (a prefix, in target order) into `n` slots of
    /// fillers `0`; returns the slots and the permuted real bits.
    fn expand(items: &[u64], targets: &[u64], n: usize) -> (Vec<u64>, Vec<bool>) {
        let mut slots = vec![0u64; n];
        slots[..items.len()].copy_from_slice(items);
        let mut t = vec![0u64; n];
        t[..targets.len()].copy_from_slice(targets);
        let mut real: Vec<Choice> = (0..n).map(|i| Choice::from_bool(i < items.len())).collect();
        oexpand(&mut slots, &t, &mut real);
        (slots, real.iter().map(|r| r.declassify()).collect())
    }

    /// Direct placement: what expansion must produce.
    fn direct(items: &[u64], targets: &[u64], n: usize) -> (Vec<u64>, Vec<bool>) {
        let mut slots = vec![0u64; n];
        let mut real = vec![false; n];
        for (&x, &t) in items.iter().zip(targets) {
            slots[t as usize] = x;
            real[t as usize] = true;
        }
        (slots, real)
    }

    #[test]
    fn places_items_at_targets() {
        let (out, real) = expand(&[10, 20, 30], &[0, 2, 5], 8);
        assert_eq!(out, vec![10, 0, 20, 0, 0, 30, 0, 0]);
        assert_eq!(real, vec![true, false, true, false, false, true, false, false]);
    }

    #[test]
    fn empty_items_gives_all_fillers() {
        let (out, real) = expand(&[], &[], 4);
        assert_eq!(out, vec![0; 4]);
        assert_eq!(real, vec![false; 4]);
        assert_eq!(expand(&[], &[], 0).0, Vec::<u64>::new());
    }

    #[test]
    fn full_placement_is_a_permutation() {
        // Every slot taken: the only increasing targets are 0..n, so the
        // network moves nothing.
        let (out, _) = expand(&[1, 2, 3, 4, 5], &[0, 1, 2, 3, 4], 5);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        let (out, _) = expand(&[7, 8, 9], &[2, 3, 4], 5);
        assert_eq!(out, vec![0, 0, 7, 8, 9]);
    }

    #[test]
    fn exhaustive_small_target_sets() {
        // Every target set of every T ≤ 12 lands exactly. Alongside, a
        // plain replay of the network's schedule checks the stronger claim:
        // no move ever lands on a slot that holds an item.
        for n in 0..=12usize {
            for set in 0u32..(1 << n) {
                let targets: Vec<u64> = (0..n as u64).filter(|&t| set >> t & 1 == 1).collect();
                let items: Vec<u64> = (1..=targets.len() as u64).collect();
                assert_eq!(
                    expand(&items, &targets, n),
                    direct(&items, &targets, n),
                    "T={n} {targets:?}"
                );

                let mut slot: Vec<Option<u64>> = vec![None; n];
                for (i, &t) in targets.iter().enumerate() {
                    slot[i] = Some(t - i as u64);
                }
                for j in (0..levels(n)).rev() {
                    let step = 1usize << j;
                    for i in (0..n - step).rev() {
                        if let Some(d) = slot[i].filter(|d| d >> j & 1 == 1) {
                            assert_eq!(slot[i + step], None, "T={n} {targets:?}: collision");
                            slot[i + step] = Some(d & !(step as u64));
                            slot[i] = None;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trace_independent_of_targets() {
        let run = |targets: &[u64], n: usize| {
            let ((), t) = trace::capture(|| {
                expand(&[1, 2, 3][..targets.len()], targets, n);
            });
            t.fingerprint()
        };
        assert_eq!(run(&[0, 1, 2], 16), run(&[3, 7, 15], 16));
        assert_eq!(run(&[0, 1, 2], 16), run(&[], 16));
        assert_ne!(run(&[0, 1, 2], 16), run(&[0, 1, 2], 17), "T is public");
    }

    #[test]
    fn swap_count_is_exact() {
        // One touch per conditional swap, after one phase marker: level j
        // pairs every slot with the one 2^j above it.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 100, 1000, 4134] {
            let mut v = vec![0u64; n];
            let mut real = vec![Choice::FALSE; n];
            let ((), t) = trace::capture(|| oexpand(&mut v, &vec![0; n], &mut real));
            let swaps: usize = (0..levels(n)).map(|j| n - (1 << j)).sum();
            assert_eq!(t.len(), 1 + swaps, "n={n}");
        }
    }

    #[test]
    fn expand_then_compact_roundtrips() {
        use crate::compact::ocompact;
        let items = [11u64, 22, 33, 44];
        let targets = [0u64, 2, 9, 13];
        let (mut expanded, _) = expand(&items, &targets, 16);
        let mut keep: Vec<Choice> = expanded.iter().map(|&x| ct_eq_u64(x, 0).not()).collect();
        ocompact(&mut expanded, &mut keep);
        assert_eq!(&expanded[..4], &items);
        // And back out again.
        let (again, _) = expand(&expanded[..4], &targets, 16);
        assert_eq!(again, direct(&items, &targets, 16).0);
    }

    proptest! {
        #[test]
        fn matches_direct_placement(
            n in 0usize..300,
            seed in any::<u64>(),
            density in 0u64..101,
        ) {
            // Each slot is a target with probability density %.
            let mut x = seed;
            let targets: Vec<u64> = (0..n as u64)
                .filter(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x >> 33) % 100 < density
                })
                .collect();
            let items: Vec<u64> = (0..targets.len() as u64).map(|i| 1000 + i).collect();
            prop_assert_eq!(expand(&items, &targets, n), direct(&items, &targets, n));
        }

        #[test]
        fn compact_then_expand_restores_layout(
            marks in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            use crate::compact::ocompact;
            // Compaction is expansion's inverse: compacting the marked
            // slots and expanding them back to their old positions is the
            // identity on the marked slots.
            let n = marks.len();
            let mut v: Vec<u64> = (1..=n as u64).collect();
            let mut keep: Vec<Choice> = marks.iter().map(|&m| Choice::from_bool(m)).collect();
            ocompact(&mut v, &mut keep);
            let targets: Vec<u64> = v.iter().map(|&x| x - 1).collect();
            oexpand(&mut v, &targets, &mut keep);
            for i in 0..n {
                prop_assert_eq!(keep[i].declassify(), marks[i]);
                if marks[i] {
                    prop_assert_eq!(v[i], i as u64 + 1);
                }
            }
        }
    }
}
