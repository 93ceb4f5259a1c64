//! Bitonic sort (Batcher 1968) — Snoopy's oblivious sort (§4.2.1).
//!
//! The compare-swap network depends only on the input length `n`, never on the
//! data, so the access pattern is trivially oblivious. Runs in
//! `Θ(n log² n)` compare-swaps. The arbitrary-`n` variant below (no padding
//! required) is the classical recursive formulation; the parallel variant
//! splits the recursion and the merge loops across scoped threads, reproducing
//! the paper's Fig. 13a experiment.
//!
//! The parallel variant emits the *same* trace as the serial one: every
//! compare-swap records the global indices it touches, workers capture their
//! events on their own recorder, and the coordinator splices the sub-traces
//! back in the serial network order. Since the network shape depends only on
//! `n`, so does the spliced trace — thread count is not a leakage channel.

use crate::ct::{Choice, Cmov};
use crate::trace::{self, Region, TraceEvent};

/// A branch-free "less-than" over sort items. Must not branch on secret data;
/// it receives both elements and returns a secret [`Choice`].
pub trait ObliviousOrd {
    /// Returns the secret predicate `a > b` ("should swap when ascending").
    fn ogt(a: &Self, b: &Self) -> Choice;
}

/// Sorts `items` ascending with the fixed bitonic network.
pub fn osort<T: Cmov + ObliviousOrd>(items: &mut [T]) {
    osort_by(items, &T::ogt)
}

/// Sorts ascending by an explicit branch-free `gt` predicate.
pub fn osort_by<T: Cmov>(items: &mut [T], gt: &impl Fn(&T, &T) -> Choice) {
    let n = items.len();
    trace::record(TraceEvent::Phase(0x5047)); // "SORT" phase marker
    sort_rec(items, 0, n, true, gt, 0);
}

fn sort_rec<T: Cmov>(
    items: &mut [T],
    lo: usize,
    n: usize,
    ascending: bool,
    gt: &impl Fn(&T, &T) -> Choice,
    base: usize,
) {
    if n > 1 {
        let m = n / 2;
        sort_rec(items, lo, m, !ascending, gt, base);
        sort_rec(items, lo + m, n - m, ascending, gt, base);
        merge_rec(items, lo, n, ascending, gt, base);
    }
}

fn merge_rec<T: Cmov>(
    items: &mut [T],
    lo: usize,
    n: usize,
    ascending: bool,
    gt: &impl Fn(&T, &T) -> Choice,
    base: usize,
) {
    if n > 1 {
        let m = greatest_pow2_below(n);
        for i in lo..lo + n - m {
            compare_swap(items, i, i + m, ascending, gt, base);
        }
        merge_rec(items, lo, m, ascending, gt, base);
        merge_rec(items, lo + m, n - m, ascending, gt, base);
    }
}

#[inline]
fn compare_swap<T: Cmov>(
    items: &mut [T],
    i: usize,
    j: usize,
    ascending: bool,
    gt: &impl Fn(&T, &T) -> Choice,
    base: usize,
) {
    trace::record(TraceEvent::Touch { region: Region::Sort, index: base + i });
    trace::record(TraceEvent::Touch { region: Region::Sort, index: base + j });
    let (head, tail) = items.split_at_mut(j);
    let a = &mut head[i];
    let b = &mut tail[0];
    // Swap so that, for an ascending run, the larger element ends up at j.
    let out_of_order = gt(a, b);
    let cond = if ascending { out_of_order } else { out_of_order.not() };
    a.cswap(b, cond);
}

/// Largest power of two strictly less than `n`.
///
/// The guard is unconditional: in release builds the shift expression below
/// would otherwise silently compute garbage for `n < 2` (for `n = 1` the
/// shift amount is 64).
fn greatest_pow2_below(n: usize) -> usize {
    assert!(n >= 2, "greatest_pow2_below requires n >= 2, got {n}");
    1usize << (usize::BITS - 1 - (n - 1).leading_zeros())
}

/// Parallel bitonic sort across up to `threads` OS threads.
///
/// The recursion's two halves are independent, and a merge's compare-swap loop
/// pairs element `i` of the left part with element `i` of the right part, so
/// both parallelize with disjoint mutable splits — no locks, no unsafe.
/// Matches the paper's observation (Fig. 13a) that parallel sort only pays off
/// above a few thousand elements; callers wanting the adaptive behaviour use
/// [`osort_adaptive`].
///
/// Trace-compatible with [`osort_by`]: when recording is on, worker threads
/// capture their events and the coordinator splices them back in serial
/// network order, so the trace is byte-identical for every thread count.
pub fn osort_parallel<T: Cmov + Send>(
    items: &mut [T],
    gt: &(impl Fn(&T, &T) -> Choice + Sync),
    threads: usize,
) {
    osort_parallel_with_grain(items, gt, threads, PAR_GRAIN)
}

/// [`osort_parallel`] with an explicit spawn threshold, so tests can force the
/// multi-threaded code paths on small inputs.
pub fn osort_parallel_with_grain<T: Cmov + Send>(
    items: &mut [T],
    gt: &(impl Fn(&T, &T) -> Choice + Sync),
    threads: usize,
    grain: usize,
) {
    let n = items.len();
    trace::record(TraceEvent::Phase(0x5047));
    par_sort_rec(items, 0, n, true, gt, threads.max(1), grain.max(2));
}

/// Minimum slice length that justifies spawning a thread for a half. Below
/// this, thread spawn/join overhead (tens of µs) outweighs the split.
const PAR_GRAIN: usize = 1 << 13;

fn par_sort_rec<T: Cmov + Send>(
    items: &mut [T],
    base: usize,
    n: usize,
    ascending: bool,
    gt: &(impl Fn(&T, &T) -> Choice + Sync),
    threads: usize,
    grain: usize,
) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    if threads > 1 && n >= grain {
        let (left, right) = items.split_at_mut(m);
        let lt = threads / 2;
        if trace::is_recording() {
            let (left_trace, right_trace) = std::thread::scope(|s| {
                let h = s.spawn(move || {
                    trace::capture(|| {
                        par_sort_rec(left, base, m, !ascending, gt, threads - lt, grain)
                    })
                    .1
                });
                let ((), rt) = trace::fork(|| {
                    par_sort_rec(right, base + m, n - m, ascending, gt, lt.max(1), grain)
                });
                (h.join().expect("parallel sort worker panicked"), rt)
            });
            trace::splice(left_trace);
            trace::splice(right_trace);
        } else {
            std::thread::scope(|s| {
                s.spawn(move || par_sort_rec(left, base, m, !ascending, gt, threads - lt, grain));
                par_sort_rec(right, base + m, n - m, ascending, gt, lt.max(1), grain);
            });
        }
    } else {
        sort_rec(items, 0, m, !ascending, gt, base);
        sort_rec(items, m, n - m, ascending, gt, base);
    }
    par_merge_rec(items, base, n, ascending, gt, threads, grain);
}

fn par_merge_rec<T: Cmov + Send>(
    items: &mut [T],
    base: usize,
    n: usize,
    ascending: bool,
    gt: &(impl Fn(&T, &T) -> Choice + Sync),
    threads: usize,
    grain: usize,
) {
    if n <= 1 {
        return;
    }
    let m = greatest_pow2_below(n);
    let overlap = n - m;
    if threads > 1 && n >= grain {
        // Pairs (i, i+m) for i in 0..overlap: left part [0, overlap),
        // right part [m, n). Chunk both identically across threads.
        let (head, tail) = items.split_at_mut(m);
        let left = &mut head[..overlap];
        let chunk = overlap.div_ceil(threads).max(1);
        if trace::is_recording() {
            let traces: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = left
                    .chunks_mut(chunk)
                    .zip(tail.chunks_mut(chunk))
                    .enumerate()
                    .map(|(ci, (lc, rc))| {
                        let start = base + ci * chunk;
                        s.spawn(move || {
                            trace::capture(|| pair_swap_chunk(lc, rc, start, m, ascending, gt)).1
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("parallel merge worker panicked"))
                    .collect()
            });
            for t in traces {
                trace::splice(t);
            }
        } else {
            std::thread::scope(|s| {
                for (ci, (lc, rc)) in left.chunks_mut(chunk).zip(tail.chunks_mut(chunk)).enumerate()
                {
                    let start = base + ci * chunk;
                    s.spawn(move || pair_swap_chunk(lc, rc, start, m, ascending, gt));
                }
            });
        }
        let (left_half, right_half) = items.split_at_mut(m);
        let lt = threads / 2;
        if trace::is_recording() {
            let (left_trace, right_trace) = std::thread::scope(|s| {
                let h = s.spawn(move || {
                    trace::capture(|| {
                        par_merge_rec(left_half, base, m, ascending, gt, threads - lt, grain)
                    })
                    .1
                });
                let ((), rt) = trace::fork(|| {
                    par_merge_rec(right_half, base + m, n - m, ascending, gt, lt.max(1), grain)
                });
                (h.join().expect("parallel merge worker panicked"), rt)
            });
            trace::splice(left_trace);
            trace::splice(right_trace);
        } else {
            std::thread::scope(|s| {
                s.spawn(move || {
                    par_merge_rec(left_half, base, m, ascending, gt, threads - lt, grain)
                });
                par_merge_rec(right_half, base + m, n - m, ascending, gt, lt.max(1), grain);
            });
        }
    } else {
        merge_rec(items, 0, n, ascending, gt, base);
    }
}

/// One chunk of a merge's compare-swap loop: pairs `(start + k, start + gap + k)`
/// in global index terms. Records the same `Touch` events the serial loop does.
fn pair_swap_chunk<T: Cmov>(
    lc: &mut [T],
    rc: &mut [T],
    start: usize,
    gap: usize,
    ascending: bool,
    gt: &impl Fn(&T, &T) -> Choice,
) {
    for (k, (a, b)) in lc.iter_mut().zip(rc.iter_mut()).enumerate() {
        trace::record(TraceEvent::Touch { region: Region::Sort, index: start + k });
        trace::record(TraceEvent::Touch { region: Region::Sort, index: start + gap + k });
        let out_of_order = gt(a, b);
        let cond = if ascending { out_of_order } else { out_of_order.not() };
        a.cswap(b, cond);
    }
}

/// Sorts with a thread count chosen by input size, reproducing the "Adaptive"
/// line of Fig. 13a: small inputs sort single-threaded (coordination costs
/// dominate), large inputs use all `max_threads`.
pub fn osort_adaptive<T: Cmov + Send>(
    items: &mut [T],
    gt: &(impl Fn(&T, &T) -> Choice + Sync),
    max_threads: usize,
) {
    if items.len() < (1 << 13) || max_threads <= 1 {
        osort_by(items, gt);
    } else {
        osort_parallel(items, gt, max_threads);
    }
}

impl ObliviousOrd for u64 {
    fn ogt(a: &Self, b: &Self) -> Choice {
        crate::ct::ct_lt_u64(*b, *a)
    }
}

impl ObliviousOrd for u32 {
    fn ogt(a: &Self, b: &Self) -> Choice {
        crate::ct::ct_lt_u64(*b as u64, *a as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorts_small_cases() {
        for n in 0..=17usize {
            let mut v: Vec<u64> = (0..n as u64).rev().collect();
            osort(&mut v);
            let expected: Vec<u64> = (0..n as u64).collect();
            assert_eq!(v, expected, "n={n}");
        }
    }

    #[test]
    fn sorts_with_duplicates() {
        let mut v = vec![3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        osort(&mut v);
        assert_eq!(v, vec![1, 1, 2, 3, 3, 4, 5, 5, 5, 6, 9]);
    }

    #[test]
    fn greatest_pow2_below_small_values() {
        assert_eq!(greatest_pow2_below(2), 1);
        assert_eq!(greatest_pow2_below(3), 2);
        assert_eq!(greatest_pow2_below(4), 2);
        assert_eq!(greatest_pow2_below(5), 4);
    }

    #[test]
    #[should_panic(expected = "greatest_pow2_below requires n >= 2")]
    fn greatest_pow2_below_rejects_zero() {
        greatest_pow2_below(0);
    }

    #[test]
    #[should_panic(expected = "greatest_pow2_below requires n >= 2")]
    fn greatest_pow2_below_rejects_one() {
        greatest_pow2_below(1);
    }

    #[test]
    fn parallel_matches_sequential() {
        for n in [0usize, 1, 2, 100, 1023, 1024, 1025, 5000] {
            let mut v: Vec<u64> =
                (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
            let mut w = v.clone();
            osort(&mut v);
            osort_parallel(&mut w, &u64::ogt, 3);
            assert_eq!(v, w, "n={n}");
        }
    }

    #[test]
    fn parallel_with_grain_matches_sequential() {
        for n in [0usize, 1, 2, 3, 7, 37, 100, 129] {
            for threads in [1usize, 2, 3, 4, 7] {
                let mut v: Vec<u64> =
                    (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
                let mut w = v.clone();
                osort(&mut v);
                osort_parallel_with_grain(&mut w, &u64::ogt, threads, 4);
                assert_eq!(v, w, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn adaptive_sorts_correctly() {
        let mut v: Vec<u64> = (0..20_000u64).map(|i| i.wrapping_mul(0x2545F4914F6CDD1D)).collect();
        let mut expected = v.clone();
        expected.sort_unstable();
        osort_adaptive(&mut v, &u64::ogt, 4);
        assert_eq!(v, expected);
    }

    #[test]
    fn trace_depends_only_on_length() {
        use crate::trace;
        let (_, t1) = trace::capture(|| {
            let mut v = vec![5u64, 3, 8, 1, 9, 2, 7];
            osort(&mut v);
        });
        let (_, t2) = trace::capture(|| {
            let mut v = vec![0u64, 0, 0, 0, 0, 0, 0];
            osort(&mut v);
        });
        assert_eq!(t1, t2);
        let (_, t3) = trace::capture(|| {
            let mut v = vec![0u64; 8];
            osort(&mut v);
        });
        assert_ne!(t1, t3, "different n must change the (public) trace");
    }

    #[test]
    fn parallel_trace_identical_to_serial_for_all_thread_counts() {
        use crate::trace;
        for n in [1usize, 2, 3, 7, 37, 100, 129] {
            let (_, serial) = trace::capture(|| {
                let mut v: Vec<u64> = (0..n as u64).rev().collect();
                osort(&mut v);
            });
            for threads in [1usize, 2, 3, 4, 7] {
                let (_, par) = trace::capture(|| {
                    // Different secret contents from the serial run: the trace
                    // must depend on neither data nor thread count.
                    let mut v: Vec<u64> =
                        (0..n as u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15)).collect();
                    osort_parallel_with_grain(&mut v, &u64::ogt, threads, 4);
                });
                assert_eq!(serial, par, "trace diverged for n={n} threads={threads}");
            }
        }
    }

    proptest! {
        #[test]
        fn matches_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..300)) {
            let mut expected = v.clone();
            expected.sort_unstable();
            osort(&mut v);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn parallel_matches_std_sort(mut v in proptest::collection::vec(any::<u64>(), 0..2500), threads in 1usize..5) {
            let mut expected = v.clone();
            expected.sort_unstable();
            osort_parallel(&mut v, &u64::ogt, threads);
            prop_assert_eq!(v, expected);
        }

        #[test]
        fn parallel_output_and_trace_match_serial(
            mut v in proptest::collection::vec(any::<u64>(), 0..200),
            threads in 1usize..8,
        ) {
            use crate::trace;
            let mut w = v.clone();
            let (_, st) = trace::capture(|| osort(&mut v));
            let (_, pt) = trace::capture(|| osort_parallel_with_grain(&mut w, &u64::ogt, threads, 4));
            prop_assert_eq!(&v, &w);
            prop_assert_eq!(st, pt);
        }
    }
}
