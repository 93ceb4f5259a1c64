//! Order-preserving oblivious compaction (§4.2.1).
//!
//! Given `n` items each tagged with a secret keep-bit, move the kept items to
//! the front of the array, preserving their relative order, with a memory
//! access pattern that depends only on `n`. The paper uses Goodrich's
//! `O(n log n)` algorithm, "a log n-deep routing network that shifts each
//! element a fixed number of steps in every layer"; we implement the modern
//! recursive formulation of that network (`ORCompact` — Sasy, Johnson,
//! Goldberg, CCS'22, which matches Goodrich's bound and structure).
//!
//! The counts and offsets computed inside are *secret values*: they feed only
//! the condition bits of compare-swaps, never memory addresses. Only the total
//! number of kept elements may be revealed — and in Snoopy it always is
//! public (batch size `B`, request count `N`).
//!
//! [`ocompact_by_sort`] is the simpler `O(n log² n)` fallback via a stable
//! bitonic sort on the keep bit; it is used as a cross-check in tests and as
//! an ablation point in the benches.

use crate::ct::{ct_le_u64, Choice, Cmov};
use crate::trace::{self, Region, TraceEvent};

/// Compacts `items` in place: elements whose `keep` bit is set move to the
/// front, order-preserved. `keep` is permuted alongside `items`, so afterwards
/// `keep[i]` still tags `items[i]`. The access pattern depends only on
/// `items.len()`.
///
/// Panics if `items.len() != keep.len()` (lengths are public).
pub fn ocompact<T: Cmov>(items: &mut [T], keep: &mut [Choice]) {
    assert_eq!(items.len(), keep.len(), "items and keep bits must align");
    trace::record(TraceEvent::Phase(0x434f)); // "COmpact" marker
    or_compact(items, keep);
}

/// Counts kept elements branch-free; the caller decides whether the count is
/// public (in Snoopy it always is).
pub fn ocount(keep: &[Choice]) -> u64 {
    let mut m = 0u64;
    for k in keep {
        m = m.wrapping_add(k.as_bit());
    }
    m
}

fn or_compact<T: Cmov>(items: &mut [T], keep: &mut [Choice]) {
    let n = items.len();
    if n < 2 {
        return;
    }
    // Largest power of two strictly below n; n1 = n - n2 satisfies 1 <= n1 <= n2.
    let n2 = 1usize << (usize::BITS - 1 - (n - 1).leading_zeros());
    let n1 = n - n2;
    let m = ocount(&keep[..n1]);

    {
        let (li, _ri) = items.split_at_mut(n1);
        let (lk, _rk) = keep.split_at_mut(n1);
        or_compact(li, lk);
    }
    {
        let (_, ri) = items.split_at_mut(n1);
        let (_, rk) = keep.split_at_mut(n1);
        let z = ((n2 - n1) as u64).wrapping_add(m) & (n2 as u64 - 1);
        or_off_compact(ri, rk, z);
    }
    // Interleave: element i of the prefix either stays (i < m) or is replaced
    // by the element n2 positions to its right.
    let (head, tail) = items.split_at_mut(n2);
    let (khead, ktail) = keep.split_at_mut(n2);
    for i in 0..n1 {
        trace::record(TraceEvent::Touch { region: Region::Compact, index: i });
        let b = ct_le_u64(m, i as u64); // !(i < m)
        head[i].cswap(&mut tail[i], b);
        khead[i].cswap(&mut ktail[i], b);
    }
}

/// Off-center compaction on a power-of-two slice: kept elements end up at
/// cyclic positions `z, z+1, ...` (mod n), in order. `z` is a secret value.
fn or_off_compact<T: Cmov>(items: &mut [T], keep: &mut [Choice], z: u64) {
    let n = items.len();
    debug_assert!(n.is_power_of_two() || n <= 1);
    if n < 2 {
        return;
    }
    if n == 2 {
        let (i0, i1) = items.split_at_mut(1);
        let (k0, k1) = keep.split_at_mut(1);
        let b = k0[0].not().and(k1[0]).xor(Choice::from_lsb(z));
        trace::record(TraceEvent::Touch { region: Region::Compact, index: 0 });
        i0[0].cswap(&mut i1[0], b);
        k0[0].cswap(&mut k1[0], b);
        return;
    }
    let h = n / 2;
    let hm = h as u64 - 1; // mask for mod h (h is a power of two)
    let m = ocount(&keep[..h]);
    let zl = z & hm;
    let zr = z.wrapping_add(m) & hm;
    {
        let (li, ri) = items.split_at_mut(h);
        let (lk, rk) = keep.split_at_mut(h);
        or_off_compact(li, lk, zl);
        or_off_compact(ri, rk, zr);
    }
    // s: whether the left half's kept run wraps, xor whether z itself started
    // in the right half.
    let s_left_wraps = ct_le_u64(h as u64, zl.wrapping_add(m));
    let s_z_right = ct_le_u64(h as u64, z);
    let s = s_left_wraps.xor(s_z_right);
    let (head, tail) = items.split_at_mut(h);
    let (khead, ktail) = keep.split_at_mut(h);
    for i in 0..h {
        trace::record(TraceEvent::Touch { region: Region::Compact, index: i });
        let b = s.xor(ct_le_u64(zr, i as u64));
        head[i].cswap(&mut tail[i], b);
        khead[i].cswap(&mut ktail[i], b);
    }
}

/// Minimum slice length that justifies spawning a thread for a half (same
/// rationale as the sort's grain: spawn/join overhead vs. split win).
const PAR_GRAIN: usize = 1 << 13;

/// Parallel order-preserving compaction across up to `threads` OS threads.
///
/// Uses the same disjoint-split technique as the parallel sort: the routing
/// network's two recursive halves touch disjoint subslices, and the combine
/// loop pairs element `i` of the left part with element `i` of the right
/// part, so both parallelize with `split_at_mut` — no locks, no unsafe.
///
/// Trace-compatible with [`ocompact`]: workers capture their events and the
/// coordinator splices them back in serial network order, so the recorded
/// trace is byte-identical for every thread count.
pub fn ocompact_parallel<T: Cmov + Send>(items: &mut [T], keep: &mut [Choice], threads: usize) {
    ocompact_parallel_with_grain(items, keep, threads, PAR_GRAIN)
}

/// [`ocompact_parallel`] with an explicit spawn threshold, so tests can force
/// the multi-threaded code paths on small inputs.
pub fn ocompact_parallel_with_grain<T: Cmov + Send>(
    items: &mut [T],
    keep: &mut [Choice],
    threads: usize,
    grain: usize,
) {
    assert_eq!(items.len(), keep.len(), "items and keep bits must align");
    trace::record(TraceEvent::Phase(0x434f));
    par_or_compact(items, keep, threads.max(1), grain.max(2));
}

/// Compacts with a thread count chosen by input size: small inputs run the
/// serial network (coordination costs dominate), large inputs use all
/// `max_threads`.
pub fn ocompact_adaptive<T: Cmov + Send>(items: &mut [T], keep: &mut [Choice], max_threads: usize) {
    if items.len() < PAR_GRAIN || max_threads <= 1 {
        ocompact(items, keep);
    } else {
        ocompact_parallel(items, keep, max_threads);
    }
}

fn par_or_compact<T: Cmov + Send>(
    items: &mut [T],
    keep: &mut [Choice],
    threads: usize,
    grain: usize,
) {
    let n = items.len();
    if n < 2 {
        return;
    }
    if threads <= 1 || n < grain {
        or_compact(items, keep);
        return;
    }
    let n2 = 1usize << (usize::BITS - 1 - (n - 1).leading_zeros());
    let n1 = n - n2;
    let m = ocount(&keep[..n1]);
    let z = ((n2 - n1) as u64).wrapping_add(m) & (n2 as u64 - 1);
    {
        let (li, ri) = items.split_at_mut(n1);
        let (lk, rk) = keep.split_at_mut(n1);
        // The halves are unequal (n1 <= n2); split threads proportionally.
        let lt = ((threads * n1) / n).clamp(1, threads - 1);
        let rt = threads - lt;
        if trace::is_recording() {
            let (left_trace, right_trace) = std::thread::scope(|s| {
                let h = s.spawn(move || trace::capture(|| par_or_compact(li, lk, lt, grain)).1);
                let ((), rt_trace) = trace::fork(|| par_or_off_compact(ri, rk, z, rt, grain));
                (h.join().expect("parallel compaction worker panicked"), rt_trace)
            });
            trace::splice(left_trace);
            trace::splice(right_trace);
        } else {
            std::thread::scope(|s| {
                s.spawn(move || par_or_compact(li, lk, lt, grain));
                par_or_off_compact(ri, rk, z, rt, grain);
            });
        }
    }
    let (head, tail) = items.split_at_mut(n2);
    let (khead, ktail) = keep.split_at_mut(n2);
    par_pair_loop(
        &mut head[..n1],
        tail,
        &mut khead[..n1],
        ktail,
        &|i| ct_le_u64(m, i as u64),
        threads,
    );
}

fn par_or_off_compact<T: Cmov + Send>(
    items: &mut [T],
    keep: &mut [Choice],
    z: u64,
    threads: usize,
    grain: usize,
) {
    let n = items.len();
    if threads <= 1 || n < grain || n <= 2 {
        or_off_compact(items, keep, z);
        return;
    }
    let h = n / 2;
    let hm = h as u64 - 1;
    let m = ocount(&keep[..h]);
    let zl = z & hm;
    let zr = z.wrapping_add(m) & hm;
    {
        let (li, ri) = items.split_at_mut(h);
        let (lk, rk) = keep.split_at_mut(h);
        let lt = threads / 2;
        let rt = threads - lt;
        if trace::is_recording() {
            let (left_trace, right_trace) = std::thread::scope(|s| {
                let handle =
                    s.spawn(move || trace::capture(|| par_or_off_compact(li, lk, zl, rt, grain)).1);
                let ((), rt_trace) =
                    trace::fork(|| par_or_off_compact(ri, rk, zr, lt.max(1), grain));
                (handle.join().expect("parallel compaction worker panicked"), rt_trace)
            });
            trace::splice(left_trace);
            trace::splice(right_trace);
        } else {
            std::thread::scope(|s| {
                s.spawn(move || par_or_off_compact(li, lk, zl, rt, grain));
                par_or_off_compact(ri, rk, zr, lt.max(1), grain);
            });
        }
    }
    let s_left_wraps = ct_le_u64(h as u64, zl.wrapping_add(m));
    let s_z_right = ct_le_u64(h as u64, z);
    let s = s_left_wraps.xor(s_z_right);
    let (head, tail) = items.split_at_mut(h);
    let (khead, ktail) = keep.split_at_mut(h);
    par_pair_loop(head, tail, khead, ktail, &|i| s.xor(ct_le_u64(zr, i as u64)), threads);
}

/// The parallel form of a combine loop `for i in 0..count { swap pair i }`:
/// chunks all four slices identically across threads. Each worker records the
/// same relative `Touch` indices the serial loop does; when recording, chunk
/// traces are spliced back in ascending index order.
fn par_pair_loop<T: Cmov + Send>(
    a: &mut [T],
    b: &mut [T],
    ka: &mut [Choice],
    kb: &mut [Choice],
    cond: &(impl Fn(usize) -> Choice + Sync),
    threads: usize,
) {
    let count = a.len();
    debug_assert!(b.len() == count && ka.len() == count && kb.len() == count);
    if count == 0 {
        return;
    }
    let chunk = count.div_ceil(threads).max(1);
    if trace::is_recording() {
        let traces: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(ka.chunks_mut(chunk).zip(kb.chunks_mut(chunk)))
                .enumerate()
                .map(|(ci, ((ac, bc), (kac, kbc)))| {
                    let off = ci * chunk;
                    s.spawn(move || trace::capture(|| pair_chunk(ac, bc, kac, kbc, off, cond)).1)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel compaction worker panicked"))
                .collect()
        });
        for t in traces {
            trace::splice(t);
        }
    } else {
        std::thread::scope(|s| {
            for (ci, ((ac, bc), (kac, kbc))) in a
                .chunks_mut(chunk)
                .zip(b.chunks_mut(chunk))
                .zip(ka.chunks_mut(chunk).zip(kb.chunks_mut(chunk)))
                .enumerate()
            {
                let off = ci * chunk;
                s.spawn(move || pair_chunk(ac, bc, kac, kbc, off, cond));
            }
        });
    }
}

fn pair_chunk<T: Cmov>(
    a: &mut [T],
    b: &mut [T],
    ka: &mut [Choice],
    kb: &mut [Choice],
    off: usize,
    cond: &impl Fn(usize) -> Choice,
) {
    for k in 0..a.len() {
        trace::record(TraceEvent::Touch { region: Region::Compact, index: off + k });
        let c = cond(off + k);
        a[k].cswap(&mut b[k], c);
        ka[k].cswap(&mut kb[k], c);
    }
}

/// `O(n log² n)` oblivious compaction via a stable bitonic sort on
/// `(1 - keep, arrival index)`. Order-preserving by construction. Used as a
/// reference implementation and an ablation baseline ("what if Snoopy had
/// used sort-based compaction").
pub fn ocompact_by_sort<T: Cmov>(items: &mut [T], keep: &mut [Choice]) {
    assert_eq!(items.len(), keep.len());
    let n = items.len();
    // Tag each element with (drop_bit, index) packed in one u64 key:
    // kept elements (drop=0) sort before dropped ones, ties broken by index,
    // which makes the sort stable.
    let mut keys: Vec<u64> = (0..n as u64)
        .map(|i| {
            let drop_bit = keep[i as usize].not().as_bit();
            (drop_bit << 62) | i
        })
        .collect();
    // Sort (key, item, keep) triples by key. We sort indices-carrying keys and
    // swap payloads alongside via a parallel-array compare network.
    sort_with_payload(&mut keys, items, keep);
}

fn sort_with_payload<T: Cmov>(keys: &mut [u64], items: &mut [T], keep: &mut [Choice]) {
    // A tiny re-implementation of the bitonic network that swaps three
    // parallel arrays together. Reuses osort_by on a zipped view would need
    // allocation; this keeps it in place.
    struct Zip<'a, T> {
        keys: &'a mut [u64],
        items: &'a mut [T],
        keep: &'a mut [Choice],
    }
    impl<T: Cmov> Zip<'_, T> {
        fn cswap(&mut self, i: usize, j: usize, cond: Choice) {
            let (ka, kb) = self.keys.split_at_mut(j);
            ka[i].cswap(&mut kb[0], cond);
            let (ia, ib) = self.items.split_at_mut(j);
            ia[i].cswap(&mut ib[0], cond);
            let (pa, pb) = self.keep.split_at_mut(j);
            pa[i].cswap(&mut pb[0], cond);
        }
    }
    fn sort_rec<T: Cmov>(z: &mut Zip<T>, lo: usize, n: usize, asc: bool) {
        if n > 1 {
            let m = n / 2;
            sort_rec(z, lo, m, !asc);
            sort_rec(z, lo + m, n - m, asc);
            merge_rec(z, lo, n, asc);
        }
    }
    fn merge_rec<T: Cmov>(z: &mut Zip<T>, lo: usize, n: usize, asc: bool) {
        if n > 1 {
            let m = 1usize << (usize::BITS - 1 - (n - 1).leading_zeros());
            for i in lo..lo + n - m {
                let gt = crate::ct::ct_lt_u64(z.keys[i + m], z.keys[i]);
                let cond = if asc { gt } else { gt.not() };
                z.cswap(i, i + m, cond);
            }
            merge_rec(z, lo, m, asc);
            merge_rec(z, lo + m, n - m, asc);
        }
    }
    let n = keys.len();
    let mut z = Zip { keys, items, keep };
    sort_rec(&mut z, 0, n, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_compact(vals: &[u64], keep: &[bool]) -> Vec<u64> {
        vals.iter().zip(keep).filter(|(_, &k)| k).map(|(v, _)| *v).collect()
    }

    fn run_ocompact(vals: &[u64], keep_bools: &[bool]) -> Vec<u64> {
        let mut items = vals.to_vec();
        let mut keep: Vec<Choice> = keep_bools.iter().map(|&b| Choice::from_bool(b)).collect();
        ocompact(&mut items, &mut keep);
        let count = keep_bools.iter().filter(|&&b| b).count();
        // Check the keep bits moved consistently.
        for (i, k) in keep.iter().enumerate() {
            assert_eq!(k.declassify(), i < count, "keep bit misplaced at {i}");
        }
        items.truncate(count);
        items
    }

    #[test]
    fn compacts_simple_cases() {
        assert_eq!(run_ocompact(&[1, 2, 3, 4], &[false, true, false, true]), vec![2, 4]);
        assert_eq!(run_ocompact(&[1, 2, 3], &[true, true, true]), vec![1, 2, 3]);
        assert_eq!(run_ocompact(&[1, 2, 3], &[false, false, false]), Vec::<u64>::new());
        assert_eq!(run_ocompact(&[9], &[true]), vec![9]);
        assert_eq!(run_ocompact(&[9], &[false]), Vec::<u64>::new());
        assert_eq!(run_ocompact(&[], &[]), Vec::<u64>::new());
    }

    #[test]
    fn compacts_wraparound_cases() {
        // Cases chosen to exercise the cyclic-offset logic.
        assert_eq!(
            run_ocompact(&[1, 2, 3, 4, 5], &[true, true, false, false, true]),
            vec![1, 2, 5]
        );
        assert_eq!(
            run_ocompact(&[1, 2, 3, 4, 5, 6, 7], &[false, true, true, false, true, true, true]),
            vec![2, 3, 5, 6, 7]
        );
    }

    #[test]
    fn exhaustive_small_sizes() {
        for n in 0..=10usize {
            let vals: Vec<u64> = (0..n as u64).map(|i| i + 100).collect();
            for mask in 0..(1u32 << n) {
                let keep: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                let got = run_ocompact(&vals, &keep);
                let want = reference_compact(&vals, &keep);
                assert_eq!(got, want, "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn sort_based_matches_reference() {
        for n in 0..=9usize {
            let vals: Vec<u64> = (0..n as u64).map(|i| i + 7).collect();
            for mask in 0..(1u32 << n) {
                let keepb: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
                let mut items = vals.clone();
                let mut keep: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
                ocompact_by_sort(&mut items, &mut keep);
                let count = keepb.iter().filter(|&&b| b).count();
                items.truncate(count);
                assert_eq!(items, reference_compact(&vals, &keepb), "n={n} mask={mask:b}");
            }
        }
    }

    #[test]
    fn trace_independent_of_keep_bits() {
        use crate::trace;
        let vals: Vec<u64> = (0..37).collect();
        let (_, t1) = trace::capture(|| {
            let mut items = vals.clone();
            let mut keep: Vec<Choice> = (0..37).map(|i| Choice::from_bool(i % 2 == 0)).collect();
            ocompact(&mut items, &mut keep);
        });
        let (_, t2) = trace::capture(|| {
            let mut items = vals.clone();
            let mut keep: Vec<Choice> = (0..37).map(|_| Choice::from_bool(false)).collect();
            ocompact(&mut items, &mut keep);
        });
        assert_eq!(t1, t2, "compaction trace must not depend on keep bits");
        assert!(!t1.is_empty());
    }

    #[test]
    fn parallel_matches_serial_output() {
        for n in [0usize, 1, 2, 3, 7, 37, 100, 129] {
            for threads in [1usize, 2, 3, 4, 7] {
                let vals: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
                let keepb: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
                let mut items = vals.clone();
                let mut keep: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
                ocompact_parallel_with_grain(&mut items, &mut keep, threads, 4);
                let count = keepb.iter().filter(|&&b| b).count();
                items.truncate(count);
                assert_eq!(items, reference_compact(&vals, &keepb), "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_trace_identical_to_serial_for_all_thread_counts() {
        use crate::trace;
        for n in [1usize, 2, 3, 7, 37, 100, 129] {
            let (_, serial) = trace::capture(|| {
                let mut items: Vec<u64> = (0..n as u64).collect();
                let mut keep: Vec<Choice> = (0..n).map(|i| Choice::from_bool(i % 2 == 0)).collect();
                ocompact(&mut items, &mut keep);
            });
            for threads in [1usize, 2, 3, 4, 7] {
                let (_, par) = trace::capture(|| {
                    // Different keep bits from the serial run: the trace must
                    // depend on neither secrets nor thread count.
                    let mut items: Vec<u64> = (0..n as u64).collect();
                    let mut keep: Vec<Choice> =
                        (0..n).map(|i| Choice::from_bool(i % 5 == 3)).collect();
                    ocompact_parallel_with_grain(&mut items, &mut keep, threads, 4);
                });
                assert_eq!(serial, par, "trace diverged for n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn adaptive_compacts_correctly() {
        let n = 10_000usize;
        let vals: Vec<u64> = (0..n as u64).map(|i| i ^ 0x5A5A).collect();
        let keepb: Vec<bool> = (0..n).map(|i| i % 7 < 3).collect();
        let mut items = vals.clone();
        let mut keep: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
        ocompact_adaptive(&mut items, &mut keep, 4);
        let count = keepb.iter().filter(|&&b| b).count();
        items.truncate(count);
        assert_eq!(items, reference_compact(&vals, &keepb));
    }

    #[test]
    fn ocount_counts() {
        let keep = [Choice::TRUE, Choice::FALSE, Choice::TRUE, Choice::TRUE];
        assert_eq!(ocount(&keep), 3);
        assert_eq!(ocount(&[]), 0);
    }

    proptest! {
        #[test]
        fn matches_reference(
            vals in proptest::collection::vec(any::<u64>(), 0..200),
            seed in any::<u64>(),
        ) {
            let n = vals.len();
            let keepb: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1 || (i * 7 + seed as usize).is_multiple_of(3)).collect();
            let got = run_ocompact(&vals, &keepb);
            prop_assert_eq!(got, reference_compact(&vals, &keepb));
        }

        #[test]
        fn parallel_output_and_trace_match_serial(
            vals in proptest::collection::vec(any::<u64>(), 0..200),
            seed in any::<u64>(),
            threads in 1usize..8,
        ) {
            use crate::trace;
            let n = vals.len();
            let keepb: Vec<bool> = (0..n).map(|i| (seed.rotate_left(i as u32)) & 1 == 1).collect();
            let mut a = vals.clone();
            let mut ka: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
            let mut b = vals.clone();
            let mut kb: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
            let (_, st) = trace::capture(|| ocompact(&mut a, &mut ka));
            let (_, pt) = trace::capture(|| ocompact_parallel_with_grain(&mut b, &mut kb, threads, 4));
            prop_assert_eq!(a, b);
            prop_assert_eq!(st, pt);
        }

        #[test]
        fn sort_based_matches_goodrich(
            vals in proptest::collection::vec(any::<u64>(), 0..120),
            seed in any::<u64>(),
        ) {
            let n = vals.len();
            let keepb: Vec<bool> = (0..n).map(|i| (seed.rotate_left(i as u32)) & 1 == 1).collect();
            let count = keepb.iter().filter(|&&b| b).count();

            let mut a = vals.clone();
            let mut ka: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
            ocompact(&mut a, &mut ka);
            a.truncate(count);

            let mut b = vals.clone();
            let mut kb: Vec<Choice> = keepb.iter().map(|&b| Choice::from_bool(b)).collect();
            ocompact_by_sort(&mut b, &mut kb);
            b.truncate(count);

            prop_assert_eq!(a, b);
        }
    }
}
