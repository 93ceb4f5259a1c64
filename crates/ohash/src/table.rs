//! Oblivious construction and lookup for the two-tier table.
//!
//! Construction (all fixed-pattern: sorts, full scans, compactions):
//!
//! 1. **Duplicate check** — the subORAM protocol returns ⊥ on a batch with
//!    duplicate ids (paper Fig. 19 lines 2-4). We sort a copy of the ids and
//!    compare neighbours obliviously, declassifying only the single bit.
//! 2. **Tier-1 placement** — tag each entry with its `h1` bucket, append `z1`
//!    fillers per bucket, bitonic-sort by (bucket, real-before-filler,
//!    arrival), then a position scan marks the first `z1` entries of each
//!    bucket as *placed* and overflowing real entries as *spill*. One
//!    compaction yields the `m1·z1` tier-1 slots (count is public).
//! 3. **Overflow selection** — spill entries plus `n2_cap` fresh fillers are
//!    sorted spill-first; the length-`n2_cap` prefix is the (padded,
//!    secret-count) tier-2 input. A scan of the suffix detects the
//!    negligible-probability cap overflow.
//! 4. **Tier-2 placement** — same as tier 1 with `h2`/`m2`/`z2`; any real
//!    spill here is a (negligible-probability) construction failure.
//!
//! Lookups touch exactly one tier-1 and one tier-2 bucket, determined by the
//! fresh per-batch keys, and must be performed at most once per distinct id —
//! both guaranteed by the subORAM's usage (§5).

use crate::params::TableParams;
use snoopy_crypto::{Key256, SipHash24};
use snoopy_enclave::wire::{Request, FILLER_BASE};
use snoopy_obliv::compact::ocompact;
use snoopy_obliv::ct::{ct_bytes_eq, ct_eq_u64, ct_lt_u64, Choice, Cmov};
use snoopy_obliv::impl_cmov_struct;
use snoopy_obliv::sort::{osort, osort_by};
use snoopy_obliv::trace::{self, TraceEvent};

/// Errors from table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OHashError {
    /// The batch contained duplicate object ids (protocol violation — the
    /// load balancer must deduplicate).
    DuplicateIds,
    /// A negligible-probability bucket/cap overflow occurred.
    TableOverflow,
}

impl std::fmt::Display for OHashError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OHashError::DuplicateIds => write!(f, "batch contains duplicate object ids"),
            OHashError::TableOverflow => {
                write!(f, "hash table overflow (negligible-probability event)")
            }
        }
    }
}

impl std::error::Error for OHashError {}

/// One table slot: a request plus oblivious bookkeeping.
#[derive(Clone, Debug)]
struct Slot {
    /// Sort key (layout-internal, secret value).
    key: u64,
    /// 1 if this slot holds a batch entry, 0 for construction fillers
    /// (secret value).
    real_flag: u64,
    /// The request. Once construction ends its value lives in the table's
    /// slab and `req.value` is empty.
    req: Request,
}

impl_cmov_struct!(Slot { key, real_flag, req });

impl Slot {
    /// Secret predicate: does this slot hold a batch entry?
    fn is_real(&self) -> Choice {
        ct_eq_u64(self.real_flag, 1)
    }
}

/// What a lookup reads of a slot's request, laid out for the scan: the id,
/// and the masks "permitted" and "permitted write" (secret values).
#[derive(Clone, Copy, Debug)]
struct Probe {
    id: u64,
    read: Choice,
    write: Choice,
}

impl Probe {
    fn of(req: &Request) -> Probe {
        let read = req.is_permitted();
        Probe { id: req.id, read, write: read.and(req.is_write()) }
    }
}

/// The two-tier oblivious hash table.
///
/// `Debug` prints only the (public) parameters, never slot contents.
#[derive(Clone)]
pub struct OHashTable {
    params: TableParams,
    h1: SipHash24,
    h2: SipHash24,
    /// `m1·z1` tier-1 slots followed by `m2·z2` tier-2 slots.
    slots: Vec<Slot>,
    /// `probes[i]` is what a lookup reads of slot `i`'s request.
    probes: Vec<Probe>,
    /// The slots' values as one slab: slot `i` owns
    /// `values[i * value_len..(i + 1) * value_len]`.
    values: Vec<u8>,
    value_len: usize,
}

impl std::fmt::Debug for OHashTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OHashTable").field("params", &self.params).finish_non_exhaustive()
    }
}

fn filler(id: u64, value_len: usize) -> Request {
    Request { id, kind: 0, value: vec![0u8; value_len], client: 0, seq: 0, permit: 1 }
}

impl OHashTable {
    /// Builds the table from a batch of distinct requests using fresh keys
    /// derived from `key` (the subORAM samples a new key per batch, §5),
    /// sized as if the table will be scanned by as many objects as the batch
    /// has entries. A caller that knows its partition size uses
    /// [`OHashTable::construct_with_params`].
    pub fn construct(
        batch: Vec<Request>,
        key: &Key256,
        lambda: u32,
    ) -> Result<OHashTable, OHashError> {
        let params = TableParams::derive(batch.len(), batch.len(), lambda);
        OHashTable::construct_with_params(batch, key, params)
    }

    /// Builds the table with `params` from
    /// [`TableParams::derive`]`(batch.len(), objects, λ)`, where `objects`
    /// is the public size of the partition the table will be scanned
    /// against. Callers that build many tables memoize the derivation.
    pub fn construct_with_params(
        batch: Vec<Request>,
        key: &Key256,
        params: TableParams,
    ) -> Result<OHashTable, OHashError> {
        assert!(!batch.is_empty(), "batch must be non-empty");
        let n = batch.len();
        assert_eq!(params.n, n, "table parameters are derived for the batch size");
        let value_len = batch[0].value.len();
        trace::record(TraceEvent::Phase(0x4f48)); // "OH" construction marker

        // 1. Oblivious duplicate detection.
        let mut ids: Vec<u64> = batch.iter().map(|r| r.id).collect();
        osort(&mut ids);
        let mut dup = Choice::FALSE;
        for i in 1..n {
            dup = dup.or(ct_eq_u64(ids[i - 1], ids[i]));
        }
        if dup.declassify() {
            return Err(OHashError::DuplicateIds);
        }

        let h1 = SipHash24::from_key256(&key.derive(b"ohash-tier1"));
        let h2 = SipHash24::from_key256(&key.derive(b"ohash-tier2"));

        // 2. Tier-1 placement.
        let mut slots: Vec<Slot> = Vec::with_capacity(n + params.m1 * params.z1);
        for (i, req) in batch.into_iter().enumerate() {
            let b = h1.bin_u64(req.id, params.m1) as u64;
            slots.push(Slot { key: (b << 33) | i as u64, real_flag: 1, req });
        }
        let mut arrival = n as u64;
        for b in 0..params.m1 as u64 {
            for _ in 0..params.z1 {
                slots.push(Slot {
                    key: (b << 33) | (1 << 32) | arrival,
                    real_flag: 0,
                    req: filler(FILLER_BASE + arrival, value_len),
                });
                arrival += 1;
            }
        }
        osort_by(&mut slots, &|a: &Slot, b: &Slot| ct_lt_u64(b.key, a.key));
        let (keep1, spill) = position_scan(&slots, params.z1);

        let mut tier1 = slots.clone();
        let mut keep1_bits = keep1;
        ocompact(&mut tier1, &mut keep1_bits);
        tier1.truncate(params.m1 * params.z1);

        // 3. Overflow selection: spill-first stable sort, prefix of n2_cap.
        let total = slots.len();
        for (i, s) in slots.iter_mut().enumerate() {
            // key = (not-spill bit << 40) | arrival; spill entries first.
            let not_spill_key = (1u64 << 40) | i as u64;
            let spill_key = i as u64;
            let mut k = not_spill_key;
            k.cmov(&spill_key, spill[i]);
            s.key = k;
        }
        for j in 0..params.n2_cap {
            slots.push(Slot {
                key: (total + j) as u64,
                real_flag: 0,
                req: filler(FILLER_BASE + arrival + j as u64, value_len),
            });
        }
        osort_by(&mut slots, &|a: &Slot, b: &Slot| ct_lt_u64(b.key, a.key));
        let mut cap_overflow = Choice::FALSE;
        for s in &slots[params.n2_cap..] {
            let is_spill = ct_lt_u64(s.key, 1 << 40);
            cap_overflow = cap_overflow.or(is_spill.and(s.is_real()));
        }
        slots.truncate(params.n2_cap);
        if cap_overflow.declassify() {
            return Err(OHashError::TableOverflow);
        }

        // 4. Tier-2 placement.
        for (i, s) in slots.iter_mut().enumerate() {
            let b = h2.bin_u64(s.req.id, params.m2) as u64;
            s.key = (b << 33) | i as u64;
        }
        let mut arrival2 = params.n2_cap as u64;
        for b in 0..params.m2 as u64 {
            for _ in 0..params.z2 {
                slots.push(Slot {
                    key: (b << 33) | (1 << 32) | arrival2,
                    real_flag: 0,
                    req: filler(FILLER_BASE + arrival + params.n2_cap as u64 + arrival2, value_len),
                });
                arrival2 += 1;
            }
        }
        osort_by(&mut slots, &|a: &Slot, b: &Slot| ct_lt_u64(b.key, a.key));
        let (keep2, spill2) = position_scan(&slots, params.z2);
        let mut tier2_overflow = Choice::FALSE;
        for s in &spill2 {
            tier2_overflow = tier2_overflow.or(*s);
        }
        let mut keep2_bits = keep2;
        ocompact(&mut slots, &mut keep2_bits);
        slots.truncate(params.m2 * params.z2);
        if tier2_overflow.declassify() {
            return Err(OHashError::TableOverflow);
        }

        let mut all = tier1;
        all.extend(slots);
        let probes = all.iter().map(|s| Probe::of(&s.req)).collect();
        let mut values = Vec::with_capacity(all.len() * value_len);
        for s in &mut all {
            values.extend_from_slice(&std::mem::take(&mut s.req.value));
        }
        Ok(OHashTable { params, h1, h2, slots: all, probes, values, value_len })
    }

    /// The derived parameters.
    pub fn params(&self) -> &TableParams {
        &self.params
    }

    /// One stored object's pass over the table (Fig. 7 step ➋): scans the
    /// tier-1 and tier-2 buckets `id` can live in, in full. For every slot
    /// it computes `rd = hit ∧ permitted` and `wr = rd ∧ is_write` and makes
    /// one masked word pass over the object's `value` and the slot's value:
    /// a permitted write moves its payload into the object, and every
    /// permitted hit receives the object's value as of before this call
    /// (both updates read the same old words). Denied and missed slots are
    /// rewritten with their own bytes, so every call touches the same memory.
    ///
    /// Callers must look each id up at most once per table (§5).
    pub fn access(&mut self, id: u64, value: &mut [u8]) {
        assert_eq!(value.len(), self.value_len, "object size is public and fixed");
        let TableParams { m1, z1, m2, z2, .. } = self.params;
        let b1 = self.h1.bin_u64(id, m1);
        let b2 = self.h2.bin_u64(id, m2);
        trace::record(TraceEvent::Touch { region: 0x4f, index: b1 });
        trace::record(TraceEvent::Touch { region: 0x4f, index: m1 + b2 });
        let t2 = m1 * z1 + b2 * z2;
        self.probe_bucket(b1 * z1..(b1 + 1) * z1, id, value);
        self.probe_bucket(t2..t2 + z2, id, value);
    }

    fn probe_bucket(&mut self, bucket: std::ops::Range<usize>, id: u64, value: &mut [u8]) {
        let vl = self.value_len;
        let values = &mut self.values[bucket.start * vl..bucket.end * vl];
        for (i, probe) in self.probes[bucket].iter().enumerate() {
            // The barrier hides that `hit` is all-zeros or all-ones, which
            // would let the compiler turn the masking into a branch on it.
            let hit = std::hint::black_box(ct_eq_u64(probe.id, id));
            let (rd, wr) = (hit.and(probe.read), hit.and(probe.write));
            masked_exchange(value, &mut values[i * vl..(i + 1) * vl], wr, rd);
        }
    }

    /// Tears the table down, obliviously extracting exactly the `n` batch
    /// entries (with whatever mutations lookups applied to them). The count
    /// is public; the *positions* the entries came from are not revealed
    /// (order-preserving compaction over the whole table).
    pub fn into_batch_requests(self) -> Vec<Request> {
        let n = self.params.n;
        let vl = self.value_len;
        let mut slots = self.slots;
        for (i, s) in slots.iter_mut().enumerate() {
            s.req.value = self.values[i * vl..(i + 1) * vl].to_vec();
        }
        let mut keep: Vec<Choice> = slots.iter().map(|s| s.is_real()).collect();
        ocompact(&mut slots, &mut keep);
        slots.truncate(n);
        slots.into_iter().map(|s| s.req).collect()
    }

    /// Obliviously folds changed slot values from `other` (a copy of this
    /// table that processed a disjoint subset of the stored objects) back
    /// into `self`. "Changed" is judged against `baseline` — the pristine
    /// pre-scan table — so merging several worker copies in sequence never
    /// lets an *unchanged* copy revert an earlier worker's update. Each batch
    /// entry is matched by at most one stored object globally, so at most one
    /// copy changes any given slot.
    pub fn merge_changed_from(&mut self, baseline: &OHashTable, other: &OHashTable) {
        assert_eq!(self.values.len(), other.values.len(), "tables must be congruent");
        assert_eq!(self.values.len(), baseline.values.len(), "baseline must be congruent");
        let vl = self.value_len;
        for i in 0..self.slots.len() {
            let span = i * vl..(i + 1) * vl;
            let theirs = &other.values[span.clone()];
            let changed = ct_bytes_eq(&baseline.values[span.clone()], theirs).not();
            self.values[span].cmov(theirs, changed);
        }
    }

    /// Total slot count (tier 1 + tier 2).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The per-slot step of [`OHashTable::access`] on object bytes `o` and slot
/// bytes `s`: with `d = o ^ s`, `o ^= wr & d` and `s ^= rd & d`, in one pass.
/// Both updates use the same old bytes, so a write hit swaps the two values
/// and a read hit copies the object into the slot. The pass runs over
/// 32-byte blocks the compiler turns into 16-byte vector words (SSE2, the
/// x86-64 baseline), then a byte tail: the scalar form of the paper's masked
/// moves (§7).
#[inline(always)]
fn masked_exchange(o: &mut [u8], s: &mut [u8], wr: Choice, rd: Choice) {
    let (wr, rd) = (wr.mask() as u8, rd.mask() as u8);
    let mut o_blocks = o.chunks_exact_mut(32);
    let mut s_blocks = s.chunks_exact_mut(32);
    for (x, y) in (&mut o_blocks).zip(&mut s_blocks) {
        let x: &mut [u8; 32] = x.try_into().unwrap();
        let y: &mut [u8; 32] = y.try_into().unwrap();
        for k in 0..32 {
            let d = x[k] ^ y[k];
            x[k] ^= wr & d;
            y[k] ^= rd & d;
        }
    }
    for (x, y) in o_blocks.into_remainder().iter_mut().zip(s_blocks.into_remainder()) {
        let d = *x ^ *y;
        *x ^= wr & d;
        *y ^= rd & d;
    }
}

/// Position scan over bucket-sorted slots: computes, per slot, its index
/// within its bucket, returning (`keep` = placed within the first `z`,
/// `spill` = real entry that did not fit).
fn position_scan(slots: &[Slot], z: usize) -> (Vec<Choice>, Vec<Choice>) {
    let mut keep = Vec::with_capacity(slots.len());
    let mut spill = Vec::with_capacity(slots.len());
    // Buckets are < 2^30, so u64::MAX is a safe "no previous bucket" marker.
    let mut prev_bucket = u64::MAX;
    let mut pos = 0u64;
    for (i, s) in slots.iter().enumerate() {
        trace::record(TraceEvent::Touch { region: 0x51, index: i });
        let b = s.key >> 33;
        let same = ct_eq_u64(b, prev_bucket);
        let incremented = pos.wrapping_add(1);
        let mut new_pos = 0u64;
        new_pos.cmov(&incremented, same);
        pos = new_pos;
        prev_bucket = b;
        let placed = ct_lt_u64(pos, z as u64);
        keep.push(placed);
        spill.push(s.is_real().and(placed.not()));
    }
    (keep, spill)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoopy_enclave::wire::LB_DUMMY_BASE;

    const VLEN: usize = 16;

    fn batch_of(ids: &[u64]) -> Vec<Request> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Request::write(id, &id.to_le_bytes(), VLEN, 1, i as u64))
            .collect()
    }

    fn key() -> Key256 {
        Key256([42u8; 32])
    }

    #[test]
    fn constructs_and_extracts_exact_batch() {
        let ids: Vec<u64> = (0..500u64).map(|i| i * 7 + 3).collect();
        let table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
        assert_eq!(table.len(), table.params().total_slots());
        let mut out: Vec<u64> = table.into_batch_requests().iter().map(|r| r.id).collect();
        out.sort_unstable();
        let mut want = ids.clone();
        want.sort_unstable();
        assert_eq!(out, want);
    }

    #[test]
    fn every_id_findable_in_its_bucket_pair() {
        let ids: Vec<u64> = (0..1000u64).map(|i| i * 13 + 1).collect();
        let mut table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
        for &id in &ids {
            assert_eq!(copies(&table, id), 1, "id {id} must appear exactly once in its buckets");
            assert!(write_found(&mut table, id), "id {id} must be found in its buckets");
        }
    }

    /// How many slots of `id`'s tier-1 and tier-2 buckets hold `id`.
    fn copies(table: &OHashTable, id: u64) -> usize {
        let TableParams { m1, z1, m2, z2, .. } = table.params;
        let b1 = table.h1.bin_u64(id, m1);
        let t2 = m1 * z1 + table.h2.bin_u64(id, m2) * z2;
        let buckets = table.probes[b1 * z1..(b1 + 1) * z1].iter().chain(&table.probes[t2..t2 + z2]);
        buckets.filter(|p| p.id == id).count()
    }

    /// Looks `id` up once; every batch entry here is a write whose payload
    /// starts with its id, so the object receives it only on a hit.
    fn write_found(table: &mut OHashTable, id: u64) -> bool {
        let mut v = [0u8; VLEN];
        table.access(id, &mut v);
        v[..8] == id.to_le_bytes()
    }

    #[test]
    fn lookups_can_mutate_entries() {
        let ids = [10u64, 20, 30];
        let mut table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
        // A write hit hands the object its payload and takes the object's
        // old value as the response.
        let mut object = [0xEEu8; VLEN];
        table.access(20, &mut object);
        assert_eq!(&object[..8], &20u64.to_le_bytes());
        let out = table.into_batch_requests();
        let r = out.iter().find(|r| r.id == 20).unwrap();
        assert_eq!(r.value, vec![0xEEu8; VLEN]);
        let other = out.iter().find(|r| r.id == 10).unwrap();
        assert_ne!(other.value, vec![0xEEu8; VLEN]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = OHashTable::construct(batch_of(&[1, 2, 3, 2]), &key(), 128).unwrap_err();
        assert_eq!(err, OHashError::DuplicateIds);
    }

    #[test]
    fn tiny_batches_work() {
        for n in [1u64, 2, 5, 32, 33] {
            let ids: Vec<u64> = (0..n).map(|i| i + 100).collect();
            let mut table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
            for &id in &ids {
                assert_eq!(copies(&table, id), 1, "n={n} id={id}");
                assert!(write_found(&mut table, id), "n={n} id={id}");
            }
        }
    }

    #[test]
    fn lb_dummy_ids_supported() {
        // Batches mix real ids and load-balancer dummy ids; all must place.
        let mut ids: Vec<u64> = (0..100).collect();
        ids.extend((0..50).map(|k| LB_DUMMY_BASE + k));
        let table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
        let out = table.into_batch_requests();
        assert_eq!(out.len(), 150);
        assert_eq!(out.iter().filter(|r| r.is_dummy().declassify()).count(), 50);
    }

    #[test]
    fn construction_trace_independent_of_ids() {
        // Same n, same keys, different batch contents ⇒ identical traces.
        let ids_a: Vec<u64> = (0..200).collect();
        let ids_b: Vec<u64> = (5000..5200).collect();
        let (ra, ta) = trace::capture(|| OHashTable::construct(batch_of(&ids_a), &key(), 128));
        let (rb, tb) = trace::capture(|| OHashTable::construct(batch_of(&ids_b), &key(), 128));
        ra.unwrap();
        rb.unwrap();
        assert_eq!(ta.fingerprint(), tb.fingerprint());
    }

    #[test]
    fn different_keys_give_different_bucket_assignments() {
        let ids: Vec<u64> = (0..64).collect();
        let mut t1 = OHashTable::construct(batch_of(&ids), &Key256([1u8; 32]), 128).unwrap();
        let mut t2 = OHashTable::construct(batch_of(&ids), &Key256([2u8; 32]), 128).unwrap();
        // Bucket index sequences must differ for at least one id (keys fresh
        // per batch unlink bucket occupancy across batches).
        let differs = (0..64u64).any(|id| {
            let mut v = [0u8; VLEN];
            let ((), a) = trace::capture(|| t1.access(id, &mut v));
            let ((), b) = trace::capture(|| t2.access(id, &mut v));
            a != b
        });
        assert!(differs);
    }

    #[test]
    fn extraction_preserves_values_not_positions() {
        let ids: Vec<u64> = (0..300u64).map(|i| i * 3).collect();
        let table = OHashTable::construct(batch_of(&ids), &key(), 128).unwrap();
        let out = table.into_batch_requests();
        for r in &out {
            assert_eq!(&r.value[..8], &r.id.to_le_bytes(), "payload must ride along");
        }
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    #[test]
    fn merge_unchanged_copy_does_not_revert() {
        let batch: Vec<Request> = (0..10u64).map(|i| Request::read(i, 8, 0, i)).collect();
        let key = Key256([2u8; 32]);
        let base = OHashTable::construct(batch, &key, 128).unwrap();
        let mut merged = base.clone();
        let mut changed = base.clone();
        changed.access(3, &mut [0x77; 8]);
        let untouched = base.clone();
        merged.merge_changed_from(&base, &changed);
        merged.merge_changed_from(&base, &untouched); // must NOT revert
        let out = merged.into_batch_requests();
        assert_eq!(out.iter().find(|r| r.id == 3).unwrap().value, vec![0x77; 8]);
    }

    #[test]
    fn merge_changed_from_applies_diffs() {
        let batch: Vec<Request> = (0..20u64).map(|i| Request::read(i, 8, 0, i)).collect();
        let key = Key256([1u8; 32]);
        let base = OHashTable::construct(batch, &key, 128).unwrap();
        let mut a = base.clone();
        let mut b = base.clone();
        // Mutate id 5's slot in b only: a read hit takes the object's value.
        b.access(5, &mut [0xEE; 8]);
        a.merge_changed_from(&base, &b);
        let out = a.into_batch_requests();
        let r5 = out.iter().find(|r| r.id == 5).unwrap();
        assert_eq!(r5.value, vec![0xEE; 8]);
        let r6 = out.iter().find(|r| r.id == 6).unwrap();
        assert_eq!(r6.value, vec![0u8; 8]);
    }
}

#[cfg(test)]
mod access_oracle {
    //! [`OHashTable::access`] against the per-slot kernel it replaced: one
    //! `Request` per slot holding its own value, a clone of the object's
    //! value per slot, and two separate `Vec<u8>` compare-and-sets.

    use super::*;
    use proptest::prelude::*;
    use snoopy_enclave::wire::{StoredObject, LB_DUMMY_BASE, REAL_ID_LIMIT};

    /// The replaced kernel, over slots that carry their values inline.
    fn reference_step(table: &OHashTable, slots: &mut [Request], obj: &mut StoredObject) {
        let p = table.params;
        let b1 = table.h1.bin_u64(obj.id, p.m1);
        let b2 = table.h2.bin_u64(obj.id, p.m2);
        let (t1, t2) = slots.split_at_mut(p.m1 * p.z1);
        let bucket1 = &mut t1[b1 * p.z1..(b1 + 1) * p.z1];
        let bucket2 = &mut t2[b2 * p.z2..(b2 + 1) * p.z2];
        for req in bucket1.iter_mut().chain(bucket2.iter_mut()) {
            let hit = ct_eq_u64(req.id, obj.id);
            let old = obj.value.clone();
            obj.value.cmov(&req.value, hit.and(req.is_write()).and(req.is_permitted()));
            req.value.cmov(&old, hit.and(req.is_permitted()));
        }
    }

    /// SplitMix64: the case's batch and partition from one seed.
    fn next(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(x: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next(x) as u8).collect()
    }

    proptest! {
        #[test]
        fn access_matches_reference_kernel(
            seed in any::<u64>(),
            value_len in prop::sample::select(vec![1usize, 7, 8, 13, 160]),
            objects in 1u64..300,
            batch_len in 1usize..120,
        ) {
            let mut x = seed;
            let mut partition: Vec<StoredObject> =
                (0..objects).map(|id| StoredObject { id, value: bytes(&mut x, value_len) }).collect();
            // Distinct ids: stored objects, ids absent from the partition,
            // and load-balancer dummies; random kinds, payloads and permits.
            let mut ids: Vec<u64> = Vec::new();
            while ids.len() < batch_len {
                let id = match next(&mut x) % 3 {
                    0 => next(&mut x) % objects,
                    1 => objects + next(&mut x) % (REAL_ID_LIMIT - objects),
                    _ => LB_DUMMY_BASE + next(&mut x) % 1000,
                };
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            let batch: Vec<Request> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| Request {
                    id,
                    kind: next(&mut x) % 2,
                    value: bytes(&mut x, value_len),
                    client: i as u64,
                    seq: next(&mut x),
                    permit: u64::from(!next(&mut x).is_multiple_of(4)),
                })
                .collect();
            let key = Key256(seed.to_le_bytes().repeat(4).try_into().unwrap());
            let mut table = OHashTable::construct(batch, &key, 128).unwrap();

            let mut ref_slots: Vec<Request> = table.slots.iter().enumerate().map(|(i, s)| {
                let mut req = s.req.clone();
                req.value = table.values[i * value_len..(i + 1) * value_len].to_vec();
                req
            }).collect();
            let mut ref_partition = partition.clone();
            for obj in &mut ref_partition {
                reference_step(&table, &mut ref_slots, obj);
            }
            for obj in &mut partition {
                table.access(obj.id, &mut obj.value);
            }

            prop_assert_eq!(&partition, &ref_partition);
            let ref_values: Vec<u8> = ref_slots.iter().flat_map(|r| r.value.clone()).collect();
            prop_assert_eq!(&table.values, &ref_values);
            let mut want: Vec<Request> = table
                .slots
                .iter()
                .zip(ref_slots)
                .filter(|(s, _)| s.is_real().declassify())
                .map(|(_, r)| r)
                .collect();
            let mut got = table.into_batch_requests();
            want.sort_by_key(|r| r.id);
            got.sort_by_key(|r| r.id);
            prop_assert_eq!(got, want);
        }
    }
}
