//! Oblivious construction and lookup for the two-tier table.
//!
//! Construction sorts only the batch's own rows and pads them into the
//! public layout by expansion, never by sorting fillers. One placement
//! routine ([`place`]) runs once per tier, all of it fixed-pattern:
//!
//! 1. **Sort** the tier's input by (bucket, id), real rows before fillers.
//! 2. **Scan** once: each real row's rank in its bucket gives
//!    `placed = rank < z` and its target slot `bucket·z + rank`. Equal ids
//!    are adjacent, so the same scan finds duplicate ids — the subORAM
//!    protocol returns ⊥ on such a batch (paper Fig. 19 lines 2-4).
//! 3. **Compact**: an order-preserving compaction moves the placed rows to
//!    the front, in target order. A spill count above `cap` is the
//!    negligible-probability overflow. Otherwise at most `cap` rows were not
//!    placed, so the last `cap` rows hold every spill: a copy of them is the
//!    (padded, secret-count) input of the next tier, with the placed rows
//!    among them turned into fillers with fresh ids, so no batch id ever
//!    sits in both tiers.
//! 4. **Expand**: an order-preserving expansion routes the placed rows to
//!    their targets among the tier's `m·z` slots; every other slot becomes
//!    a filler.
//!
//! Tier 1 places the `n` batch rows with `cap = n2_cap`; tier 2 places those
//! `n2_cap` rows with `cap = 0`, where any spill is a construction failure.
//! Only two bits are declassified: "duplicate ids" and "overflow".
//!
//! Lookups touch exactly one tier-1 and one tier-2 bucket, determined by the
//! fresh per-batch keys, and must be performed at most once per distinct id —
//! both guaranteed by the subORAM's usage (§5).

use crate::params::TableParams;
use snoopy_crypto::{Key256, SipHash24};
use snoopy_enclave::wire::{Request, FILLER_BASE};
use snoopy_obliv::compact::ocompact;
use snoopy_obliv::ct::{ct_bytes_eq, ct_eq_u64, ct_lt_u64, Choice, Cmov};
use snoopy_obliv::expand::oexpand;
use snoopy_obliv::impl_cmov_struct;
use snoopy_obliv::sort::osort_by;
use snoopy_obliv::trace::{self, Region, TraceEvent};

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
    /// Placement key (layout-internal, secret value): during a tier's sort
    /// the row's bucket, with bit 32 set for fillers; after its rank scan,
    /// the row's target slot in the tier.
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

        let h1 = SipHash24::from_key256(&key.derive(b"ohash-tier1"));
        let h2 = SipHash24::from_key256(&key.derive(b"ohash-tier2"));
        let mut fillers = Fillers { next: FILLER_BASE, value_len };
        let rows = batch.into_iter().map(|req| Slot { key: 0, real_flag: 1, req }).collect();
        let tier1 = place(rows, &h1, params.m1, params.z1, params.n2_cap, &mut fillers);
        if tier1.duplicate.declassify() {
            return Err(OHashError::DuplicateIds);
        }
        if tier1.overflow.declassify() {
            return Err(OHashError::TableOverflow);
        }
        let tier2 = place(tier1.spills, &h2, params.m2, params.z2, 0, &mut fillers);
        if tier2.overflow.declassify() {
            return Err(OHashError::TableOverflow);
        }

        let mut all = tier1.slots;
        all.extend(tier2.slots);
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
        // `m2` is public, and a one-bucket tier's bucket is always 0.
        let b2 = if m2 > 1 { self.h2.bin_u64(id, m2) } else { 0 };
        trace::record(TraceEvent::Touch { region: Region::Table, index: b1 });
        trace::record(TraceEvent::Touch { region: Region::Table, index: m1 + b2 });
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

/// Fresh construction fillers: each gets the next id of the filler
/// namespace, which no stored object or batch entry uses.
struct Fillers {
    next: u64,
    value_len: usize,
}

impl Fillers {
    /// The next fresh filler id. How many are drawn is public.
    fn id(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// Resizes `rows` (tagged by `bits`) to `len`, padding with fillers,
    /// then turns every row whose bit is clear into a filler: one masked
    /// move of its real flag and of a fresh id, so the row's request can
    /// never be found — nor extracted — from this tier.
    fn pad(&mut self, rows: &mut Vec<Slot>, bits: &mut Vec<Choice>, len: usize) {
        rows.truncate(len);
        bits.truncate(len);
        while rows.len() < len {
            let id = self.id();
            rows.push(Slot { key: 0, real_flag: 0, req: filler(id, self.value_len) });
            bits.push(Choice::FALSE);
        }
        for (row, bit) in rows.iter_mut().zip(bits.iter()) {
            let off = bit.not();
            row.real_flag.cmov(&0, off);
            row.req.id.cmov(&self.id(), off);
        }
    }
}

/// One tier's placement.
struct Placed {
    /// The tier's `m·z` slots, bucket by bucket.
    slots: Vec<Slot>,
    /// `cap` rows: every real row that did not fit, then fillers.
    spills: Vec<Slot>,
    /// More than `cap` rows did not fit (secret until declassified).
    overflow: Choice,
    /// Two real rows share an id (secret until declassified).
    duplicate: Choice,
}

/// Places `rows` into `m` buckets of `z` slots under `h` (see the module
/// docs): sort the rows, rank each real row in its bucket, expand the rows
/// that fit to their slots, and copy the rows that did not into a `cap`-row
/// spill list. A spill list needs an all-real input (`cap > 0` only for
/// tier 1): fillers would crowd spills out of the copied tail. The access
/// pattern depends only on `rows.len()`, `m`, `z` and `cap`.
fn place(
    mut rows: Vec<Slot>,
    h: &SipHash24,
    m: usize,
    z: usize,
    cap: usize,
    fillers: &mut Fillers,
) -> Placed {
    for row in &mut rows {
        let filler_bit = (1 - row.real_flag) << 32;
        row.key = h.bin_u64(row.req.id, m) as u64 | filler_bit;
    }
    // (bucket, id), fillers last: a bucket's real rows are contiguous, and
    // a duplicate id sits next to its twin.
    osort_by(&mut rows, &|a: &Slot, b: &Slot| {
        let key_gt = ct_lt_u64(b.key, a.key);
        let key_eq = ct_eq_u64(a.key, b.key);
        key_gt.or(key_eq.and(ct_lt_u64(b.req.id, a.req.id)))
    });

    let mut placed = Vec::with_capacity(rows.len());
    let mut unplaced = 0u64;
    let mut duplicate = Choice::FALSE;
    // Keys are < 2^33, so u64::MAX is a safe "no previous row" marker.
    let (mut prev_key, mut prev_id, mut rank) = (u64::MAX, u64::MAX, 0u64);
    for (i, row) in rows.iter_mut().enumerate() {
        trace::record(TraceEvent::Touch { region: Region::Placement, index: i });
        let same = ct_eq_u64(row.key, prev_key);
        let mut next_rank = 0u64;
        next_rank.cmov(&rank.wrapping_add(1), same);
        rank = next_rank;
        let real = row.is_real();
        duplicate = duplicate.or(real.and(same).and(ct_eq_u64(row.req.id, prev_id)));
        let fits = ct_lt_u64(rank, z as u64);
        placed.push(real.and(fits));
        unplaced += real.and(fits.not()).as_bit();
        (prev_key, prev_id) = (row.key, row.req.id);
        // Fillers' targets are never read: expansion ignores unplaced rows.
        row.key = (row.key & 0xFFFF_FFFF) * z as u64 + rank;
    }

    let overflow = ct_lt_u64(cap as u64, unplaced);

    // Unless the tier overflows, the last `cap` rows after the compaction
    // hold every row that was not placed.
    ocompact(&mut rows, &mut placed);
    let from = rows.len().saturating_sub(cap);
    let mut spills = rows[from..].to_vec();
    let mut spill: Vec<Choice> =
        spills.iter().zip(&placed[from..]).map(|(r, p)| r.is_real().and(p.not())).collect();
    fillers.pad(&mut spills, &mut spill, cap);

    fillers.pad(&mut rows, &mut placed, m * z);
    let targets: Vec<u64> = rows.iter().map(|r| r.key).collect();
    oexpand(&mut rows, &targets, &mut placed);
    Placed { slots: rows, spills, overflow, duplicate }
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

    /// `count` ids whose tier-1 bucket under [`key`] among 2 is `bucket`.
    fn ids_in_bucket(bucket: usize, count: usize) -> Vec<u64> {
        let h1 = SipHash24::from_key256(&key().derive(b"ohash-tier1"));
        (0..).filter(|&id| h1.bin_u64(id, 2) == bucket).take(count).collect()
    }

    /// A hand-built table: two tier-1 buckets of two slots, a tier-1
    /// overflow cap of `n2_cap`, and one tier-2 bucket of `z2` slots.
    fn forced(ids: &[u64], n2_cap: usize, z2: usize) -> Result<OHashTable, OHashError> {
        let params = TableParams { n: ids.len(), m1: 2, z1: 2, n2_cap, m2: 1, z2, lambda: 128 };
        OHashTable::construct_with_params(batch_of(ids), &key(), params)
    }

    #[test]
    fn forced_spills_up_to_the_cap_are_found_exactly_once() {
        // Five ids in bucket 0 and two in bucket 1: three spill. With the
        // cap exactly at three, and with room to spare (the spare prefix
        // rows are tier-1 rows and must not be copied into tier 2).
        let mut ids = ids_in_bucket(0, 5);
        ids.extend(ids_in_bucket(1, 2));
        for n2_cap in [3, 5] {
            let mut table = forced(&ids, n2_cap, n2_cap).unwrap();
            assert_eq!(table.len(), 4 + n2_cap);
            for &id in &ids {
                assert_eq!(copies(&table, id), 1, "cap {n2_cap}: id {id}");
                assert!(write_found(&mut table, id), "cap {n2_cap}: write to {id} applied once");
            }
            let mut out: Vec<u64> = table.into_batch_requests().iter().map(|r| r.id).collect();
            out.sort_unstable();
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn forced_spills_past_the_cap_overflow() {
        // Six ids in one bucket of two: four spill, one more than the cap.
        let ids = ids_in_bucket(0, 6);
        assert_eq!(forced(&ids, 3, 8).unwrap_err(), OHashError::TableOverflow);
        assert!(forced(&ids, 4, 4).is_ok());
        // Within the cap but past tier 2's one bucket of three slots.
        assert_eq!(forced(&ids, 4, 3).unwrap_err(), OHashError::TableOverflow);
    }

    #[test]
    fn duplicate_in_an_overflowing_bucket_is_reported_as_duplicate() {
        let mut ids = ids_in_bucket(0, 6);
        ids.push(ids[2]);
        assert_eq!(forced(&ids, 1, 8).unwrap_err(), OHashError::DuplicateIds);
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
            m2 in prop::sample::select(vec![1usize, 2, 4]),
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
            // `derive` gives a one-bucket tier 2 at every size drawn here. The
            // other shapes overfill a small tier 1 so most ids spill into
            // `m2` tier-2 buckets, each big enough to hold every spill.
            let params = if m2 == 1 {
                TableParams::derive(batch_len, batch_len, 128)
            } else {
                let (m1, z1) = (batch_len.div_ceil(4), 2);
                TableParams { n: batch_len, m1, z1, n2_cap: batch_len, m2, z2: batch_len, lambda: 128 }
            };
            let mut table = OHashTable::construct_with_params(batch, &key, params).unwrap();

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
