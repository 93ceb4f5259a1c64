//! Single-tier oblivious hash table — the ablation baseline the paper argues
//! *against* in §5: with only one tier, every bucket must be sized for
//! cryptographically negligible overflow directly (Theorem 3), which makes
//! buckets much larger and lookups correspondingly slower. Benches compare
//! its construction and lookup cost against [`crate::OHashTable`].

use crate::table::OHashError;
use snoopy_binning::batch_size;
use snoopy_crypto::{Key256, SipHash24};
use snoopy_enclave::wire::{Request, FILLER_BASE};
use snoopy_obliv::compact::ocompact;
use snoopy_obliv::ct::{ct_eq_u64, ct_lt_u64, Choice, Cmov};
use snoopy_obliv::impl_cmov_struct;
use snoopy_obliv::sort::osort_by;

/// Slot in the single-tier table.
#[derive(Clone, Debug)]
pub struct STSlot {
    key: u64,
    real_flag: u64,
    /// The payload request.
    pub req: Request,
}

impl_cmov_struct!(STSlot { key, real_flag, req });

/// A single-tier oblivious hash table with Theorem-3-sized buckets.
pub struct SingleTierTable {
    m: usize,
    z: usize,
    n: usize,
    h: SipHash24,
    slots: Vec<STSlot>,
}

impl SingleTierTable {
    /// Chooses the bucket count minimizing bucket size under a memory cap of
    /// `8n` slots, then sizes buckets with the Theorem 3 bound.
    pub fn derive_params(n: usize, lambda: u32) -> (usize, usize) {
        let mut best = (1usize, n);
        let mut m = 1usize;
        while m <= (8 * n).next_power_of_two() {
            let z = batch_size(n as u64, m as u64, lambda) as usize;
            if m * z <= 8 * n && z < best.1 {
                best = (m, z);
            }
            m *= 2;
        }
        best
    }

    /// Builds the table (same oblivious placement as the two-tier table's
    /// tier 1, but overflow is a hard, negligible-probability failure).
    pub fn construct(
        batch: Vec<Request>,
        key: &Key256,
        lambda: u32,
    ) -> Result<SingleTierTable, OHashError> {
        assert!(!batch.is_empty());
        let n = batch.len();
        let value_len = batch[0].value.len();
        let (m, z) = Self::derive_params(n, lambda);
        let h = SipHash24::from_key256(&key.derive(b"single-tier"));

        let mut slots: Vec<STSlot> = Vec::with_capacity(n + m * z);
        for (i, req) in batch.into_iter().enumerate() {
            let b = h.bin_u64(req.id, m) as u64;
            slots.push(STSlot { key: (b << 33) | i as u64, real_flag: 1, req });
        }
        let mut arrival = n as u64;
        for b in 0..m as u64 {
            for _ in 0..z {
                slots.push(STSlot {
                    key: (b << 33) | (1 << 32) | arrival,
                    real_flag: 0,
                    req: Request {
                        id: FILLER_BASE + arrival,
                        kind: 0,
                        value: vec![0u8; value_len],
                        client: 0,
                        seq: 0,
                        permit: 1,
                    },
                });
                arrival += 1;
            }
        }
        osort_by(&mut slots, &|a: &STSlot, b: &STSlot| ct_lt_u64(b.key, a.key));

        let mut prev_bucket = u64::MAX;
        let mut pos = 0u64;
        let mut keep = Vec::with_capacity(slots.len());
        let mut overflow = Choice::FALSE;
        for s in slots.iter() {
            let b = s.key >> 33;
            let same = ct_eq_u64(b, prev_bucket);
            let incremented = pos.wrapping_add(1);
            let mut new_pos = 0u64;
            new_pos.cmov(&incremented, same);
            pos = new_pos;
            prev_bucket = b;
            let placed = ct_lt_u64(pos, z as u64);
            keep.push(placed);
            overflow = overflow.or(ct_eq_u64(s.real_flag, 1).and(placed.not()));
        }
        let mut keep_bits = keep;
        ocompact(&mut slots, &mut keep_bits);
        slots.truncate(m * z);
        if overflow.declassify() {
            return Err(OHashError::TableOverflow);
        }
        Ok(SingleTierTable { m, z, n, h, slots })
    }

    /// The single bucket `id` can live in.
    pub fn bucket_mut(&mut self, id: u64) -> &mut [STSlot] {
        let b = self.h.bin_u64(id, self.m);
        &mut self.slots[b * self.z..(b + 1) * self.z]
    }

    /// Bucket size (per-lookup scan cost).
    pub fn bucket_size(&self) -> usize {
        self.z
    }

    /// Extracts the batch entries.
    pub fn into_batch_requests(self) -> Vec<Request> {
        let n = self.n;
        let mut slots = self.slots;
        let mut keep: Vec<Choice> = slots.iter().map(|s| ct_eq_u64(s.real_flag, 1)).collect();
        ocompact(&mut slots, &mut keep);
        slots.truncate(n);
        slots.into_iter().map(|s| s.req).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableParams;

    const VLEN: usize = 16;

    fn batch_of(ids: &[u64]) -> Vec<Request> {
        ids.iter().enumerate().map(|(i, &id)| Request::read(id, VLEN, 0, i as u64)).collect()
    }

    #[test]
    fn constructs_and_finds_all_ids() {
        let ids: Vec<u64> = (0..500u64).map(|i| i * 11 + 5).collect();
        let mut t = SingleTierTable::construct(batch_of(&ids), &Key256([7u8; 32]), 128).unwrap();
        for &id in &ids {
            let found = t.bucket_mut(id).iter().filter(|s| s.req.id == id).count();
            assert_eq!(found, 1, "id {id}");
        }
        let out = t.into_batch_requests();
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn single_tier_buckets_larger_than_two_tier_lookup() {
        // The §5 argument: the two-tier lookup cost (z1+z2) beats the
        // single-tier bucket size at realistic batch sizes, in the paper's
        // regime of a partition many times the batch.
        for n in [1usize << 12, 1 << 14] {
            let (_, z_single) = SingleTierTable::derive_params(n, 128);
            let two = TableParams::derive(n, 16 * n, 128);
            assert!(
                two.lookup_cost() <= z_single,
                "n={n}: two-tier {} vs single {z_single}",
                two.lookup_cost()
            );
        }
    }

    #[test]
    fn params_bucket_holds_mean_load() {
        let (m, z) = SingleTierTable::derive_params(4096, 128);
        assert!(m * z >= 4096);
        assert!((z as f64) >= 4096.0 / m as f64);
    }
}
