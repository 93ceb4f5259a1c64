//! The two-tier oblivious hash table at the heart of Snoopy's subORAM (§5).
//!
//! A subORAM processes a whole batch with one linear scan over its stored
//! objects; for each object it must find "the request for this object, if
//! any" without revealing whether one exists. The batch is therefore loaded
//! into a hash table whose *construction* access pattern hides the mapping of
//! requests to buckets, and whose *lookup* access pattern (hash the id, scan
//! the whole bucket) is safe as long as each id is looked up at most once
//! under a fresh per-batch key.
//!
//! Snoopy rejects Signal's `O(n²)` construction and single-tier tables
//! (negligible-overflow buckets must be large), adopting Chan et al.'s
//! **two-tier** scheme: a first tier of many small buckets absorbs the bulk;
//! the (padded, secret-count) overflow goes to a second tier whose buckets
//! are sized for cryptographically negligible failure. Construction sorts
//! only the batch's own rows and pads them into each tier's public layout
//! with an order-preserving oblivious expansion (`snoopy_obliv::expand`),
//! so no sort ever runs over filler slots.
//!
//! Parameter derivation ([`params::TableParams::derive`]) is from first
//! principles: exact binomial tails for the tier-1 overflow rate, a Chernoff
//! certificate (valid under negative association of balls-into-bins) for the
//! total-overflow cap, and the paper's own Theorem 3 bound for the tier-2
//! buckets. The derivation is more conservative than Chan et al.'s analysis
//! (which this paper does not restate), so our bucket-size advantage over a
//! single-tier table is real but smaller than the paper's quoted ~10×; the
//! structure and obliviousness are faithful. [`single::SingleTierTable`]
//! exists as the ablation baseline.
//!
//! **Which certified table.** Many `(m1, z1, m2, z2)` meet both certificates;
//! the derivation picks by predicted cost, not by lookup width alone. A
//! batch pays for its table in the build (a sort of the batch rows, then
//! compactions and an expansion per tier, one more compaction to extract
//! the batch) and in the scan (`objects · (z1 + z2)` slot probes), so
//! [`TableParams::derive`] takes the public partition size `objects` beside
//! the batch size and minimises
//! `24 ns · sort exchanges + 30 ns · compaction and expansion swaps + 13 ns ·
//! objects · (z1 + z2)` — exact network counts, constants measured once at
//! 160-byte values and fixed in `params.rs`. Against a partition many times
//! the batch the pick has narrow buckets (scan_mem's shape, 256 entries
//! over 32 768 objects: 18 slots per lookup); against one near the batch
//! size it has a small tier 2 (batch_mem's shape, 1 507 entries over 2 048
//! objects: 3 112 slots). [`OHashTable::construct`] sizes for
//! `objects = n`; the subORAM passes its partition size through
//! [`OHashTable::construct_with_params`].
//!
//! **The lookup kernel.** Once built, the table stores its slots' values as
//! one contiguous slab (stride `value_len`, bucket order) beside a compact
//! array of what a lookup reads of each slot: the id and the "permitted" /
//! "permitted write" masks. [`OHashTable::access`] is the subORAM's
//! whole per-object step (Fig. 7 ➋): for each slot of both candidate buckets
//! it forms `rd = hit ∧ permitted` and `wr = rd ∧ is_write` and makes one
//! masked pass `d = o ^ s; o ^= wr & d; s ^= rd & d` over the object's value
//! `o` and the slot's value `s`. Both updates read the same old bytes, so a
//! permitted write swaps payload and object (the response gets the
//! pre-write value) and a permitted read copies the object into the slot;
//! ids are distinct, so at most one slot hits per object and the object is
//! still at its start-of-batch value when it does. Every slot's bytes are
//! read and rewritten whatever the masks, and `access` records the same two
//! bucket touches a bucket-pair lookup always did, so the memory trace is
//! that of the per-slot `Vec` kernel it replaced.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod params;
pub mod single;
pub mod table;

pub use params::TableParams;
pub use table::{OHashError, OHashTable};
