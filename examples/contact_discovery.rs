//! Signal-style private contact discovery (paper §5's motivating design).
//!
//! The enclave must decide which of a client's contacts are registered users
//! without leaking the contacts. Exactly as in the paper's description of
//! Signal's protocol, the contacts are loaded into an oblivious hash table
//! and every registered user is looked up against it — but where Signal paid
//! `O(n²)` to build the table, this uses the same two-tier construction as
//! Snoopy's subORAM, at `O(n polylog n)`.
//!
//! Run with: `cargo run --release --example contact_discovery`

use snoopy_repro::crypto::Key256;
use snoopy_repro::enclave::wire::Request;
use snoopy_repro::snoopy_ohash::{OHashTable, TableParams};

const VALUE_LEN: usize = 8;

fn main() {
    // The client's (secret) contact list: phone numbers as u64s.
    let contacts: Vec<u64> = vec![15_550_001, 15_550_042, 15_550_777, 15_559_999, 15_551_234];
    // The service's registered users (public set, large).
    let registered: Vec<u64> = (0..50_000u64).map(|i| 15_550_000 + i * 3).collect();

    // 1. Build the oblivious table over the contacts under a fresh key; the
    //    construction's access pattern hides which contact went where. The
    //    table is sized for the (public) number of users scanned against it.
    let batch: Vec<Request> = contacts
        .iter()
        .enumerate()
        .map(|(i, &c)| Request::read(c, VALUE_LEN, 0, i as u64))
        .collect();
    let key = Key256([77u8; 32]);
    let params = TableParams::derive(batch.len(), registered.len(), 128);
    let mut table =
        OHashTable::construct_with_params(batch, &key, params).expect("distinct contacts");
    println!(
        "oblivious table over {} contacts: {} slots, {} scanned per lookup",
        contacts.len(),
        table.len(),
        table.params().lookup_cost()
    );

    // 2. Scan every registered user against the table (one bucket-pair scan
    //    each). Each contact is a read, so a match copies the user's value —
    //    the marker — into the contact's slot, obliviously.
    let marker = vec![0xFFu8; VALUE_LEN];
    let mut user_value = marker.clone();
    for &user in &registered {
        table.access(user, &mut user_value);
    }

    // 3. Extract the contacts (order-preserving oblivious compaction) and
    //    read off which were registered.
    let out = table.into_batch_requests();
    println!("discovery results:");
    for r in &out {
        let found = r.value == marker;
        println!("  +{}: {}", r.id, if found { "registered ✓" } else { "not on the service" });
    }
    let found: Vec<u64> = out.iter().filter(|r| r.value == marker).map(|r| r.id).collect();
    // Ground truth: contacts ≡ 15_550_000 (mod 3) within range.
    let expect: Vec<u64> = contacts
        .iter()
        .copied()
        .filter(|c| *c >= 15_550_000 && (*c - 15_550_000) % 3 == 0 && *c < 15_550_000 + 150_000)
        .collect();
    let mut found_sorted = found.clone();
    found_sorted.sort_unstable();
    let mut expect_sorted = expect.clone();
    expect_sorted.sort_unstable();
    assert_eq!(found_sorted, expect_sorted);
    println!("matches ground truth ✓ — and the access pattern never depended on the contacts.");
}
