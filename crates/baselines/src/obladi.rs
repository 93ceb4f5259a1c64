//! Obladi-style trusted-proxy baseline (Crooks et al., OSDI'18 — the paper's
//! \[26\]).
//!
//! Obladi batches requests at a *trusted proxy* (not an enclave) in front of
//! Ring ORAM, with two key ideas this baseline reproduces:
//!
//! * **Fixed-size batches with delayed visibility** — requests are buffered
//!   and answered only when their batch commits; batches are padded to a
//!   fixed size (the paper configures 500) so batch size leaks nothing;
//! * **Deduplication at the proxy** — one ORAM access serves every request
//!   for the same key in a batch (reads see pre-batch state, writes
//!   last-write-wins), which is where Obladi's throughput comes from.
//!
//! The scalability ceiling the paper's Fig. 9a shows — Obladi cannot grow
//! past its proxy — is architectural: every request serializes through this
//! one proxy object, which is why the reproduction benches it on a single
//! instance.

use crate::ringoram::{RingOram, RingStats};
use crate::Op;
use std::collections::HashMap;

/// The batch size the paper configures Obladi with.
pub const DEFAULT_BATCH: usize = 500;

/// One buffered request.
#[derive(Clone, Debug)]
pub struct ProxyRequest {
    /// Block address.
    pub addr: u64,
    /// Operation.
    pub op: Op,
    /// Write payload.
    pub data: Option<Vec<u8>>,
    /// Caller tag echoed in the response.
    pub tag: u64,
}

/// One response, delivered at batch commit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProxyResponse {
    /// Echo of the request tag.
    pub tag: u64,
    /// The pre-batch value of the block.
    pub value: Vec<u8>,
}

/// Proxy statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProxyStats {
    /// Batches committed.
    pub batches: u64,
    /// Client requests served.
    pub requests: u64,
    /// ORAM accesses performed (incl. padding).
    pub oram_accesses: u64,
}

/// The trusted proxy over a Ring ORAM backend.
pub struct ObladiProxy {
    oram: RingOram,
    batch_size: usize,
    buffer: Vec<ProxyRequest>,
    /// Counters.
    pub stats: ProxyStats,
}

impl ObladiProxy {
    /// Creates a proxy over a zeroed ORAM of `capacity` blocks.
    pub fn new(capacity: u64, block_len: usize, batch_size: usize, seed: u64) -> ObladiProxy {
        assert!(batch_size >= 1);
        ObladiProxy {
            oram: RingOram::new(capacity, block_len, seed),
            batch_size,
            buffer: Vec::new(),
            stats: ProxyStats::default(),
        }
    }

    /// Buffers a request; commits automatically when the batch fills.
    /// Returns the batch's responses when it committed, `None` otherwise.
    pub fn submit(&mut self, req: ProxyRequest) -> Option<Vec<ProxyResponse>> {
        self.buffer.push(req);
        if self.buffer.len() >= self.batch_size {
            Some(self.commit())
        } else {
            None
        }
    }

    /// Commits whatever is buffered (padding the batch to the fixed size
    /// with dummy accesses, as Obladi does to keep batch shape constant).
    pub fn commit(&mut self) -> Vec<ProxyResponse> {
        let reqs = std::mem::take(&mut self.buffer);
        self.stats.batches += 1;
        self.stats.requests += reqs.len() as u64;

        // Deduplicate: group by address, preserving arrival order within a
        // group. Reads see pre-batch state; writes apply last-write-wins.
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<&ProxyRequest>> = HashMap::new();
        for r in &reqs {
            groups.entry(r.addr).or_insert_with(|| {
                order.push(r.addr);
                Vec::new()
            });
            groups.get_mut(&r.addr).unwrap().push(r);
        }

        let mut pre_values: HashMap<u64, Vec<u8>> = HashMap::new();
        for &addr in &order {
            let group = &groups[&addr];
            let last_write = group.iter().rev().find(|r| r.op == Op::Write);
            self.stats.oram_accesses += 1;
            let old = match last_write {
                Some(w) => self.oram.access(Op::Write, addr, w.data.as_deref()),
                None => self.oram.access(Op::Read, addr, None),
            };
            pre_values.insert(addr, old);
        }

        // Pad with dummy ORAM accesses so every batch performs the same
        // number of accesses.
        let pad = self.batch_size.saturating_sub(order.len());
        for i in 0..pad {
            self.stats.oram_accesses += 1;
            let dummy_addr = (i as u64) % self.oram.capacity();
            self.oram.access(Op::Read, dummy_addr, None);
        }

        reqs.iter()
            .map(|r| ProxyResponse { tag: r.tag, value: pre_values[&r.addr].clone() })
            .collect()
    }

    /// Buffered (uncommitted) request count.
    pub fn pending(&self) -> usize {
        self.buffer.len()
    }

    /// The backend's I/O statistics.
    pub fn oram_stats(&self) -> RingStats {
        self.oram.stats
    }
}
