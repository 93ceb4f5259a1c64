//! The reference engine: Snoopy's epoch protocol, synchronously.
//!
//! One [`Snoopy`] value owns `L` load balancers and `S` subORAMs and executes
//! epochs deterministically: each load balancer assembles its batches
//! (Fig. 5), each subORAM executes the balancers' batches *in load-balancer
//! order* (§4.3 — this is what makes the cross-balancer linearization order
//! well-defined), and each balancer matches responses back to its own
//! requests (Fig. 6). The threaded deployment in [`crate::deploy`] runs the
//! same components concurrently and must produce identical results.

use crate::config::SnoopyConfig;
use crate::stats::{record_epoch_metrics, EpochStats};
use snoopy_crypto::{Key256, Prg};
use snoopy_enclave::wire::{Request, Response, StoredObject};
use snoopy_lb::{partition_objects, LbError, LoadBalancer};
use snoopy_suboram::{SubOram, SubOramError};
use snoopy_telemetry::trace;

/// Top-level errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopyError {
    /// Load balancer failure.
    Lb(LbError),
    /// SubORAM failure.
    SubOram(SubOramError),
    /// The per-balancer request vector count didn't match the configuration.
    WrongBalancerCount {
        /// Expected `L`.
        expected: usize,
        /// Provided count.
        got: usize,
    },
}

impl std::fmt::Display for SnoopyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnoopyError::Lb(e) => write!(f, "load balancer: {e}"),
            SnoopyError::SubOram(e) => write!(f, "subORAM: {e}"),
            SnoopyError::WrongBalancerCount { expected, got } => {
                write!(f, "expected {expected} per-balancer request vectors, got {got}")
            }
        }
    }
}

impl std::error::Error for SnoopyError {}

impl From<LbError> for SnoopyError {
    fn from(e: LbError) -> Self {
        SnoopyError::Lb(e)
    }
}

impl From<SubOramError> for SnoopyError {
    fn from(e: SubOramError) -> Self {
        SnoopyError::SubOram(e)
    }
}

/// The synchronous Snoopy engine.
///
/// ```
/// use snoopy_core::{Snoopy, SnoopyConfig};
/// use snoopy_enclave::wire::{Request, StoredObject};
///
/// let objects: Vec<StoredObject> =
///     (0..100).map(|id| StoredObject::new(id, &id.to_le_bytes(), 32)).collect();
/// let mut snoopy = Snoopy::init(SnoopyConfig::with_machines(1, 2).value_len(32), objects, 1);
///
/// let out = snoopy
///     .execute_epoch_single(vec![
///         Request::write(7, b"hi", 32, /*client*/ 0, /*seq*/ 0),
///         Request::read(7, 32, 1, 0),
///     ])
///     .unwrap();
/// // Within an epoch, reads are linearized before writes (Appendix C):
/// let read = out.iter().find(|r| r.client == 1).unwrap();
/// assert_eq!(&read.value[..8], &7u64.to_le_bytes());
/// ```
pub struct Snoopy {
    config: SnoopyConfig,
    balancers: Vec<LoadBalancer>,
    suborams: Vec<SubOram>,
    epoch: u64,
    last_stats: EpochStats,
}

impl Snoopy {
    /// Initializes a deployment holding `objects` (Fig. 21/23): partitions
    /// them across `S` subORAMs with the secret keyed hash and instantiates
    /// `L` stateless load balancers sharing that key. `seed` drives all key
    /// generation deterministically (tests, experiments); production would
    /// draw from enclave entropy.
    pub fn init(config: SnoopyConfig, objects: Vec<StoredObject>, seed: u64) -> Snoopy {
        let mut prg = Prg::from_seed(seed);
        let shared_key = Key256::random(&mut prg);
        let parts = partition_objects(objects, &shared_key, config.num_suborams);
        let suborams = parts
            .into_iter()
            .map(|part| {
                let key = Key256::random(&mut prg);
                snoopy_store::build_suboram(
                    config.storage,
                    part,
                    config.value_len,
                    key,
                    config.lambda,
                )
            })
            .collect();
        let balancers = (0..config.num_load_balancers)
            .map(|_| {
                LoadBalancer::new(&shared_key, config.num_suborams, config.value_len, config.lambda)
            })
            .collect();
        Snoopy { config, balancers, suborams, epoch: 0, last_stats: EpochStats::default() }
    }

    /// Telemetry for the most recent epoch.
    pub fn last_epoch_stats(&self) -> &EpochStats {
        &self.last_stats
    }

    /// The deployment configuration.
    pub fn config(&self) -> &SnoopyConfig {
        &self.config
    }

    /// Epochs executed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Executes one epoch. `per_balancer[l]` holds the requests balancer `l`
    /// received this epoch (clients pick balancers at random; the caller
    /// models that choice). Returns every balancer's responses concatenated
    /// in balancer order; each [`Response`] carries the client handle and
    /// sequence number of its originating request.
    pub fn execute_epoch(
        &mut self,
        per_balancer: Vec<Vec<Request>>,
    ) -> Result<Vec<Response>, SnoopyError> {
        let l = self.config.num_load_balancers;
        if per_balancer.len() != l {
            return Err(SnoopyError::WrongBalancerCount { expected: l, got: per_balancer.len() });
        }
        let epoch_span = trace::span("epoch");
        let mut epoch_stats = EpochStats {
            requests: per_balancer.iter().map(|v| v.len()).sum(),
            ..Default::default()
        };

        // Phase 1: every balancer assembles its batches.
        let make_span = trace::span("epoch/lb_make");
        let mut all_batches = Vec::with_capacity(l);
        for (lb, requests) in self.balancers.iter().zip(per_balancer.iter()) {
            let batches = lb.make_batches(requests)?;
            epoch_stats.batch_entries_sent += batches.iter().map(|b| b.len()).sum::<usize>();
            all_batches.push(batches);
        }
        epoch_stats.lb_make_time = make_span.finish();

        // Phase 2: subORAMs execute batches in balancer order (§4.3).
        let t1 = std::time::Instant::now();
        let mut responses_for: Vec<Vec<Vec<Request>>> = (0..l).map(|_| Vec::new()).collect();
        for (lb_idx, batches) in all_batches.into_iter().enumerate() {
            for (s, batch) in batches.into_iter().enumerate() {
                if batch.is_empty() {
                    responses_for[lb_idx].push(Vec::new());
                } else {
                    let scan = trace::span(format!("epoch/suboram_scan/{s}"));
                    responses_for[lb_idx].push(self.suborams[s].batch_access(batch)?);
                    drop(scan);
                }
            }
        }
        epoch_stats.suboram_time = t1.elapsed();

        // Phase 3: every balancer matches its responses.
        let match_span = trace::span("epoch/lb_match");
        let mut out = Vec::new();
        for ((lb, requests), resp) in
            self.balancers.iter().zip(per_balancer.iter()).zip(responses_for)
        {
            out.extend(lb.match_responses(requests, resp));
        }
        epoch_stats.lb_match_time = match_span.finish();

        record_epoch_metrics(
            epoch_stats.requests,
            epoch_stats.batch_entries_sent,
            [
                ("lb_make", epoch_stats.lb_make_time),
                ("suboram_scan", epoch_stats.suboram_time),
                ("lb_match", epoch_stats.lb_match_time),
            ],
        );
        self.last_stats = epoch_stats;
        self.epoch += 1;
        drop(epoch_span);
        Ok(out)
    }

    /// Convenience: executes one epoch with all requests at balancer 0.
    pub fn execute_epoch_single(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, SnoopyError> {
        let mut per = vec![Vec::new(); self.config.num_load_balancers];
        per[0] = requests;
        self.execute_epoch(per)
    }

    /// Test/inspection helper: current value of an object, bypassing the
    /// oblivious path.
    pub fn peek(&self, id: u64) -> Option<Vec<u8>> {
        let s = self.balancers[0].suboram_of(id);
        self.suborams[s].peek(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::matrix::{each_cell, Cell};
    use std::collections::HashMap;

    const VLEN: usize = 32;

    fn objects(n: u64) -> Vec<StoredObject> {
        (0..n).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect()
    }

    fn system(cell: Cell, l: usize, s: usize, n: u64) -> Snoopy {
        let cfg = cell.apply(SnoopyConfig::with_machines(l, s).value_len(VLEN));
        Snoopy::init(cfg, objects(n), 7)
    }

    fn payload(bytes: &[u8]) -> Vec<u8> {
        let mut v = bytes.to_vec();
        v.resize(VLEN, 0);
        v
    }

    #[test]
    fn reads_see_initial_values() {
        each_cell(|cell| {
            let mut sys = system(cell, 1, 3, 500);
            let reqs: Vec<Request> = (0..50u64).map(|i| Request::read(i * 7, VLEN, i, i)).collect();
            let out = sys.execute_epoch_single(reqs).unwrap();
            assert_eq!(out.len(), 50);
            for r in out {
                assert_eq!(r.value, payload(&r.id.to_le_bytes()), "id {}", r.id);
            }
        });
    }

    #[test]
    fn writes_visible_next_epoch_across_suborams() {
        each_cell(|cell| {
            let mut sys = system(cell, 2, 4, 1000);
            let writes: Vec<Request> = (0..100u64)
                .map(|i| Request::write(i, &[0xA0 | (i % 16) as u8; 4], VLEN, i, 0))
                .collect();
            sys.execute_epoch(vec![writes, vec![]]).unwrap();
            let reads: Vec<Request> = (0..100u64).map(|i| Request::read(i, VLEN, i, 1)).collect();
            let out = sys.execute_epoch(vec![vec![], reads]).unwrap();
            for r in out {
                assert_eq!(r.value, payload(&[0xA0 | (r.id % 16) as u8; 4]), "id {}", r.id);
            }
        });
    }

    #[test]
    fn cross_balancer_ordering_within_epoch() {
        each_cell(|cell| {
            // Balancer 0's writes must be visible to balancer 1's reads in the
            // same epoch (subORAMs process batches in balancer order).
            let mut sys = system(cell, 2, 2, 100);
            let w = vec![Request::write(5, &[0xEE; 4], VLEN, 0, 0)];
            let r = vec![Request::read(5, VLEN, 1, 0)];
            let out = sys.execute_epoch(vec![w, r]).unwrap();
            let read_resp = out.iter().find(|resp| resp.client == 1).unwrap();
            assert_eq!(read_resp.value, payload(&[0xEE; 4]));
            // And balancer 0's own (merged) response saw the pre-write value.
            let write_resp = out.iter().find(|resp| resp.client == 0).unwrap();
            assert_eq!(write_resp.value, payload(&5u64.to_le_bytes()));
        });
    }

    #[test]
    fn duplicate_heavy_skew_is_served() {
        each_cell(|cell| {
            // 200 requests, all for the same object: dedup keeps batches small
            // and every client still gets a response.
            let mut sys = system(cell, 1, 4, 100);
            let reqs: Vec<Request> = (0..200u64).map(|i| Request::read(42, VLEN, i, i)).collect();
            let out = sys.execute_epoch_single(reqs).unwrap();
            assert_eq!(out.len(), 200);
            for r in out {
                assert_eq!(r.id, 42);
                assert_eq!(r.value, payload(&42u64.to_le_bytes()));
            }
        });
    }

    #[test]
    fn wrong_balancer_count_rejected() {
        each_cell(|cell| {
            let mut sys = system(cell, 2, 2, 10);
            let err = sys.execute_epoch(vec![vec![]]).unwrap_err();
            assert_eq!(err, SnoopyError::WrongBalancerCount { expected: 2, got: 1 });
        });
    }

    #[test]
    fn empty_epoch_is_fine() {
        each_cell(|cell| {
            let mut sys = system(cell, 2, 3, 10);
            let out = sys.execute_epoch(vec![vec![], vec![]]).unwrap();
            assert!(out.is_empty());
            assert_eq!(sys.epoch(), 1);
        });
    }

    #[test]
    fn all_storage_tiers_match_in_enclave() {
        use crate::config::StorageKind;
        let cfg_a = SnoopyConfig::with_machines(1, 2).value_len(VLEN);
        let reqs = |seq: u64| {
            vec![Request::write(1, &[9; 4], VLEN, 0, seq), Request::read(100, VLEN, 1, seq)]
        };
        let norm = |mut v: Vec<Response>| {
            v.sort_by_key(|r| (r.client, r.seq));
            v
        };
        for threads in [1, 4] {
            for kind in [StorageKind::External, StorageKind::Disk] {
                let mut a = Snoopy::init(cfg_a, objects(200), 3);
                let mut b =
                    Snoopy::init(cfg_a.storage(kind).threads(threads, threads), objects(200), 3);
                assert_eq!(
                    norm(a.execute_epoch_single(reqs(0)).unwrap()),
                    norm(b.execute_epoch_single(reqs(0)).unwrap()),
                    "storage tier {kind} at {threads} threads diverged from in-enclave memory"
                );
                assert_eq!(a.peek(1), b.peek(1));
            }
        }
    }

    #[test]
    fn random_workload_matches_model() {
        each_cell(|cell| {
            use snoopy_crypto::rng::Rng;
            let mut rng = snoopy_crypto::Prg::from_seed(99);
            let n = 300u64;
            let mut sys = system(cell, 2, 3, n);
            let mut model: HashMap<u64, Vec<u8>> =
                (0..n).map(|i| (i, payload(&i.to_le_bytes()))).collect();

            for _epoch in 0..5 {
                let mut per: Vec<Vec<Request>> = vec![Vec::new(), Vec::new()];
                let mut epoch_writes: Vec<Vec<(u64, Vec<u8>)>> = vec![Vec::new(), Vec::new()];
                let mut expected: Vec<(u64, u64, Vec<u8>)> = Vec::new(); // (client, seq, value)
                let mut client = 0u64;
                // Balancer 0 then balancer 1; reads should see: initial-of-epoch
                // state + all *earlier balancers'* writes; a balancer's own reads
                // see the state before its own batch.
                let mut state_before_lb = model.clone();
                for lb in 0..2usize {
                    let count = rng.gen_range(5..30);
                    for seq in 0..count {
                        let id = rng.gen_range(0..n);
                        if rng.gen_bool(0.4) {
                            let val = payload(&[rng.gen::<u8>(); 4]);
                            per[lb].push(Request::write(id, &val, VLEN, client, seq));
                            epoch_writes[lb].push((id, val));
                            expected.push((client, seq, state_before_lb[&id].clone()));
                        } else {
                            per[lb].push(Request::read(id, VLEN, client, seq));
                            expected.push((client, seq, state_before_lb[&id].clone()));
                        }
                        client += 1;
                    }
                    // Apply this balancer's writes (last write wins by arrival).
                    for (id, val) in &epoch_writes[lb] {
                        state_before_lb.insert(*id, val.clone());
                    }
                }
                model = state_before_lb;
                let out = sys.execute_epoch(per).unwrap();
                let got: HashMap<(u64, u64), Vec<u8>> =
                    out.into_iter().map(|r| ((r.client, r.seq), r.value)).collect();
                for (client, seq, want) in expected {
                    assert_eq!(got[&(client, seq)], want, "client {client} seq {seq}");
                }
            }
            // Final state agrees.
            for (id, val) in &model {
                assert_eq!(sys.peek(*id).unwrap(), *val, "id {id}");
            }
        });
    }
}
