//! Access control via recursive oblivious lookup (paper Appendix D).
//!
//! A plaintext store would consult an access-control matrix per request; an
//! oblivious store cannot, because the matrix *location* touched would reveal
//! the object id. Snoopy instead runs itself recursively: permission rows are
//! stored as objects in a second Snoopy instance keyed by
//! `(user, object, op)`; every epoch first resolves all permission bits with
//! an oblivious batch of reads, then attaches each bit to its request's
//! `permit` field, which the subORAM's compare-and-sets condition on — denied
//! reads return zeros, denied writes silently do not apply. Nothing about
//! which requests were permitted is observable (two epochs of identical size
//! run either way, and the permit bit only feeds condition masks).

use crate::config::SnoopyConfig;
use crate::system::{Snoopy, SnoopyError};
use snoopy_enclave::wire::{Request, Response, StoredObject};
use snoopy_obliv::ct::ct_lt_u64;
use snoopy_obliv::sort::osort_by;

/// Maximum user id (packing limit for ACL row ids).
pub const MAX_USER: u64 = 1 << 29;
/// Maximum object id under access control (packing limit).
pub const MAX_ACL_OBJECT: u64 = 1 << 32;

/// Packs an ACL row id for `(user, object, write?)`. Stays below the real-id
/// limit of the wire format.
pub fn acl_row_id(user: u64, object: u64, write: bool) -> u64 {
    assert!(user < MAX_USER, "user id too large for ACL packing");
    assert!(object < MAX_ACL_OBJECT, "object id too large for ACL packing");
    (user << 33) | (object << 1) | write as u64
}

/// One permission grant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// The user being granted access.
    pub user: u64,
    /// The object.
    pub object: u64,
    /// Whether writes are allowed (reads are implied by any grant row; pass
    /// two grants to allow both explicitly).
    pub write: bool,
}

/// A Snoopy deployment with Appendix D access control layered on top.
pub struct AccessControlledSnoopy {
    data: Snoopy,
    acl: Snoopy,
}

/// Size of ACL row values (one permission byte, padded for alignment).
const ACL_VLEN: usize = 8;

impl AccessControlledSnoopy {
    /// Initializes the data store with `objects` and the ACL store with
    /// `grants`. Absent rows deny.
    pub fn init(
        config: SnoopyConfig,
        objects: Vec<StoredObject>,
        grants: &[Grant],
        seed: u64,
    ) -> Self {
        let acl_objects: Vec<StoredObject> = grants
            .iter()
            .map(|g| StoredObject::new(acl_row_id(g.user, g.object, g.write), &[1u8], ACL_VLEN))
            .collect();
        let acl_config = SnoopyConfig { value_len: ACL_VLEN, num_load_balancers: 1, ..config };
        AccessControlledSnoopy {
            data: Snoopy::init(config, objects, seed),
            acl: Snoopy::init(acl_config, acl_objects, seed.wrapping_add(1)),
        }
    }

    /// Executes one access-controlled epoch: requests are `(user, request)`
    /// pairs, all at balancer 0 (the recursive ACL lookup is per-balancer;
    /// one suffices to demonstrate the mechanism). Runs two internal epochs:
    /// the ACL lookup epoch and the data epoch (Appendix D: "executing
    /// requests with access control now requires two epochs").
    pub fn execute_epoch(
        &mut self,
        requests: Vec<(u64, Request)>,
    ) -> Result<Vec<Response>, SnoopyError> {
        // Phase 1: one ACL read per request, tagged with the request's index
        // so responses can be re-aligned obliviously.
        let acl_reads: Vec<Request> = requests
            .iter()
            .enumerate()
            .map(|(i, (user, req))| {
                let write = req.is_write().declassify_public_kind();
                Request::read(acl_row_id(*user, req.id, write), ACL_VLEN, i as u64, 0)
            })
            .collect();
        let mut acl_responses = self.acl.execute_epoch_single(acl_reads)?;
        // Re-align by client index with an oblivious sort (the compacted
        // order of responses is id-sorted, which is data-dependent).
        osort_by(&mut acl_responses, &|a: &Response, b: &Response| ct_lt_u64(b.client, a.client));

        // Phase 2: attach permit bits and run the data epoch.
        let mut data_requests = Vec::with_capacity(requests.len());
        for ((_, mut req), acl) in requests.into_iter().zip(acl_responses) {
            // Branch-free: the permit bit is the low bit of the ACL value.
            req.permit = (acl.value[0] & 1) as u64;
            data_requests.push(req);
        }
        self.data.execute_epoch_single(data_requests)
    }

    /// Inspection helper.
    pub fn peek(&self, id: u64) -> Option<Vec<u8>> {
        self.data.peek(id)
    }
}

/// The request *kind* is secret from the storage system but known to the
/// issuing client/front-end enclave forming the ACL query; this helper keeps
/// the declassification explicit and in one place.
trait KindDeclassify {
    fn declassify_public_kind(self) -> bool;
}

impl KindDeclassify for snoopy_obliv::ct::Choice {
    fn declassify_public_kind(self) -> bool {
        self.declassify()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::matrix::{each_cell, Cell};

    const VLEN: usize = 16;

    fn setup(cell: Cell) -> AccessControlledSnoopy {
        let objects: Vec<StoredObject> =
            (0..50u64).map(|i| StoredObject::new(i, &i.to_le_bytes(), VLEN)).collect();
        let grants = vec![
            Grant { user: 1, object: 10, write: false }, // user 1 may read 10
            Grant { user: 1, object: 11, write: true },  // user 1 may write 11
            Grant { user: 2, object: 10, write: true },  // user 2 may write 10
        ];
        let cfg = cell.apply(SnoopyConfig::with_machines(1, 2).value_len(VLEN));
        AccessControlledSnoopy::init(cfg, objects, &grants, 5)
    }

    fn payload(bytes: &[u8]) -> Vec<u8> {
        let mut v = bytes.to_vec();
        v.resize(VLEN, 0);
        v
    }

    #[test]
    fn permitted_read_succeeds() {
        each_cell(|cell| {
            let mut sys = setup(cell);
            let out = sys.execute_epoch(vec![(1, Request::read(10, VLEN, 0, 0))]).unwrap();
            assert_eq!(out[0].value, payload(&10u64.to_le_bytes()));
        });
    }

    #[test]
    fn denied_read_returns_zeros() {
        each_cell(|cell| {
            let mut sys = setup(cell);
            let out = sys
                .execute_epoch(vec![(3, Request::read(10, VLEN, 0, 0))]) // user 3: no grant
                .unwrap();
            assert_eq!(out[0].value, vec![0u8; VLEN]);
        });
    }

    #[test]
    fn permitted_write_applies() {
        each_cell(|cell| {
            let mut sys = setup(cell);
            sys.execute_epoch(vec![(1, Request::write(11, &[0xBB; 4], VLEN, 0, 0))]).unwrap();
            assert_eq!(sys.peek(11).unwrap(), payload(&[0xBB; 4]));
        });
    }

    #[test]
    fn denied_write_does_not_apply() {
        each_cell(|cell| {
            let mut sys = setup(cell);
            // User 1 may only READ 10; the write must be dropped silently.
            sys.execute_epoch(vec![(1, Request::write(10, &[0xCC; 4], VLEN, 0, 0))]).unwrap();
            assert_eq!(sys.peek(10).unwrap(), payload(&10u64.to_le_bytes()));
            // User 2 may write 10.
            sys.execute_epoch(vec![(2, Request::write(10, &[0xDD; 4], VLEN, 0, 0))]).unwrap();
            assert_eq!(sys.peek(10).unwrap(), payload(&[0xDD; 4]));
        });
    }

    #[test]
    fn mixed_epoch_aligns_permits_correctly() {
        each_cell(|cell| {
            let mut sys = setup(cell);
            let out = sys
                .execute_epoch(vec![
                    (3, Request::read(10, VLEN, 0, 0)), // denied
                    (1, Request::read(10, VLEN, 1, 1)), // allowed
                    (9, Request::read(11, VLEN, 2, 2)), // denied
                ])
                .unwrap();
            let by_client: std::collections::HashMap<u64, &Response> =
                out.iter().map(|r| (r.client, r)).collect();
            assert_eq!(by_client[&0].value, vec![0u8; VLEN]);
            assert_eq!(by_client[&1].value, payload(&10u64.to_le_bytes()));
            assert_eq!(by_client[&2].value, vec![0u8; VLEN]);
        });
    }

    #[test]
    fn acl_row_id_packs_injectively() {
        let mut seen = std::collections::HashSet::new();
        for user in [0u64, 1, 2, 1000] {
            for object in [0u64, 1, 500_000] {
                for write in [false, true] {
                    assert!(seen.insert(acl_row_id(user, object, write)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "user id too large")]
    fn oversized_user_rejected() {
        acl_row_id(MAX_USER, 0, false);
    }
}
