//! The abstract enclave model Snoopy is proven secure against (paper §B).
//!
//! The paper deliberately does *not* prove security against Intel SGX; it
//! formalizes an enclave ideal functionality `F_Enc` with two operations —
//! `Load(P)` and `Execute(E_P, in) → (out, γ)` where `γ` is the trace of
//! memory accesses and network messages the adversary observes — and proves
//! Snoopy secure against any enclave realizing that interface. This crate
//! implements the same interface in software:
//!
//! * [`program`] — the `Load`/`Execute` model with captured [`snoopy_obliv::Trace`]s,
//!   plus a remote-attestation stub establishing AEAD channel keys;
//! * [`wire`] — the request/object/response types exchanged between enclaves,
//!   with branch-free [`snoopy_obliv::Cmov`] implementations so they can flow
//!   through oblivious sorts and compactions;
//! * [`epc`] — a cost model of SGX's limited Enclave Page Cache, reproducing
//!   the paging cliffs visible in the paper's Figure 12.
//!
//! Integrity-protected external memory (§2, §7) — sealed blocks outside the
//! enclave, their tags inside — is `snoopy_suboram::sealed`, shared by the
//! subORAM's external and disk tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epc;
pub mod program;
pub mod wire;

pub use epc::{CostMeter, EpcModel};
pub use program::{AttestationReport, Enclave, EnclaveProgram};
pub use wire::{Request, RequestKind, Response, StoredObject, DUMMY_ID};
