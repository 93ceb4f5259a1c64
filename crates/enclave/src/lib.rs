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
//!   plus a remote-attestation stub that refuses impostor programs. No
//!   deployment plane calls it: the channel plane draws link keys from its
//!   boot PRG, and the TCP plane derives them from the deployment key;
//! * [`wire`] — the request/object/response types exchanged between enclaves,
//!   with branch-free [`snoopy_obliv::Cmov`] implementations so they can flow
//!   through oblivious sorts and compactions.
//!
//! Integrity-protected external memory (§2, §7) — sealed blocks outside the
//! enclave, their tags inside — is `snoopy_suboram::sealed`, shared by the
//! subORAM's external and disk tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod program;
pub mod wire;

pub use program::{AttestationReport, Enclave, EnclaveProgram};
pub use wire::{Request, RequestKind, Response, StoredObject, DUMMY_ID};
