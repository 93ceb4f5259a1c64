//! The baseline ORAMs the paper measures Snoopy against (§8.1, §8.2).
//!
//! * [`pathoram`] — Path ORAM with flat and recursive position maps: the
//!   sequential, latency-optimized enclave ORAM that plays Oblix's role;
//! * [`doubly`] — Path ORAM with oblivious client structures, Oblix's
//!   refinement for an untrusted host;
//! * [`ringoram`] — Ring ORAM, the tree ORAM Obladi parallelizes;
//! * [`obladi`] — Obladi's trusted proxy, batching requests over Ring ORAM.
//!
//! All three ORAMs keep their blocks in one kind of bucket tree, whose shape
//! and path walk live once, in the private `tree` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doubly;
pub mod obladi;
pub mod pathoram;
pub mod ringoram;
mod tree;

pub use tree::Op;

#[cfg(test)]
mod tests;
