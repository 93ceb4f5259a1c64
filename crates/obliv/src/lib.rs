//! Oblivious building blocks for the Snoopy reproduction.
//!
//! Snoopy (§4.2.1) builds every enclave-side algorithm from three oblivious
//! primitives so that memory access patterns are independent of secret data:
//!
//! * an oblivious **compare-and-set / compare-and-swap** operator
//!   ([`Choice`], [`Cmov`], [`ocmp_set`], [`ocmp_swap`]) — the paper uses
//!   AVX-512 masked moves; we use branch-free arithmetic masking on `u64`
//!   words, which has the same data-independent control flow;
//! * **bitonic sort** ([`sort`]) — `O(n log² n)`, fixed compare-swap network,
//!   highly parallelizable (§8.4, Fig. 13a);
//! * **order-preserving oblivious compaction** ([`compact`]) — Goodrich's
//!   `O(n log n)` routing-network algorithm — and its inverse,
//!   **order-preserving expansion** ([`expand`]), which pads a secret number
//!   of rows into a public layout in `O(n log n)` without sorting the padding.
//!
//! In addition, because this reproduction runs on an *abstract* enclave rather
//! than SGX, it can do something the original system could not: **record the
//! memory access trace** of every oblivious operation ([`trace`]) and assert,
//! in tests, that traces are identical across secret inputs with the same
//! public parameters. This turns the paper's security proofs (§B) into
//! executable property tests.
//!
//! ```
//! use snoopy_obliv::{osort, ocompact, Choice};
//! use snoopy_obliv::trace;
//!
//! // Sort and compact with data-independent access patterns…
//! let mut v = vec![5u64, 3, 9, 1];
//! osort(&mut v);
//! assert_eq!(v, vec![1, 3, 5, 9]);
//!
//! let mut keep: Vec<Choice> = v.iter().map(|&x| snoopy_obliv::ct::ct_lt_u64(x, 6)).collect();
//! ocompact(&mut v, &mut keep);
//! assert_eq!(&v[..3], &[1, 3, 5]);
//!
//! // …and prove it: equal-length inputs leave identical traces.
//! let trace_of = |mut v: Vec<u64>| trace::capture(|| osort(&mut v)).1.fingerprint();
//! assert_eq!(trace_of(vec![4, 2, 7]), trace_of(vec![0, 0, 0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod ct;
pub mod expand;
pub mod scan;
pub mod sort;
pub mod trace;

pub use compact::{
    ocompact, ocompact_adaptive, ocompact_by_sort, ocompact_parallel, ocompact_parallel_with_grain,
};
pub use ct::{ocmp_set, ocmp_swap, Choice, Cmov};
pub use expand::oexpand;
pub use sort::{osort, osort_adaptive, osort_parallel, osort_parallel_with_grain};
pub use trace::{Region, Trace, TraceEvent};
