//! Umbrella crate for the Snoopy reproduction workspace.
//!
//! Re-exports every crate so examples and integration tests use a single
//! dependency. See `README.md` for the architecture overview, `DESIGN.md`
//! for the system inventory, and `EXPERIMENTS.md` for the reproduction of
//! the paper's evaluation.

pub use snoopy_baselines;
pub use snoopy_binning;
pub use snoopy_core;
pub use snoopy_core as core;
pub use snoopy_crypto;
pub use snoopy_crypto as crypto;
pub use snoopy_enclave;
pub use snoopy_enclave as enclave;
pub use snoopy_lb;
pub use snoopy_netsim;
pub use snoopy_obliv;
pub use snoopy_obliv as obliv;
pub use snoopy_ohash;
pub use snoopy_plaintext;
pub use snoopy_planner;
pub use snoopy_store;
pub use snoopy_store as store;
pub use snoopy_suboram;
pub use snoopy_telemetry;
pub use snoopy_telemetry as telemetry;
