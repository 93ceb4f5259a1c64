//! Deployment configuration.

pub use snoopy_store::StorageKind;

/// Parameters of a Snoopy deployment. All fields are public information in
//  the paper's security model (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnoopyConfig {
    /// Number of load balancers (`L`). Each scales independently (§4.3).
    pub num_load_balancers: usize,
    /// Number of subORAMs (`S`), i.e. data partitions.
    pub num_suborams: usize,
    /// Object size in bytes (the paper's evaluation default is 160).
    pub value_len: usize,
    /// Security parameter λ for every balls-into-bins bound (default 128).
    pub lambda: u32,
    /// Where subORAM partitions live: modeled enclave memory, AEAD-sealed
    /// untrusted memory (the paper's deployment, §7), or an AEAD-sealed
    /// on-disk segment file streamed through a bounded buffer. The choice is
    /// deployment configuration — public — and must not change the enclave
    /// access trace.
    pub storage: StorageKind,
    /// Enclave threads per load balancer for the oblivious sort/compaction
    /// (§8.4, Fig. 13a). Thread count is configuration — public — and the
    /// access trace is identical for every value.
    pub lb_threads: usize,
    /// Enclave threads per subORAM for the parallel linear scan (Fig. 13b).
    pub sub_threads: usize,
    /// How many of the `num_suborams` provisioned subORAMs hold data at
    /// boot (`0` = all of them). The rest boot as empty *spares* the elastic
    /// reshard protocol can grow into at an epoch boundary without changing
    /// the link topology. Like every other field, this is public
    /// configuration.
    pub active_suborams: usize,
}

impl Default for SnoopyConfig {
    /// Defaults match the paper's evaluation: one balancer, one subORAM,
    /// 160-byte objects, λ = 128, the in-enclave memory tier and one enclave
    /// thread per machine.
    fn default() -> Self {
        SnoopyConfig {
            num_load_balancers: 1,
            num_suborams: 1,
            value_len: 160,
            lambda: 128,
            storage: StorageKind::Memory,
            lb_threads: 1,
            sub_threads: 1,
            active_suborams: 0,
        }
    }
}

impl SnoopyConfig {
    /// Convenience constructor for the common (L, S) sweep.
    pub fn with_machines(num_load_balancers: usize, num_suborams: usize) -> SnoopyConfig {
        SnoopyConfig { num_load_balancers, num_suborams, ..Default::default() }
    }

    /// Sets the object size.
    pub fn value_len(mut self, value_len: usize) -> SnoopyConfig {
        self.value_len = value_len;
        self
    }

    /// Sets the security parameter.
    pub fn lambda(mut self, lambda: u32) -> SnoopyConfig {
        self.lambda = lambda;
        self
    }

    /// Selects the partition storage tier.
    pub fn storage(mut self, kind: StorageKind) -> SnoopyConfig {
        self.storage = kind;
        self
    }

    /// Sets both enclave thread knobs (balancer sort/compact and subORAM
    /// scan) at once.
    pub fn threads(mut self, lb_threads: usize, sub_threads: usize) -> SnoopyConfig {
        self.lb_threads = lb_threads.max(1);
        self.sub_threads = sub_threads.max(1);
        self
    }

    /// Boots only the first `active` subORAMs with data; the rest are empty
    /// spares for the reshard protocol to grow into. Clamped to
    /// `1..=num_suborams`.
    pub fn active_suborams(mut self, active: usize) -> SnoopyConfig {
        self.active_suborams = active.clamp(1, self.num_suborams);
        self
    }

    /// The subORAM count client data is partitioned over at boot:
    /// [`SnoopyConfig::active_suborams`] when set, the full fleet otherwise.
    pub fn initial_active(&self) -> usize {
        if self.active_suborams == 0 {
            self.num_suborams
        } else {
            self.active_suborams.min(self.num_suborams)
        }
    }

    /// Total machine count as the paper counts it (L + S).
    pub fn machines(&self) -> usize {
        self.num_load_balancers + self.num_suborams
    }
}

/// The tier × threads matrix the in-process deployment tests run under: the
/// cells of `snoopy_chaos::harness::CELLS`, which core's own tests cannot
/// reach (the chaos crate depends on this one).
#[cfg(test)]
pub(crate) mod matrix {
    use super::{SnoopyConfig, StorageKind};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One cell: a storage tier and the enclave thread count of every
    /// balancer and subORAM.
    #[derive(Clone, Copy, Debug)]
    pub(crate) struct Cell {
        pub(crate) storage: StorageKind,
        pub(crate) threads: usize,
    }

    impl Cell {
        /// `config`, deployed in this cell.
        pub(crate) fn apply(self, config: SnoopyConfig) -> SnoopyConfig {
            config.storage(self.storage).threads(self.threads, self.threads)
        }
    }

    /// {memory, 1}, {memory, 4} and {disk, 1}: the serial deployment, the
    /// parallel kernels and the streaming disk tier.
    pub(crate) const CELLS: [Cell; 3] = [
        Cell { storage: StorageKind::Memory, threads: 1 },
        Cell { storage: StorageKind::Memory, threads: 4 },
        Cell { storage: StorageKind::Disk, threads: 1 },
    ];

    /// Runs `scenario` in every cell, one after another; a failure panics
    /// again with its cell's name in front of the message.
    pub(crate) fn each_cell(mut scenario: impl FnMut(Cell)) {
        for cell in CELLS {
            let Err(panic) = catch_unwind(AssertUnwindSafe(|| scenario(cell))) else { continue };
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            panic!("{cell:?}: {}", msg.or(panic.downcast_ref::<&str>().copied()).unwrap_or("?"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_evaluation() {
        let c = SnoopyConfig::default();
        assert_eq!(c.value_len, 160);
        assert_eq!(c.lambda, 128);
        assert_eq!(c.machines(), 2);
        assert_eq!(c.storage, StorageKind::Memory);
        assert_eq!(c.lb_threads, 1);
        assert_eq!(c.sub_threads, 1);
    }

    #[test]
    fn builder_chains() {
        let c = SnoopyConfig::with_machines(3, 5)
            .value_len(32)
            .lambda(80)
            .storage(StorageKind::External);
        assert_eq!(c.num_load_balancers, 3);
        assert_eq!(c.num_suborams, 5);
        assert_eq!(c.value_len, 32);
        assert_eq!(c.lambda, 80);
        assert_eq!(c.storage, StorageKind::External);
        assert_eq!(c.machines(), 8);
    }

    #[test]
    fn storage_builder_selects_tier() {
        let c = SnoopyConfig::default().storage(StorageKind::Disk);
        assert_eq!(c.storage, StorageKind::Disk);
        assert_eq!(c.storage(StorageKind::Memory).storage, StorageKind::Memory);
    }

    #[test]
    fn threads_builder_floors_at_one() {
        let c = SnoopyConfig::default().threads(4, 0);
        assert_eq!(c.lb_threads, 4);
        assert_eq!(c.sub_threads, 1);
    }

    #[test]
    fn active_suborams_clamps_and_defaults_to_full_fleet() {
        let c = SnoopyConfig::with_machines(1, 8);
        assert_eq!(c.initial_active(), 8, "0 means the whole fleet is active");
        assert_eq!(c.active_suborams(4).initial_active(), 4);
        assert_eq!(SnoopyConfig::with_machines(1, 8).active_suborams(99).initial_active(), 8);
        assert_eq!(SnoopyConfig::with_machines(1, 8).active_suborams(0).initial_active(), 1);
    }
}
