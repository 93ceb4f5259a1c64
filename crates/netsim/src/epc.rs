//! Enclave Page Cache (EPC) cost model.
//!
//! SGX's protected memory is tiny (the paper's DC4s_v2 machines: 256 MB EPC
//! with ~168 MB usable) and pages evicted to untrusted memory must be
//! re-encrypted and integrity-checked on every fault, which dominates the
//! subORAM's linear-scan time once the partition outgrows the EPC — the jump
//! between 2^15 and 2^20 objects in Figure 12. This module models those costs
//! deterministically so the simulated cluster sees the same cliffs the real
//! hardware produced; [`crate::costmodel::CostModel`] adds its paging term
//! to the subORAM scan.
//!
//! The constants are calibrated against the paper's microbenchmarks (Fig. 12,
//! Fig. 13b).

/// Parameters of one enclave's memory system.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpcModel {
    /// Usable EPC bytes before paging begins (SGXv2 DC4s_v2: ~168 MB usable
    /// of the 256 MB EPC).
    pub usable_epc_bytes: u64,
    /// Page size (4 KiB on SGX).
    pub page_bytes: u64,
    /// Cost in nanoseconds to touch one resident page's worth of data during
    /// a linear scan (memory bandwidth bound).
    pub resident_page_scan_ns: f64,
    /// Extra cost in nanoseconds to fault in one page from untrusted memory
    /// (EPC paging: exit, decrypt, integrity-check, re-enter).
    pub page_fault_ns: f64,
    /// Fraction of fault cost avoided by the host-loader-thread streaming
    /// buffer of §7 ("eliminates the need to exit and re-enter the enclave").
    pub host_loader_efficiency: f64,
}

impl Default for EpcModel {
    fn default() -> Self {
        EpcModel {
            usable_epc_bytes: 168 * 1024 * 1024,
            page_bytes: 4096,
            resident_page_scan_ns: 400.0, // ~10 GB/s effective scan bandwidth
            page_fault_ns: 40_000.0,      // ~40 µs per EPC fault (literature range 25-50 µs)
            host_loader_efficiency: 0.9,  // §7 buffer removes ~90% of fault cost
        }
    }
}

impl EpcModel {
    /// Number of pages spanned by `bytes` of data.
    pub fn pages(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes)
    }

    /// Pages that fault on a full sequential scan of `bytes` of data, given
    /// the data competes with `other_resident_bytes` of hot state for the EPC.
    pub fn scan_faults(&self, bytes: u64, other_resident_bytes: u64) -> u64 {
        let available = self.usable_epc_bytes.saturating_sub(other_resident_bytes);
        if bytes <= available {
            0
        } else {
            // LRU under a sequential scan degenerates to faulting every
            // non-resident page.
            self.pages(bytes - available)
        }
    }

    /// Modeled nanoseconds for one sequential scan of `bytes`, with or
    /// without the §7 host-loader streaming buffer.
    pub fn scan_ns(&self, bytes: u64, other_resident_bytes: u64, host_loader: bool) -> f64 {
        let pages = self.pages(bytes) as f64;
        let faults = self.scan_faults(bytes, other_resident_bytes) as f64;
        let fault_cost = if host_loader {
            self.page_fault_ns * (1.0 - self.host_loader_efficiency)
        } else {
            self.page_fault_ns
        };
        pages * self.resident_page_scan_ns + faults * fault_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_when_data_fits() {
        let m = EpcModel::default();
        assert_eq!(m.scan_faults(1024 * 1024, 0), 0);
        assert_eq!(m.scan_faults(m.usable_epc_bytes, 0), 0);
    }

    #[test]
    fn faults_scale_with_overflow() {
        let m = EpcModel::default();
        let over = m.usable_epc_bytes + 10 * m.page_bytes;
        assert_eq!(m.scan_faults(over, 0), 10);
        // Hot state shrinks the available EPC.
        assert_eq!(m.scan_faults(m.usable_epc_bytes, 5 * m.page_bytes), 5);
    }

    #[test]
    fn host_loader_reduces_scan_cost() {
        let m = EpcModel::default();
        let big = 2 * m.usable_epc_bytes;
        let with = m.scan_ns(big, 0, true);
        let without = m.scan_ns(big, 0, false);
        assert!(with < without);
        // And both exceed the resident-only cost.
        let resident = m.pages(big) as f64 * m.resident_page_scan_ns;
        assert!(with > resident);
    }

    #[test]
    fn scan_cost_has_a_cliff_at_epc_boundary() {
        // Reproduces the Figure 12 shape: per-byte cost jumps once data
        // exceeds the EPC.
        let m = EpcModel::default();
        let small = m.usable_epc_bytes / 2;
        let large = m.usable_epc_bytes * 4;
        let per_byte_small = m.scan_ns(small, 0, true) / small as f64;
        let per_byte_large = m.scan_ns(large, 0, true) / large as f64;
        assert!(per_byte_large > per_byte_small * 2.0, "{per_byte_small} vs {per_byte_large}");
    }

    #[test]
    fn pages_rounds_up() {
        let m = EpcModel::default();
        assert_eq!(m.pages(1), 1);
        assert_eq!(m.pages(4096), 1);
        assert_eq!(m.pages(4097), 2);
        assert_eq!(m.pages(0), 0);
    }
}
