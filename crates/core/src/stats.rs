//! Per-epoch telemetry.
//!
//! Operators of the real system watch exactly these quantities: how much of
//! each batch is dummy padding (the security tax of Theorem 3), where epoch
//! time goes (balancer pipelines vs. subORAM scans), and how request volume
//! moves batch size. All values here are *public* under the paper's leakage
//! definition (§2.1) — they are functions of request counts and
//! configuration — so exporting them to monitoring leaks nothing new; the
//! export path itself goes through [`snoopy_telemetry::Public`], which
//! enforces that claim structurally.
//!
//! [`SystemStats`] carries both the original accumulated [`Duration`] sums
//! (coarse, backward compatible) and per-stage [`LogHistogram`]s, so
//! operators get p50/p90/p99/max for each stage rather than just averages.

use snoopy_telemetry::hist::HistogramSnapshot;
use snoopy_telemetry::LogHistogram;
use std::time::Duration;

/// Statistics for one executed epoch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochStats {
    /// Raw client requests received across all balancers.
    pub requests: usize,
    /// Per-subORAM batch size `f(R, S)` per balancer (0 for empty epochs).
    pub batch_size: usize,
    /// Total batch entries sent (`L_active · S · B`).
    pub batch_entries_sent: usize,
    /// Padding entries among them, computed as the PUBLIC quantity
    /// `batch_entries_sent − min(R, batch_entries_sent)`. The *actual*
    /// post-deduplication dummy count is secret (it would reveal how many
    /// requests were duplicates) and is deliberately never collected.
    pub dummy_entries: usize,
    /// Wall-clock spent in balancer batch generation.
    pub lb_make_time: Duration,
    /// Wall-clock spent in subORAM batch processing.
    pub suboram_time: Duration,
    /// Wall-clock spent in balancer response matching.
    pub lb_match_time: Duration,
}

impl EpochStats {
    /// Dummy overhead as a fraction of real requests (Figure 3's quantity,
    /// observed live). Saturates if a caller hands it `dummy_entries >
    /// batch_entries_sent` (an accounting bug, not a reason to panic a
    /// deployment).
    pub fn dummy_overhead(&self) -> f64 {
        let real = self.batch_entries_sent.saturating_sub(self.dummy_entries);
        if real == 0 {
            0.0
        } else {
            self.dummy_entries as f64 / real as f64
        }
    }
}

/// Rolling aggregate over many epochs.
///
/// The `*_time` fields keep their original meaning (accumulated sums); the
/// `*_hist` histograms record the same stage timings per epoch, so
/// [`SystemStats::stage_percentiles`] can answer "where does the p99 epoch
/// go" — the question §7-style tuning actually asks.
#[derive(Clone, Debug, Default)]
pub struct SystemStats {
    /// Epochs executed.
    pub epochs: u64,
    /// Total requests served.
    pub requests: u64,
    /// Total dummy entries sent.
    pub dummies: u64,
    /// Total batch entries sent.
    pub batch_entries: u64,
    /// Accumulated component times.
    pub lb_make_time: Duration,
    /// Accumulated subORAM time.
    pub suboram_time: Duration,
    /// Accumulated match time.
    pub lb_match_time: Duration,
    /// Per-epoch balancer batch-generation latency distribution.
    pub lb_make_hist: LogHistogram,
    /// Per-epoch subORAM processing latency distribution.
    pub suboram_hist: LogHistogram,
    /// Per-epoch response-matching latency distribution.
    pub lb_match_hist: LogHistogram,
}

/// Percentile summary of one stage's per-epoch latency (nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePercentiles {
    /// Stage name (`lb_make`, `suboram_scan`, `lb_match`).
    pub stage: &'static str,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl StagePercentiles {
    fn from_snapshot(stage: &'static str, s: &HistogramSnapshot) -> StagePercentiles {
        StagePercentiles { stage, p50_ns: s.p50(), p90_ns: s.p90(), p99_ns: s.p99(), max_ns: s.max }
    }
}

impl SystemStats {
    /// Folds one epoch in.
    pub fn absorb(&mut self, e: &EpochStats) {
        self.epochs += 1;
        self.requests += e.requests as u64;
        self.dummies += e.dummy_entries as u64;
        self.batch_entries += e.batch_entries_sent as u64;
        self.lb_make_time += e.lb_make_time;
        self.suboram_time += e.suboram_time;
        self.lb_match_time += e.lb_match_time;
        self.lb_make_hist.record_duration(e.lb_make_time);
        self.suboram_hist.record_duration(e.suboram_time);
        self.lb_match_hist.record_duration(e.lb_match_time);
    }

    /// Lifetime dummy overhead. Saturates on inconsistent inputs like
    /// [`EpochStats::dummy_overhead`].
    pub fn dummy_overhead(&self) -> f64 {
        let real = self.batch_entries.saturating_sub(self.dummies);
        if real == 0 {
            0.0
        } else {
            self.dummies as f64 / real as f64
        }
    }

    /// p50/p90/p99/max per stage, over every absorbed epoch.
    pub fn stage_percentiles(&self) -> Vec<StagePercentiles> {
        vec![
            StagePercentiles::from_snapshot("lb_make", &self.lb_make_hist.snapshot()),
            StagePercentiles::from_snapshot("suboram_scan", &self.suboram_hist.snapshot()),
            StagePercentiles::from_snapshot("lb_match", &self.lb_match_hist.snapshot()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let e = EpochStats {
            requests: 10,
            batch_size: 5,
            batch_entries_sent: 15,
            dummy_entries: 5,
            ..Default::default()
        };
        assert!((e.dummy_overhead() - 0.5).abs() < 1e-12);
        let mut s = SystemStats::default();
        s.absorb(&e);
        s.absorb(&e);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.requests, 20);
        assert!((s.dummy_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_epoch_overhead_zero() {
        assert_eq!(EpochStats::default().dummy_overhead(), 0.0);
        assert_eq!(SystemStats::default().dummy_overhead(), 0.0);
    }

    #[test]
    fn inconsistent_dummy_counts_saturate_instead_of_panicking() {
        // Regression: dummy_entries > batch_entries_sent used to underflow
        // (panicking in debug builds). Saturate to "all dummy" instead.
        let e = EpochStats { batch_entries_sent: 3, dummy_entries: 10, ..Default::default() };
        assert_eq!(e.dummy_overhead(), 0.0); // real saturates to 0
        let mut s = SystemStats::default();
        s.absorb(&e);
        assert_eq!(s.dummy_overhead(), 0.0);
    }

    #[test]
    fn histograms_track_stage_distributions() {
        let mut s = SystemStats::default();
        for ms in [1u64, 2, 4, 8, 100] {
            s.absorb(&EpochStats {
                lb_make_time: Duration::from_millis(ms),
                suboram_time: Duration::from_millis(10 * ms),
                lb_match_time: Duration::from_millis(1),
                ..Default::default()
            });
        }
        let pcts = s.stage_percentiles();
        assert_eq!(pcts.len(), 3);
        let lb_make = &pcts[0];
        assert_eq!(lb_make.stage, "lb_make");
        // max is exact; p99 lands in the top bucket.
        assert_eq!(lb_make.max_ns, 100_000_000);
        assert!(lb_make.p99_ns >= 95_000_000, "p99 {}", lb_make.p99_ns);
        assert!(lb_make.p50_ns >= 3_000_000 && lb_make.p50_ns <= 4_500_000);
        let scan = &pcts[1];
        assert_eq!(scan.stage, "suboram_scan");
        assert_eq!(scan.max_ns, 1_000_000_000);
        // Old accessors still accumulate.
        assert_eq!(s.lb_match_time, Duration::from_millis(5));
        assert_eq!(s.epochs, 5);
    }
}
