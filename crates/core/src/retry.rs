//! Deadlines, bounded attempts, and capped exponential backoff with
//! deterministic seeded jitter.
//!
//! Every place this workspace re-tries an operation over the network — the
//! TCP client's dial/roundtrip, the balancer→subORAM dialer threads, and the
//! admin RPC helpers — shares this one policy type, so retry behavior is
//! configured (and tested) in exactly one place. Two properties matter for
//! Snoopy specifically:
//!
//! * **Determinism.** Jitter is derived from a seed with a splitmix64-style
//!   mixer, never from wall-clock entropy, so a chaos run with a fixed
//!   `FaultPlan` seed produces the same backoff schedule — and therefore the
//!   same retry/replay telemetry — on every run.
//! * **No leakage.** A retry schedule is a function of the policy (deployment
//!   configuration) and of wire-observable failures; it never depends on
//!   request contents. Retried batches are byte-identical re-sends of the
//!   original sealed batch shape, so the adversary learns nothing beyond the
//!   failure it already induced or observed.

use std::time::Duration;

/// How long to keep trying, how long to wait between tries, and how long any
/// single try may take.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Budget for one attempt (e.g. a socket read timeout). `None` means the
    /// attempt itself has no deadline.
    pub attempt_timeout: Option<Duration>,
    /// Backoff before attempt 1's retry (attempt 0 runs immediately).
    pub base_backoff: Duration,
    /// Backoff growth is capped here.
    pub max_backoff: Duration,
    /// Total attempts, including the first. `None` retries forever.
    pub max_attempts: Option<u32>,
    /// Seed for deterministic jitter. Two policies with the same seed produce
    /// identical backoff schedules.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Defaults for a `SnoopyClient`: 10 s per attempt, 4 tries, backoff
    /// 50 ms → 1 s.
    pub fn client_default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Some(Duration::from_secs(10)),
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(1),
            max_attempts: Some(4),
            jitter_seed: 0,
        }
    }

    /// Defaults for the balancer→subORAM dialer: never give up (the epoch
    /// protocol decides when to degrade), backoff 10 ms → 1 s.
    pub fn dialer_default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: None,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            max_attempts: None,
            jitter_seed: 0,
        }
    }

    /// Defaults for admin RPCs (stats/metrics/health/shutdown): 5 s per
    /// attempt, 3 tries, backoff 25 ms → 500 ms.
    pub fn admin_default() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: Some(Duration::from_secs(5)),
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(500),
            max_attempts: Some(3),
            jitter_seed: 0,
        }
    }

    /// A policy that performs exactly one attempt (no retries).
    pub fn once() -> RetryPolicy {
        RetryPolicy {
            attempt_timeout: None,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            max_attempts: Some(1),
            jitter_seed: 0,
        }
    }

    /// Replaces the per-attempt deadline.
    pub fn attempt_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// Replaces the attempt bound.
    pub fn max_attempts(mut self, attempts: u32) -> RetryPolicy {
        self.max_attempts = Some(attempts);
        self
    }

    /// Replaces the jitter seed.
    pub fn jitter_seed(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = seed;
        self
    }

    /// Whether attempt number `attempt` (0-based) is still within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        match self.max_attempts {
            Some(max) => attempt < max,
            None => true,
        }
    }

    /// The pause before (0-based) attempt `attempt`. Attempt 0 has no pause;
    /// later attempts wait `base * 2^(attempt-1)`, capped at `max_backoff`,
    /// scaled by a deterministic jitter factor in `[0.5, 1.0)` derived from
    /// `(jitter_seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let base = self.base_backoff.as_nanos();
        // Saturate the shift: past ~2^64 ns the cap always wins anyway.
        let exp = (attempt - 1).min(63);
        let raw = base.saturating_mul(1u128 << exp);
        let capped = raw.min(self.max_backoff.as_nanos());
        let jitter = jitter_factor(self.jitter_seed, attempt as u64);
        let nanos = (capped as f64 * jitter) as u64;
        Duration::from_nanos(nanos)
    }

    /// Runs `op` under this policy: attempt, and on `Err` sleep the backoff
    /// and re-attempt until an attempt succeeds or the attempt budget runs
    /// out. Returns the last error when exhausted. `op` receives the 0-based
    /// attempt number so callers can log or count retries.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let next = attempt + 1;
                    if !self.allows(next) {
                        return Err(e);
                    }
                    std::thread::sleep(self.backoff(next));
                    attempt = next;
                }
            }
        }
    }
}

/// splitmix64: the standard 64-bit finalizing mixer. Deterministic, seedable,
/// and good enough to decorrelate per-attempt jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Deterministic jitter factor in `[0.5, 1.0)` for `(seed, n)`.
fn jitter_factor(seed: u64, n: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(n));
    // Top 53 bits → uniform in [0, 1), then squeeze into [0.5, 1.0).
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.5 + unit / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            attempt_timeout: None,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            max_attempts: Some(10),
            jitter_seed: 7,
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        // Jitter is in [0.5, 1.0): attempt 1 waits in [5ms, 10ms).
        let b1 = p.backoff(1);
        assert!(b1 >= Duration::from_millis(5) && b1 < Duration::from_millis(10), "{b1:?}");
        // Far attempts are capped at max_backoff (pre-jitter).
        let b9 = p.backoff(9);
        assert!(b9 >= Duration::from_millis(50) && b9 < Duration::from_millis(100), "{b9:?}");
        // Huge attempt numbers don't overflow.
        let _ = p.backoff(u32::MAX);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let a = RetryPolicy::client_default().jitter_seed(42);
        let b = RetryPolicy::client_default().jitter_seed(42);
        let c = RetryPolicy::client_default().jitter_seed(43);
        let sched = |p: &RetryPolicy| (1..6).map(|i| p.backoff(i)).collect::<Vec<_>>();
        assert_eq!(sched(&a), sched(&b));
        assert_ne!(sched(&a), sched(&c), "different seeds should jitter differently");
    }

    #[test]
    fn run_retries_until_success() {
        let p = RetryPolicy {
            attempt_timeout: None,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(1),
            max_attempts: Some(5),
            jitter_seed: 1,
        };
        let mut seen = Vec::new();
        let out: Result<u32, &str> = p.run(|attempt| {
            seen.push(attempt);
            if attempt < 3 {
                Err("not yet")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(3));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_exhausts_attempts() {
        let p = RetryPolicy {
            attempt_timeout: None,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(1),
            max_attempts: Some(3),
            jitter_seed: 1,
        };
        let mut calls = 0;
        let out: Result<(), String> = p.run(|a| {
            calls += 1;
            Err(format!("attempt {a} failed"))
        });
        assert_eq!(out, Err("attempt 2 failed".to_string()));
        assert_eq!(calls, 3);
    }

    #[test]
    fn once_never_retries() {
        let p = RetryPolicy::once();
        let mut calls = 0;
        let out: Result<(), ()> = p.run(|_| {
            calls += 1;
            Err(())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
        assert!(!p.allows(1));
        assert!(p.allows(0));
    }
}
