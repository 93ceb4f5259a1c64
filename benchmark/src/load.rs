//! The load generator: one thread, a few nonblocking pipelined client
//! sessions, open- and closed-loop phases cut into roughly 1-second slices.
//!
//! What it does differently from `loadgen` (left as it is): an open-phase
//! request is timed from the instant it was *due*, not from the sweep that
//! got round to sending it, so a stall is charged to every request it
//! delayed; completions count towards throughput only inside the window
//! (the drain tail is waited for and verified, never credited); the
//! generator's own lateness and backlog are reported; and a backlog that
//! grows through the window fails the phase instead of reading as a rate.

use crate::cluster::Cluster;
use crate::gen::{Checker, Expect, Op, Stream, Zipf};
use crate::stats;
use crate::workloads::{self, Workload};
use snoopy_core::link::Link;
use snoopy_enclave::wire::Request;
use snoopy_net::proto::{self, tag, Hello, Role};
use snoopy_net::session::{FrameAssembler, OutBuf, ReadStep};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Read budget per session per sweep.
const READ_BUDGET: usize = 256 << 10;
/// Requests issued per sweep at most, so a catch-up burst cannot starve I/O.
const MAX_ISSUE_PER_SWEEP: usize = 512;
/// No response for this long means an epoch's batch has fully arrived (a
/// batch's frames come microseconds apart, epochs tens of milliseconds).
const BATCH_LULL: Duration = Duration::from_millis(3);
/// Longest nap when a sweep found nothing to do.
const IDLE_NAP: Duration = Duration::from_micros(200);

struct Pending {
    /// When the request was due (open) or issued (closed).
    due: Instant,
    /// Slice of the window `due` falls in.
    slice: usize,
    expect: Expect,
}

struct Conn {
    stream: TcpStream,
    req_link: Link,
    resp_link: Link,
    assembler: FrameAssembler,
    out: OutBuf,
    pending: HashMap<u64, Pending>,
    seq: u64,
    ops: Stream,
    dead: bool,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Requests issued.
    pub attempted: u64,
    /// Refused, `Unavailable`, on a dead session, wrong, or still pending
    /// when the drain grace ran out.
    pub failed: u64,
    /// Correct but slower than the latency limit (open phases only).
    pub late: u64,
    /// Verified completions per slice of a closed phase. The drain tail
    /// after the window is verified but never credited.
    pub completions: Vec<f64>,
    /// Measured length of each closed-phase slice, in seconds.
    pub slice_secs: Vec<f64>,
    /// When the newest verified response arrived.
    pub last_completion: Option<Instant>,
    /// Latencies (ms) of verified responses per slice, by due (open) or
    /// issue (closed) time.
    pub latencies: Vec<Vec<f64>>,
    /// How late each request was issued relative to its due time (µs).
    pub sched_lag_us: Vec<f64>,
    /// Mean number of requests outstanding, as seen at each issue, per slice.
    pub backlog: Vec<f64>,
    /// Requests outstanding when the window closed.
    pub backlog_end: u64,
    /// The backlog of the last quarter of an open window exceeded that of
    /// the first: the offered rate was above capacity.
    pub backlog_grew: bool,
}

impl Phase {
    /// Verified completions per second, slice by slice (closed phases).
    pub fn rate_by_slice(&self) -> Vec<f64> {
        self.completions.iter().zip(&self.slice_secs).map(|(n, secs)| n / secs).collect()
    }

    /// Each slice's `q`-quantile latency (ms); a latency metric is the median
    /// of these.
    pub fn latency_quantile_by_slice(&self, q: f64) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| stats::quantile(&stats::sorted(s.clone()), q))
            .collect()
    }

    /// Every latency sample of the phase, ascending.
    pub fn all_latencies_sorted(&self) -> Vec<f64> {
        stats::sorted(self.latencies.iter().flatten().copied().collect())
    }
}

/// The generator: connections, their request streams, and the checker.
pub struct Driver {
    conns: Vec<Conn>,
    zipf: Zipf,
    checker: Checker,
    value_len: usize,
}

impl Driver {
    /// Opens `connections` sealed client sessions to the cluster's balancer.
    pub fn connect(
        cluster: &Cluster,
        w: &Workload,
        seed: u64,
        connections: usize,
    ) -> io::Result<Driver> {
        let deploy = proto::deployment_key(cluster.manifest.seed);
        let mut conns = Vec::with_capacity(connections);
        for lane in 0..connections {
            let mut stream = TcpStream::connect(&cluster.lb.addr)?;
            stream.set_nodelay(true)?;
            let hello = Hello::new(Role::Client, 0);
            snoopy_net::frame::write_frame(&mut stream, tag::HELLO, &hello.encode())?;
            stream.set_nonblocking(true)?;
            let (req_link, resp_link) = proto::client_session_links(&deploy, 0, hello.session);
            conns.push(Conn {
                stream,
                req_link,
                resp_link,
                assembler: FrameAssembler::new(),
                out: OutBuf::new(256 << 10, 64 << 20),
                pending: HashMap::new(),
                seq: 0,
                ops: Stream::new(seed, lane, connections, workloads::WRITE_FRAC),
                dead: false,
            });
        }
        Ok(Driver {
            conns,
            zipf: Zipf::new(w.objects / connections as u64, workloads::ZIPF_THETA),
            checker: Checker::new(w.objects, w.value_len),
            value_len: w.value_len,
        })
    }

    /// Sends one read per connection and waits until each is answered and
    /// verified — the end of set-up. Fails on a wrong or missing answer.
    pub fn first_responses(&mut self) -> io::Result<()> {
        let now = Instant::now();
        for lane in 0..self.conns.len() {
            self.issue(lane, Some(Op { key: lane as u64, write: false }), now, 0);
        }
        let mut phase = Phase { latencies: vec![Vec::new()], ..Phase::default() };
        let deadline = now + Duration::from_secs(30);
        while self.outstanding() > 0 {
            if Instant::now() > deadline {
                return Err(io::Error::other("no response within 30 s of boot"));
            }
            if !self.sweep(&mut phase, None) {
                std::thread::sleep(IDLE_NAP);
            }
        }
        if phase.failed > 0 || self.conns.iter().any(|c| c.dead) {
            return Err(io::Error::other("first response was refused or wrong"));
        }
        Ok(())
    }

    fn outstanding(&self) -> usize {
        self.conns.iter().map(|c| c.pending.len()).sum()
    }

    /// Seals and enqueues one request on `lane`: `op`, or the next of the
    /// lane's stream.
    fn issue(&mut self, lane: usize, op: Option<Op>, due: Instant, slice: usize) {
        let conn = &mut self.conns[lane];
        let op = op.unwrap_or_else(|| conn.ops.next_op(&self.zipf));
        let (expect, payload) = self.checker.on_issue(op);
        conn.seq += 1;
        let req = match payload {
            Some(p) => Request::write(op.key, &p, self.value_len, 0, conn.seq),
            None => Request::read(op.key, self.value_len, 0, conn.seq),
        };
        conn.pending.insert(conn.seq, Pending { due, slice, expect });
        let sent = match conn.req_link.seal(&[req]) {
            Ok(sealed) => conn.out.push_frame(tag::CLIENT_REQ, &sealed.bytes).is_ok(),
            Err(_) => false,
        };
        if !sent {
            conn.dead = true;
        }
    }

    /// One I/O pass over every session. Responses are verified and booked
    /// into `phase`, and credited to slice `credit` if there is one. Returns
    /// whether anything moved.
    fn sweep(&mut self, phase: &mut Phase, credit: Option<usize>) -> bool {
        let mut progressed = false;
        for conn in &mut self.conns {
            if conn.dead {
                // Whatever it still owed will never arrive.
                phase.failed += conn.pending.len() as u64;
                conn.pending.clear();
                continue;
            }
            if !conn.out.is_empty() {
                match conn.out.drain_into(&mut conn.stream) {
                    Ok(n) => progressed |= n > 0,
                    Err(_) => conn.dead = true,
                }
            }
            if conn.pending.is_empty() {
                continue;
            }
            let frames = match conn.assembler.read_from(&mut conn.stream, READ_BUDGET) {
                Ok(ReadStep::Frames(f)) => f,
                Ok(ReadStep::Eof(f)) => {
                    conn.dead = true;
                    f
                }
                Err(_) => {
                    conn.dead = true;
                    continue;
                }
            };
            if frames.is_empty() {
                continue;
            }
            progressed = true;
            let now = Instant::now();
            for (t, body) in frames {
                match t {
                    tag::CLIENT_RESP => {
                        let opened = proto::decode_epoch_sealed(&body).and_then(|(_, sealed)| {
                            conn.resp_link.open_responses(&sealed, self.value_len).ok()
                        });
                        let Some(batch) = opened else {
                            conn.dead = true;
                            break;
                        };
                        for resp in batch {
                            let Some(p) = conn.pending.remove(&resp.seq) else {
                                phase.failed += 1; // an answer nobody asked for
                                continue;
                            };
                            if self.checker.on_complete(&p.expect, resp.id, &resp.value).is_err() {
                                phase.failed += 1;
                                continue;
                            }
                            phase.latencies[p.slice]
                                .push(now.duration_since(p.due).as_secs_f64() * 1e3);
                            phase.last_completion = Some(now);
                            if let Some(slice) = credit {
                                phase.completions[slice] += 1.0;
                            }
                        }
                    }
                    tag::CLIENT_FAIL => {
                        // Typed `Unavailable`: the request's epoch degraded.
                        if let Some((seq, _)) = proto::decode_unavailable(&body) {
                            if conn.pending.remove(&seq).is_some() {
                                phase.failed += 1;
                            }
                        }
                    }
                    _ => {
                        conn.dead = true;
                        break;
                    }
                }
            }
        }
        progressed
    }

    /// After a window: stops issuing and waits — at most the drain grace —
    /// for what is outstanding. Answers are verified but credited to no
    /// slice; what never arrives is failed.
    fn drain(&mut self, phase: &mut Phase) {
        phase.backlog_end = self.outstanding() as u64;
        let deadline = Instant::now() + Duration::from_secs(workloads::DRAIN_GRACE_SECS);
        while self.outstanding() > 0 {
            if Instant::now() > deadline || self.conns.iter().all(|c| c.dead) {
                for conn in &mut self.conns {
                    phase.failed += conn.pending.len() as u64;
                    conn.pending.clear();
                }
                return;
            }
            if !self.sweep(phase, None) {
                std::thread::sleep(IDLE_NAP);
            }
        }
    }

    /// An open-loop phase: arrival `i` is due at `start + i / rate`, on
    /// connection `i mod connections`, whatever has or has not completed.
    /// Latencies are filed under the slice the request was due in.
    pub fn run_open(&mut self, rate: f64, seconds: u64) -> Phase {
        let slices = seconds as usize;
        let mut phase = Phase { latencies: vec![Vec::new(); slices], ..Phase::default() };
        let mut backlog_sum = vec![0.0f64; slices];
        let mut backlog_n = vec![0u64; slices];
        let lanes = self.conns.len() as u64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now();
        let end = start + Duration::from_secs(seconds);
        let mut next_index: u64 = 0;
        loop {
            let now = Instant::now();
            if now >= end || self.conns.iter().all(|c| c.dead) {
                break;
            }
            let mut next_due = start + interval.mul_f64(next_index as f64);
            for _ in 0..MAX_ISSUE_PER_SWEEP {
                if next_due > now || next_due >= end {
                    break;
                }
                let slice = next_due.duration_since(start).as_secs() as usize;
                backlog_sum[slice] += self.outstanding() as f64;
                backlog_n[slice] += 1;
                phase.sched_lag_us.push(now.duration_since(next_due).as_secs_f64() * 1e6);
                self.issue((next_index % lanes) as usize, None, next_due, slice);
                phase.attempted += 1;
                next_index += 1;
                next_due = start + interval.mul_f64(next_index as f64);
            }
            if !self.sweep(&mut phase, None) {
                let nap = next_due.saturating_duration_since(Instant::now()).min(IDLE_NAP);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
        self.drain(&mut phase);
        phase.backlog = backlog_sum
            .iter()
            .zip(&backlog_n)
            .map(|(s, &n)| if n > 0 { s / n as f64 } else { 0.0 })
            .collect();
        let limit = workloads::LATENCY_LIMIT_MS;
        phase.late = phase.latencies.iter().flatten().filter(|&&ms| ms > limit).count() as u64;
        phase.backlog_grew = backlog_is_growing(&phase.backlog, rate);
        phase
    }

    /// A closed-loop phase: `window` requests outstanding per connection,
    /// the next issued only when one completes.
    ///
    /// Responses come back an epoch's batch at a time, so a slice cut at the
    /// whole second would hold 7 or 8 batches by accident of phase (±13 % on
    /// `batch_mem`). Each slice instead ends with the first batch to arrive
    /// past its second mark, once a lull shows the batch is complete: it
    /// holds whole epochs, and its
    /// length is measured, not assumed. `on_boundary(k)` is called at the
    /// start (`k = 0`) and as slice `k - 1` closes, for sampling daemon CPU
    /// at the same point of an epoch each time.
    pub fn run_closed(
        &mut self,
        window: usize,
        seconds: u64,
        on_boundary: &mut dyn FnMut(usize),
    ) -> Phase {
        let slices = seconds as usize;
        let mut phase = Phase {
            completions: vec![0.0; slices],
            latencies: vec![Vec::new(); slices],
            ..Phase::default()
        };
        let start = Instant::now();
        let mut slice = 0usize;
        let mut slice_start = start;
        on_boundary(0);
        while slice < slices && !self.conns.iter().all(|c| c.dead) {
            let now = Instant::now();
            for lane in 0..self.conns.len() {
                while !self.conns[lane].dead && self.conns[lane].pending.len() < window {
                    self.issue(lane, None, now, slice);
                    phase.attempted += 1;
                }
            }
            let progressed = self.sweep(&mut phase, Some(slice));
            if progressed {
                continue;
            }
            let mark = start + Duration::from_secs(slice as u64 + 1);
            let batch_past_mark = phase
                .last_completion
                .is_some_and(|t| t >= mark && now.duration_since(t) >= BATCH_LULL);
            // A stalled cluster must not hang the slice open for ever.
            let overdue = now >= mark + Duration::from_secs(2);
            if batch_past_mark || overdue {
                let boundary = if overdue { now } else { phase.last_completion.expect("checked") };
                phase.slice_secs.push(boundary.duration_since(slice_start).as_secs_f64());
                slice_start = boundary;
                slice += 1;
                on_boundary(slice);
            } else {
                std::thread::sleep(IDLE_NAP);
            }
        }
        self.drain(&mut phase);
        phase
    }
}

/// An open window's backlog is growing when its last quarter holds clearly
/// more than its first: more than double, beyond 50 ms worth of arrivals of
/// slack (an epoch's batch comes and goes within a steady backlog).
pub fn backlog_is_growing(per_slice: &[f64], rate: f64) -> bool {
    let quarter = (per_slice.len() / 4).max(1);
    if per_slice.len() < 2 {
        return false;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&per_slice[..quarter]);
    let last = mean(&per_slice[per_slice.len() - quarter..]);
    last > 2.0 * first + 0.05 * rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_backlog_passes_growing_backlog_fails() {
        // ~190 outstanding at 2 500 req/s, wobbling by an epoch's batch.
        let steady = [180.0, 210.0, 170.0, 200.0, 190.0, 220.0, 185.0, 195.0];
        assert!(!backlog_is_growing(&steady, 2500.0));
        // 10 % overload: the backlog climbs by 250 every second.
        let growing: Vec<f64> = (0..8).map(|s| 190.0 + 250.0 * s as f64).collect();
        assert!(backlog_is_growing(&growing, 2500.0));
        assert!(!backlog_is_growing(&[100.0], 2500.0));
    }

    #[test]
    fn slice_quantiles_skip_empty_slices() {
        let phase = Phase {
            latencies: vec![vec![3.0, 1.0, 2.0], vec![], vec![10.0, 30.0, 20.0, 40.0]],
            ..Phase::default()
        };
        assert_eq!(phase.latency_quantile_by_slice(0.5), vec![2.0, 20.0]);
        assert_eq!(phase.all_latencies_sorted(), vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 40.0]);
    }
}
