//! The admin RPCs: [`fetch_stats`], [`fetch_metrics`], [`fetch_health`],
//! [`fetch_trace`], [`fetch_events`] and [`shutdown_daemon`] speak the
//! plaintext control frames under [`RetryPolicy::admin_default`];
//! [`fetch_health_with`] takes an explicit [`RetryPolicy`]. Client
//! operations go through [`crate::api::SnoopyClient`].

use crate::frame::{read_frame, write_frame};
use crate::proto::{tag, Hello, Role};
use snoopy_core::RetryPolicy;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

pub use crate::error::{classify_io_error, ErrorClass};

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn admin_dial(addr: &str, policy: &RetryPolicy) -> io::Result<TcpStream> {
    let timeout = policy.attempt_timeout.unwrap_or(Duration::from_secs(30));
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    write_frame(&mut stream, tag::HELLO, &Hello::new(Role::Admin, 0).encode())?;
    Ok(stream)
}

/// One admin round trip: sends `req` with an empty body and returns the
/// `resp` frame's body as text.
fn admin_rpc(addr: &str, policy: &RetryPolicy, req: u8, resp: u8) -> io::Result<String> {
    policy.run(|attempt| {
        if attempt > 0 {
            crate::api::count_retry();
        }
        let mut stream = admin_dial(addr, policy)?;
        write_frame(&mut stream, req, b"")?;
        let (t, body) = read_frame(&mut stream)?;
        if t != resp {
            return Err(bad("unexpected frame from daemon"));
        }
        String::from_utf8(body).map_err(|_| bad("admin reply not utf-8"))
    })
}

/// Fetches a daemon's per-link counters (the `stats` RPC) as its textual
/// form; parse with [`crate::stats::parse_stats`].
pub fn fetch_stats(addr: &str) -> io::Result<String> {
    admin_rpc(addr, &RetryPolicy::admin_default(), tag::STATS_REQ, tag::STATS_RESP)
}

/// Fetches a daemon's Prometheus text exposition (the `metrics` RPC):
/// per-stage latency histograms, epoch/request counters, and every link
/// counter as labeled series. All series pass through the
/// [`snoopy_telemetry::Public`] leakage gate daemon-side.
pub fn fetch_metrics(addr: &str) -> io::Result<String> {
    admin_rpc(addr, &RetryPolicy::admin_default(), tag::METRICS_REQ, tag::METRICS_RESP)
}

/// Probes a daemon's liveness (the `health` RPC): returns its parsed
/// identity/uptime/epoch header. The balancer uses the same header shape for
/// its own heartbeat checks; everything in it is public (configuration and
/// coarse process age).
pub fn fetch_health(addr: &str) -> io::Result<crate::stats::StatsHeader> {
    fetch_health_with(addr, &RetryPolicy::admin_default())
}

/// [`fetch_health`] under an explicit retry policy.
pub fn fetch_health_with(
    addr: &str,
    policy: &RetryPolicy,
) -> io::Result<crate::stats::StatsHeader> {
    let text = admin_rpc(addr, policy, tag::HEALTH_REQ, tag::HEALTH_RESP)?;
    crate::stats::parse_stats_header(&text).ok_or_else(|| bad("health body missing header"))
}

/// Drains a daemon's tracer over the `trace` RPC, returning its
/// [`ProcessDump`](snoopy_telemetry::ProcessDump) with `clock_offset_ns`
/// already set from this round trip (Cristian's midpoint estimate —
/// [`snoopy_telemetry::merge::estimate_offset_ns`]), so the dumps from a
/// whole cluster merge onto the collector's timeline via
/// [`snoopy_telemetry::merged_chrome_trace`]. The drain is destructive:
/// each span is returned by exactly one trace RPC.
pub fn fetch_trace(addr: &str) -> io::Result<snoopy_telemetry::ProcessDump> {
    let t0 = snoopy_telemetry::events::unix_now_ns();
    let text = admin_rpc(addr, &RetryPolicy::admin_default(), tag::TRACE_REQ, tag::TRACE_RESP)?;
    let t1 = snoopy_telemetry::events::unix_now_ns();
    let mut dump = snoopy_telemetry::ProcessDump::parse(&text)
        .map_err(|e| bad(&format!("bad trace dump: {e}")))?;
    dump.clock_offset_ns = snoopy_telemetry::merge::estimate_offset_ns(t0, dump.now_unix_ns, t1);
    Ok(dump)
}

/// Fetches a daemon's flight-recorder snapshot (the `events` RPC): the
/// bounded ring of structured lifecycle events, newest last. Non-destructive
/// — the daemon keeps its ring. See [`snoopy_telemetry::events`].
pub fn fetch_events(addr: &str) -> io::Result<Vec<snoopy_telemetry::EventRecord>> {
    let text = admin_rpc(addr, &RetryPolicy::admin_default(), tag::EVENTS_REQ, tag::EVENTS_RESP)?;
    snoopy_telemetry::events::parse_jsonl(&text).map_err(|e| bad(&format!("bad events dump: {e}")))
}

/// Asks a daemon to shut down gracefully; returns once it acknowledges.
/// Deliberately *not* retried beyond the dial: a shutdown that was delivered
/// but whose ack was lost must not be re-sent into a freshly restarted
/// daemon.
pub fn shutdown_daemon(addr: &str) -> io::Result<()> {
    let mut stream = admin_dial(addr, &RetryPolicy::admin_default())?;
    write_frame(&mut stream, tag::SHUTDOWN, b"")?;
    let (t, _) = read_frame(&mut stream)?;
    if t != tag::SHUTDOWN_ACK {
        return Err(bad("unexpected frame from daemon"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SnoopyClient;
    use crate::proto;

    #[test]
    fn error_classification_maps_kinds() {
        // The regression this guards: a socket read deadline surfaces as
        // WouldBlock on Unix and must NOT be treated as the peer hanging up.
        let timeout = io::Error::new(io::ErrorKind::WouldBlock, "read timed out");
        assert_eq!(classify_io_error(&timeout), ErrorClass::Timeout);
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "read timed out");
        assert_eq!(classify_io_error(&timeout), ErrorClass::Timeout);
        // A clean EOF mid-frame (read_exact with the peer closed) is a
        // disconnect, not a timeout and not fatal.
        let eof = io::Error::new(io::ErrorKind::UnexpectedEof, "failed to fill whole buffer");
        assert_eq!(classify_io_error(&eof), ErrorClass::Disconnected);
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "reset by peer");
        assert_eq!(classify_io_error(&reset), ErrorClass::Disconnected);
        // Protocol-level corruption must not be retried.
        let corrupt = io::Error::new(io::ErrorKind::InvalidData, "bad frame length");
        assert_eq!(classify_io_error(&corrupt), ErrorClass::Fatal);
    }

    /// A stub listener that accepts one connection, reads the hello, then
    /// behaves per `mode`. Exercises the client's error mapping against real
    /// sockets.
    fn stub_listener(mode: &'static str) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_frame(&mut stream); // hello
            match mode {
                // Close immediately: the client's next read sees clean EOF.
                "eof" => drop(stream),
                // Read the request then go silent past the client deadline.
                "stall" => {
                    let _ = read_frame(&mut stream);
                    std::thread::sleep(Duration::from_millis(500));
                }
                _ => unreachable!(),
            }
        });
        (addr, handle)
    }

    fn connect(addr: std::net::SocketAddr) -> SnoopyClient {
        SnoopyClient::builder(16)
            .read_timeout(Duration::from_millis(50))
            .retry(RetryPolicy::once())
            .connect_tcp(&addr.to_string(), 0, &proto::deployment_key(1))
            .unwrap()
    }

    #[test]
    fn peer_eof_maps_to_disconnected_not_timeout() {
        let (addr, handle) = stub_listener("eof");
        let err = connect(addr).read(0).unwrap_err();
        assert_eq!(
            err.class(),
            ErrorClass::Disconnected,
            "peer close must classify as disconnect, got {err:?}"
        );
        handle.join().unwrap();
    }

    #[test]
    fn silent_peer_maps_to_timeout_not_eof() {
        let (addr, handle) = stub_listener("stall");
        let err = connect(addr).read(0).unwrap_err();
        assert_eq!(
            err.class(),
            ErrorClass::Timeout,
            "a stalled peer must classify as timeout, got {err:?}"
        );
        handle.join().unwrap();
    }
}
