//! Hostile frames against live daemons.
//!
//! Each daemon runs every session's frame handler on its one reactor thread,
//! so a handler that panics on a frame would silence the whole daemon. This
//! suite boots a 1×1 `snoopyd` cluster and, for every hello role a daemon
//! accepts, opens one session per frame and sends every tag 0..=255 with an
//! empty body, a 1-byte body and a garbage body. After each role's sweep the
//! daemon must still answer the health RPC, and a client read must still
//! return the stored value.

use snoopy_chaos::harness::{free_addrs, wait_for_health, Daemon};
use snoopy_core::RetryPolicy;
use snoopy_net::frame::{read_frame, write_frame};
use snoopy_net::proto::{self, tag, Hello, Role};
use snoopy_net::{fetch_health, shutdown_daemon, SnoopyClient};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 61;
const SNOOPYD: &str = env!("CARGO_BIN_EXE_snoopyd");

#[test]
fn no_frame_silences_a_daemon() {
    let dir = std::env::temp_dir().join(format!("snoopy-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let addrs = free_addrs(2);
    let (lb_addr, sub_addr) = (&addrs[0], &addrs[1]);
    let manifest = dir.join("cluster.manifest");
    std::fs::write(
        &manifest,
        format!(
            "value_len = 32\nlambda = 128\nseed = {SEED}\nnum_objects = 64\nepoch_ms = 5\n\
             sub_deadline_ms = 250\nmax_replays = 60\nloadbalancer = {lb_addr}\n\
             suboram = {sub_addr}\n"
        ),
    )
    .unwrap();
    let sub = Daemon::spawn(SNOOPYD, "suboram", 0, &manifest, None);
    let lb = Daemon::spawn(SNOOPYD, "loadbalancer", 0, &manifest, None);
    wait_for_health(sub_addr, "suboram");
    wait_for_health(lb_addr, "loadbalancer");

    let mut client = SnoopyClient::builder(32)
        .read_timeout(Duration::from_secs(10))
        .retry(RetryPolicy::client_default().max_attempts(120).jitter_seed(SEED))
        .connect_tcp(lb_addr, 0, &proto::deployment_key(SEED))
        .expect("connect");
    let stored = *b"a value that survives every role";
    client.write(5, &stored).expect("write");

    // The garbage body's first byte names no reshard command, so on
    // `RESHARD_REQ` it is refused rather than acted on.
    let garbage: Vec<u8> = (0..97u32).map(|i| (i * 167 + 89) as u8).collect();
    let sweeps = [
        (lb_addr, "loadbalancer", Role::Client),
        (lb_addr, "loadbalancer", Role::Admin),
        (sub_addr, "suboram", Role::LoadBalancer),
        (sub_addr, "suboram", Role::Admin),
    ];
    for (addr, name, role) in sweeps {
        for t in 0..=u8::MAX {
            // An admin's shutdown is honoured by design; it is not hostile.
            if role == Role::Admin && t == tag::SHUTDOWN {
                continue;
            }
            for body in [&[][..], &[0x5A][..], &garbage[..]] {
                let mut stream = TcpStream::connect(addr)
                    .unwrap_or_else(|e| panic!("{name} stopped accepting sessions: {e}"));
                stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                write_frame(&mut stream, tag::HELLO, &Hello::new(role, 0).encode()).unwrap();
                // The daemon answers the frame, closes the session, or stays
                // silent until the read deadline; a failed write or read is
                // one of those outcomes.
                if write_frame(&mut stream, t, body).is_ok() {
                    let _ = read_frame(&mut stream);
                }
            }
        }
        let health = fetch_health(addr)
            .unwrap_or_else(|e| panic!("{name} stopped answering after the {role:?} sweep: {e}"));
        assert_eq!(health.role, name);
        let got = client
            .read(5)
            .unwrap_or_else(|e| panic!("read failed after the {role:?} sweep on {name}: {e}"));
        assert_eq!(got, stored, "the stored value changed after the {role:?} sweep on {name}");
    }

    for addr in &addrs {
        shutdown_daemon(addr).expect("shutdown");
    }
    lb.wait_graceful();
    sub.wait_graceful();
    let _ = std::fs::remove_dir_all(&dir);
}
