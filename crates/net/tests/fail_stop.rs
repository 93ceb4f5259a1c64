//! A panic on any thread ends the process, with a flight-recorder dump.
//!
//! The test re-executes its own binary as a child that does what a daemon
//! does: it calls `snoopy_net::fail_stop::install`, spawns a long-lived
//! thread, and parks. Then the spawned thread panics. The parent requires
//! that the child exits non-zero within a second of the panic, that it
//! keeps the default panic message, and that its flight recorder left a
//! dump that names the thread in `SNOOPY_FLIGHT_DIR`.

use snoopy_net::fail_stop::{install, PANIC_EXIT_CODE};
use snoopy_telemetry::events::{parse_jsonl, EventKind};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set in the child's environment: run the child half of the test.
const CHILD: &str = "SNOOPY_FAIL_STOP_CHILD";
const READY: &str = "fail-stop child ready";
const THREAD: &str = "doomed";

/// The child: a parked main thread and a named thread that panics once the
/// parent has seen the child start.
fn child() -> ! {
    install();
    let (go_tx, go_rx) = std::sync::mpsc::channel::<()>();
    std::thread::Builder::new()
        .name(THREAD.into())
        .spawn(move || {
            go_rx.recv().unwrap();
            panic!("injected fault");
        })
        .unwrap();
    println!("{READY}");
    go_tx.send(()).unwrap();
    loop {
        std::thread::park();
    }
}

#[test]
fn a_panicking_thread_ends_the_process() {
    if std::env::var_os(CHILD).is_some() {
        child();
    }
    let dir = std::env::temp_dir().join(format!("snoopy-fail-stop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut proc = Command::new(std::env::current_exe().unwrap())
        .args(["a_panicking_thread_ends_the_process", "--exact", "--nocapture"])
        .env(CHILD, "1")
        .env("SNOOPY_FLIGHT_DIR", &dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(proc.stdout.take().unwrap());
    let mut line = String::new();
    while line.trim_end() != READY {
        line.clear();
        assert!(stdout.read_line(&mut line).unwrap() > 0, "child ended before it was ready");
    }

    let ready = Instant::now();
    let status = loop {
        if let Some(status) = proc.try_wait().unwrap() {
            break status;
        }
        if ready.elapsed() > Duration::from_secs(1) {
            proc.kill().unwrap();
            proc.wait().unwrap();
            panic!("a panicking thread left the process running for over 1 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status.code(), Some(PANIC_EXIT_CODE));

    let mut stderr = String::new();
    proc.stderr.take().unwrap().read_to_string(&mut stderr).unwrap();
    assert!(
        stderr.contains(&format!("thread '{THREAD}'")) && stderr.contains("injected fault"),
        "the default panic message is kept: {stderr}"
    );

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(".panic.events.jsonl"))
        .collect();
    assert_eq!(dumps.len(), 1, "one panic dump in the flight directory");
    let records = parse_jsonl(&std::fs::read_to_string(&dumps[0]).unwrap()).unwrap();
    let last = records.last().expect("the dump holds the panic event");
    assert_eq!(last.kind, EventKind::Panic);
    assert!(last.field(THREAD).is_some_and(|line| line > 0), "the event names the thread");
    std::fs::remove_dir_all(&dir).unwrap();
}
