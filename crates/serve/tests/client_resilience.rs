//! The resilient client against real sockets: reconnect-and-resend
//! through a daemon restart, and the `retry_after_ms` contract against a
//! hand-rolled server that sheds precisely on cue.
//!
//! The backoff *math* (deterministic exponential, ±25% jitter, cap) is
//! pinned by unit tests in `client.rs`; these tests pin the *protocol*:
//! what the client does with a dead socket, a mid-exchange EOF, and an
//! `overloaded` response.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use cvliw_serve::testutil::TINY_LOOP;
use cvliw_serve::{
    run_socket, BackoffPolicy, Client, ServerConfig, SharedState, ShutdownFlag, SocketConfig,
};

static SOCK_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cvliw-client-{tag}-{}-{}.sock",
        std::process::id(),
        SOCK_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A fast-retry policy so the tests don't sleep their way to a timeout.
fn eager() -> BackoffPolicy {
    BackoffPolicy {
        base_ms: 1,
        cap_ms: 50,
        max_retries: 40,
        ..BackoffPolicy::default()
    }
}

fn spawn_daemon(
    path: PathBuf,
    shutdown: ShutdownFlag,
) -> thread::JoinHandle<std::io::Result<cvliw_serve::ServeStats>> {
    thread::spawn(move || {
        let cfg = ServerConfig {
            jobs: 1,
            ..ServerConfig::default()
        };
        let sock = SocketConfig { path, sessions: 2 };
        run_socket(cfg, &sock, &shutdown, SharedState::new(&cfg))
    })
}

fn wait_for_socket(path: &PathBuf) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !path.exists() {
        assert!(Instant::now() < deadline, "daemon never bound {path:?}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// The headline behavior: a request stream survives the daemon being
/// stopped and restarted underneath it. The client reports reconnects;
/// every response is a real compile answer.
#[test]
fn client_rides_through_a_daemon_restart() {
    let path = scratch_socket("restart");
    let shutdown = ShutdownFlag::new();
    let daemon = spawn_daemon(path.clone(), shutdown.clone());
    wait_for_socket(&path);

    let mut client = Client::with_policy(&path, eager());
    let first = client
        .compile(1, TINY_LOOP, "4c1b2l64r", "replicate", 1)
        .expect("first compile");
    assert!(first.contains("\"ok\""), "{first}");

    // Stop the daemon; the socket file goes away with it.
    shutdown.request();
    daemon.join().expect("daemon thread").expect("daemon exit");
    assert!(!path.exists(), "socket file must be removed on exit");

    // Restart on the same path while the client's next request is
    // already retrying against the dead socket.
    let shutdown = ShutdownFlag::new();
    let client_thread = thread::spawn(move || {
        let second = client
            .compile(2, TINY_LOOP, "4c1b2l64r", "replicate", 1)
            .expect("compile across restart");
        (second, client.reconnects())
    });
    thread::sleep(Duration::from_millis(20)); // let some retries fail first
    let daemon = spawn_daemon(path.clone(), shutdown.clone());

    let (second, reconnects) = client_thread.join().expect("client thread");
    assert!(second.contains("\"ok\""), "{second}");
    assert!(reconnects >= 1, "restart must be visible as a reconnect");
    assert!(second.contains("\"id\":2"), "{second}");

    shutdown.request();
    daemon.join().expect("daemon thread").expect("daemon exit");
}

/// The shed contract: on `overloaded` the client waits the server's
/// `retry_after_ms` (not its own schedule) and resends on the same
/// connection. A hand-rolled listener sheds once, then serves, so the
/// test controls the exact byte stream.
#[test]
fn client_honors_retry_after_and_resends_the_same_line() {
    let path = scratch_socket("shed");
    let listener = UnixListener::bind(&path).expect("bind");
    let server = thread::spawn(move || -> (String, String) {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut first = String::new();
        reader.read_line(&mut first).expect("first line");
        writer
            .write_all(b"{\"id\":7,\"error\":{\"kind\":\"overloaded\",\"retry_after_ms\":40}}\n")
            .expect("shed response");
        let mut second = String::new();
        reader.read_line(&mut second).expect("resent line");
        writer
            .write_all(b"{\"id\":7,\"ok\":{\"served\":\"after backoff\"}}\n")
            .expect("ok response");
        (first, second)
    });

    let mut client = Client::with_policy(&path, eager());
    let started = Instant::now();
    let response = client
        .request("{\"id\":7,\"op\":\"stats\"}")
        .expect("request");
    let waited = started.elapsed();

    let (first, second) = server.join().expect("server thread");
    assert_eq!(first, second, "the resent line must be byte-identical");
    assert_eq!(response, "{\"id\":7,\"ok\":{\"served\":\"after backoff\"}}");
    assert_eq!(client.sheds_honored(), 1);
    assert_eq!(client.reconnects(), 0, "a shed is not a reconnect");
    assert!(
        waited >= Duration::from_millis(40),
        "client waited only {waited:?}, ignoring retry_after_ms"
    );
    let _ = std::fs::remove_file(&path);
}

/// A dead socket with nothing behind it: the client gives up after
/// `max_retries` with the connect error, not a hang or a panic.
#[test]
fn client_gives_up_cleanly_when_no_daemon_ever_appears() {
    let path = scratch_socket("absent");
    let mut client = Client::with_policy(
        &path,
        BackoffPolicy {
            base_ms: 1,
            cap_ms: 2,
            max_retries: 3,
            ..BackoffPolicy::default()
        },
    );
    let err = client
        .request("{\"id\":1,\"op\":\"stats\"}")
        .expect_err("no daemon");
    assert!(err.to_string().contains("giving up"), "{err}");
}
