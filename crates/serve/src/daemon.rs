//! The Unix-socket daemon: concurrent sessions over one shared cache,
//! stale-socket recovery, and graceful shutdown.
//!
//! `cvliw serve --socket PATH` used to be a sequential accept loop that
//! blindly unlinked whatever sat at `PATH` — aiming two daemons at the
//! same path silently hijacked it, and a crash left a stale socket that
//! broke the next start. This module fixes both ends of the lifecycle:
//!
//! * **Startup** probes the path with a connect before touching it: a
//!   live server answers the connect and startup refuses with
//!   `AddrInUse`; a stale socket (leftover file, connection refused) is
//!   unlinked and rebound; an absent path binds directly.
//! * **Runtime** accepts up to a configured number of concurrent
//!   sessions, each on its own thread with its own [`Server`] session
//!   state, all sharing one [`SharedState`] (result cache, spec
//!   interner, seq counter, shed gate).
//! * **Shutdown** is cooperative: when the [`ShutdownFlag`] fires (a
//!   signal handler, a test, another thread), the accept loop stops
//!   taking connections and every session drains — lines already read
//!   are compiled and answered, responses flushed, no torn output — and
//!   the socket file is removed on **every** exit path, error returns
//!   included, by an RAII guard.

use std::fs;
use std::io::{self, BufReader, BufWriter};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::server::{ServeStats, Server, ServerConfig, ShutdownFlag};
use crate::shared::SharedState;

/// How often the nonblocking accept loop re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Read timeout on accepted session sockets. This is what lets a
/// blocking session observe the shutdown flag: the reader wakes at least
/// this often even when the client sends nothing.
const SESSION_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// What a connect-probe of a socket path found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketProbe {
    /// A daemon answered the connect: the path is in active use.
    Live,
    /// Something is at the path but nothing is listening — a leftover
    /// from a daemon that died without cleaning up. Safe to unlink.
    Stale,
    /// Nothing at the path.
    Absent,
}

/// Socket-specific knobs for [`run_socket`].
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Filesystem path the daemon listens on.
    pub path: PathBuf,
    /// Concurrent client sessions accepted (clamped to at least 1);
    /// further connects wait in the listen backlog until a slot frees.
    pub sessions: usize,
}

/// Classifies what currently occupies `path` by trying to connect to it.
/// Inherently a point-in-time answer (the daemon that refused the
/// connect could exit a microsecond later), which is exactly enough to
/// stop the common failure: clobbering a healthy daemon's socket.
///
/// # Errors
///
/// Propagates connect errors other than "refused" and "not found".
pub fn probe_socket(path: &Path) -> io::Result<SocketProbe> {
    match UnixStream::connect(path) {
        Ok(_) => Ok(SocketProbe::Live),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(SocketProbe::Stale),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(SocketProbe::Absent),
        Err(e) => Err(e),
    }
}

/// Removes the socket file when dropped — the one cleanup that must run
/// on every exit path out of [`run_socket`], early errors included.
struct SocketGuard {
    path: PathBuf,
}

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Runs the daemon on a Unix socket over `shared` until `shutdown` is
/// requested, then drains every live session and removes the socket
/// file. Returns the daemon-wide counters at shutdown. The caller builds
/// the shared state — [`SharedState::new`], or a persistence-backed
/// cache recovered via [`SharedState::with_persistence`] whose log it
/// compacts after this returns.
///
/// # Errors
///
/// Refuses with [`io::ErrorKind::AddrInUse`] when a live daemon already
/// serves the path; propagates bind and accept failures. Per-session
/// I/O errors end that session only, never the daemon.
pub fn run_socket(
    cfg: ServerConfig,
    sock: &SocketConfig,
    shutdown: &ShutdownFlag,
    shared: Arc<SharedState>,
) -> io::Result<ServeStats> {
    match probe_socket(&sock.path)? {
        SocketProbe::Live => {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!(
                    "socket {} is served by a live daemon (connect succeeded); \
                     refusing to clobber it",
                    sock.path.display()
                ),
            ));
        }
        SocketProbe::Stale => fs::remove_file(&sock.path)?,
        SocketProbe::Absent => {}
    }
    let listener = UnixListener::bind(&sock.path)?;
    let _guard = SocketGuard {
        path: sock.path.clone(),
    };
    listener.set_nonblocking(true)?;

    let max_sessions = sock.sessions.max(1);
    let accept_result = thread::scope(|scope| -> io::Result<()> {
        let mut handles: Vec<thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        loop {
            if shutdown.is_requested() {
                return Ok(());
            }
            handles.retain(|h| !h.is_finished());
            if handles.len() >= max_sessions {
                thread::sleep(ACCEPT_POLL);
                continue;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    handles.push(scope.spawn(move || {
                        // Belt over the worker-level suspenders: even a
                        // panic outside the compile containment boundary
                        // takes down this session only. The empty stream
                        // is dropped either way, so the client sees EOF.
                        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                            run_session(cfg, shared, stream, shutdown)
                        }));
                        match caught {
                            Ok(Ok(())) | Ok(Err(_)) | Err(_) => {}
                        }
                    }));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // A hard accept failure ends the daemon — but the
                    // sessions still drain: request shutdown so their
                    // pumps stop at the next line boundary, then let the
                    // scope join them before the error propagates.
                    shutdown.request();
                    return Err(e);
                }
            }
        }
    });
    accept_result?;
    Ok(shared.stats().snapshot())
}

fn run_session(
    cfg: ServerConfig,
    shared: Arc<SharedState>,
    stream: UnixStream,
    shutdown: &ShutdownFlag,
) -> io::Result<()> {
    // Accepted sockets are explicitly returned to blocking mode (they
    // may inherit the listener's nonblocking flag on some platforms),
    // then given a read timeout: that timeout is the session's shutdown
    // poll.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(SESSION_READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    let writer = BufWriter::new(stream);
    let mut server = Server::with_shared(cfg, shared);
    server.run_jsonl(reader, writer, shutdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{request_line, TINY_LOOP};
    use std::io::{BufRead, Write};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_socket_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cvliw-{}-{tag}-{n}.sock", std::process::id()))
    }

    /// A default-config daemon on its own thread and its own state.
    fn spawn_daemon(
        sock: &SocketConfig,
        shutdown: &ShutdownFlag,
    ) -> thread::JoinHandle<io::Result<ServeStats>> {
        let (sock, shutdown) = (sock.clone(), shutdown.clone());
        let cfg = ServerConfig::default();
        thread::spawn(move || run_socket(cfg, &sock, &shutdown, SharedState::new(&cfg)))
    }

    #[test]
    fn probe_classifies_absent_stale_and_live() {
        let path = temp_socket_path("probe");
        assert_eq!(probe_socket(&path).unwrap(), SocketProbe::Absent);

        {
            let _listener = UnixListener::bind(&path).unwrap();
            assert_eq!(probe_socket(&path).unwrap(), SocketProbe::Live);
        }
        // Listener dropped, file remains: stale.
        assert!(path.exists());
        assert_eq!(probe_socket(&path).unwrap(), SocketProbe::Stale);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn daemon_serves_concurrent_clients_and_cleans_up_on_shutdown() {
        let path = temp_socket_path("daemon");
        let sock = SocketConfig {
            path: path.clone(),
            sessions: 4,
        };
        let shutdown = ShutdownFlag::new();
        let daemon = spawn_daemon(&sock, &shutdown);

        // Wait for the socket to come up.
        let mut tries = 0;
        while probe_socket(&path).unwrap() != SocketProbe::Live {
            tries += 1;
            assert!(tries < 200, "daemon never bound {}", path.display());
            thread::sleep(Duration::from_millis(10));
        }

        // A second daemon on the same path must refuse, not clobber.
        let cfg = ServerConfig::default();
        let rival = run_socket(cfg, &sock, &ShutdownFlag::new(), SharedState::new(&cfg));
        assert_eq!(rival.unwrap_err().kind(), io::ErrorKind::AddrInUse);
        assert!(
            path.exists(),
            "rival's guard must not remove the live socket"
        );

        // Two concurrent clients (each a fresh resilient Client, so both
        // connect independently); the second's request hits the first's
        // cached result.
        let ask = |id: u64| {
            crate::client::Client::new(&path)
                .compile(id, TINY_LOOP, "4c1b2l64r", "replicate", 1)
                .unwrap()
        };
        let a = ask(1);
        let b = ask(2);
        assert!(a.starts_with("{\"id\":1,\"ok\":"), "{a}");
        assert_eq!(
            a.trim_start_matches("{\"id\":1,"),
            b.trim_start_matches("{\"id\":2,")
        );

        shutdown.request();
        let stats = daemon.join().unwrap().unwrap();
        assert_eq!(stats.requests, 2);
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!(!path.exists(), "socket file must be removed on shutdown");
    }

    #[test]
    fn stale_socket_is_recovered_on_restart() {
        let path = temp_socket_path("stale");
        // Fake a crashed daemon: bound socket file, nobody listening.
        drop(UnixListener::bind(&path).unwrap());
        assert_eq!(probe_socket(&path).unwrap(), SocketProbe::Stale);

        let sock = SocketConfig {
            path: path.clone(),
            sessions: 1,
        };
        let shutdown = ShutdownFlag::new();
        let daemon = spawn_daemon(&sock, &shutdown);
        let mut tries = 0;
        while probe_socket(&path).unwrap() != SocketProbe::Live {
            tries += 1;
            assert!(tries < 200, "restart over a stale socket never bound");
            thread::sleep(Duration::from_millis(10));
        }
        shutdown.request();
        daemon.join().unwrap().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn shutdown_mid_batch_still_answers_every_admitted_request() {
        let path = temp_socket_path("drain");
        let sock = SocketConfig {
            path: path.clone(),
            sessions: 2,
        };
        let shutdown = ShutdownFlag::new();
        let daemon = spawn_daemon(&sock, &shutdown);
        let mut tries = 0;
        while probe_socket(&path).unwrap() != SocketProbe::Live {
            tries += 1;
            assert!(tries < 200);
            thread::sleep(Duration::from_millis(10));
        }

        // Send a burst of requests, then request shutdown while the
        // client connection is still open (no EOF from our side): drain
        // must answer everything already written, with well-formed lines.
        let mut c = UnixStream::connect(&path).unwrap();
        let sent = 6u64;
        for id in 0..sent {
            c.write_all(request_line(id, TINY_LOOP, "4c1b2l64r", "replicate", 1).as_bytes())
                .unwrap();
            c.write_all(b"\n").unwrap();
        }
        c.flush().unwrap();
        thread::sleep(Duration::from_millis(150));
        shutdown.request();
        let stats = daemon.join().unwrap().unwrap();
        assert_eq!(stats.requests, sent, "admitted requests were dropped");

        let mut replies = String::new();
        let mut reader = BufReader::new(c);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => replies.push_str(&line),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => panic!("reading drained responses: {e}"),
            }
        }
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), sent as usize, "{replies}");
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},")) && line.ends_with('}'),
                "torn or misordered line {i}: {line}"
            );
        }
        assert!(!path.exists());
    }
}
