//! SIGTERM/SIGINT → graceful-shutdown bridge for the socket daemon.
//!
//! The handler is async-signal-safe by construction: it stores one
//! atomic flag and returns. A watcher thread polls the flag and forwards
//! it to the daemon's [`cvliw::serve::ShutdownFlag`], which the accept
//! loop and every session observe at their next poll — in-flight batches
//! drain, responses flush, and the socket file is removed.
//!
//! Only the socket daemon installs this. The stdin daemon's graceful
//! path is EOF: glibc's `signal()` gives `SA_RESTART` semantics, so a
//! handler would not interrupt a blocking stdin read anyway, and ctrl-d
//! already drains cleanly.
//!
//! When the daemon persists its cache (`--cache-path`), both graceful
//! exits funnel through the same post-drain epilogue in `cmd_serve`: the
//! log is compacted one last time (tmp + fsync + atomic rename) after
//! the accept loop returns, so a SIGTERM'd daemon restarts warm from
//! exactly its live entries. A SIGKILL skips the epilogue by definition
//! — the per-insert appends are what survive it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use cvliw::serve::ShutdownFlag;

static REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    REQUESTED.store(true, Ordering::Release);
}

/// Installs SIGINT/SIGTERM handlers and spawns the watcher that forwards
/// the first signal to `shutdown`. Call once, before the accept loop.
pub fn install_shutdown_handler(shutdown: &ShutdownFlag) {
    // `signal(2)` via its C prototype — the only libc surface this
    // needs, so the workspace stays free of FFI crates. The returned
    // previous handler is irrelevant here.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
    let shutdown = shutdown.clone();
    thread::spawn(move || loop {
        if REQUESTED.load(Ordering::Acquire) {
            shutdown.request();
            return;
        }
        thread::sleep(Duration::from_millis(50));
    });
}
