//! Compile-as-a-service for the replication compiler: the machinery
//! behind `cvliw serve`.
//!
//! A long-running daemon accepts compile requests — loop source, machine
//! spec, mode, optional seed-racing width — as JSONL over stdin or a Unix
//! socket, and answers each with exactly the counters a one-shot
//! `compile_loop` run would report. Three guarantees, pinned by the
//! differential test layer:
//!
//! * **Byte identity** — a served response body equals the one-shot
//!   rendering of the same compile, hit or miss, whatever the worker
//!   count, cold or warm.
//! * **Determinism** — cache state and responses are a pure function of
//!   the request stream: LRU stamps are request seq numbers, insertion
//!   follows admission order, and work is sharded by key hash, never by
//!   load.
//! * **Allocation-free warm path** — a batch answered entirely from cache
//!   touches no allocator: borrowed-slice JSON scanning, an interned spec
//!   table, a raw-text fingerprint memo and `Arc` payload clones.
//!
//! On top of those, the serve layer is built to stay up: a panicking
//! compile is contained to its job (`compile_panic`), a compile that
//! blows the per-request budget is cancelled at the next II attempt
//! (`deadline_exceeded`), misses beyond the in-flight bound are shed
//! with a back-off hint (`overloaded`) instead of queueing unboundedly,
//! and SIGTERM/SIGINT drain in-flight batches before the daemon exits.
//! Fault payloads never enter the result cache.
//!
//! The module split mirrors the request's journey: [`json`] scans the
//! line, [`protocol`] types it, [`cache`] answers repeats, [`shared`]
//! holds what sessions share, [`server`] runs the pool, [`daemon`]
//! owns the Unix socket, [`persist`] makes the cache survive restarts,
//! and [`client`] is the reconnecting caller's side of the socket.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// No panic may be reachable from request handling: every `unwrap`/
// `expect` in the serve crate is a latent daemon crash, so the lint
// makes them unrepresentable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod daemon;
#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod json;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod shared;
pub mod testutil;

pub use cache::{CacheKey, ResultCache};
#[cfg(unix)]
pub use client::{BackoffPolicy, Client};
#[cfg(unix)]
pub use daemon::{probe_socket, run_socket, run_socket_with, SocketConfig, SocketProbe};
#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;
#[cfg(feature = "fault-inject")]
pub use persist::DiskFaults;
pub use persist::{verify_dir, LoadReport, PersistRecord, Persister, VerifyReport};
pub use protocol::{
    parse_request, render_compile_error_body, render_error_body, render_ok_body, render_response,
    ErrorKind, Request, MAX_LINE_BYTES,
};
pub use server::{
    retry_after_hint, ServeStats, Server, ServerConfig, ShutdownFlag, MAX_BATCH,
    RETRY_AFTER_BASE_MS, RETRY_AFTER_MAX_MS, RETRY_AFTER_PER_INFLIGHT_MS,
};
pub use shared::{PersistConfig, SharedState};
