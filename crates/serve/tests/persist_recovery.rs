//! Crash-safety properties of the persisted result cache.
//!
//! Three layers, three property families:
//!
//! * **Frame layer** — arbitrary records appended through [`Persister`]
//!   come back byte-identical; a file cut at *any* byte yields exactly
//!   the longest complete-record prefix (torn tail detected, never a
//!   panic, never a fabricated record); a bit flipped *anywhere* after
//!   the header never produces a record that was not written.
//! * **Server layer** — a daemon that persists, compacts, dies and
//!   restarts answers a continued request stream byte-identically to a
//!   daemon that never restarted, with the *same* hit/miss/eviction
//!   counts: the restored LRU is behaviorally indistinguishable. And
//!   the compaction cadence keeps the log within twice the cache's
//!   entry bound and twice its byte bound.
//! * **Refusal layer** — alien headers (wrong version, wrong magic,
//!   wrong schema hash) start cold with the file set aside, and the
//!   directory then verifies clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use cvliw_serve::persist::{scan_bytes, HeaderStatus, HEADER_LEN, LOG_FILE};
use cvliw_serve::testutil::request_line;
use cvliw_serve::{verify_dir, PersistRecord, Persister, Server, ServerConfig, SharedState};
use proptest::prelude::*;

const SPEC: &str = "4c1b2l64r";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch cache directory, removed on drop (pass or fail —
/// a failed proptest reports its seed, not its litter).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "cvliw-persist-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn arb_record() -> impl Strategy<Value = PersistRecord> {
    (
        0u64..u64::MAX,
        0u8..5,
        1u32..4,
        prop::collection::vec(32u8..127, 0..60),
    )
        .prop_map(|(fp, mode, seeds, payload)| PersistRecord {
            fp,
            mode,
            seeds,
            stamp: 0, // assigned by position below
            spec: Box::from(SPEC),
            payload: String::from_utf8(payload)
                .expect("printable ASCII")
                .into_boxed_str(),
        })
}

fn stamped(mut records: Vec<PersistRecord>) -> Vec<PersistRecord> {
    for (i, r) in records.iter_mut().enumerate() {
        r.stamp = i as u64;
    }
    records
}

/// Appends `records` to the log in `dir` and returns the log's bytes.
fn log_bytes(dir: &Path, records: &[PersistRecord]) -> Vec<u8> {
    let (mut p, loaded, _) = Persister::open(dir, u64::MAX, u64::MAX).expect("open scratch dir");
    assert!(loaded.is_empty(), "scratch dir must start empty");
    for r in records {
        p.append(&r.as_ref());
    }
    assert!(p.dead_reason().is_none(), "{:?}", p.dead_reason());
    drop(p);
    fs::read(dir.join(LOG_FILE)).expect("log exists")
}

/// A family of structurally distinct loops (the recurrence distance
/// differs), each a distinct cache entry.
fn distinct_loop(i: usize) -> String {
    format!(
        "loop l {{\n  i: iadd i@{}\n  ld: load i\n  m: fmul ld\n  st: store m\n}}",
        i + 1
    )
}

fn serve_one(s: &mut Server, id: u64, src: &str) -> String {
    let mut out = String::new();
    s.process_batch(&[request_line(id, src, SPEC, "replicate", 1)], &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Log round trip: what the persister appended is exactly what
    /// recovery returns — same records, same order, same bytes.
    #[test]
    fn log_round_trips_byte_identically(
        records in prop::collection::vec(arb_record(), 1..12),
    ) {
        let scratch = Scratch::new("roundtrip");
        let records = stamped(records);
        let bytes = log_bytes(&scratch.0, &records);

        let scan = scan_bytes(&bytes);
        prop_assert_eq!(&scan.header, &HeaderStatus::Ok);
        prop_assert_eq!(&scan.records, &records);
        prop_assert!(scan.corrupt.is_empty() && scan.torn_at.is_none());

        // And through the full recovery path (which may repair).
        let (_, recovered, report) =
            Persister::open(&scratch.0, u64::MAX, u64::MAX).expect("reopen");
        prop_assert_eq!(&recovered, &records);
        prop_assert_eq!(report.corrupt_records, 0);
        prop_assert!(!report.torn_tail);
    }

    /// Cut the log at *any* byte: recovery yields exactly the
    /// records whose frames fit before the cut, repairs the file, and a
    /// second recovery finds nothing left to complain about.
    #[test]
    fn any_truncation_point_recovers_the_longest_complete_prefix(
        records in prop::collection::vec(arb_record(), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let scratch = Scratch::new("torn");
        let records = stamped(records);
        let bytes = log_bytes(&scratch.0, &records);

        // Cut somewhere after the header (a shorter file is a refused
        // header — covered by the refusal tests, not a torn tail).
        let span = bytes.len() - HEADER_LEN;
        let cut = HEADER_LEN + ((span as f64) * cut_frac) as usize;
        let path = scratch.0.join(LOG_FILE);
        fs::write(&path, &bytes[..cut]).expect("truncate log");

        // How many whole frames survive the cut?
        let expected: Vec<PersistRecord> = {
            let scan = scan_bytes(&bytes[..cut]);
            scan.records
        };
        prop_assert!(expected.len() <= records.len());
        prop_assert_eq!(&records[..expected.len()], &expected[..]);

        let (_, recovered, report) = Persister::open(&scratch.0, u64::MAX, u64::MAX).expect("recover");
        prop_assert_eq!(&recovered, &expected);
        prop_assert_eq!(report.corrupt_records, 0);
        // A cut exactly on a frame boundary is not torn, just shorter.
        let on_boundary = expected.len() == records.len()
            || scan_bytes(&bytes[..cut]).torn_at.is_none();
        prop_assert_eq!(report.torn_tail, !on_boundary);

        // Recovery repaired the file: a second start is pristine.
        let (_, again, report2) = Persister::open(&scratch.0, u64::MAX, u64::MAX).expect("reopen");
        prop_assert_eq!(&again, &expected);
        prop_assert!(!report2.torn_tail);
        prop_assert_eq!(report2.corrupt_records, 0);
    }

    /// Flip one bit anywhere after the header: recovery never panics,
    /// never fabricates a record (everything loaded was written), always
    /// keeps every record that lies wholly before the flip, and
    /// quarantines damaged frames rather than silently dropping bytes.
    #[test]
    fn a_bit_flip_never_surfaces_a_corrupted_record(
        records in prop::collection::vec(arb_record(), 1..8),
        flip_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let scratch = Scratch::new("flip");
        let records = stamped(records);
        let bytes = log_bytes(&scratch.0, &records);

        let span = bytes.len() - HEADER_LEN;
        let flip_at = HEADER_LEN + ((span as f64) * flip_frac) as usize;
        let flip_at = flip_at.min(bytes.len() - 1);
        let mut damaged = bytes.clone();
        damaged[flip_at] ^= 1 << bit;
        let path = scratch.0.join(LOG_FILE);
        fs::write(&path, &damaged).expect("write damaged log");

        let (_, recovered, report) = Persister::open(&scratch.0, u64::MAX, u64::MAX).expect("recover");

        // No fabrication: every recovered record is one we wrote.
        for rec in &recovered {
            prop_assert!(records.contains(rec), "recovered a record never written: {rec:?}");
        }
        // No collateral before the flip: frames wholly before `flip_at`
        // decode from undamaged bytes and must all survive.
        let intact_prefix = scan_bytes(&bytes[..flip_at]).records.len();
        prop_assert!(
            recovered.len() >= intact_prefix,
            "flip at {flip_at} lost records before it: {} < {intact_prefix}",
            recovered.len()
        );
        // Anything lost is accounted for: quarantined or torn, never silent.
        if recovered.len() < records.len() {
            prop_assert!(
                report.corrupt_records > 0 || report.torn_tail,
                "{} records vanished without a diagnostic: {report:?}",
                records.len() - recovered.len()
            );
        }
        if report.corrupt_records > 0 {
            prop_assert!(scratch.0.join(format!("{LOG_FILE}.corrupt")).exists());
        }

        // The repair converged: a second recovery is clean and identical.
        let (_, again, report2) = Persister::open(&scratch.0, u64::MAX, u64::MAX).expect("reopen");
        prop_assert_eq!(&again, &recovered);
        prop_assert_eq!(report2.corrupt_records, 0);
        prop_assert!(!report2.torn_tail);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The central behavioral property: log recovery is *LRU-equivalent*
    /// to never restarting. One daemon persists, dies
    /// after an arbitrary split point and recovers; its twin never
    /// restarts. Both then serve the same continued stream: every
    /// response byte-identical, every hit/miss/compile/eviction count
    /// identical — an evicted key misses in both worlds or neither.
    #[test]
    fn restart_is_lru_equivalent_to_never_restarting(
        ids in prop::collection::vec(0usize..6, 8..24),
        split_frac in 0.0f64..1.0,
        cache_entries in 2usize..5,
    ) {
        let scratch = Scratch::new("lru");
        let cfg = ServerConfig {
            jobs: 1,
            cache_entries,
            ..ServerConfig::default()
        };
        let split = ((ids.len() as f64) * split_frac) as usize;

        // The twin that never restarts.
        let oracle_shared = SharedState::new(&cfg);
        let mut oracle = Server::with_shared(cfg, oracle_shared.clone());

        // Life 1 of the persisted daemon.
        // The small cache bound also makes the log compact mid-stream.
        let (shared, load) = SharedState::with_persistence(&cfg, &scratch.0).expect("cold open");
        prop_assert_eq!(load.loaded, 0);
        let mut persisted = Server::with_shared(cfg, shared.clone());
        for (n, &i) in ids[..split].iter().enumerate() {
            let src = distinct_loop(i);
            let want = serve_one(&mut oracle, n as u64, &src);
            let got = serve_one(&mut persisted, n as u64, &src);
            prop_assert_eq!(got, want, "pre-restart divergence at request {}", n);
        }
        if let Some(outcome) = shared.snapshot_now() {
            outcome.expect("compaction");
        }
        drop(persisted);
        drop(shared);

        // Life 2: recover, then both worlds serve the rest.
        let (shared, load) = SharedState::with_persistence(&cfg, &scratch.0).expect("warm open");
        prop_assert_eq!(load.loaded, oracle_shared.cache_len(), "restored size differs");
        let mut persisted = Server::with_shared(cfg, shared.clone());
        let before = oracle_shared.stats().snapshot();
        for (n, &i) in ids[split..].iter().enumerate() {
            let id = (split + n) as u64;
            let src = distinct_loop(i);
            let want = serve_one(&mut oracle, id, &src);
            let got = serve_one(&mut persisted, id, &src);
            prop_assert_eq!(got, want, "post-restart divergence at request {}", id);
        }
        let after = oracle_shared.stats().snapshot();
        let restarted = shared.stats().snapshot();
        prop_assert_eq!(restarted.hits, after.hits - before.hits, "hit counts diverged");
        prop_assert_eq!(restarted.misses, after.misses - before.misses);
        prop_assert_eq!(restarted.compiles, after.compiles - before.compiles);
        prop_assert_eq!(restarted.evictions, after.evictions - before.evictions);
        prop_assert_eq!(shared.cache_len(), oracle_shared.cache_len());
    }
}

#[test]
fn alien_headers_are_refused_set_aside_and_then_verify_clean() {
    // Three ways a header can be alien: future version, wrong magic,
    // different record schema. Each must start cold (no records, no
    // panic), set the file aside, and leave a clean directory behind.
    type Mutation = fn(&mut Vec<u8>);
    let mutations: [(&str, Mutation); 3] = [
        ("future version", |b| b[8] = 0xFF),
        ("wrong magic", |b| b[0] ^= 0x20),
        ("schema drift", |b| b[12] ^= 0x01),
    ];
    for (what, mutate) in mutations {
        let scratch = Scratch::new("refuse");
        let records = stamped(vec![PersistRecord {
            fp: 1,
            mode: 2,
            seeds: 1,
            stamp: 0,
            spec: Box::from(SPEC),
            payload: Box::from("x"),
        }]);
        let mut bytes = log_bytes(&scratch.0, &records);
        mutate(&mut bytes);
        fs::write(scratch.0.join(LOG_FILE), &bytes).expect("write alien log");

        let (_, recovered, report) = Persister::open(&scratch.0, u64::MAX, u64::MAX).expect(what);
        assert!(
            recovered.is_empty(),
            "{what}: loaded records from a refused file"
        );
        assert!(report.refused.is_some(), "{what}: {report:?}");
        assert!(
            scratch.0.join(format!("{LOG_FILE}.refused")).exists(),
            "{what}: refused file not set aside"
        );

        let verify = verify_dir(&scratch.0).expect("verify");
        assert!(
            verify.clean(),
            "{what}: directory not clean after refusal: {verify:?}"
        );
    }
}

/// Verified records in the log right now.
fn log_records(dir: &Path) -> usize {
    let verify = verify_dir(dir).expect("verify");
    assert!(verify.clean(), "{verify:?}");
    verify.records
}

#[test]
fn compaction_rewrites_the_log_to_the_live_entries_and_survives_restart() {
    let scratch = Scratch::new("compact");
    let cfg = ServerConfig {
        jobs: 1,
        cache_entries: 3,
        ..ServerConfig::default()
    };
    let (shared, _) = SharedState::with_persistence(&cfg, &scratch.0).expect("cold open");
    let mut server = Server::with_shared(cfg, shared.clone());
    for i in 0..5 {
        serve_one(&mut server, i, &distinct_loop(i as usize));
    }
    // The third append compacted the log to the 3 live entries; two
    // more appends followed.
    assert_eq!(log_records(&scratch.0), 5);
    let n = shared
        .snapshot_now()
        .expect("persistence armed")
        .expect("compaction");
    assert_eq!(n, 3, "compaction writes exactly the live entries");
    assert_eq!(log_records(&scratch.0), 3);
    let names: Vec<_> = fs::read_dir(&scratch.0)
        .expect("list cache dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(names, [LOG_FILE], "a clean directory holds only the log");
    drop(server);
    drop(shared);

    let (shared, load) = SharedState::with_persistence(&cfg, &scratch.0).expect("warm open");
    assert_eq!(load.loaded, 3);
    assert_eq!(load.records, 3);
    assert_eq!(shared.cache_len(), 3);
}

/// Verified records and their payload bytes in the log right now.
fn log_contents(dir: &Path) -> (usize, usize) {
    let data = fs::read(dir.join(LOG_FILE)).expect("read log");
    let scan = scan_bytes(&data);
    assert!(scan.issues.is_empty(), "{:?}", scan.issues);
    let bytes = scan.records.iter().map(|r| r.payload.len()).sum();
    (scan.records.len(), bytes)
}

/// Serves `inserts` distinct loops with persistence armed and returns the log's peak (records, payload bytes), asserting after every
/// insert that the log holds at most twice the cache's entry bound and
/// strictly less than twice its byte bound.
fn log_peak_under(cfg: ServerConfig, inserts: usize) -> (usize, usize) {
    let scratch = Scratch::new("bound");
    let (shared, _) = SharedState::with_persistence(&cfg, &scratch.0).expect("cold open");
    let mut server = Server::with_shared(cfg, shared);
    let mut peak = (0, 0);
    for i in 0..inserts {
        serve_one(&mut server, i as u64, &distinct_loop(i));
        let (records, bytes) = log_contents(&scratch.0);
        assert!(
            records <= 2 * cfg.cache_entries,
            "log holds {records} records after insert {i}, bound {}",
            2 * cfg.cache_entries
        );
        assert!(
            bytes < 2 * cfg.cache_bytes,
            "log holds {bytes} payload bytes after insert {i}, bound {}",
            2 * cfg.cache_bytes
        );
        peak = (peak.0.max(records), peak.1.max(bytes));
    }
    assert_eq!(server.stats().misses, inserts as u64);
    peak
}

#[test]
fn the_log_never_holds_more_than_twice_the_cache_bound() {
    // The entry bound binds.
    let cache_entries = 4;
    let cfg = ServerConfig {
        jobs: 1,
        cache_entries,
        ..ServerConfig::default()
    };
    let (records, _) = log_peak_under(cfg, 10 * cache_entries);
    assert!(
        records > cache_entries,
        "the log never grew past one cache's worth"
    );

    // The byte bound binds: room for a few payloads, entries unbounded
    // in practice.
    let mut probe = Server::new(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let payload = serve_one(&mut probe, 0, &distinct_loop(0)).len();
    let cfg = ServerConfig {
        jobs: 1,
        cache_entries: 1 << 20,
        cache_bytes: 3 * payload,
        ..ServerConfig::default()
    };
    let (_, bytes) = log_peak_under(cfg, 40);
    assert!(
        bytes > cfg.cache_bytes,
        "the log never grew past one cache's worth"
    );
}

#[test]
fn persistence_with_a_disabled_cache_is_refused() {
    let scratch = Scratch::new("disabled");
    let cfg = ServerConfig {
        jobs: 1,
        cache_entries: 0,
        ..ServerConfig::default()
    };
    let err = SharedState::with_persistence(&cfg, &scratch.0).expect_err("must refuse");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}
