//! Crash-safe persistence for the result cache: one append-only,
//! versioned, checksummed log, `cache.bin`, compacted by atomic rewrite.
//!
//! * Every cache insert **appends** one framed record, without fsync — a
//!   torn final record after a crash is expected and recoverable, so the
//!   hot path never pays a sync.
//! * [`Persister::compact`] is the only rewriter: it writes the live
//!   entries to `cache.bin.tmp`, fsyncs, renames over `cache.bin`, syncs
//!   the directory and reopens the append handle. Before the rename the
//!   old log is intact; after it the new log holds every live entry, so
//!   a crash at any point leaves a loadable log. It runs once the appends
//!   since the last compaction reach the cache's entry bound or their
//!   frames its byte bound (so the log never holds more than about twice
//!   what the cache can, in entries and in bytes), at graceful exit, and
//!   at open when the log was damaged.
//!
//! Every record frame is length-prefixed and FNV-1a-checksummed, and the
//! file starts with a header carrying a magic, a format version and a
//! hash of the cache-key schema. Loading tolerates every corruption mode
//! without panicking and without ever surfacing a record whose checksum
//! does not verify:
//!
//! | damage                                | recovery                      |
//! |---------------------------------------|-------------------------------|
//! | frame extends past EOF (torn tail)    | drop it, compact the survivors|
//! | checksum/shape mismatch mid-file      | quarantine to `*.corrupt`,    |
//! |                                       | skip, compact the survivors   |
//! | implausible record length             | quarantine rest of file, stop |
//! | bad magic / version / schema hash     | set file aside (`*.refused`), |
//! |                                       | start cold, structured warning|
//! | stale `*.tmp` from a killed compaction| delete                        |
//!
//! [`verify_dir`] runs the same scanner read-only (no truncation, no
//! quarantine) and reports every issue with its exact byte offset —
//! that is `cvliw cache verify`.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use cvliw_replicate::fnv1a_64;

/// Current on-disk format version (bumped on any frame/header change).
pub const FORMAT_VERSION: u16 = 2;

/// The log's file name inside the cache directory.
pub const LOG_FILE: &str = "cache.bin";

/// Upper bound on one record body. A length field beyond this is
/// corruption, not a record — skipping by it would be resyncing on
/// garbage, so the scanner quarantines the rest of the file instead.
pub const MAX_RECORD_BYTES: usize = 16 << 20;

const MAGIC: [u8; 8] = *b"CVLWCACH";

/// File-header size: magic (8) + version (2) + reserved (2) + schema
/// hash (8). Public so tests can aim corruption past the header.
pub const HEADER_LEN: usize = 8 + 2 + 2 + 8;
const FRAME_HEADER_LEN: usize = 4 + 8;

/// The cache-key/record schema this build writes and reads. Hashed into
/// every file header; a build whose schema differs refuses the file
/// rather than misinterpreting its bytes.
const SCHEMA: &str = "fp:u64le,mode:u8,seeds:u32le,stamp:u64le,spec:len32+utf8,payload:len32+utf8";

/// The schema hash stamped into (and required of) every file header.
#[must_use]
pub fn schema_hash() -> u64 {
    fnv1a_64(SCHEMA.as_bytes())
}

/// One persisted cache entry, exactly as framed on disk. The machine
/// spec travels as its escaped *text*: interned ids are session-local
/// and would alias different specs across restarts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PersistRecord {
    /// Structural loop fingerprint ([`crate::cache::CacheKey::fp`]).
    pub fp: u64,
    /// Mode discriminant.
    pub mode: u8,
    /// Refinement-seed count.
    pub seeds: u32,
    /// LRU stamp (global request seq) — persisted so the restored
    /// cache evicts exactly as the never-restarted one would.
    pub stamp: u64,
    /// Escaped machine-spec text (re-interned on load).
    pub spec: Box<str>,
    /// Rendered response body.
    pub payload: Box<str>,
}

impl PersistRecord {
    /// A borrowing view for encoding without copying the payload.
    #[must_use]
    pub fn as_ref(&self) -> RecordRef<'_> {
        RecordRef {
            fp: self.fp,
            mode: self.mode,
            seeds: self.seeds,
            stamp: self.stamp,
            spec: &self.spec,
            payload: &self.payload,
        }
    }
}

/// A borrowed record, used to append an insert or compact the live
/// cache without first copying payloads into owned [`PersistRecord`]s.
#[derive(Clone, Copy, Debug)]
pub struct RecordRef<'a> {
    /// Structural loop fingerprint.
    pub fp: u64,
    /// Mode discriminant.
    pub mode: u8,
    /// Refinement-seed count.
    pub seeds: u32,
    /// LRU stamp.
    pub stamp: u64,
    /// Escaped machine-spec text.
    pub spec: &'a str,
    /// Rendered response body.
    pub payload: &'a str,
}

fn header_bytes() -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // Bytes 10..12 are reserved (zero).
    out[12..].copy_from_slice(&schema_hash().to_le_bytes());
    out
}

/// Appends one framed record (`len u32 | fnv1a_64 u64 | body`) to `out`.
pub fn encode_frame(rec: &RecordRef<'_>, out: &mut Vec<u8>) {
    let body_len = 8 + 1 + 4 + 8 + 4 + rec.spec.len() + 4 + rec.payload.len();
    out.reserve(FRAME_HEADER_LEN + body_len);
    let frame_start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    let body_start = out.len();
    out.extend_from_slice(&rec.fp.to_le_bytes());
    out.push(rec.mode);
    out.extend_from_slice(&rec.seeds.to_le_bytes());
    out.extend_from_slice(&rec.stamp.to_le_bytes());
    out.extend_from_slice(&(rec.spec.len() as u32).to_le_bytes());
    out.extend_from_slice(rec.spec.as_bytes());
    out.extend_from_slice(&(rec.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(rec.payload.as_bytes());
    let check = fnv1a_64(&out[body_start..]);
    out[frame_start..frame_start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[frame_start + 4..frame_start + 12].copy_from_slice(&check.to_le_bytes());
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Option<&'a [u8]> {
    let slice = bytes.get(*pos..*pos + n)?;
    *pos += n;
    Some(slice)
}

fn take_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    take(bytes, pos, 4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn take_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    take(bytes, pos, 8).and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
}

/// Decodes a checksum-verified body. A failure here despite a good
/// checksum means a writer bug or schema drift — treated as corruption.
fn decode_body(body: &[u8]) -> Result<PersistRecord, &'static str> {
    let mut p = 0usize;
    let fp = take_u64(body, &mut p).ok_or("body too short for fp")?;
    let mode = *take(body, &mut p, 1)
        .and_then(<[u8]>::first)
        .ok_or("body too short for mode")?;
    let seeds = take_u32(body, &mut p).ok_or("body too short for seeds")?;
    let stamp = take_u64(body, &mut p).ok_or("body too short for stamp")?;
    let spec_len = take_u32(body, &mut p).ok_or("body too short for spec length")? as usize;
    let spec = take(body, &mut p, spec_len).ok_or("spec length exceeds body")?;
    let spec = std::str::from_utf8(spec).map_err(|_| "spec is not UTF-8")?;
    let payload_len = take_u32(body, &mut p).ok_or("body too short for payload length")? as usize;
    let payload = take(body, &mut p, payload_len).ok_or("payload length exceeds body")?;
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8")?;
    if p != body.len() {
        return Err("trailing bytes after payload");
    }
    Ok(PersistRecord {
        fp,
        mode,
        seeds,
        stamp,
        spec: Box::from(spec),
        payload: Box::from(payload),
    })
}

/// What a file header turned out to be.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum HeaderStatus {
    /// Header verified; records follow.
    Ok,
    /// The file does not exist or is empty — a cold start, not damage.
    #[default]
    Missing,
    /// Magic, version or schema hash mismatched: the whole file is
    /// refused (the reason is human-readable).
    Refused(String),
}

/// One precisely located problem found while scanning a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanIssue {
    /// Zero-based index of the damaged record.
    pub record: usize,
    /// Byte offset of the damaged frame's start within the file.
    pub offset: u64,
    /// What was wrong.
    pub detail: String,
}

/// A frame the scanner rejected, with enough context to quarantine it.
#[derive(Clone, Debug)]
pub struct CorruptFrame {
    /// Byte offset of the frame start.
    pub offset: u64,
    /// The raw frame bytes (as far as the length field claimed).
    pub bytes: Vec<u8>,
    /// Why it was rejected.
    pub detail: String,
}

/// Everything a read-only scan of the log found.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Header verdict.
    pub header: HeaderStatus,
    /// Records whose checksum and shape verified, in file order.
    pub records: Vec<PersistRecord>,
    /// Frames rejected mid-file (checksum or shape).
    pub corrupt: Vec<CorruptFrame>,
    /// Offset where a torn final record starts, if the file ends
    /// mid-frame.
    pub torn_at: Option<u64>,
    /// Human-readable issues (corrupt frames and the torn tail),
    /// offsets included.
    pub issues: Vec<ScanIssue>,
}

fn check_header(data: &[u8]) -> HeaderStatus {
    if data.is_empty() {
        return HeaderStatus::Missing;
    }
    if data.len() < HEADER_LEN {
        return HeaderStatus::Refused(format!(
            "truncated header ({} of {HEADER_LEN} bytes)",
            data.len()
        ));
    }
    if data[..8] != MAGIC {
        return HeaderStatus::Refused("bad magic (not a cvliw cache file)".to_string());
    }
    let version = u16::from_le_bytes([data[8], data[9]]);
    if version != FORMAT_VERSION {
        return HeaderStatus::Refused(format!(
            "format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let mut hash = [0u8; 8];
    hash.copy_from_slice(&data[12..20]);
    let hash = u64::from_le_bytes(hash);
    if hash != schema_hash() {
        return HeaderStatus::Refused(format!(
            "cache-key schema hash {hash:#018x} (this build writes {:#018x})",
            schema_hash()
        ));
    }
    HeaderStatus::Ok
}

/// Scans the log's bytes: header, then frame after frame, classifying
/// every kind of damage without side effects. Never panics.
#[must_use]
pub fn scan_bytes(data: &[u8]) -> FileScan {
    let mut scan = FileScan {
        header: check_header(data),
        ..FileScan::default()
    };
    if scan.header != HeaderStatus::Ok {
        return scan;
    }
    let mut pos = HEADER_LEN;
    let mut record = 0usize;
    while pos < data.len() {
        let frame_start = pos as u64;
        let remaining = data.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            scan.torn_at = Some(frame_start);
            scan.issues.push(ScanIssue {
                record,
                offset: frame_start,
                detail: format!("torn tail: {remaining} bytes, not even a frame header"),
            });
            break;
        }
        let mut p = pos;
        // The two header reads cannot fail (remaining >= FRAME_HEADER_LEN),
        // but recovery code stays structurally panic-free anyway.
        let Some(body_len) = take_u32(data, &mut p) else {
            break;
        };
        let Some(check) = take_u64(data, &mut p) else {
            break;
        };
        let body_len = body_len as usize;
        if body_len > MAX_RECORD_BYTES {
            // The length field itself is garbage: there is no trustworthy
            // way to find the next frame boundary. Everything from here
            // is quarantined as one corrupt region.
            let detail = format!(
                "implausible record length {body_len} (cap {MAX_RECORD_BYTES}); \
                 rest of file unrecoverable"
            );
            scan.corrupt.push(CorruptFrame {
                offset: frame_start,
                bytes: data[pos..].to_vec(),
                detail: detail.clone(),
            });
            scan.issues.push(ScanIssue {
                record,
                offset: frame_start,
                detail,
            });
            break;
        }
        if p + body_len > data.len() {
            scan.torn_at = Some(frame_start);
            scan.issues.push(ScanIssue {
                record,
                offset: frame_start,
                detail: format!(
                    "torn tail: frame claims {body_len} body bytes, file has {}",
                    data.len() - p
                ),
            });
            break;
        }
        let body = &data[p..p + body_len];
        let frame_end = p + body_len;
        if fnv1a_64(body) != check {
            let detail = "checksum mismatch (bit flip or partial overwrite)".to_string();
            scan.corrupt.push(CorruptFrame {
                offset: frame_start,
                bytes: data[pos..frame_end].to_vec(),
                detail: detail.clone(),
            });
            scan.issues.push(ScanIssue {
                record,
                offset: frame_start,
                detail,
            });
        } else {
            match decode_body(body) {
                Ok(rec) => scan.records.push(rec),
                Err(why) => {
                    let detail = format!("malformed body despite good checksum: {why}");
                    scan.corrupt.push(CorruptFrame {
                        offset: frame_start,
                        bytes: data[pos..frame_end].to_vec(),
                        detail: detail.clone(),
                    });
                    scan.issues.push(ScanIssue {
                        record,
                        offset: frame_start,
                        detail,
                    });
                }
            }
        }
        pos = frame_end;
        record += 1;
    }
    scan
}

/// Reads and scans the log at `path`. A missing file is a clean
/// [`HeaderStatus::Missing`] scan, not an error.
///
/// # Errors
///
/// Propagates I/O errors other than "not found".
pub fn scan_file(path: &Path) -> io::Result<FileScan> {
    match fs::read(path) {
        Ok(data) => Ok(scan_bytes(&data)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(FileScan::default()),
        Err(e) => Err(e),
    }
}

/// What startup recovery loaded and what it had to work around.
/// Rendered into the daemon's startup log line.
#[derive(Clone, Debug, Default)]
pub struct LoadReport {
    /// Entries restored into the cache.
    pub loaded: usize,
    /// Good records read from the log (a key evicted and compiled again
    /// appears once per insert).
    pub records: usize,
    /// Frames quarantined to `*.corrupt`.
    pub corrupt_records: usize,
    /// Whether a torn final record was dropped.
    pub torn_tail: bool,
    /// Why the whole log was refused (wrong version / schema / magic).
    pub refused: Option<String>,
    /// Everything else worth a warning line (a stale tmp file removed,
    /// unloadable records skipped, …).
    pub warnings: Vec<String>,
}

impl LoadReport {
    /// One-line human summary for the daemon's startup log.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} entries restored from {} log records, {} quarantined, torn tail: {}, \
             refused: {}",
            self.loaded,
            self.records,
            self.corrupt_records,
            if self.torn_tail { "yes" } else { "no" },
            if self.refused.is_some() { "yes" } else { "no" },
        )
    }
}

/// Removes a not-yet-renamed tmp file on drop unless disarmed — the
/// log's sibling of the daemon's socket guard, so cooperative shutdown
/// mid-compaction never leaves `*.tmp` litter.
#[derive(Debug)]
pub struct TmpGuard {
    path: PathBuf,
    armed: bool,
}

impl TmpGuard {
    /// Guards `path` until [`TmpGuard::disarm`].
    #[must_use]
    pub fn new(path: PathBuf) -> Self {
        TmpGuard { path, armed: true }
    }

    /// The file reached its final name (or must be left for forensics):
    /// stop guarding it.
    pub fn disarm(&mut self) {
        self.armed = false;
    }
}

impl Drop for TmpGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// Injected disk failures (test builds only): the writer dies — as a
/// killed process would, mid-write, no cleanup — once it has written
/// this many bytes.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskFaults {
    /// Appended bytes (frames only, header excluded) before death.
    pub append_kill_after: Option<u64>,
    /// Compaction bytes (header included) before death. The tmp file is
    /// deliberately left behind, exactly as `kill -9` would leave it.
    pub compact_kill_after: Option<u64>,
}

/// Writes `buf` whole, or just the prefix an armed death budget allows.
/// `Ok(false)` means the injected death struck mid-buffer.
#[cfg(feature = "fault-inject")]
fn write_or_die(f: &mut File, buf: &[u8], kill_after: &mut Option<u64>) -> io::Result<bool> {
    let Some(budget) = kill_after else {
        return f.write_all(buf).map(|()| true);
    };
    let n = (*budget).min(buf.len() as u64) as usize;
    f.write_all(&buf[..n])?;
    *budget -= n as u64;
    Ok(n == buf.len())
}

/// Owns the log. One per daemon, behind the shared state's lock; dies
/// quietly (stops persisting, keeps the reason) on I/O errors instead of
/// taking the daemon with it.
#[derive(Debug)]
pub struct Persister {
    dir: PathBuf,
    log: Option<File>,
    compact_every: u64,
    compact_bytes: u64,
    appends: u64,
    appended_bytes: u64,
    dead: Option<String>,
    frame_buf: Vec<u8>,
    #[cfg(feature = "fault-inject")]
    faults: DiskFaults,
}

/// `cache.bin.<suffix>` inside `dir` (tmp, corrupt, refused).
fn sibling(dir: &Path, suffix: &str) -> PathBuf {
    dir.join(format!("{LOG_FILE}.{suffix}"))
}

fn quarantine(dir: &Path, frames: &[CorruptFrame]) -> io::Result<PathBuf> {
    let path = sibling(dir, "corrupt");
    let mut f = File::create(&path)?;
    for frame in frames {
        f.write_all(&frame.bytes)?;
    }
    Ok(path)
}

impl Persister {
    /// Opens (creating if needed) a cache directory: recovers the log,
    /// applies every repair the corruption table describes, and returns
    /// the persister ready to append, the recovered records (file order;
    /// not yet stamp-sorted) and the load report. The persister compacts
    /// once `compact_every` appends, or `compact_bytes` bytes of appended
    /// frames, have accumulated since the last compaction; what the log
    /// already holds counts towards both. Recovery itself never fails —
    /// only directory creation, the repair rewrite and opening the log
    /// can.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation, repair and log-open failures.
    pub fn open(
        dir: &Path,
        compact_every: u64,
        compact_bytes: u64,
    ) -> io::Result<(Persister, Vec<PersistRecord>, LoadReport)> {
        fs::create_dir_all(dir)?;
        let mut report = LoadReport::default();

        // A `*.tmp` is a compaction that never reached its rename:
        // worthless by construction, deleted on sight.
        let tmp = sibling(dir, "tmp");
        if tmp.exists() {
            let _ = fs::remove_file(&tmp);
            report.warnings.push(format!(
                "removed stale {LOG_FILE}.tmp from an interrupted compaction"
            ));
        }

        let path = dir.join(LOG_FILE);
        let scan = scan_file(&path)?;
        let mut persister = Persister {
            dir: dir.to_path_buf(),
            log: None,
            compact_every: compact_every.max(1),
            compact_bytes: compact_bytes.max(1),
            appends: 0,
            appended_bytes: 0,
            dead: None,
            frame_buf: Vec::new(),
            #[cfg(feature = "fault-inject")]
            faults: DiskFaults::default(),
        };
        match &scan.header {
            HeaderStatus::Ok => {
                report.records = scan.records.len();
                report.torn_tail = scan.torn_at.is_some();
                report.corrupt_records = scan.corrupt.len();
                if !scan.corrupt.is_empty() {
                    if let Ok(q) = quarantine(dir, &scan.corrupt) {
                        report.warnings.push(format!(
                            "{} corrupt frame(s) quarantined to {}",
                            scan.corrupt.len(),
                            q.display()
                        ));
                    }
                }
                if let Some(at) = scan.torn_at {
                    report
                        .warnings
                        .push(format!("torn final record at byte {at} dropped"));
                }
                if !scan.corrupt.is_empty() || scan.torn_at.is_some() {
                    // Rewrite the survivors so the damage never compounds
                    // across restarts.
                    persister.compact(scan.records.iter().map(PersistRecord::as_ref))?;
                }
            }
            HeaderStatus::Missing => {}
            HeaderStatus::Refused(why) => {
                // Set the file aside so the next start is clean and the
                // bytes stay available for inspection.
                let moved = fs::rename(&path, sibling(dir, "refused")).is_ok();
                report.refused = Some(format!(
                    "{LOG_FILE}: {why}{}",
                    if moved {
                        " (set aside as *.refused, starting cold)"
                    } else {
                        " (could not set aside; starting cold)"
                    }
                ));
            }
        }
        if persister.log.is_none() {
            persister.open_log()?;
        }
        // What the log holds at open — a repaired log included, which may
        // still carry duplicates and evicted keys — counts towards the
        // first compaction, so the log stays within the bound.
        persister.appends = scan.records.len() as u64;
        persister.appended_bytes = fs::metadata(&path)?.len().saturating_sub(HEADER_LEN as u64);
        Ok((persister, scan.records, report))
    }

    /// Opens the log for appending, stamping the header into a fresh (or
    /// just set-aside) file.
    fn open_log(&mut self) -> io::Result<()> {
        let mut log = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.dir.join(LOG_FILE))?;
        if log.metadata()?.len() == 0 {
            log.write_all(&header_bytes())?;
        }
        self.log = Some(log);
        Ok(())
    }

    /// Arms injected disk deaths (test builds only).
    #[cfg(feature = "fault-inject")]
    pub fn set_disk_faults(&mut self, faults: DiskFaults) {
        self.faults = faults;
    }

    /// Why persistence stopped, if it did. A dead persister keeps the
    /// daemon serving — it just stops writing.
    #[must_use]
    pub fn dead_reason(&self) -> Option<&str> {
        self.dead.as_deref()
    }

    /// Appends one insert to the log (no fsync — a torn tail is
    /// recoverable by design). Returns whether compaction is due; I/O
    /// failure kills the persister quietly instead of the daemon.
    pub fn append(&mut self, rec: &RecordRef<'_>) -> bool {
        if self.dead.is_some() {
            return false;
        }
        let mut frame = std::mem::take(&mut self.frame_buf);
        frame.clear();
        encode_frame(rec, &mut frame);
        let written = match self.log.as_mut() {
            None => Err(io::Error::other("log handle missing")),
            #[cfg(not(feature = "fault-inject"))]
            Some(log) => log.write_all(&frame).map(|()| true),
            #[cfg(feature = "fault-inject")]
            Some(log) => write_or_die(log, &frame, &mut self.faults.append_kill_after),
        };
        self.frame_buf = frame;
        match written {
            Ok(true) => {
                self.appends += 1;
                self.appended_bytes += self.frame_buf.len() as u64;
                self.appends >= self.compact_every || self.appended_bytes >= self.compact_bytes
            }
            Ok(false) => {
                // The injected death wrote a prefix: the log now has a
                // torn tail, exactly like a real kill.
                self.dead = Some("injected disk death during append".to_string());
                false
            }
            Err(e) => {
                self.dead = Some(format!("log append failed: {e}"));
                false
            }
        }
    }

    /// Rewrites the log as exactly `records`: tmp file (guarded), fsync,
    /// atomic rename, directory sync, reopened append handle — in that
    /// order, so a crash at any point leaves a loadable log. Returns the
    /// record count.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (the persister is dead
    /// afterwards; the daemon keeps serving from memory).
    pub fn compact<'a>(
        &mut self,
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> io::Result<usize> {
        if let Some(reason) = &self.dead {
            return Err(io::Error::other(reason.clone()));
        }
        let outcome = self.rewrite(records);
        match &outcome {
            Ok(_) => {
                self.appends = 0;
                self.appended_bytes = 0;
            }
            Err(e) => self.dead = Some(format!("compaction failed: {e}")),
        }
        outcome
    }

    /// The body of [`Persister::compact`], minus the dead-persister
    /// bookkeeping.
    fn rewrite<'a>(
        &mut self,
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> io::Result<usize> {
        let tmp = sibling(&self.dir, "tmp");
        let mut guard = TmpGuard::new(tmp.clone());
        let mut f = File::create(&tmp)?;
        #[cfg(feature = "fault-inject")]
        let mut kill_after = self.faults.compact_kill_after;
        let mut records = records.into_iter();
        let mut written = 0;
        // The header first, then one frame per record.
        let mut buf = header_bytes().to_vec();
        loop {
            #[cfg(not(feature = "fault-inject"))]
            let whole = f.write_all(&buf).map(|()| true)?;
            #[cfg(feature = "fault-inject")]
            let whole = write_or_die(&mut f, &buf, &mut kill_after)?;
            if !whole {
                // Injected death: leave the tmp behind and the log
                // untouched, exactly as a real kill would.
                guard.disarm();
                return Err(io::Error::other("injected disk death"));
            }
            let Some(rec) = records.next() else {
                break;
            };
            buf.clear();
            encode_frame(&rec, &mut buf);
            written += 1;
        }
        f.sync_all()?;
        // Close the old handle first: some platforms refuse to rename
        // over an open file.
        self.log = None;
        fs::rename(&tmp, self.dir.join(LOG_FILE))?;
        guard.disarm();
        // Best-effort directory sync makes the rename durable; a failure
        // here costs durability of this one compaction, not correctness.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.open_log()?;
        Ok(written)
    }
}

/// The result of `cvliw cache verify <dir>`: a pure read of the log.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Whether the log exists (an absent log is clean: cold start).
    pub present: bool,
    /// Whole-file refusal reason, if the header mismatched.
    pub refused: Option<String>,
    /// Records whose checksum and shape verified.
    pub records: usize,
    /// Damaged frames, each with its byte offset.
    pub issues: Vec<ScanIssue>,
}

impl VerifyReport {
    /// Whether the log, if present, verified end to end.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.refused.is_none() && self.issues.is_empty()
    }

    /// Total issues (a refusal counts as one).
    #[must_use]
    pub fn issue_count(&self) -> usize {
        self.issues.len() + usize::from(self.refused.is_some())
    }
}

/// Verifies a cache directory without modifying anything: no
/// truncation, no quarantine, no tmp cleanup — just a precise report.
///
/// # Errors
///
/// Fails if `dir` is not an existing directory — a mistyped path must
/// not pass the audit as a clean cold start — and propagates I/O errors
/// other than a missing log.
pub fn verify_dir(dir: &Path) -> io::Result<VerifyReport> {
    if !fs::metadata(dir)?.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotADirectory,
            "not a directory",
        ));
    }
    let path = dir.join(LOG_FILE);
    let scan = scan_file(&path)?;
    let refused = match scan.header {
        HeaderStatus::Refused(why) => Some(why),
        HeaderStatus::Ok | HeaderStatus::Missing => None,
    };
    Ok(VerifyReport {
        present: path.exists(),
        refused,
        records: scan.records.len(),
        issues: scan.issues,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stamp: u64, payload: &str) -> PersistRecord {
        PersistRecord {
            fp: 0x1234_5678_9abc_def0 ^ stamp,
            mode: 2,
            seeds: 1,
            stamp,
            spec: Box::from("4c1b2l64r"),
            payload: Box::from(payload),
        }
    }

    fn file_bytes(records: &[PersistRecord]) -> Vec<u8> {
        let mut out = header_bytes().to_vec();
        for r in records {
            encode_frame(&r.as_ref(), &mut out);
        }
        out
    }

    #[test]
    fn frame_round_trips() {
        let records = vec![
            rec(0, "\"ok\":{}"),
            rec(1, ""),
            rec(7, "payload with \u{1F980}"),
        ];
        let bytes = file_bytes(&records);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.header, HeaderStatus::Ok);
        assert_eq!(scan.records, records);
        assert!(scan.corrupt.is_empty() && scan.torn_at.is_none());
    }

    #[test]
    fn torn_tail_is_detected_at_the_right_offset() {
        let records = vec![rec(0, "aaaa"), rec(1, "bbbb")];
        let bytes = file_bytes(&records);
        let one = file_bytes(&records[..1]);
        for cut in (one.len() + 1)..bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            assert_eq!(scan.records.len(), 1, "cut at {cut}");
            assert_eq!(scan.torn_at, Some(one.len() as u64), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flip_is_quarantined_and_the_rest_still_loads() {
        let records = vec![rec(0, "aaaa"), rec(1, "bbbb"), rec(2, "cccc")];
        let mut bytes = file_bytes(&records);
        let one = file_bytes(&records[..1]).len();
        // Flip one bit inside the second record's body.
        bytes[one + FRAME_HEADER_LEN + 3] ^= 0x10;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].stamp, 0);
        assert_eq!(scan.records[1].stamp, 2);
        assert_eq!(scan.corrupt.len(), 1);
        assert_eq!(scan.corrupt[0].offset, one as u64);
    }

    #[test]
    fn wrong_version_and_schema_are_refused() {
        let records = vec![rec(0, "x")];
        let mut bytes = file_bytes(&records);
        bytes[8] = 99; // version
        assert!(matches!(
            scan_bytes(&bytes).header,
            HeaderStatus::Refused(ref why) if why.contains("version 99")
        ));
        let mut bytes = file_bytes(&records);
        bytes[15] ^= 0xff; // schema hash
        assert!(matches!(
            scan_bytes(&bytes).header,
            HeaderStatus::Refused(ref why) if why.contains("schema hash")
        ));
        let scan = scan_bytes(b"not a cache file at all");
        assert!(matches!(scan.header, HeaderStatus::Refused(_)));
    }

    #[test]
    fn implausible_length_quarantines_the_rest() {
        let mut bytes = file_bytes(&[rec(0, "aa"), rec(1, "bb")]);
        let one = file_bytes(&[rec(0, "aa")]).len();
        bytes[one..one + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.corrupt.len(), 1);
        assert!(scan.issues[0].detail.contains("implausible"));
    }
}
