//! Spans the traced run records around each call into the program.
//!
//! A span has a name, a start, an end and the index of the span that
//! caused it; spans of one unit (or request) share an id. They stay in
//! memory until the run ends and are then written out as one TSV file.
//! A span's self time is its duration minus its children's durations.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// `Span::parent` of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a range of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records spans while enabled; while disabled, `open` and `close` do
/// nothing, so untimed and traced code share one path.
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the handle children name as
    /// their parent); [`ROOT`] when disabled.
    pub fn open(&mut self, id: u32, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        if span == ROOT {
            return;
        }
        let end_ns = self.now_ns();
        self.spans[span as usize].end_ns = end_ns;
    }

    /// Position to pass to [`Tracer::totals_since`] later.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Count, total and self time per span name over the spans recorded
    /// since `mark`.
    pub fn totals_since(&self, mark: usize) -> BTreeMap<&'static str, Totals> {
        let spans = &self.spans[mark..];
        let dur = |s: &Span| s.end_ns - s.start_ns;
        let mut self_ns: Vec<u64> = spans.iter().map(dur).collect();
        for s in spans {
            if s.parent != ROOT && s.parent as usize >= mark {
                let p = s.parent as usize - mark;
                self_ns[p] = self_ns[p].saturating_sub(dur(s));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur(s);
            t.self_ns += own;
        }
        out
    }

    /// Writes every span as one TSV row: id, name, parent index (`-` for
    /// a root), start and end in nanoseconds since the tracer was made.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 48);
        text.push_str("id\tname\tparent\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let _ = write!(text, "{}\t{}\t", s.id, s.name);
            if s.parent == ROOT {
                text.push('-');
            } else {
                let _ = write!(text, "{}", s.parent);
            }
            let _ = writeln!(text, "\t{}\t{}", s.start_ns, s.end_ns);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let mark = t.mark();
        let unit = t.open(7, "unit", ROOT);
        let child = t.open(7, "context", unit);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(unit);
        let totals = t.totals_since(mark);
        let (u, c) = (totals["unit"], totals["context"]);
        assert_eq!((u.count, c.count), (1, 1));
        assert!(c.total_ns >= 2_000_000);
        assert_eq!(u.self_ns, u.total_ns - c.total_ns);
        assert_eq!(c.self_ns, c.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open(1, "unit", ROOT);
        t.close(s);
        assert_eq!((s, t.mark()), (ROOT, 0));
    }
}
