//! In-memory span recording for the traced run, and the arithmetic that
//! turns spans into per-layer self times.
//!
//! A span is one timed call into a layer: its name (`<layer>.<what>`),
//! start and end in nanoseconds since the recorder was created, and the
//! span that was open when it started. Spans stay in memory while the run
//! executes and are written out once at the end, so the hot loop pays for
//! two clock reads and a `Vec` push per span, never for I/O.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans; nesting follows the order of [`Recorder::enter`] and
/// [`Recorder::exit`] calls.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let start = self.now_ns();
        let id = self.push(name, start, start);
        self.open.push(id);
        id
    }

    /// Closes the span `id`, which must be the innermost open one.
    ///
    /// # Panics
    ///
    /// Panics when spans are closed out of order.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records an already-closed span, timed by the caller, as a child of
    /// the innermost open span. Hot loops use this to share one clock read
    /// between the end of one span and the start of the next.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are merged first, and a
/// child sticking out of its parent only counts inside the parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`; a root's
/// parent is empty).
///
/// # Errors
///
/// Fails when the file cannot be created or written.
pub fn write_csv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns")?;
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(out, "{id},{parent},{},{},{}", s.name, s.start_ns, s.end_ns)?;
    }
    out.flush()
}
