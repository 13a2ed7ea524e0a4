//! Trace events and their snapshot encoding.

use agile_types::{CodecError, Dec, Enc, Level, Persist, ProcessId};

/// One traced event. The paper's step 1 trace records page-table updates
/// (from the instrumented KVM); its step 2 trace records TLB misses (from
/// BadgerTrap). Interval boundaries carry the policy clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A guest page-table update the VMM observed (step 1).
    GptWrite {
        /// Updating process.
        pid: ProcessId,
        /// Guest virtual address whose translation the write affects.
        gva: u64,
        /// Page-table level of the written entry.
        level: Level,
    },
    /// A TLB miss (step 2, BadgerTrap-style).
    TlbMiss {
        /// Missing process.
        pid: ProcessId,
        /// Guest virtual address that missed.
        gva: u64,
        /// Whether the access was a store.
        write: bool,
    },
    /// End of a policy interval (the paper's ~1 s tick).
    IntervalEnd,
}

impl Persist for TraceEvent {
    fn save(&self, e: &mut Enc) {
        match *self {
            TraceEvent::GptWrite { pid, gva, level } => {
                e.u8(0);
                pid.save(e);
                e.u64(gva);
                level.save(e);
            }
            TraceEvent::TlbMiss { pid, gva, write } => {
                e.u8(1);
                pid.save(e);
                e.u64(gva);
                e.bool(write);
            }
            TraceEvent::IntervalEnd => e.u8(2),
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            0 => TraceEvent::GptWrite {
                pid: ProcessId::load(d)?,
                gva: d.u64()?,
                level: Level::load(d)?,
            },
            1 => TraceEvent::TlbMiss {
                pid: ProcessId::load(d)?,
                gva: d.u64()?,
                write: d.bool()?,
            },
            2 => TraceEvent::IntervalEnd,
            _ => return d.fail("unknown TraceEvent variant tag"),
        })
    }
}

agile_types::record! {
    /// An in-memory trace.
    ///
    /// # Example
    ///
    /// ```
    /// use agile_trace::{TraceEvent, TraceLog};
    /// use agile_types::{Level, ProcessId};
    ///
    /// let mut log = TraceLog::new();
    /// log.push(TraceEvent::GptWrite {
    ///     pid: ProcessId::new(1),
    ///     gva: 0x4000,
    ///     level: Level::L1,
    /// });
    /// log.push(TraceEvent::IntervalEnd);
    /// assert_eq!(log.len(), 2);
    /// ```
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct TraceLog {
        events: Vec<TraceEvent>,
    }
}

impl TraceLog {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceLog { events: Vec::new() }
    }

    /// Appends one event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}
