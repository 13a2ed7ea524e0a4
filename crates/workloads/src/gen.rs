//! The workload event generator.

use crate::event::Event;
use crate::pattern::PagePicker;
use crate::spec::WorkloadSpec;
use agile_types::{PageSize, SplitMix64};
use std::collections::VecDeque;

/// A deterministic stream of [`Event`]s generated from a [`WorkloadSpec`].
///
/// The footprint is laid out as a series of 2 MiB-aligned chunk VMAs so
/// that churn events (remap, COW marking, reclamation) can operate on
/// slices, and so transparent huge pages are possible when enabled.
///
/// # Example
///
/// ```
/// use agile_workloads::{ChurnSpec, Pattern, Workload, WorkloadSpec};
///
/// let spec = WorkloadSpec {
///     name: "demo".into(),
///     footprint: 8 << 20,
///     pattern: Pattern::Uniform,
///     write_fraction: 0.25,
///     accesses: 100,
///     accesses_per_tick: 50,
///     churn: ChurnSpec::none(),
///     prefault: false,
///     prefault_writes: true,
///     seed: 1,
/// };
/// let events: Vec<_> = Workload::new(spec).collect();
/// assert_eq!(events.iter().filter(|e| e.is_access()).count(), 100);
/// ```
#[derive(Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    rng: SplitMix64,
    picker: PagePicker,
    emitted: u64,
    pending: VecDeque<Event>,
    chunk_cursor: usize,
    proc_cursor: usize,
}

impl Workload {
    /// Chunk granularity for VMAs (2 MiB, huge-page friendly).
    pub const CHUNK: u64 = 2 << 20;

    /// Builds the generator, queueing the initial region setup events.
    #[must_use]
    pub fn new(spec: WorkloadSpec) -> Self {
        let mut chunks = Vec::new();
        let mut off = 0;
        while off < spec.footprint {
            let len = Self::CHUNK.min(spec.footprint - off);
            chunks.push((WorkloadSpec::REGION_BASE + off, len));
            off += len;
        }
        let mut pending = VecDeque::new();
        for p in 0..spec.churn.processes.max(1) {
            pending.push_back(Event::ContextSwitch { to: p });
            for (start, len) in &chunks {
                pending.push_back(Event::Mmap {
                    start: *start,
                    len: *len,
                    writable: true,
                });
            }
            if spec.prefault {
                for page in 0..spec.footprint / PageSize::Size4K.bytes() {
                    pending.push_back(Event::Access {
                        va: WorkloadSpec::REGION_BASE + page * PageSize::Size4K.bytes(),
                        write: spec.prefault_writes,
                    });
                }
            }
        }
        pending.push_back(Event::ContextSwitch { to: 0 });
        let picker = PagePicker::new(spec.pattern.clone(), spec.pages());
        let rng = SplitMix64::new(spec.seed);
        Workload {
            spec,
            rng,
            picker,
            emitted: 0,
            pending,
            chunk_cursor: 0,
            proc_cursor: 0,
        }
    }

    /// The spec this generator was built from.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn due(&self, every: Option<u64>) -> bool {
        match every {
            Some(n) => self.emitted > 0 && self.emitted.is_multiple_of(n),
            None => false,
        }
    }

    /// Next rotating page window of `pages` pages within the churn zone
    /// (the tail of the footprint: dynamically-updated regions are usually
    /// not the hottest-for-access ones).
    fn next_window(&mut self, pages: u64) -> (u64, u64) {
        let total = self.spec.pages();
        let zone = self.spec.churn_zone_pages();
        let zone_base = total - zone;
        let pages = pages.clamp(1, zone);
        let start_page = zone_base + (self.chunk_cursor as u64 * pages) % zone;
        self.chunk_cursor += 1;
        let len_pages = pages.min(total - start_page);
        (
            WorkloadSpec::REGION_BASE + start_page * PageSize::Size4K.bytes(),
            len_pages * PageSize::Size4K.bytes(),
        )
    }

    fn queue_churn(&mut self) {
        // Order: tick first so policies see a stable interval boundary.
        if self.due(Some(self.spec.accesses_per_tick)) {
            self.pending.push_back(Event::Tick);
        }
        if self.due(self.spec.churn.remap_every) {
            let (start, len) = self.next_window(self.spec.churn.remap_pages);
            self.pending.push_back(Event::Munmap { start, len });
            self.pending.push_back(Event::Mmap {
                start,
                len,
                writable: true,
            });
        }
        if self.due(self.spec.churn.cow_every) {
            let (start, len) = self.next_window(self.spec.churn.cow_pages);
            self.pending.push_back(Event::MarkCow { start, len });
        }
        if self.due(self.spec.churn.clock_scan_every) {
            let (start, len) = self.next_window(self.spec.churn.scan_pages);
            self.pending.push_back(Event::ClockScan { start, len });
        }
        if self.due(self.spec.churn.ctx_switch_every) {
            self.proc_cursor = (self.proc_cursor + 1) % self.spec.churn.processes.max(1);
            self.pending.push_back(Event::ContextSwitch {
                to: self.proc_cursor,
            });
        }
    }
}

impl Iterator for Workload {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        if let Some(e) = self.pending.pop_front() {
            return Some(e);
        }
        if self.emitted >= self.spec.accesses {
            return None;
        }
        let page = self.picker.next_page(&mut self.rng);
        let offset = self.rng.next_u64() & 0xff8;
        let va = WorkloadSpec::REGION_BASE + page * PageSize::Size4K.bytes() + offset;
        let write = self.rng.next_bool(self.spec.write_fraction);
        self.emitted += 1;
        self.queue_churn();
        Some(Event::Access { va, write })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::spec::ChurnSpec;

    fn spec(churn: ChurnSpec) -> WorkloadSpec {
        WorkloadSpec {
            name: "t".into(),
            footprint: 8 << 20,
            pattern: Pattern::Uniform,
            write_fraction: 0.5,
            accesses: 400,
            accesses_per_tick: 100,
            churn,
            prefault: false,
            prefault_writes: true,
            seed: 3,
        }
    }

    #[test]
    fn emits_exact_access_count_and_setup() {
        let events: Vec<_> = Workload::new(spec(ChurnSpec::none())).collect();
        let accesses = events.iter().filter(|e| e.is_access()).count();
        assert_eq!(accesses, 400);
        let mmaps = events
            .iter()
            .filter(|e| matches!(e, Event::Mmap { .. }))
            .count();
        assert_eq!(mmaps, 4, "8 MiB footprint = 4 chunks");
        // Ticks at the cadence.
        let ticks = events.iter().filter(|e| matches!(e, Event::Tick)).count();
        assert_eq!(ticks, 4);
    }

    #[test]
    fn accesses_stay_in_footprint() {
        for e in Workload::new(spec(ChurnSpec::none())) {
            if let Event::Access { va, .. } = e {
                assert!(va >= WorkloadSpec::REGION_BASE);
                assert!(va < WorkloadSpec::REGION_BASE + (8 << 20));
            }
        }
    }

    #[test]
    fn determinism() {
        let a: Vec<_> = Workload::new(spec(ChurnSpec::none())).collect();
        let b: Vec<_> = Workload::new(spec(ChurnSpec::none())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn churn_events_appear_at_cadence() {
        let churn = ChurnSpec {
            remap_every: Some(100),
            remap_pages: 16,
            cow_every: Some(200),
            cow_pages: 16,
            clock_scan_every: Some(400),
            scan_pages: 64,
            churn_zone: 1.0,
            ctx_switch_every: Some(50),
            processes: 3,
        };
        let events: Vec<_> = Workload::new(spec(churn)).collect();
        let unmaps = events
            .iter()
            .filter(|e| matches!(e, Event::Munmap { .. }))
            .count();
        assert_eq!(unmaps, 4, "remap every 100 of 400 accesses");
        let cows = events
            .iter()
            .filter(|e| matches!(e, Event::MarkCow { .. }))
            .count();
        assert_eq!(cows, 2);
        let scans = events
            .iter()
            .filter(|e| matches!(e, Event::ClockScan { .. }))
            .count();
        assert_eq!(scans, 1);
        let switches = events
            .iter()
            .filter(|e| matches!(e, Event::ContextSwitch { .. }))
            .count();
        // 3 setup switches + 1 back-to-0 + 8 periodic.
        assert_eq!(switches, 3 + 1 + 8);
    }

    #[test]
    fn multi_process_setup_maps_each_space() {
        let churn = ChurnSpec {
            processes: 2,
            ..ChurnSpec::none()
        };
        let events: Vec<_> = Workload::new(spec(churn)).collect();
        let mmaps = events
            .iter()
            .filter(|e| matches!(e, Event::Mmap { .. }))
            .count();
        assert_eq!(mmaps, 8, "4 chunks x 2 processes");
    }
}
