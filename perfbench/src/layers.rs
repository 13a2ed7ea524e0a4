//! The traced run: per-layer host time, measured from outside the
//! simulator by timing calls into its public functions.
//!
//! Four phases, each its own root span:
//!
//! 1. `pass` — one pass of the workload as the untraced run executes it,
//!    for the service and explorer counters.
//! 2. `replay.untraced` / `replay.traced` — a sample of the workload's
//!    machine runs, replayed event by event, first plainly and then with
//!    a span around every `Workload::next` and `Machine::run_event`. Each
//!    access event is classified by which public counters it advanced.
//!    The difference between the two is the tracing overhead.
//! 3. `layers` — the TLB, PWC and nested TLB on clones of each replayed
//!    machine's structures, fed the replay's own access stream and range
//!    invalidations; and the hardware walker on a fixed page-table fixture.
//! 4. `probes` — the replay again, with snapshot, restore, digest, lint and
//!    audit timed at every tick (after every event on `mc`, as the
//!    explorer does).
//!
//! Which end-to-end metric each layer should move, written down before
//! any change is measured against it:
//!
//! | per-layer metrics | end-to-end metric, workload |
//! |---|---|
//! | `machine.access_hit_ns`, `machine.access_walk_ns`, `tlb.*`/`pwc.*`/`ntlb.*` lookups and hit ratios, `walk.*` | `sim_accesses_per_s`, fig5 |
//! | `machine.access_fault_ns`, `guest.faults` | `latency_p50_ms`/`latency_p90_ms`, fig5 (every run starts with a prefault sweep) |
//! | `machine.access_trap_ns`, `machine.{unmap,cow,scan,ctxsw,tick}_ns`, `tlb.invalidate_page_ns`, `tlb.flush_asid_ns`, `pwc.invalidate_range_ns`, `vmm.traps`, `flush.*` | `sim_accesses_per_s`, churn (no change on fig5) |
//! | `workloads.next_ns` | `sim_accesses_per_s`, every workload |
//! | `snapshot.*` | mc throughput and latency (no change on fig5, churn) |
//! | `service.*` | fig5 throughput and latency |
//! | `explore.*`, `analyze.lint_ns`, `verify.audit_ns` | mc only |

use crate::measure::{fig5_pass, mc_pass, suite_problem};
use crate::spans::{self, Recorder};
use crate::stats::ratio;
use crate::workload::{churn_configs, churn_spec, fig5_requests, mc_suites, Kind};
use agile_core::types::{
    AccessKind, Asid, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize, Pte, PteFlags, VmId,
};
use agile_core::{Event, Machine, Profile, ServiceMetrics, SystemConfig};
use agile_core::{Workload, WorkloadSpec};
use agile_mem::{GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace};
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_walk::{AgileCr3, WalkHw, WalkStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Data accesses per technique in the churn replay.
const CHURN_REPLAY_ACCESSES: u64 = 40_000;

/// Accesses and range invalidations kept per replayed machine for the
/// structure replays.
const TAP_ACCESSES: usize = 200_000;
const TAP_RANGES: usize = 1_000;

/// Hardware-walker iterations per fixture case.
const WALK_ITERS: u32 = 20_000;

/// The event classes of `Machine::run_event`, as span names.
const CLASSES: [&str; 10] = [
    "machine.access_hit",
    "machine.access_walk",
    "machine.access_fault",
    "machine.access_trap",
    "machine.mmap",
    "machine.unmap",
    "machine.cow",
    "machine.scan",
    "machine.ctxsw",
    "machine.tick",
];

/// A machine run the traced phases replay: how to build the machine, and
/// the workload it runs.
struct Item {
    machine: Box<dyn Fn() -> Machine>,
    spec: WorkloadSpec,
}

impl Item {
    fn new(cfg: SystemConfig, spec: WorkloadSpec) -> Self {
        Item {
            machine: Box::new(move || Machine::new(cfg)),
            spec,
        }
    }

    fn machine(&self) -> Machine {
        (self.machine)()
    }
}

/// The replayed sample: fig5's diagonal (each profile once, each of the
/// eight configurations once); churn's five techniques; every mc suite
/// run straight.
fn items(kind: Kind, seed: u64) -> Vec<Item> {
    match kind {
        Kind::Fig5 => {
            let requests = fig5_requests(seed);
            (0..Profile::ALL.len())
                .map(|p| {
                    let r = &requests[p * 8 + p];
                    let mut spec = r.spec.clone();
                    spec.seed = r.seed.unwrap_or(spec.seed);
                    Item::new(r.config, spec)
                })
                .collect()
        }
        Kind::Churn => churn_configs()
            .into_iter()
            .map(|cfg| {
                let spec = churn_spec(cfg.technique.label(), CHURN_REPLAY_ACCESSES, seed);
                Item::new(cfg, spec)
            })
            .collect(),
        Kind::Mc => mc_suites(seed)
            .into_iter()
            .map(|suite| Item {
                spec: suite.spec.clone(),
                machine: Box::new(move || suite.machine()),
            })
            .collect(),
    }
}

/// Counters whose movement classifies an access event.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Counters {
    misses: u64,
    faults: u64,
    traps: u64,
}

impl Counters {
    fn read(m: &Machine) -> Self {
        let os = m.os().stats();
        Counters {
            misses: m.tlb().stats().misses,
            faults: os.minor_faults + os.cow_breaks,
            traps: m.vmm().trap_stats().total_traps(),
        }
    }
}

/// Which class an event falls in; accesses by the first counter that
/// moved, in the order guest fault, VMtrap, TLB miss.
fn classify(event: &Event, before: Counters, after: Counters) -> &'static str {
    match event {
        Event::Access { .. } if after.faults != before.faults => CLASSES[2],
        Event::Access { .. } if after.traps != before.traps => CLASSES[3],
        Event::Access { .. } if after.misses != before.misses => CLASSES[1],
        Event::Access { .. } => CLASSES[0],
        Event::Mmap { .. } => CLASSES[4],
        Event::Munmap { .. } => CLASSES[5],
        Event::MarkCow { .. } => CLASSES[6],
        Event::ClockScan { .. } => CLASSES[7],
        Event::ContextSwitch { .. } => CLASSES[8],
        Event::Tick => CLASSES[9],
    }
}

/// The access stream and range invalidations of one replay.
#[derive(Default)]
struct Tap {
    accesses: Vec<(Asid, u64, bool)>,
    ranges: Vec<(Asid, u64, u64)>,
}

/// Replays `item` with one span per generator step and per event.
fn replay_traced(rec: &mut Recorder, item: &Item, tap: &mut Tap) -> Machine {
    let mut m = item.machine();
    let mut workload = Workload::new(item.spec.clone());
    loop {
        let t0 = rec.now_ns();
        let next = workload.next();
        let t1 = rec.now_ns();
        rec.record("workloads.next", t0, t1);
        let Some(event) = next else { break };
        let asid = Asid::from(m.current_pid());
        match event {
            Event::Access { va, write } if tap.accesses.len() < TAP_ACCESSES => {
                tap.accesses.push((asid, va, write));
            }
            Event::Munmap { start, len }
            | Event::MarkCow { start, len }
            | Event::ClockScan { start, len }
                if tap.ranges.len() < TAP_RANGES =>
            {
                tap.ranges.push((asid, start, len));
            }
            _ => {}
        }
        let before = Counters::read(&m);
        let t2 = rec.now_ns();
        m.run_event(event);
        let t3 = rec.now_ns();
        rec.record(classify(&event, before, Counters::read(&m)), t2, t3);
    }
    m
}

fn replay_untraced(item: &Item) -> f64 {
    let mut m = item.machine();
    let t0 = Instant::now();
    for event in Workload::new(item.spec.clone()) {
        m.run_event(event);
    }
    let wall = t0.elapsed().as_secs_f64();
    drop(black_box(m));
    wall
}

/// Times the TLB, PWC and nested TLB on clones of `m`'s structures.
fn structure_replays(rec: &mut Recorder, m: &Machine, tap: &Tap, counts: &mut Counts) {
    let kind = |write: bool| {
        if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    };
    let mut tlb = m.tlb().clone();
    let id = rec.enter("tlb.lookup");
    for &(asid, va, write) in &tap.accesses {
        black_box(tlb.lookup(asid, GuestVirtAddr::new(va), kind(write)));
    }
    rec.exit(id);
    let mut pwc = m.pwc().clone();
    let id = rec.enter("pwc.lookup");
    for &(asid, va, _) in &tap.accesses {
        black_box(pwc.lookup(asid, GuestVirtAddr::new(va)));
    }
    rec.exit(id);
    let frames: Vec<GuestFrame> = tap
        .accesses
        .iter()
        .filter_map(|&(_, va, _)| {
            let (pte, level) = m.guest_mapping(va)?;
            let within = match level {
                Level::L1 => 0,
                _ => (va >> 12) & 0x1ff,
            };
            Some(GuestFrame::new(pte.frame_raw() + within))
        })
        .collect();
    let mut ntlb = m.ntlb().clone();
    let vm = m.vm_id();
    let id = rec.enter("ntlb.lookup");
    for &frame in &frames {
        black_box(ntlb.lookup(vm, frame));
    }
    rec.exit(id);
    counts.add("tlb.lookups", tap.accesses.len() as u64);
    counts.add("ntlb.lookups", frames.len() as u64);
    for &(asid, start, len) in &tap.ranges {
        let mut tlb = m.tlb().clone();
        let id = rec.enter("tlb.invalidate_page");
        for page in (start..start + len).step_by(4096) {
            tlb.invalidate_page(asid, GuestVirtAddr::new(page));
        }
        rec.exit(id);
        counts.add("tlb.pages_invalidated", len.div_ceil(4096));
        let mut tlb = m.tlb().clone();
        let id = rec.enter("tlb.flush_asid");
        tlb.flush_asid(asid);
        rec.exit(id);
        let mut pwc = m.pwc().clone();
        let id = rec.enter("pwc.invalidate_range");
        pwc.invalidate_range(asid, start, len);
        rec.exit(id);
    }
}

/// Replays `item` once more, timing the state-capture and checking layers
/// at every tick (or after every event).
fn probe_replay(rec: &mut Recorder, item: &Item, every_event: bool, counts: &mut Counts) {
    let mut m = item.machine();
    for event in Workload::new(item.spec.clone()) {
        let tick = matches!(event, Event::Tick);
        m.run_event(event);
        if !(every_event || tick) {
            continue;
        }
        let id = rec.enter("snapshot.encode");
        let snap = m.snapshot();
        let bytes = snap.to_bytes();
        rec.exit(id);
        let id = rec.enter("snapshot.digest");
        black_box(agile_core::digest(&bytes));
        rec.exit(id);
        let mut fresh = item.machine();
        let id = rec.enter("snapshot.restore");
        fresh
            .restore_from(&snap)
            .expect("a snapshot restores onto a machine built the same way");
        rec.exit(id);
        drop(fresh);
        let id = rec.enter("analyze.lint");
        black_box(m.lint());
        rec.exit(id);
        let id = rec.enter("verify.audit");
        black_box(m.audit());
        rec.exit(id);
        counts.add("snapshot.captures", 1);
        counts.add("snapshot.bytes", bytes.len() as u64);
    }
}

// The hardware-walker fixture of `crates/bench/benches/walks.rs`: one
// 4 KiB page mapped through guest, host and shadow tables.
struct Fixture {
    mem: PhysMem,
    gmap: GuestMemMap,
    gpt: RadixTable,
    hpt: RadixTable,
    spt: RadixTable,
    gva: u64,
}

fn fixture() -> Fixture {
    let mut mem = PhysMem::new();
    let mut gmap = GuestMemMap::new();
    let mut host = HostSpace;
    let gpt = RadixTable::new(&mut mem, &mut gmap);
    let hpt = RadixTable::new(&mut mem, &mut host);
    let spt = RadixTable::new(&mut mem, &mut host);
    let gva = 0x7fab_cdef_0000u64;
    let data = gmap.alloc_data(&mut mem);
    gpt.map(
        &mut mem,
        &mut gmap,
        gva,
        data.raw(),
        PageSize::Size4K,
        PteFlags::WRITABLE,
    )
    .expect("fixture maps");
    let pairs: Vec<_> = gmap.frames().collect();
    for (g, h) in pairs {
        hpt.map(
            &mut mem,
            &mut host,
            g.base().raw(),
            h.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .expect("fixture maps");
    }
    let backing = gmap.backing(data).expect("data frame is backed");
    spt.map(
        &mut mem,
        &mut host,
        gva,
        backing.raw(),
        PageSize::Size4K,
        PteFlags::WRITABLE,
    )
    .expect("fixture maps");
    Fixture {
        mem,
        gmap,
        gpt,
        hpt,
        spt,
        gva,
    }
}

fn set_switch(fx: &mut Fixture, level: Level) {
    fx.spt
        .zap_subtree(&mut fx.mem, &mut HostSpace, fx.gva, level);
    let child = fx
        .gpt
        .table_frame(
            &fx.mem,
            &fx.gmap,
            fx.gva,
            level.child().expect("not a leaf level"),
        )
        .expect("guest table exists");
    let target = fx.gmap.resolve(child);
    fx.spt
        .set_entry(
            &mut fx.mem,
            &HostSpace,
            fx.gva,
            level,
            Pte::new(target.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
        )
        .expect("fixture switch entry");
}

/// Times the walker at each degree of nesting (4, 8, 12, 16 and 24
/// references), walk caches off.
fn walk_fixture(rec: &mut Recorder) {
    let cases: [(&'static str, Option<Level>, bool); 5] = [
        ("walk.1d", None, false),
        ("walk.agile_l2", Some(Level::L2), false),
        ("walk.agile_l3", Some(Level::L3), false),
        ("walk.agile_l4", Some(Level::L4), false),
        ("walk.2d", None, true),
    ];
    let cfg = PwcConfig::disabled();
    let asid = Asid::new(1);
    for (name, switch, nested) in cases {
        let mut fx = fixture();
        if let Some(level) = switch {
            set_switch(&mut fx, level);
        }
        let gva = GuestVirtAddr::new(fx.gva);
        let gptr = GuestFrame::new(fx.gpt.root_raw());
        let hptr = HostFrame::new(fx.hpt.root_raw());
        let cr3 = if nested {
            AgileCr3::FullNested
        } else {
            AgileCr3::Shadow {
                spt_root: HostFrame::new(fx.spt.root_raw()),
            }
        };
        let mut stats = WalkStats::default();
        let mut pwc = PageWalkCaches::new(&cfg);
        let mut ntlb = NestedTlb::new(&cfg);
        let id = rec.enter(name);
        for _ in 0..WALK_ITERS {
            let mut hw = WalkHw {
                mem: &mut fx.mem,
                pwc: &mut pwc,
                ntlb: &mut ntlb,
                vm: VmId::new(0),
                stats: &mut stats,
            };
            black_box(
                hw.agile_walk(asid, gva, cr3, gptr, hptr, AccessKind::Read)
                    .expect("fixture walk succeeds"),
            );
        }
        rec.exit(id);
    }
}

/// Named counters summed over the traced run.
#[derive(Default)]
struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Adds the simulated counters of a replayed machine.
    fn machine(&mut self, m: &Machine) {
        let p = m.profile();
        self.add("tlb.hits", p.tlb.l1_hits + p.tlb.l2_hits);
        self.add("tlb.live_lookups", p.tlb.lookups());
        self.add("pwc.hits", p.pwc.hits);
        self.add("pwc.live_lookups", p.pwc.lookups());
        self.add("ntlb.hits", p.ntlb.hits);
        self.add("ntlb.live_lookups", p.ntlb.lookups());
        self.add("walk.attempts", p.walks.attempts);
        self.add("walk.completed", p.walks.walks);
        self.add("walk.faulted", p.walks.faulted_walks);
        self.add("walk.refs", p.walks.memory_refs);
        self.add("vmm.traps", m.vmm().trap_stats().total_traps());
        self.add("flush.requests", p.flush.requests);
        self.add("flush.pages_swept", p.flush.pages_swept);
        self.add("flush.eliminated", p.flush.eliminated());
        self.add("guest.faults", m.os().stats().minor_faults);
    }
}

/// What the traced run measured.
pub struct Traced {
    /// Per-layer metrics as (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Every span recorded.
    pub spans: Vec<spans::Span>,
    /// Checks the workload pass failed.
    pub problems: Vec<String>,
    /// Units checked: jobs or suites of the pass, plus replayed machines.
    pub attempted: u64,
}

/// Runs the traced phases for one workload.
#[must_use]
pub fn run(kind: Kind, seed: u64) -> Traced {
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut problems = Vec::new();

    // Phase 1: the workload pass, for service and explorer counters.
    let mut service = ServiceMetrics::default();
    let mut busy_frac = 0.0;
    let mut attempted = 0;
    let (mut states, mut deduped, mut explore_s) = (0u64, 0u64, 0.0);
    let id = rec.enter("pass.run");
    match kind {
        Kind::Fig5 => {
            let pass = fig5_pass(fig5_requests(seed));
            busy_frac = pass.busy_frac();
            attempted += pass.results.len() as u64;
            problems.extend(
                pass.results
                    .iter()
                    .filter(|(o, _)| o.artifact().is_none())
                    .map(|(o, _)| format!("{}: not completed", o.label())),
            );
            service = pass.service;
        }
        Kind::Churn => {}
        Kind::Mc => {
            let suites = mc_suites(seed);
            let pass = mc_pass(&suites);
            for (suite, report) in suites.iter().zip(&pass.reports) {
                states += report.states;
                deduped += report.deduped;
                attempted += 1;
                problems.extend(suite_problem(suite, report));
            }
            explore_s = pass.wall.as_secs_f64();
        }
    }
    rec.exit(id);

    // Phases 2 and 3, item by item.
    let sample = items(kind, seed);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for item in &sample {
        let id = rec.enter("replay.untraced");
        untraced_s += replay_untraced(item);
        rec.exit(id);
        let mut tap = Tap::default();
        let id = rec.enter("replay.traced");
        let t0 = rec.now_ns();
        let m = replay_traced(&mut rec, item, &mut tap);
        traced_s += (rec.now_ns() - t0) as f64 * 1e-9;
        rec.exit(id);
        counts.machine(&m);
        let id = rec.enter("layers.structures");
        structure_replays(&mut rec, &m, &tap, &mut counts);
        rec.exit(id);
    }
    let id = rec.enter("layers.walker");
    walk_fixture(&mut rec);
    rec.exit(id);
    for item in &sample {
        let id = rec.enter("probes.replay");
        probe_replay(&mut rec, item, kind == Kind::Mc, &mut counts);
        rec.exit(id);
    }

    let spans = rec.spans().to_vec();
    let metrics = summarize(
        &spans,
        &counts,
        (&service, busy_frac),
        (states, deduped, explore_s),
        (untraced_s, traced_s),
    );
    Traced {
        metrics,
        spans,
        problems,
        attempted: attempted + sample.len() as u64,
    }
}

fn summarize(
    spans: &[spans::Span],
    counts: &Counts,
    (service, busy_frac): (&ServiceMetrics, f64),
    (states, deduped, explore_s): (u64, u64, f64),
    (untraced_s, traced_s): (f64, f64),
) -> Vec<(String, f64, &'static str)> {
    let self_ns = spans::self_time_by_name(spans);
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        *events.entry(s.name).or_insert(0) += 1;
    }
    let ns = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64;
    let n = |name: &str| events.get(name).copied().unwrap_or(0) as f64;
    let per_call = |name: &str| ratio(ns(name), n(name));
    let c = |name: &str| counts.get(name) as f64;
    let traced_ns = traced_s * 1e9;

    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));
    for class in CLASSES {
        let short = &class["machine.".len()..];
        put(&format!("{class}_ns"), per_call(class), "ns");
        put(
            &format!("machine.share.{short}"),
            ratio(ns(class), traced_ns),
            "frac",
        );
        put(&format!("machine.events.{short}"), n(class), "count");
    }
    put("workloads.next_ns", per_call("workloads.next"), "ns");
    put(
        "tlb.lookup_ns",
        ratio(ns("tlb.lookup"), c("tlb.lookups")),
        "ns",
    );
    put(
        "tlb.hit_ratio",
        ratio(c("tlb.hits"), c("tlb.live_lookups")),
        "frac",
    );
    put(
        "pwc.lookup_ns",
        ratio(ns("pwc.lookup"), c("tlb.lookups")),
        "ns",
    );
    put(
        "pwc.hit_ratio",
        ratio(c("pwc.hits"), c("pwc.live_lookups")),
        "frac",
    );
    put(
        "ntlb.lookup_ns",
        ratio(ns("ntlb.lookup"), c("ntlb.lookups")),
        "ns",
    );
    put(
        "ntlb.hit_ratio",
        ratio(c("ntlb.hits"), c("ntlb.live_lookups")),
        "frac",
    );
    put(
        "tlb.invalidate_page_ns",
        ratio(ns("tlb.invalidate_page"), c("tlb.pages_invalidated")),
        "ns",
    );
    put("tlb.flush_asid_ns", per_call("tlb.flush_asid"), "ns");
    put(
        "pwc.invalidate_range_ns",
        per_call("pwc.invalidate_range"),
        "ns",
    );
    let walk_iters = f64::from(WALK_ITERS);
    for case in ["1d", "2d", "agile_l2", "agile_l3", "agile_l4"] {
        put(
            &format!("walk.{case}_ns"),
            ns(&format!("walk.{case}")) / walk_iters,
            "ns",
        );
    }
    put(
        "walk.refs_per_walk",
        ratio(c("walk.refs"), c("walk.completed")),
        "refs",
    );
    put(
        "walk.faulted_frac",
        ratio(c("walk.faulted"), c("walk.attempts")),
        "frac",
    );
    put("vmm.traps", c("vmm.traps"), "count");
    put("flush.requests", c("flush.requests"), "count");
    put("flush.pages_swept", c("flush.pages_swept"), "count");
    put(
        "flush.eliminated_frac",
        ratio(c("flush.eliminated"), c("flush.requests")),
        "frac",
    );
    put("guest.faults", c("guest.faults"), "count");
    let mb = c("snapshot.bytes") / 1e6;
    put(
        "snapshot.encode_mb_per_s",
        ratio(mb, ns("snapshot.encode") * 1e-9),
        "MB/s",
    );
    put(
        "snapshot.restore_mb_per_s",
        ratio(mb, ns("snapshot.restore") * 1e-9),
        "MB/s",
    );
    put(
        "snapshot.bytes",
        ratio(c("snapshot.bytes"), c("snapshot.captures")),
        "bytes",
    );
    put("snapshot.digest_ns", per_call("snapshot.digest"), "ns");
    put(
        "service.queue_wait_ms",
        service.mean_queue_latency().as_secs_f64() * 1e3,
        "ms",
    );
    put(
        "service.run_ms",
        service.mean_run_latency().as_secs_f64() * 1e3,
        "ms",
    );
    put("service.busy_frac", busy_frac, "frac");
    put("service.steals", service.steals as f64, "count");
    put(
        "explore.dedup_frac",
        ratio(deduped as f64, (states + deduped) as f64),
        "frac",
    );
    put(
        "explore.states_per_s",
        ratio(states as f64, explore_s),
        "1/s",
    );
    put("analyze.lint_ns", per_call("analyze.lint"), "ns");
    put("verify.audit_ns", per_call("verify.audit"), "ns");
    put("trace.overhead_s", traced_s - untraced_s, "s");
    put(
        "trace.overhead_frac",
        ratio(traced_s - untraced_s, untraced_s),
        "frac",
    );
    out
}
