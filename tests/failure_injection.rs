//! Fault-path and adversarial-behaviour tests across techniques: the
//! machine must degrade into guest-visible faults, never corrupt
//! translations, under protection violations, unmapping races, huge-page
//! splits, and process interleavings.

use agile_paging::{AgileOptions, Event, Machine, SystemConfig, Technique};

const BASE: u64 = 0x7000_0000_0000;

#[test]
fn access_outside_any_vma_segfaults_in_every_technique() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let err = m.touch(0xdead_beef000, false).unwrap_err();
        assert_eq!(err.va, 0xdead_beef000, "{t:?}");
    }
}

#[test]
fn write_to_readonly_vma_segfaults_but_reads_succeed() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 64 << 10, false);
        assert!(m.touch(BASE + 0x1000, false).is_ok(), "{t:?}");
        assert!(m.touch(BASE + 0x1000, true).is_err(), "{t:?}");
        // The failed write must not have poisoned the read path.
        assert!(m.touch(BASE + 0x1000, false).is_ok(), "{t:?}");
    }
}

#[test]
fn touch_after_munmap_segfaults_despite_cached_translations() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 64 << 10, true);
        for i in 0..16u64 {
            m.touch(BASE + i * 0x1000, true).unwrap();
        }
        m.run_event(Event::Munmap {
            start: BASE,
            len: 64 << 10,
        });
        // Stale TLB/PWC state must not let the access through.
        assert!(m.touch(BASE, false).is_err(), "{t:?}");
    }
}

#[test]
fn partial_munmap_splits_vma_and_huge_pages() {
    for thp in [false, true] {
        let mut cfg = SystemConfig::new(Technique::Agile(AgileOptions::default()));
        if thp {
            cfg = cfg.with_thp();
        }
        let mut m = Machine::new(cfg);
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 4 << 20, true);
        for i in 0..1024u64 {
            m.touch(BASE + i * 0x1000, true).unwrap();
        }
        // Punch a 64 KiB hole in the middle of the first 2 MiB.
        let hole = BASE + (1 << 20);
        m.run_event(Event::Munmap {
            start: hole,
            len: 64 << 10,
        });
        assert!(
            m.touch(hole, false).is_err(),
            "hole must be gone (thp={thp})"
        );
        assert!(
            m.touch(hole + (64 << 10), false).is_ok(),
            "after hole survives"
        );
        assert!(m.touch(BASE, false).is_ok(), "before hole survives");
        assert!(
            m.touch(BASE + (3 << 20), false).is_ok(),
            "other huge page survives"
        );
    }
}

#[test]
fn processes_do_not_share_translations() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        // Process 0 maps and touches; process 1 has nothing there.
        let p0 = m.current_pid();
        m.os_mut().mmap(p0, BASE, 16 << 10, true);
        m.touch(BASE, true).unwrap();
        m.run_event(Event::ContextSwitch { to: 1 });
        assert_ne!(m.current_pid(), p0);
        assert!(
            m.touch(BASE, false).is_err(),
            "{t:?}: translation leaked across address spaces"
        );
        // And back.
        m.run_event(Event::ContextSwitch { to: 0 });
        assert!(m.touch(BASE, false).is_ok());
    }
}

#[test]
fn cow_isolation_after_break() {
    // After a COW break the written page must stop sharing a frame with
    // the rest of the region, under every technique.
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut().mmap_cow(pid, BASE, 64 << 10);
        for i in 0..16u64 {
            m.touch(BASE + i * 0x1000, false).unwrap();
        }
        m.touch(BASE + 0x3000, true).unwrap();
        let (broken, _) = m.guest_mapping(BASE + 0x3000).unwrap();
        let (shared, _) = m.guest_mapping(BASE + 0x4000).unwrap();
        assert_ne!(broken.frame_raw(), shared.frame_raw(), "{t:?}");
        assert!(broken.is_writable(), "{t:?}");
        assert!(!shared.is_writable(), "{t:?}");
        let _ = pid;
    }
}

#[test]
fn reclaim_then_retouch_refaults_cleanly() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 128 << 10, true);
        for i in 0..32u64 {
            m.touch(BASE + i * 0x1000, true).unwrap();
        }
        // Two full scans with no intervening accesses reclaim everything.
        m.run_event(Event::ClockScan {
            start: BASE,
            len: 128 << 10,
        });
        m.run_event(Event::ClockScan {
            start: BASE,
            len: 128 << 10,
        });
        assert!(m.os().stats().pages_reclaimed > 0, "{t:?}");
        // Re-touching demand-faults the pages back in.
        for i in 0..32u64 {
            m.touch(BASE + i * 0x1000, false).unwrap();
        }
    }
}

#[test]
fn interval_ticks_are_harmless_everywhere() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut().mmap(pid, BASE, 64 << 10, true);
        for round in 0..8 {
            m.touch(BASE + (round % 16) * 0x1000, round % 2 == 0)
                .unwrap();
            m.run_event(Event::Tick);
        }
        for i in 0..16u64 {
            m.touch(BASE + i * 0x1000, false).unwrap();
        }
    }
}
