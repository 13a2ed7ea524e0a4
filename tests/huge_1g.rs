//! 1 GiB page support (paper §V): explicitly requested gigantic pages work
//! through every technique, shorten walks at both translation stages, and
//! coexist with smaller pages.

use agile_paging::types::PageSize;
use agile_paging::{AgileOptions, Machine, SystemConfig, Technique};

// 1 GiB-aligned virtual base.
const BASE: u64 = 0x40_0000_0000;

#[test]
fn explicit_1g_mappings_work_in_every_technique() {
    for t in Technique::all() {
        let mut m = Machine::new(SystemConfig::new(t));
        let pid = m.current_pid();
        m.os_mut()
            .mmap_sized(pid, BASE, 2 << 30, true, PageSize::Size1G);
        // Touch spots across both gigantic pages.
        for off in [
            0u64,
            0x1234_5000,
            (1 << 30) - 0x1000,
            (1 << 30) + 0x1777_7000,
        ] {
            m.touch(BASE + off, true)
                .unwrap_or_else(|e| panic!("{t:?}: {e}"));
        }
        let (pte, level) = m.guest_mapping(BASE).expect("mapped");
        assert_eq!(
            pte.leaf_size(level),
            Some(PageSize::Size1G),
            "{t:?}: guest leaf must be 1 GiB"
        );
        assert_eq!(m.os().stats().huge_mappings, 2, "{t:?}");
    }
}

#[test]
fn gigantic_pages_shorten_walks() {
    // Native: a 1 GiB leaf terminates the walk at L3 — 2 references.
    let mut native = Machine::new(SystemConfig::new(Technique::Native).without_pwc());
    let pid = native.current_pid();
    native
        .os_mut()
        .mmap_sized(pid, BASE, 1 << 30, true, PageSize::Size1G);
    native.touch(BASE, false).unwrap();
    native.begin_measurement();
    // New offsets in the same gigantic page: TLB may hit (4 1G entries), so
    // force distinct pages? One gigantic page == one TLB entry; measure the
    // walk by touching after a fresh machine instead.
    let mut fresh = Machine::new(SystemConfig::new(Technique::Native).without_pwc());
    let pid = fresh.current_pid();
    fresh
        .os_mut()
        .mmap_sized(pid, BASE, 1 << 30, true, PageSize::Size1G);
    fresh.touch(BASE, false).unwrap();
    let stats = fresh.stats("native-1g");
    // Walks: the demand-fault attempt plus the final successful walk, all
    // at most 2 references each (L4 + L3 leaf).
    assert!(
        stats.avg_refs_per_miss() <= 2.0,
        "native 1G walk refs {}",
        stats.avg_refs_per_miss()
    );

    // Nested with 1 GiB at both stages: gptr translation (4 refs, the guest
    // root is a 4 KiB-mapped table page) + L4 (1 + 4) + L3 leaf (1 + host
    // walk of a 1 GiB-mapped gPA = 2) = 12 references, half the 4 KiB 24.
    let mut nested = Machine::new(SystemConfig::new(Technique::Nested).without_pwc());
    let pid = nested.current_pid();
    nested
        .os_mut()
        .mmap_sized(pid, BASE, 1 << 30, true, PageSize::Size1G);
    nested.touch(BASE, false).unwrap();
    let stats = nested.stats("nested-1g");
    assert!(
        stats.avg_refs_per_miss() < 14.0,
        "nested 1G walk refs {}",
        stats.avg_refs_per_miss()
    );
}

#[test]
fn gigantic_and_small_pages_coexist() {
    let mut m = Machine::new(SystemConfig::new(Technique::Agile(AgileOptions::default())));
    let pid = m.current_pid();
    m.os_mut()
        .mmap_sized(pid, BASE, 1 << 30, true, PageSize::Size1G);
    m.os_mut().mmap(pid, BASE + (4 << 30), 1 << 20, true);
    m.touch(BASE + 0x123_0000, true).unwrap();
    m.touch(BASE + (4 << 30) + 0x3000, true).unwrap();
    let (_, big_level) = m.guest_mapping(BASE).unwrap();
    let (_, small_level) = m.guest_mapping(BASE + (4 << 30) + 0x3000).unwrap();
    assert_eq!(PageSize::from_leaf_level(big_level), Some(PageSize::Size1G));
    assert_eq!(
        PageSize::from_leaf_level(small_level),
        Some(PageSize::Size4K)
    );
}

#[test]
fn unaligned_or_short_regions_fall_back_to_smaller_pages() {
    let mut m = Machine::new(SystemConfig::new(Technique::Nested));
    let pid = m.current_pid();
    // Asked for 1 GiB but the region only holds 8 MiB: falls back (to 2M,
    // since the hint permits anything up to 1G... but 2M needs the region
    // to hold an aligned 2M page, which it does).
    m.os_mut()
        .mmap_sized(pid, BASE, 8 << 20, true, PageSize::Size1G);
    m.touch(BASE, false).unwrap();
    let (pte, level) = m.guest_mapping(BASE).unwrap();
    assert_eq!(pte.leaf_size(level), Some(PageSize::Size2M));
}
