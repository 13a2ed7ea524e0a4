//! Table II: memory references with each degree of nesting.
//!
//! Builds one guest page mapped through real guest/host/shadow tables and
//! measures the exact number of PTE loads each walk configuration performs
//! (walk caches off, 4 KiB pages), reproducing the paper's 4 / 8 / 12 / 16
//! / 20 / 24 ladder.

use super::ExperimentRun;
use crate::report::Table;
use agile_mem::{GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace};
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{
    AccessKind, Asid, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize, Pte, PteFlags, VmId,
};
use agile_walk::{AgileCr3, WalkHw, WalkStats};

agile_types::record! {
    json;
    /// One measured walk configuration.
    #[derive(Debug, Clone)]
    pub struct Table2Row {
        /// Paper's label for the degree of nesting.
        pub label: String,
        /// Measured total memory references.
        pub refs: u32,
        /// Measured shadow-table references.
        pub shadow_refs: u64,
        /// Measured guest-table references.
        pub guest_refs: u64,
        /// Measured host-table references.
        pub host_refs: u64,
    }
}

struct Fixture {
    mem: PhysMem,
    gmap: GuestMemMap,
    gpt: RadixTable,
    hpt: RadixTable,
    spt: RadixTable,
    gva: GuestVirtAddr,
}

impl Fixture {
    fn new() -> Self {
        let mut mem = PhysMem::new();
        let mut gmap = GuestMemMap::new();
        let mut host = HostSpace;
        let gpt = RadixTable::new(&mut mem, &mut gmap);
        let hpt = RadixTable::new(&mut mem, &mut host);
        let spt = RadixTable::new(&mut mem, &mut host);
        let gva = GuestVirtAddr::new(0x7f55_4433_2000);
        let data = gmap.alloc_data(&mut mem);
        gpt.map(
            &mut mem,
            &mut gmap,
            gva.raw(),
            data.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .expect("guest map");
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
            .expect("host map");
        }
        let backing = gmap.backing(data).expect("backed");
        spt.map(
            &mut mem,
            &mut host,
            gva.raw(),
            backing.raw(),
            PageSize::Size4K,
            PteFlags::WRITABLE,
        )
        .expect("shadow map");
        Fixture {
            mem,
            gmap,
            gpt,
            hpt,
            spt,
            gva,
        }
    }

    fn guest_table_hframe(&self, level: Level) -> HostFrame {
        let g = self
            .gpt
            .table_frame(&self.mem, &self.gmap, self.gva.raw(), level)
            .expect("guest path");
        self.gmap.resolve(g)
    }

    fn set_switch(&mut self, level: Level) {
        self.spt
            .zap_subtree(&mut self.mem, &mut HostSpace, self.gva.raw(), level);
        let target = self.guest_table_hframe(level.child().expect("interior"));
        self.spt
            .set_entry(
                &mut self.mem,
                &HostSpace,
                self.gva.raw(),
                level,
                Pte::new(target.raw(), PteFlags::PRESENT | PteFlags::SWITCHING),
            )
            .expect("switch entry");
    }

    fn sptr(&self) -> HostFrame {
        HostFrame::new(self.spt.root_raw())
    }
}

/// Measures one walk configuration on a fresh fixture (real guest, host
/// and shadow tables), so the measurements are independent: optionally
/// plants a switching entry at `switch`, then walks once from the start
/// state `cr3` picks.
fn measure(
    label: impl Into<String>,
    switch: Option<Level>,
    cr3: impl Fn(&Fixture) -> AgileCr3,
) -> Table2Row {
    let mut fx = Fixture::new();
    if let Some(level) = switch {
        fx.set_switch(level);
    }
    let cr3 = cr3(&fx);
    let gptr = GuestFrame::new(fx.gpt.root_raw());
    let hptr = HostFrame::new(fx.hpt.root_raw());
    let cfg = PwcConfig::disabled();
    let mut pwc = PageWalkCaches::new(&cfg);
    let mut ntlb = NestedTlb::new(&cfg);
    let mut stats = WalkStats::default();
    let mut hw = WalkHw {
        mem: &mut fx.mem,
        pwc: &mut pwc,
        ntlb: &mut ntlb,
        vm: VmId::new(0),
        stats: &mut stats,
    };
    let ok = hw
        .agile_walk(Asid::new(1), fx.gva, cr3, gptr, hptr, AccessKind::Read)
        .expect("walk succeeds");
    Table2Row {
        label: label.into(),
        refs: ok.refs,
        shadow_refs: stats.refs_shadow,
        guest_refs: stats.refs_guest,
        host_refs: stats.refs_host,
    }
}

/// Runs the Table II measurement, one fixture per walk configuration.
/// Base native walks the fixture's shadow table as its one 1D table: the
/// shadow table maps gVA straight to the data page, exactly like an OS
/// page table on bare metal.
#[must_use]
pub fn table2() -> ExperimentRun<Table2Row> {
    let shadow = |fx: &Fixture| AgileCr3::Shadow {
        spt_root: fx.sptr(),
    };
    let mut rows = vec![
        measure("Base Native", None, |fx| AgileCr3::Native {
            root: fx.sptr(),
        }),
        measure("Shadow (agile: full shadow)", None, shadow),
    ];
    for level in [Level::L2, Level::L3, Level::L4] {
        rows.push(measure(
            format!("Agile: switch below {level}"),
            Some(level),
            shadow,
        ));
    }
    rows.push(measure("Agile: nested from root", None, |fx| {
        AgileCr3::NestedFromRoot {
            gpt_root: fx.guest_table_hframe(Level::L4),
        }
    }));
    rows.push(measure("Nested Paging", None, |_| AgileCr3::FullNested));

    let mut table = Table::new(vec![
        "configuration".into(),
        "total refs".into(),
        "shadow refs".into(),
        "guest refs".into(),
        "host refs".into(),
        "paper".into(),
    ]);
    let paper = ["4", "4", "8", "12", "16", "20", "24"];
    for (row, want) in rows.iter().zip(paper) {
        table.row(vec![
            row.label.clone(),
            row.refs.to_string(),
            row.shadow_refs.to_string(),
            row.guest_refs.to_string(),
            row.host_refs.to_string(),
            want.into(),
        ]);
    }
    let header = "Table II: memory references per TLB miss by degree of nesting\n\
                  (4 KiB pages, page walk caches disabled)\n\n";
    ExperimentRun {
        name: "table2",
        text: format!("{header}{}", table.render()),
        rows,
        artifacts: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_paper() {
        let run = table2();
        let refs: Vec<u32> = run.rows.iter().map(|r| r.refs).collect();
        assert_eq!(refs, vec![4, 4, 8, 12, 16, 20, 24]);
    }

    #[test]
    fn breakdowns_are_consistent() {
        let run = table2();
        for row in &run.rows {
            assert_eq!(
                u64::from(row.refs),
                row.shadow_refs + row.guest_refs + row.host_refs,
                "{}",
                row.label
            );
        }
        // Full nested: 4 guest + 20 host.
        let nested = run.rows.last().unwrap();
        assert_eq!(nested.guest_refs, 4);
        assert_eq!(nested.host_refs, 20);
    }

    #[test]
    fn render_contains_all_rows() {
        let run = table2();
        for row in &run.rows {
            assert!(run.text.contains(&row.label), "{}", row.label);
        }
    }
}
