//! Table II: memory references with each degree of nesting.
//!
//! Builds one guest page mapped through real guest/host/shadow tables and
//! measures the exact number of PTE loads each walk configuration performs
//! (walk caches off, 4 KiB pages), reproducing the paper's 4 / 8 / 12 / 16
//! / 20 / 24 ladder.

use super::{ExperimentRun, JsonRow};
use crate::report::Table;
use crate::runner::Json;
use agile_mem::{GuestMemMap, HostSpace, PhysMem, RadixTable, TableSpace};
use agile_tlb::{NestedTlb, PageWalkCaches, PwcConfig};
use agile_types::{
    AccessKind, Asid, GuestFrame, GuestVirtAddr, HostFrame, Level, PageSize, Pte, PteFlags, VmId,
};
use agile_walk::{AgileCr3, WalkHw, WalkStats};

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

impl JsonRow for Table2Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("refs", Json::UInt(u64::from(self.refs))),
            ("shadow_refs", Json::UInt(self.shadow_refs)),
            ("guest_refs", Json::UInt(self.guest_refs)),
            ("host_refs", Json::UInt(self.host_refs)),
        ])
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

    fn measure(&mut self, cr3: Cr3Kind) -> Table2Row {
        let gpt_root_h = self.guest_table_hframe(Level::L4);
        let cfg = PwcConfig::disabled();
        let mut pwc = PageWalkCaches::new(&cfg);
        let mut ntlb = NestedTlb::new(&cfg);
        let mut stats = WalkStats::default();
        let mut hw = WalkHw {
            mem: &mut self.mem,
            pwc: &mut pwc,
            ntlb: &mut ntlb,
            vm: VmId::new(0),
            stats: &mut stats,
        };
        let asid = Asid::new(1);
        let gptr = GuestFrame::new(self.gpt.root_raw());
        let hptr = HostFrame::new(self.hpt.root_raw());
        let sptr = HostFrame::new(self.spt.root_raw());
        let (label, ok) = match cr3 {
            Cr3Kind::Native => (
                "Base Native".to_string(),
                hw.shadow_walk(asid, self.gva, sptr, AccessKind::Read)
                    .map(|mut o| {
                        o.kind = agile_walk::WalkKind::Native;
                        o
                    }),
            ),
            Cr3Kind::Shadow => (
                "Shadow (agile: full shadow)".to_string(),
                hw.agile_walk(
                    asid,
                    self.gva,
                    AgileCr3::Shadow { spt_root: sptr },
                    gptr,
                    hptr,
                    AccessKind::Read,
                ),
            ),
            Cr3Kind::SwitchAt(level) => (
                format!("Agile: switch below {level}"),
                hw.agile_walk(
                    asid,
                    self.gva,
                    AgileCr3::Shadow { spt_root: sptr },
                    gptr,
                    hptr,
                    AccessKind::Read,
                ),
            ),
            Cr3Kind::NestedFromRoot => (
                "Agile: nested from root".to_string(),
                hw.agile_walk(
                    asid,
                    self.gva,
                    AgileCr3::NestedFromRoot {
                        gpt_root: gpt_root_h,
                    },
                    gptr,
                    hptr,
                    AccessKind::Read,
                ),
            ),
            Cr3Kind::Nested => (
                "Nested Paging".to_string(),
                hw.nested_walk(asid, self.gva, gptr, hptr, AccessKind::Read),
            ),
        };
        let ok = ok.expect("walk succeeds");
        Table2Row {
            label,
            refs: ok.refs,
            shadow_refs: stats.refs_shadow,
            guest_refs: stats.refs_guest,
            host_refs: stats.refs_host,
        }
    }
}

#[derive(Clone, Copy)]
enum Cr3Kind {
    Native,
    Shadow,
    SwitchAt(Level),
    NestedFromRoot,
    Nested,
}

/// Runs the Table II measurement; each walk configuration builds its own
/// fixture (real guest/host/shadow tables) so the measurements are
/// independent.
#[must_use]
pub fn table2() -> ExperimentRun<Table2Row> {
    let configs = vec![
        Cr3Kind::Native,
        Cr3Kind::Shadow,
        Cr3Kind::SwitchAt(Level::L2),
        Cr3Kind::SwitchAt(Level::L3),
        Cr3Kind::SwitchAt(Level::L4),
        Cr3Kind::NestedFromRoot,
        Cr3Kind::Nested,
    ];
    let rows: Vec<Table2Row> = configs
        .into_iter()
        .map(|kind| {
            let mut fx = Fixture::new();
            if let Cr3Kind::SwitchAt(level) = kind {
                fx.set_switch(level);
            }
            fx.measure(kind)
        })
        .collect();

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
