//! TLBs and translation caches for the agile-paging simulator.
//!
//! Models the per-core translation caching hardware of the paper's testbed
//! (Table III) plus the structures the paper's Section III-A extends:
//!
//! * [`TlbHierarchy`] — split L1 D/I TLBs and a unified L2 TLB, per page
//!   size, set-associative with LRU, ASID-tagged.
//! * [`PageWalkCaches`] — Intel-style partial-translation caches (skip 1, 2,
//!   or 3 levels). For agile paging each entry carries a mode bit saying
//!   whether the cached pointer refers to the shadow or the guest page
//!   table, so a walk resumed from the PWC continues in the correct mode.
//! * [`NestedTlb`] — the gPA⇒hPA cache used during 2D walks (Bhargava et
//!   al.; Intel's "EPT TLB").
//!
//! # Example
//!
//! ```
//! use agile_tlb::{TlbConfig, TlbEntry, TlbHierarchy};
//! use agile_types::{AccessKind, Asid, GuestVirtAddr, HostFrame, PageSize};
//!
//! let mut tlb = TlbHierarchy::new(&TlbConfig::default());
//! let asid = Asid::new(1);
//! let va = GuestVirtAddr::new(0x40_0000);
//! assert!(tlb.lookup(asid, va, AccessKind::Read).is_none());
//! tlb.fill(asid, va, TlbEntry::new(HostFrame::new(0x99), PageSize::Size4K, true));
//! assert!(tlb.lookup(asid, va, AccessKind::Read).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod ntlb;
mod pwc;
mod tlb;

pub use cache::{CacheStats, SetAssocCache};
pub use config::{PwcConfig, SizedTlbConfig, TlbConfig};
pub use ntlb::{NestedTlb, NtlbEntry};
pub use pwc::{PageWalkCaches, PwcEntry, PwcTableKind};
pub use tlb::{TlbEntry, TlbHierarchy, TlbStamps, TlbStats, TLB_PARTITIONS};
