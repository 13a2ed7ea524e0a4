//! Common vocabulary types for the agile-paging simulator.
//!
//! This crate defines the address-space newtypes, page sizes, page-table
//! levels, page-table entry (PTE) encoding, and fault types shared by every
//! other crate in the workspace, plus two serializations, the snapshot codec
//! ([`Persist`]) and JSON ([`Json`], [`ToJson`]), which [`record!`] derives
//! from one struct declaration. It deliberately has no dependencies.
//!
//! The simulated architecture is an x86-64-style 4-level radix page table:
//! 48-bit virtual addresses, 9 index bits per level, 4 KiB base pages, and
//! 2 MiB / 1 GiB huge pages that terminate the walk at level 2 / level 3.
//!
//! Three address spaces exist, following the paper's notation:
//!
//! * [`GuestVirtAddr`] (`gVA`) — what a guest process issues.
//! * [`GuestPhysAddr`] (`gPA`) — what the guest OS believes is physical.
//! * [`HostPhysAddr`] (`hPA`) — real (simulated) machine memory.
//!
//! # Example
//!
//! ```
//! use agile_types::{GuestVirtAddr, Level, PageSize};
//!
//! let va = GuestVirtAddr::new(0x7f12_3456_7000);
//! assert_eq!(va.index(Level::L1), (0x7f12_3456_7000u64 >> 12) as usize & 0x1ff);
//! assert_eq!(va.page_base(PageSize::Size4K).raw(), 0x7f12_3456_7000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod addr;
mod codec;
mod error;
mod ids;
mod json;
mod level;
mod page;
mod pte;
mod rng;

pub use access::AccessKind;
pub use addr::{GuestFrame, GuestPhysAddr, GuestVirtAddr, HostFrame, HostPhysAddr};
pub use codec::{
    load_map_entries, save_sorted_map, CodecError, Counters, Dec, Enc, Persist, StateSink,
};
pub use error::{Fault, FaultCause};
pub use ids::{Asid, ProcessId, VmId};
pub use json::{to_csv, Json, ToJson};
pub use level::Level;
pub use page::PageSize;
pub use pte::{Pte, PteFlags};
pub use rng::SplitMix64;

/// Number of page-table entries per page-table page (512 for x86-64).
pub const ENTRIES_PER_TABLE: usize = 512;

/// Log2 of [`ENTRIES_PER_TABLE`]: the number of index bits consumed per level.
pub const INDEX_BITS: u32 = 9;

/// Log2 of the base page size (4 KiB).
pub const PAGE_SHIFT: u32 = 12;

/// Size in bytes of a base page.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;

/// Number of radix levels in the simulated page table (x86-64: 4).
pub const MAX_LEVELS: u8 = 4;
