//! Simulated physical memory and radix page tables.
//!
//! This crate provides the storage substrate on which every page table in
//! the simulator is materialized:
//!
//! * [`PhysMem`] — simulated host physical memory: a frame allocator plus
//!   real 512-entry page-table pages ([`TablePage`]). Every PTE the hardware
//!   walker reads comes from here, so memory-reference counts are structural
//!   rather than assumed.
//! * [`RadixTable`] — x86-64-style 4-level radix table operations (map,
//!   unmap, lookup, flag updates, subtree zap, traversal) used by *software*
//!   (guest OS and VMM) to build and edit guest, host, and shadow page
//!   tables. Hardware walks live in the `agile-walk` crate and do their own
//!   counted loads.
//! * [`TableSpace`] — abstracts where a table's pages live: host tables
//!   ([`HostSpace`]) store host frame numbers in interior entries, while the
//!   guest page table ([`GuestMemMap`]) stores *guest* frame numbers that
//!   must be resolved through the VM's gPA⇒hPA backing map.
//!
//! # Example
//!
//! ```
//! use agile_mem::{HostSpace, PhysMem, RadixTable};
//! use agile_types::{PageSize, PteFlags};
//!
//! let mut mem = PhysMem::new();
//! let mut space = HostSpace;
//! let table = RadixTable::new(&mut mem, &mut space);
//! table
//!     .map(&mut mem, &mut space, 0x4000, 0x99, PageSize::Size4K, PteFlags::WRITABLE)
//!     .unwrap();
//! let (pte, level) = table.lookup(&mem, &space, 0x4321).unwrap();
//! assert_eq!(pte.frame_raw(), 0x99);
//! assert_eq!(level, agile_types::Level::L1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod guestmap;
mod phys;
mod pool;
mod radix;
mod space;

pub use guestmap::GuestMemMap;
pub use phys::{entry_indices, EntryBits, PhysMem, TablePage, ALL_ENTRIES, VM_FRAME_SPAN};
pub use pool::FramePool;
pub use radix::{MapError, RadixTable};
pub use space::{HostSpace, TableSpace};
