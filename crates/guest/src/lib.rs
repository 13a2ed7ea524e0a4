//! The guest operating-system substrate.
//!
//! Models the OS-level behaviour whose page-table side effects drive the
//! paper's evaluation: process and VMA management, demand paging with
//! transparent huge pages, copy-on-write (content-based page sharing,
//! Section V), memory-pressure page reclamation with a clock scan, and
//! context switches. All page-table mutations flow through the VMM
//! mediation API (`agile_vmm::Vmm`), which is where the technique-dependent
//! cost of those mutations materializes.
//!
//! # Example
//!
//! ```
//! use agile_guest::GuestOs;
//! use agile_mem::PhysMem;
//! use agile_types::AccessKind;
//! use agile_vmm::{Technique, Vmm};
//!
//! let mut mem = PhysMem::new();
//! let mut vmm = Vmm::new(&mut mem, Technique::Nested);
//! let mut os = GuestOs::new(false);
//! let pid = os.spawn(&mut mem, &mut vmm);
//! os.mmap(pid, 0x1000_0000, 1 << 20, true);
//! // Demand-fault a page in:
//! os.handle_page_fault(&mut mem, &mut vmm, pid, 0x1000_0000, AccessKind::Write).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod os;
mod vma;

pub use os::{FaultError, GuestOs, OsStats, SegFault};
pub use vma::{Vma, VmaBacking};
