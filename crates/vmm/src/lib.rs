//! The virtual machine monitor substrate.
//!
//! This crate models the hypervisor side of the paper: host page table (EPT)
//! management, shadow page table construction and synchronization, VMexit /
//! VMtrap accounting with a cycle cost model, the **agile paging** mode
//! manager with its switching policies (paper Section III), the two optional
//! hardware optimizations (Section IV), and the SHSP baseline (Wang et al.,
//! discussed in Section VII-C).
//!
//! Everything the guest OS does to its page table flows through [`Vmm`]
//! mediation methods ([`Vmm::gpt_map`], [`Vmm::gpt_unmap`],
//! [`Vmm::gpt_update`], …). That mirrors the real interception boundary:
//! under shadow paging those writes hit write-protected pages and cost
//! VMtraps; under nested paging (or agile paging's nested parts) they are
//! direct and free. The accounting difference between the techniques is
//! therefore produced by the same mechanism the paper describes, not wired
//! in by hand.
//!
//! # Example
//!
//! ```
//! use agile_mem::PhysMem;
//! use agile_vmm::{Technique, Vmm};
//! use agile_types::{PageSize, PteFlags, ProcessId};
//!
//! let mut mem = PhysMem::new();
//! let mut vmm = Vmm::new(&mut mem, Technique::Shadow);
//! let pid = ProcessId::new(1);
//! vmm.create_process(&mut mem, pid);
//! let gframe = vmm.alloc_guest_frame(&mut mem);
//! vmm.gpt_map(&mut mem, pid, 0x40_0000, gframe, PageSize::Size4K, PteFlags::WRITABLE);
//! assert!(vmm.gpt_lookup(&mem, pid, 0x40_0000).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod flush;
mod proc;
mod shsp;
mod traps;
mod vmm;

pub use config::{AgileOptions, NestedToShadowPolicy, ShspOptions, Technique};
pub use flush::{coalesce, CoalesceStats, CoalescedRange, FlushBatch, TLB_RANGE_SWEEP_CAP};
pub use proc::{GptPageInfo, GptPageMode, HwRoots};
pub use shsp::{ShspController, ShspMode};
pub use traps::{VmtrapCosts, VmtrapKind, VmtrapStats};
pub use vmm::{FaultOutcome, FlushRequest, Vmm, VmmCounters};
