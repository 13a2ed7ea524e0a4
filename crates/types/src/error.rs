//! Faults raised by the simulated page-walk hardware.

use crate::{AccessKind, GuestPhysAddr, GuestVirtAddr, Level};

/// Why a walk faulted at some level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultCause {
    /// The entry's present bit was clear.
    NotPresent,
    /// The access was a write but the entry was read-only.
    WriteProtected,
    /// The entry set a bit that is reserved where it sits: the agile
    /// switching bit on a leaf, which has no next-level table to switch
    /// to. The analogue of x86's reserved-bit (RSVD) page fault.
    ReservedBit,
}

impl std::fmt::Display for FaultCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultCause::NotPresent => "not present",
            FaultCause::WriteProtected => "write to read-only mapping",
            FaultCause::ReservedBit => "reserved bit set",
        })
    }
}

/// A translation fault, delivered either to the guest OS (guest page fault)
/// or to the VMM (host page fault / EPT violation → VMexit).
///
/// Matches the paper's Figure 2 helper functions: `host_PT_access` raises a
/// *host* page fault (a VMexit under virtualization); `nested_PT_access`
/// raises a *guest* page fault for the guest OS to handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Fault in the guest page table: delivered to the guest OS.
    GuestPageFault {
        /// Faulting guest virtual address.
        gva: GuestVirtAddr,
        /// Page-table level at which the walk faulted.
        level: Level,
        /// Kind of access that faulted.
        access: AccessKind,
        /// Why it faulted.
        cause: FaultCause,
    },
    /// Fault in the host page table while translating a guest physical
    /// address: a VMexit, delivered to the VMM.
    HostPageFault {
        /// Faulting guest physical address.
        gpa: GuestPhysAddr,
        /// Host page-table level at which the walk faulted.
        level: Level,
        /// Kind of access that faulted.
        access: AccessKind,
        /// Why it faulted.
        cause: FaultCause,
    },
    /// Fault in a shadow page-table entry. The VMM inspects the guest page
    /// table to decide whether this is a *hidden* fault (shadow entry merely
    /// missing or stale — VMM fixes it up) or a *true* guest fault to inject.
    ShadowPageFault {
        /// Faulting guest virtual address.
        gva: GuestVirtAddr,
        /// Shadow page-table level at which the walk faulted.
        level: Level,
        /// Kind of access that faulted.
        access: AccessKind,
        /// Why it faulted.
        cause: FaultCause,
    },
}

impl Fault {
    /// The level at which the fault occurred.
    #[must_use]
    pub fn level(&self) -> Level {
        match self {
            Fault::GuestPageFault { level, .. }
            | Fault::HostPageFault { level, .. }
            | Fault::ShadowPageFault { level, .. } => *level,
        }
    }

    /// The cause of the fault.
    #[must_use]
    pub fn cause(&self) -> FaultCause {
        match self {
            Fault::GuestPageFault { cause, .. }
            | Fault::HostPageFault { cause, .. }
            | Fault::ShadowPageFault { cause, .. } => *cause,
        }
    }

    /// True if the fault is handled by the VMM (host or shadow fault).
    #[must_use]
    pub fn is_vmm_handled(&self) -> bool {
        !matches!(self, Fault::GuestPageFault { .. })
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::GuestPageFault {
                gva,
                level,
                access,
                cause,
            } => write!(f, "guest page fault at {gva} ({level}, {access}): {cause}"),
            Fault::HostPageFault {
                gpa,
                level,
                access,
                cause,
            } => write!(f, "host page fault at {gpa} ({level}, {access}): {cause}"),
            Fault::ShadowPageFault {
                gva,
                level,
                access,
                cause,
            } => write!(f, "shadow page fault at {gva} ({level}, {access}): {cause}"),
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    fn guest_fault() -> Fault {
        Fault::GuestPageFault {
            gva: GuestVirtAddr::new(0x1000),
            level: Level::L1,
            access: AccessKind::Write,
            cause: FaultCause::NotPresent,
        }
    }

    #[test]
    fn accessors() {
        let f = guest_fault();
        assert_eq!(f.level(), Level::L1);
        assert_eq!(f.cause(), FaultCause::NotPresent);
        assert!(!f.is_vmm_handled());
    }

    #[test]
    fn host_faults_go_to_vmm() {
        let f = Fault::HostPageFault {
            gpa: GuestPhysAddr::new(0x2000),
            level: Level::L2,
            access: AccessKind::Read,
            cause: FaultCause::NotPresent,
        };
        assert!(f.is_vmm_handled());
        assert!(f.to_string().contains("host page fault"));
    }

    #[test]
    fn shadow_faults_go_to_vmm() {
        let f = Fault::ShadowPageFault {
            gva: GuestVirtAddr::new(0x3000),
            level: Level::L1,
            access: AccessKind::Write,
            cause: FaultCause::WriteProtected,
        };
        assert!(f.is_vmm_handled());
        assert!(f.to_string().contains("read-only"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let f: Box<dyn std::error::Error> = Box::new(guest_fault());
        assert!(f.to_string().contains("guest page fault"));
    }
}
