//! Virtual memory areas of a guest process.

use agile_types::{CodecError, Dec, Enc, PageSize, Persist};

/// What backs a VMA's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaBacking {
    /// Anonymous memory: allocated on first touch.
    Anon,
    /// Copy-on-write: pages start read-only referencing a shared frame; a
    /// write allocates a private copy (content-based page sharing, fork,
    /// and memory-mapped-file semantics all reduce to this in the model).
    Cow,
}

agile_types::record! {
    /// One contiguous virtual memory area.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Vma {
        /// First virtual address (page-aligned).
        pub start: u64,
        /// Length in bytes (page-aligned).
        pub len: u64,
        /// Whether writes are permitted.
        pub writable: bool,
        /// Backing semantics.
        pub backing: VmaBacking,
        /// Largest page size demand faults may use here. 4 KiB by default;
        /// 2 MiB via transparent huge pages; 1 GiB only on explicit request
        /// (matching the paper's note that Linux does not use 1 GiB pages
        /// transparently but agile paging supports them, §V).
        pub max_page: PageSize,
    }
}

impl Vma {
    /// One-past-the-end address.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// True if `va` falls inside the area.
    #[must_use]
    pub fn contains(&self, va: u64) -> bool {
        va >= self.start && va < self.end()
    }

    /// True if the area is large enough and aligned so that the `base` page
    /// at `va` could be a transparent huge page of `size`.
    #[must_use]
    pub fn supports_huge(&self, va: u64, size: PageSize) -> bool {
        let huge_base = va & !size.offset_mask();
        huge_base >= self.start && huge_base + size.bytes() <= self.end()
    }
}

impl Persist for VmaBacking {
    fn save(&self, e: &mut Enc) {
        e.u8(match self {
            VmaBacking::Anon => 0,
            VmaBacking::Cow => 1,
        });
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(VmaBacking::Anon),
            1 => Ok(VmaBacking::Cow),
            b => d.fail(format!("bad VmaBacking tag {b}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma() -> Vma {
        Vma {
            start: 0x20_0000,
            len: 4 * 1024 * 1024,
            writable: true,
            backing: VmaBacking::Anon,
            max_page: PageSize::Size4K,
        }
    }

    #[test]
    fn bounds() {
        let v = vma();
        assert!(v.contains(0x20_0000));
        assert!(v.contains(v.end() - 1));
        assert!(!v.contains(v.end()));
        assert!(!v.contains(0x1f_ffff));
    }

    #[test]
    fn huge_support_needs_room_and_alignment() {
        let v = vma();
        // 0x20_0000 is 2M-aligned and the VMA holds two full 2M pages.
        assert!(v.supports_huge(0x20_0000, PageSize::Size2M));
        assert!(v.supports_huge(0x20_0000 + 0x12_3456, PageSize::Size2M));
        // The trailing edge cannot fit a huge page beyond the VMA.
        assert!(v.supports_huge(v.end() - 1, PageSize::Size2M));
        // A 1G page does not fit at all.
        assert!(!v.supports_huge(0x20_0000, PageSize::Size1G));
        // A small unaligned VMA cannot go huge.
        let small = Vma {
            start: 0x1000,
            len: 0x8000,
            writable: true,
            backing: VmaBacking::Anon,
            max_page: PageSize::Size4K,
        };
        assert!(!small.supports_huge(0x1000, PageSize::Size2M));
    }
}
