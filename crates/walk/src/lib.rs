//! The hardware page walk for native, nested, shadow, and agile paging.
//!
//! This crate implements the paper's Figure 4 walk (agile paging with the
//! switching bit) as a *counted* walk over real radix tables in simulated
//! physical memory: every PTE load increments a reference counter, so the
//! paper's headline counts — 4 references for native/shadow, 24 for nested,
//! 4–20 for agile depending on the switch point — are structural outcomes,
//! not assumptions. Figure 4 contains the three Figure 2 walks: `sptr ==
//! gptr` is the nested 2D walk, and a walk that never meets a switching bit
//! is the 1D walk of native and shadow paging. So [`WalkHw::agile_walk`] is
//! the only walk, and a technique differs only in the [`AgileCr3`] state it
//! starts from.
//!
//! The walker also integrates the translation-caching hardware the paper's
//! measurements include: page walk caches ([`agile_tlb::PageWalkCaches`],
//! with agile paging's shadow/guest mode bit) and the nested TLB
//! ([`agile_tlb::NestedTlb`]).
//!
//! # Walk anatomy (x86-64, 4 KiB pages, no caches)
//!
//! | configuration                  | refs | composition |
//! |--------------------------------|------|-------------|
//! | native / full shadow           | 4    | 4 × 1D      |
//! | agile, switch at 4th level     | 8    | 3 shadow + 1 × (1 gPT + 4 hPT) |
//! | agile, switch at 3rd level     | 12   | 2 shadow + 2 × 5 |
//! | agile, switch at 2nd level     | 16   | 1 shadow + 3 × 5 |
//! | agile, switch at 1st level     | 20   | 0 shadow + 4 × 5 |
//! | full nested                    | 24   | 4 (gptr) + 4 × 5 |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hw;
mod result;

pub use hw::WalkHw;
pub use result::{AgileCr3, WalkKind, WalkOk, WalkStats};
