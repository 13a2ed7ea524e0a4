//! Access patterns over a paged region.

use agile_types::SplitMix64;

/// How a workload picks the next page to touch within its footprint.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Uniform random page (worst case for the TLB: graph500/canneal
    /// style).
    Uniform,
    /// Zipf-distributed page popularity with parameter `theta` (0 < theta),
    /// hot head + long tail (memcached/tigr style).
    Zipf {
        /// Skew exponent; larger is more skewed.
        theta: f64,
    },
    /// Sequential sweep with the given stride in pages (streaming style).
    Sequential {
        /// Stride in pages per access.
        stride_pages: u64,
    },
    /// Dependent-chain random walk (mcf pointer-chasing style): the next
    /// page is a pseudo-random function of the current one.
    PointerChase,
    /// A hot set receiving most accesses plus a cold tail (astar/gcc
    /// style).
    Hotspot {
        /// Fraction of the footprint that is hot (0, 1].
        hot_fraction: f64,
        /// Probability an access goes to the hot set.
        hot_probability: f64,
    },
}

/// Stateful page selector for a footprint of `pages` pages.
#[derive(Debug, Clone)]
pub struct PagePicker {
    pattern: Pattern,
    pages: u64,
    cursor: u64,
    /// Cumulative zipf weights, built lazily (index = page).
    zipf_cdf: Vec<f64>,
    /// Guide table over `zipf_cdf` with K + 1 entries, K a power of two:
    /// entry b is the first rank whose CDF value is at least b / K.
    zipf_guide: Vec<u32>,
}

impl PagePicker {
    /// Creates a picker over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    #[must_use]
    pub fn new(pattern: Pattern, pages: u64) -> Self {
        assert!(pages > 0, "footprint must hold at least one page");
        let zipf_cdf = match &pattern {
            Pattern::Zipf { theta } => {
                // Cap the CDF table; pages beyond the cap share the tail
                // mass uniformly (keeps memory bounded for large
                // footprints without changing the hot head).
                let n = pages.min(1 << 16) as usize;
                let mut cdf = Vec::with_capacity(n);
                let mut total = 0.0;
                for i in 0..n {
                    total += 1.0 / ((i + 1) as f64).powf(*theta);
                    cdf.push(total);
                }
                for v in &mut cdf {
                    *v /= total;
                }
                cdf
            }
            _ => Vec::new(),
        };
        let zipf_guide = if zipf_cdf.is_empty() {
            Vec::new()
        } else {
            let k = zipf_cdf.len().next_power_of_two();
            (0..=k)
                .map(|b| {
                    let edge = b as f64 / k as f64;
                    zipf_cdf.partition_point(|p| *p < edge) as u32
                })
                .collect()
        };
        PagePicker {
            pattern,
            pages,
            cursor: 0,
            zipf_cdf,
            zipf_guide,
        }
    }

    /// The Zipf rank a uniform `u` in [0, 1) selects: the rank
    /// `binary_search_by` finds for `u` in the CDF, clamped to the last.
    /// With K a power of two, `u * K` is exact, so u's bucket
    /// b = floor(u * K) has b / K <= u < (b + 1) / K exactly, and the first
    /// rank whose CDF value is at least `u` lies between guide entries b
    /// and b + 1: a search of the handful of ranks between them. Where no
    /// CDF value equals `u`, that first rank is the insertion point
    /// `binary_search_by` returns. Where one does, which of equal values
    /// `binary_search_by` reports is its own choice, so that rare case
    /// asks it.
    fn zipf_rank(&self, u: f64) -> u64 {
        let cdf = &self.zipf_cdf;
        let n = cdf.len();
        let k = self.zipf_guide.len() - 1;
        let b = (u * k as f64) as usize;
        let (lo, hi) = (self.zipf_guide[b] as usize, self.zipf_guide[b + 1] as usize);
        let first = (lo + cdf[lo..hi].partition_point(|p| *p < u)).min(n - 1);
        if cdf[first].partial_cmp(&u).expect("finite") != std::cmp::Ordering::Equal {
            return first as u64;
        }
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
            Ok(i) | Err(i) => i.min(n - 1) as u64,
        }
    }

    /// Picks the next page index in `[0, pages)`.
    pub fn next_page(&mut self, rng: &mut SplitMix64) -> u64 {
        match &self.pattern {
            Pattern::Uniform => rng.below(self.pages),
            Pattern::Zipf { .. } => {
                let rank = self.zipf_rank(rng.next_f64());
                let n = self.zipf_cdf.len();
                if rank as usize == n - 1 && self.pages > n as u64 {
                    // Tail mass: spread over the remaining pages.
                    rng.range(n as u64 - 1, self.pages)
                } else {
                    // Scatter ranks over the footprint deterministically so
                    // hot pages are not all physically adjacent.
                    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.pages
                }
            }
            Pattern::Sequential { stride_pages } => {
                let page = self.cursor;
                self.cursor = (self.cursor + stride_pages) % self.pages;
                page
            }
            Pattern::PointerChase => {
                // Next node = hash of current (a fixed pseudo-random
                // permutation walk).
                self.cursor = self
                    .cursor
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    % self.pages;
                self.cursor
            }
            Pattern::Hotspot {
                hot_fraction,
                hot_probability,
            } => {
                let hot_pages = ((self.pages as f64 * hot_fraction) as u64).max(1);
                if rng.next_bool(*hot_probability) {
                    rng.below(hot_pages)
                } else {
                    rng.below(self.pages)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn uniform_stays_in_range_and_spreads() {
        let mut p = PagePicker::new(Pattern::Uniform, 1000);
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let page = p.next_page(&mut r);
            assert!(page < 1000);
            seen.insert(page);
        }
        assert!(seen.len() > 500, "uniform should cover most pages");
    }

    #[test]
    fn zipf_is_skewed() {
        let mut p = PagePicker::new(Pattern::Zipf { theta: 1.0 }, 10_000);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(p.next_page(&mut r)).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 1000, "zipf head should dominate, max={max}");
        assert!(counts.len() > 100, "zipf tail should exist");
    }

    #[test]
    fn sequential_strides() {
        let mut p = PagePicker::new(Pattern::Sequential { stride_pages: 3 }, 10);
        let mut r = rng();
        let seq: Vec<u64> = (0..5).map(|_| p.next_page(&mut r)).collect();
        assert_eq!(seq, vec![0, 3, 6, 9, 2]);
    }

    #[test]
    fn pointer_chase_is_deterministic() {
        let mut a = PagePicker::new(Pattern::PointerChase, 777);
        let mut b = PagePicker::new(Pattern::PointerChase, 777);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..100 {
            assert_eq!(a.next_page(&mut r1), b.next_page(&mut r2));
        }
    }

    #[test]
    fn hotspot_prefers_the_hot_set() {
        let mut p = PagePicker::new(
            Pattern::Hotspot {
                hot_fraction: 0.01,
                hot_probability: 0.9,
            },
            10_000,
        );
        let mut r = rng();
        let hot_limit = 100;
        let mut hot = 0;
        for _ in 0..10_000 {
            if p.next_page(&mut r) < hot_limit {
                hot += 1;
            }
        }
        assert!(
            hot > 8000,
            "hot set should absorb ~90% of accesses, got {hot}"
        );
    }

    /// The Zipf rank before the guide table: a binary search of the whole
    /// CDF.
    fn binary_search_rank(cdf: &[f64], u: f64) -> u64 {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
            Ok(i) | Err(i) => i.min(cdf.len() - 1) as u64,
        }
    }

    /// `next_page` for a Zipf picker before the guide table.
    fn binary_search_next_page(p: &PagePicker, rng: &mut SplitMix64) -> u64 {
        let n = p.zipf_cdf.len();
        let rank = binary_search_rank(&p.zipf_cdf, rng.next_f64());
        if rank as usize == n - 1 && p.pages > n as u64 {
            rng.range(n as u64 - 1, p.pages)
        } else {
            rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % p.pages
        }
    }

    /// The guided search returns the binary search's rank for every u it
    /// could go wrong on (each bucket edge b / K, each CDF value, and the
    /// doubles either side of both) and for seeded draws; the last
    /// footprint is past the CDF cap, so draws take the tail path too.
    #[test]
    fn guided_zipf_rank_equals_the_binary_search() {
        const DRAWS: u64 = 1 << 16;
        let around = |u: f64| {
            [
                f64::from_bits(u.to_bits() - 1),
                u,
                f64::from_bits(u.to_bits() + 1),
            ]
        };
        let mut draws = 0;
        for theta in [0.7, 0.8, 0.85, 1.0] {
            for pages in [32, 8_192, 32_768, 65_536, 100_000] {
                let mut p = PagePicker::new(Pattern::Zipf { theta }, pages);
                let cdf = p.zipf_cdf.clone();
                let k = p.zipf_guide.len() - 1;
                assert!(k.is_power_of_two() && k >= cdf.len());
                let edges = (1..k).map(|b| b as f64 / k as f64);
                let values = cdf.iter().copied().filter(|&c| c > 0.0 && c < 1.0);
                for u in edges.chain(values).flat_map(around).chain([0.0]) {
                    assert_eq!(
                        p.zipf_rank(u),
                        binary_search_rank(&cdf, u),
                        "theta {theta} pages {pages} u {u:e}"
                    );
                }
                let seed = SplitMix64::derive(0x21_9f, pages ^ theta.to_bits());
                let (mut guided, mut searched) = (SplitMix64::new(seed), SplitMix64::new(seed));
                for i in 0..DRAWS {
                    assert_eq!(
                        p.next_page(&mut guided),
                        binary_search_next_page(&p, &mut searched),
                        "theta {theta} pages {pages} draw {i}"
                    );
                }
                draws += DRAWS;
            }
        }
        assert!(draws >= 1_000_000);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_pages_panics() {
        let _ = PagePicker::new(Pattern::Uniform, 0);
    }
}
