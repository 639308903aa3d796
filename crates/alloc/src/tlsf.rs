//! TLSF — Two-Level Segregated Fit (Masmano et al., RTSS 2004), the
//! de-facto allocator of hard-real-time systems.
//!
//! TLSF is the practical face of the paper's motivation: real-time
//! runtimes avoid compaction, so they need an allocator with *bounded*
//! response time — TLSF serves every request in O(1) by indexing free
//! blocks in a two-level structure (power-of-two first level, linear
//! second level) and accepting a *good-fit* (first block of the next
//! size class up) instead of a best-fit. The price is exactly what this
//! paper quantifies: as a non-moving manager, Robson's lower bound — and
//! every adversary in this repository — applies to it in full.
//!
//! This implementation follows the classic structure (first-level index
//! `fl = ⌊log₂ size⌋`, second-level split into `2^SL_BITS` ranges,
//! bitmap-guided lookup, immediate coalescing on free) over the
//! simulated address space. The bucket index keeps lazily-cleaned
//! min-heaps per bucket behind a real two-level nonempty bitmap (two
//! find-first-set probes per lookup). The seed `BTreeSet` buckets with a
//! linear `Vec<bool>` scan survive only as a test oracle
//! (`tests/oracle/`), which must choose identical blocks and report
//! identical probe counts.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};
use pcb_metrics::Histogram;

use crate::freelist::FreeSpace;
use crate::{publish_count, publish_samples};

/// Second-level subdivision: each power-of-two range splits into
/// `2^SL_BITS` buckets.
const SL_BITS: u32 = 3;
const SL_COUNT: u32 = 1 << SL_BITS;
/// Sizes below `2^FL_SHIFT` share the first first-level bucket per size.
const FL_SHIFT: u32 = SL_BITS;
/// First-level buckets (supports sizes up to `2^(FL_MAX + FL_SHIFT)`).
const FL_MAX: u32 = 40;
/// Total buckets.
const BUCKETS: usize = (FL_MAX * SL_COUNT) as usize;
/// Words in the bucket index's nonempty bitmap.
const BITMAP_WORDS: usize = BUCKETS.div_ceil(64);

/// A non-moving TLSF (good-fit, two-level segregated) manager.
///
/// ```
/// use pcb_alloc::TlsfManager;
/// let m = TlsfManager::new();
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "tlsf");
/// ```
#[derive(Debug, Clone)]
pub struct TlsfManager {
    index: BucketIndex,
    /// Ground-level bookkeeping shared with the rest of the suite (used
    /// only for coalescing lookups, not for placement decisions).
    mirror: FreeSpace,
    /// Bucket slots the placements' lookups scanned so far, published as
    /// the `manager.bucket_scan_len` counter.
    bucket_scans: u64,
    /// Requests served by a good-fit block (`tlsf.good_fit_serves`) and
    /// at the frontier (`tlsf.frontier_serves`); together, the placements.
    good_fit_serves: u64,
    frontier_serves: u64,
    /// Sampled only while the metrics registry is on: each lookup's
    /// bucket scan (`tlsf.probes`), request sizes (`alloc.size`) and the
    /// blocks served from (`tlsf.hole_size`).
    probes: Histogram,
    sizes: Histogram,
    holes: Histogram,
}

/// The two-level bucket index: lazily-cleaned min-heaps of `(start, len)`
/// per bucket, exact live counts, and a two-level nonempty bitmap
/// (`summary` has one bit per `words` entry) so a lookup is two
/// find-first-set probes.
#[derive(Debug, Clone)]
struct BucketIndex {
    heaps: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
    counts: Vec<u32>,
    words: [u64; BITMAP_WORDS],
    summary: u64,
}

impl Default for TlsfManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TlsfManager {
    /// Creates an empty TLSF manager.
    pub fn new() -> Self {
        TlsfManager {
            index: BucketIndex {
                heaps: (0..BUCKETS).map(|_| BinaryHeap::new()).collect(),
                counts: vec![0; BUCKETS],
                words: [0; BITMAP_WORDS],
                summary: 0,
            },
            mirror: FreeSpace::new(),
            bucket_scans: 0,
            good_fit_serves: 0,
            frontier_serves: 0,
            probes: Histogram::new(),
            sizes: Histogram::new(),
            holes: Histogram::new(),
        }
    }

    /// The `(fl, sl)` mapping of the classic algorithm.
    fn mapping(size: u64) -> (u32, u32) {
        debug_assert!(size > 0);
        if size < (1 << FL_SHIFT) {
            // Small sizes: fl 0, one sl bucket per size.
            (0, size as u32 - 1)
        } else {
            let fl = 63 - size.leading_zeros(); // floor log2
            let sl = ((size >> (fl - SL_BITS)) - (1 << SL_BITS)) as u32;
            (fl - FL_SHIFT + 1, sl)
        }
    }

    fn bucket_index(fl: u32, sl: u32) -> usize {
        (fl * SL_COUNT + sl) as usize
    }

    /// The bucket to *search* for a request: round up so that any block
    /// in the found bucket fits (the good-fit rule).
    fn search_mapping(size: u64) -> (u32, u32) {
        if size < (1 << FL_SHIFT) {
            return (0, size as u32 - 1);
        }
        let fl = 63 - size.leading_zeros();
        // Round the request up to the next sl boundary.
        let rounded = size + (1 << (fl - SL_BITS)) - 1;
        Self::mapping(rounded)
    }

    fn insert_block(&mut self, start: u64, len: u64) {
        let (fl, sl) = Self::mapping(len);
        let idx = Self::bucket_index(fl, sl);
        let index = &mut self.index;
        index.heaps[idx].push(Reverse((start, len)));
        index.counts[idx] += 1;
        index.words[idx / 64] |= 1 << (idx % 64);
        index.summary |= 1 << (idx / 64);
    }

    /// De-indexes a block of `len` words (its heap entry is left stale).
    fn remove_block(&mut self, len: u64) {
        let (fl, sl) = Self::mapping(len);
        let idx = Self::bucket_index(fl, sl);
        let index = &mut self.index;
        // Lazy deletion: only the count and bitmap move now; the stale
        // heap entry is discarded at the next lookup (its start no longer
        // matches a mirror gap of this length).
        index.counts[idx] -= 1;
        if index.counts[idx] == 0 {
            index.words[idx / 64] &= !(1 << (idx % 64));
            if index.words[idx / 64] == 0 {
                index.summary &= !(1 << (idx / 64));
            }
        }
        let heap = &mut index.heaps[idx];
        if heap.len() >= 64 && heap.len() as u64 > 4 * u64::from(index.counts[idx]) {
            let mirror = &self.mirror;
            let mut entries = std::mem::take(heap).into_vec();
            entries.sort_unstable();
            entries.dedup();
            entries.retain(|&Reverse((s, l))| {
                mirror
                    .gap_starting_at(Addr::new(s))
                    .is_some_and(|g| g.size().get() == l)
            });
            *heap = BinaryHeap::from(entries);
        }
    }

    /// Lowest-address live block in bucket `idx`, popping stale (lazily
    /// deleted) entries on the way.
    fn bucket_first(
        heaps: &mut [BinaryHeap<Reverse<(u64, u64)>>],
        idx: usize,
        mirror: &FreeSpace,
    ) -> Option<(u64, u64)> {
        let heap = &mut heaps[idx];
        while let Some(&Reverse((start, len))) = heap.peek() {
            let live = mirror
                .gap_starting_at(Addr::new(start))
                .is_some_and(|g| g.size().get() == len);
            if live {
                return Some((start, len));
            }
            heap.pop();
        }
        None
    }

    /// First nonempty bucket at or after `from`: one probe of the summary
    /// word, one of the selected bitmap word.
    fn first_nonempty_from(
        words: &[u64; BITMAP_WORDS],
        summary: u64,
        from: usize,
    ) -> Option<usize> {
        let w0 = from / 64;
        if w0 >= BITMAP_WORDS {
            return None;
        }
        let m = words[w0] & (!0u64 << (from % 64));
        if m != 0 {
            return Some(w0 * 64 + m.trailing_zeros() as usize);
        }
        if w0 + 1 >= BITMAP_WORDS {
            return None;
        }
        let ms = summary & (!0u64 << (w0 + 1));
        if ms == 0 {
            return None;
        }
        let w = ms.trailing_zeros() as usize;
        Some(w * 64 + words[w].trailing_zeros() as usize)
    }

    /// Finds a block of at least `size` words (the first non-empty bucket
    /// at or above the search mapping), plus the number of bucket slots a
    /// linear nonempty scan would examine: the classic algorithm's honest
    /// lookup cost, derived from the bitmap in O(1).
    fn find_block_traced(&mut self, size: u64) -> (Option<(u64, u64)>, u64) {
        let (fl, sl) = Self::search_mapping(size);
        let from = Self::bucket_index(fl, sl);
        let index = &mut self.index;
        match Self::first_nonempty_from(&index.words, index.summary, from) {
            Some(idx) => {
                let found = Self::bucket_first(&mut index.heaps, idx, &self.mirror)
                    .filter(|&(_, len)| len >= size);
                (found, (idx - from) as u64 + 1)
            }
            None => (None, BUCKETS.saturating_sub(from) as u64),
        }
    }

    /// Total free words indexed (diagnostics).
    pub fn indexed_free_words(&self) -> u64 {
        // Deduplicate and validate lazily-deleted entries.
        let live: BTreeSet<(u64, u64)> = self
            .index
            .heaps
            .iter()
            .flat_map(|h| h.iter())
            .map(|&Reverse(e)| e)
            .filter(|&(s, l)| {
                self.mirror
                    .gap_starting_at(Addr::new(s))
                    .is_some_and(|g| g.size().get() == l)
            })
            .collect();
        live.iter().map(|&(_, len)| len).sum()
    }

    /// Internal-consistency check for tests.
    #[cfg(test)]
    fn check_consistency(&self) {
        let BucketIndex {
            heaps,
            counts,
            words,
            summary,
        } = &self.index;
        let mut live = vec![0u32; BUCKETS];
        for g in self.mirror.gaps() {
            let (fl, sl) = Self::mapping(g.size().get());
            let idx = Self::bucket_index(fl, sl);
            live[idx] += 1;
            let present = heaps[idx]
                .iter()
                .any(|&Reverse(e)| e == (g.start().get(), g.size().get()));
            assert!(present, "gap {g:?} missing from bucket {idx}");
        }
        for idx in 0..BUCKETS {
            assert_eq!(counts[idx], live[idx], "count at {idx}");
            let bit = (words[idx / 64] >> (idx % 64)) & 1 == 1;
            assert_eq!(bit, counts[idx] > 0, "bitmap at {idx}");
        }
        for (w, &word) in words.iter().enumerate() {
            assert_eq!((summary >> w) & 1 == 1, word != 0, "summary at {w}");
        }
        assert_eq!(self.indexed_free_words(), self.mirror.gap_words().get());
    }
}

impl MemoryManager for TlsfManager {
    fn name(&self) -> &str {
        "tlsf"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let size = req.size.get();
        let (found, probes) = self.find_block_traced(size);
        self.bucket_scans += probes;
        if pcb_metrics::enabled() {
            self.probes.record(probes);
            self.sizes.record(size);
            if let Some((_, len)) = found {
                self.holes.record(len);
            }
        }
        match found {
            Some((start, len)) => {
                self.good_fit_serves += 1;
                self.remove_block(len);
                let taken = self.mirror.take_exact(Addr::new(start), req.size);
                debug_assert!(taken, "mirror agrees with the index");
                if len > size {
                    self.insert_block(start + size, len - size);
                }
                Ok(Addr::new(start))
            }
            None => {
                self.frontier_serves += 1;
                // Good-fit found nothing (a block one bucket down may
                // still have fit — that miss is TLSF's documented trade
                // for O(1) lookup): grow strictly at the frontier so the
                // index and the mirror stay in lockstep.
                let frontier = self.mirror.frontier();
                let taken = self.mirror.take_exact(frontier, req.size);
                debug_assert!(taken, "frontier space is always free");
                Ok(frontier)
            }
        }
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        // Coalesce through the mirror: de-index the adjacent gaps, release
        // into the mirror, then (re)index whatever merged gap results.
        if let Some(g) = self.mirror.gap_ending_at(addr) {
            self.remove_block(g.size().get());
        }
        if let Some(g) = self.mirror.gap_starting_at(addr + size) {
            self.remove_block(g.size().get());
        }
        self.mirror.release(addr, size);
        // If the release retreated the frontier there is nothing to index.
        if let Some(g) = self.mirror.gap_containing(addr) {
            self.insert_block(g.start().get(), g.size().get());
        }
    }

    fn publish_metrics(&self) {
        publish_count("manager.bucket_scan_len", self.bucket_scans);
        publish_count(
            "tlsf.placements",
            self.good_fit_serves + self.frontier_serves,
        );
        publish_count("tlsf.good_fit_serves", self.good_fit_serves);
        publish_count("tlsf.frontier_serves", self.frontier_serves);
        publish_samples("tlsf.probes", &self.probes);
        publish_samples("alloc.size", &self.sizes);
        publish_samples("tlsf.hole_size", &self.holes);
        self.mirror.publish_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn mapping_is_monotone_and_consistent() {
        let mut last = (0u32, 0u32);
        for size in 1..4096u64 {
            let (fl, sl) = TlsfManager::mapping(size);
            assert!(sl < SL_COUNT.max(1 << FL_SHIFT), "sl = {sl} at {size}");
            assert!((fl, sl) >= last, "mapping not monotone at {size}");
            last = (fl, sl);
            // Search mapping never points below the storage mapping.
            let s = TlsfManager::search_mapping(size);
            assert!(
                TlsfManager::bucket_index(s.0, s.1) >= TlsfManager::bucket_index(fl, sl),
                "search below storage at {size}"
            );
        }
    }

    #[test]
    fn good_fit_blocks_always_fit() {
        // Any block found via search_mapping must be large enough: seed
        // non-adjacent gaps of varied sizes, then probe every size.
        let mut m = TlsfManager::new();
        let taken = m.mirror.take_exact(Addr::new(0), Size::new(400));
        assert!(taken);
        for (start, len) in [(0u64, 5u64), (10, 8), (20, 13), (40, 64), (110, 200)] {
            m.mirror.release(Addr::new(start), Size::new(len));
            m.insert_block(start, len);
        }
        for size in 1..300u64 {
            if let (Some((_, len)), _) = m.find_block_traced(size) {
                assert!(len >= size, "found {len} for request {size}");
            }
        }
    }

    #[test]
    fn serves_scripts_and_reuses_space() {
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8, 8])
            .round([1, 2], [16, 4]);
        let mut exec = Execution::new(Heap::non_moving(), program, TlsfManager::new());
        let report = exec.run_summary().expect("tlsf serves the script");
        assert_eq!(report.objects_placed, 6);
        // The coalesced 16-word hole [8,24) absorbs the 16-word request.
        assert_eq!(report.heap_size, 36);
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn interleaved_churn_keeps_index_consistent() {
        let mut program = ScriptedProgram::new(Size::new(4096));
        let mut base = 0usize;
        for r in 0..12 {
            let sizes: Vec<u64> = (1..=16u64).map(|s| (s * (r + 1)) % 37 + 1).collect();
            let frees: Vec<usize> = if base > 0 {
                (base - 16..base).step_by(2).collect()
            } else {
                Vec::new()
            };
            program = program.round(frees, sizes);
            base += 16;
        }
        let mut exec = Execution::new(Heap::non_moving(), program, TlsfManager::new());
        exec.run_summary().expect("tlsf survives churn");
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn robson_adversary_applies_to_tlsf_too() {
        // TLSF is non-moving, so Robson's bound binds it like any other.
        use pcb_adversary::RobsonProgram;
        let (m, log_n) = (1u64 << 10, 5u32);
        let program = RobsonProgram::new(m, log_n);
        let mut exec = Execution::new(Heap::non_moving(), program, TlsfManager::new());
        let report = exec.run_summary().expect("P_R runs");
        let bound = RobsonProgram::robson_lower_bound(m, log_n);
        assert!(
            report.heap_size as f64 >= bound,
            "HS {} < Robson bound {bound}",
            report.heap_size
        );
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }
}
