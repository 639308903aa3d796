//! Manager-side free-space index.
//!
//! [`FreeSpace`] tracks the gaps of a manager's heap view and answers
//! the classic fit policies without scanning every hole — essential
//! because the paper's adversaries deliberately shatter the heap into
//! hundreds of thousands of holes. It keeps only what its callers read,
//! in flat structures instead of ordered trees:
//!
//! * two [`StartBits`] hierarchical bitmaps, one bit per gap start and
//!   one per gap's last word: a gap's length is the distance to the next
//!   end bit, a coalesce lookup is one bit test plus a predecessor probe,
//!   and ordered iteration is a handful of word operations;
//! * [`LenBounds`], lazy upper bounds on gap length over the start
//!   bitmap's blocks (64, 4 096 and 262 144 addresses): first-fit is one
//!   descent to the lowest start whose gap fits, which tightens every
//!   stale block it searches in vain;
//! * exact size-class counts `1..=SMALL_MAX` with a nonempty bitmap, so a
//!   request no gap can serve is answered without touching a gap; gaps
//!   larger than `SMALL_MAX` go to a small overflow
//!   `BTreeSet<(len, start)>` (adversarial workloads produce very few
//!   distinct large sizes);
//! * per-class lazily-cleaned min-heaps of starts for best- and
//!   worst-fit, built from the gaps on the first such query and
//!   maintained only from then on.
//!
//! The seed `BTreeMap<u64, u64>` address mirror plus `BTreeSet<(len,
//! start)>` size index survives only as a test oracle
//! (`tests/oracle/`); `tests/manager_equivalence.rs` drives both in
//! lockstep and demands identical addresses and gap structure.
//!
//! The address space is unbounded above: everything at or beyond the
//! *frontier* is free. Gaps below the frontier are kept disjoint,
//! non-empty, and fully coalesced (no two adjacent gaps, no gap
//! touching the frontier).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use pcb_heap::{Addr, Extent, Size};

use crate::indexed::{LenBounds, StartBits};

/// Largest gap length tracked by an exact size class; longer gaps go to
/// the overflow tree.
const SMALL_MAX: u64 = 256;
/// Words in the class-nonempty bitmap (bit `len - 1` for class `len`).
const CLASS_WORDS: usize = (SMALL_MAX as usize).div_ceil(64);

/// Placement policies over a [`FreeSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitPolicy {
    /// Lowest-address gap that fits.
    FirstFit,
    /// Smallest gap that fits (ties: lowest address).
    BestFit,
    /// Largest gap (if it fits; ties: lowest address).
    WorstFit,
    /// Lowest-address fitting gap at or after a roving cursor, wrapping
    /// around once (the cursor is owned by the caller).
    NextFit,
}

impl FitPolicy {
    /// All policies, for exhaustive tests and benches.
    pub const ALL: [FitPolicy; 4] = [
        FitPolicy::FirstFit,
        FitPolicy::BestFit,
        FitPolicy::WorstFit,
        FitPolicy::NextFit,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FitPolicy::FirstFit => "first-fit",
            FitPolicy::BestFit => "best-fit",
            FitPolicy::WorstFit => "worst-fit",
            FitPolicy::NextFit => "next-fit",
        }
    }
}

/// Free-space index with coalescing and an unbounded frontier.
///
/// ```
/// use pcb_alloc::{FitPolicy, FreeSpace};
/// use pcb_heap::{Addr, Size};
/// let mut fs = FreeSpace::new();
/// let a = fs.take(Size::new(10), FitPolicy::FirstFit); // from frontier
/// assert_eq!(a, (Addr::new(0), None));
/// fs.release(Addr::new(2), Size::new(3)); // punch a hole
/// let b = fs.take(Size::new(3), FitPolicy::FirstFit); // reuses the hole
/// assert_eq!(b, (Addr::new(2), Some(3)));
/// ```
#[derive(Debug, Clone)]
pub struct FreeSpace {
    /// One bit per gap start, for ordered iteration and pred/succ.
    starts: StartBits,
    /// One bit per gap's last word: a gap runs from its start bit to the
    /// next end bit.
    ends: StartBits,
    /// Upper bounds on gap length per `starts` block, for first-fit.
    bounds: LenBounds,
    /// Lazily-cleaned min-heaps of starts, indexed by exact length;
    /// empty until the first best- or worst-fit pick builds them.
    classes: Vec<BinaryHeap<Reverse<u64>>>,
    /// Live gaps per exact class (heaps may hold stale extras).
    counts: [u32; SMALL_MAX as usize + 1],
    /// Bit `len - 1` set iff `counts[len] > 0`.
    nonempty: [u64; CLASS_WORDS],
    /// `(len, start)` for gaps longer than [`SMALL_MAX`].
    overflow: BTreeSet<(u64, u64)>,
    /// Interior gap count, maintained incrementally.
    n_gaps: usize,
    /// Total interior gap words, maintained incrementally.
    total_words: u64,
    /// Everything at or above this address is free.
    frontier: u64,
    /// Neighbouring gaps merged by releases so far, published as the
    /// `manager.coalesce_merges` counter. [`clear`](Self::clear) keeps
    /// it: a manager that rebuilds its view mid-run still reports the
    /// whole run's merges.
    coalesce_merges: u64,
}

impl Default for FreeSpace {
    fn default() -> Self {
        Self {
            starts: StartBits::default(),
            ends: StartBits::default(),
            bounds: LenBounds::default(),
            classes: Vec::new(),
            counts: [0; SMALL_MAX as usize + 1],
            nonempty: [0; CLASS_WORDS],
            overflow: BTreeSet::new(),
            n_gaps: 0,
            total_words: 0,
            frontier: 0,
            coalesce_merges: 0,
        }
    }
}

impl FreeSpace {
    /// Creates an index with the whole address space free.
    pub fn new() -> Self {
        Self::default()
    }

    /// One past the highest address ever handed out.
    pub fn frontier(&self) -> Addr {
        Addr::new(self.frontier)
    }

    /// Number of interior gaps.
    pub fn gap_count(&self) -> usize {
        self.n_gaps
    }

    /// Total words in interior gaps.
    pub fn gap_words(&self) -> Size {
        Size::new(self.total_words)
    }

    /// Iterates over interior gaps in address order.
    pub fn gaps(&self) -> impl Iterator<Item = Extent> + '_ {
        Gaps {
            fs: self,
            next: self.starts.succ(0),
        }
    }

    /// The largest interior gap (zero when there is none).
    pub fn largest_gap(&self) -> Size {
        if let Some(&(len, _)) = self.overflow.iter().next_back() {
            return Size::new(len);
        }
        Size::new(self.last_class_nonempty().unwrap_or(0))
    }

    /// The gap ending exactly at `addr`, if any.
    pub fn gap_ending_at(&self, addr: Addr) -> Option<Extent> {
        let start = self.gap_end_lookup(addr.get())?;
        Some(Extent::from_raw(start, addr.get() - start))
    }

    /// The start of the gap ending exactly at `end`, if any: one end-bit
    /// test, then the predecessor start is the gap's.
    fn gap_end_lookup(&self, end: u64) -> Option<u64> {
        if end == 0 || !self.ends.contains(end - 1) {
            return None;
        }
        self.starts.pred(end)
    }

    /// The length of the gap starting at `start`, which must be a gap
    /// start: the distance to the next end bit.
    #[inline]
    fn len_at(&self, start: u64) -> u64 {
        gap_len(&self.ends, start)
    }

    /// The length of the gap starting exactly at `start`, if any.
    fn len_if_start(&self, start: u64) -> Option<u64> {
        self.starts.contains(start).then(|| self.len_at(start))
    }

    /// The gap starting exactly at `addr`, if any.
    pub fn gap_starting_at(&self, addr: Addr) -> Option<Extent> {
        self.len_if_start(addr.get())
            .map(|l| Extent::from_raw(addr.get(), l))
    }

    /// The gap containing `addr`, if any.
    pub fn gap_containing(&self, addr: Addr) -> Option<Extent> {
        let (start, len) = self.gap_at_or_before(addr.get())?;
        (addr.get() < start + len).then(|| Extent::from_raw(start, len))
    }

    /// The gap with the highest start at or below `at`, if any.
    fn gap_at_or_before(&self, at: u64) -> Option<(u64, u64)> {
        let start = self.starts.pred(at.saturating_add(1))?;
        Some((start, self.len_at(start)))
    }

    fn gap_insert(&mut self, start: u64, len: u64) {
        self.starts.set(start);
        self.ends.set(start + len - 1);
        self.size_insert(start, len);
    }

    fn gap_remove(&mut self, start: u64) -> u64 {
        debug_assert!(self.starts.contains(start), "gap exists when removed");
        let len = self.len_at(start);
        self.starts.clear(start);
        self.ends.clear(start + len - 1);
        self.size_remove(start, len);
        len
    }

    /// Counts the gap `[start, start + len)` in the size indexes and the
    /// length bounds; its boundary bits are the caller's.
    fn size_insert(&mut self, start: u64, len: u64) {
        debug_assert!(len > 0);
        debug_assert!(start + len <= self.frontier);
        self.bounds.raise(start, len);
        if len <= SMALL_MAX {
            let idx = len as usize;
            self.counts[idx] += 1;
            self.nonempty[(idx - 1) / 64] |= 1 << ((idx - 1) % 64);
            if let Some(heap) = self.classes.get_mut(idx) {
                heap.push(Reverse(start));
            }
        } else {
            self.overflow.insert((len, start));
        }
        self.n_gaps += 1;
        self.total_words += len;
    }

    /// Uncounts the gap `[start, start + len)` from the size indexes
    /// (the length bounds stay, as looser upper bounds).
    fn size_remove(&mut self, start: u64, len: u64) {
        if len <= SMALL_MAX {
            let idx = len as usize;
            self.counts[idx] -= 1;
            if self.counts[idx] == 0 {
                self.nonempty[(idx - 1) / 64] &= !(1 << ((idx - 1) % 64));
            }
            self.maybe_compact_class(idx);
        } else {
            let present = self.overflow.remove(&(len, start));
            debug_assert!(present, "size index and gap bitmaps agree");
        }
        self.n_gaps -= 1;
        self.total_words -= len;
    }

    /// Builds the per-class heaps from the gaps on first use; from then
    /// on every insert maintains them.
    fn build_classes(&mut self) {
        if !self.classes.is_empty() {
            return;
        }
        let mut starts: Vec<Vec<Reverse<u64>>> = vec![Vec::new(); SMALL_MAX as usize + 1];
        for gap in self.gaps() {
            if let Some(class) = starts.get_mut(gap.size().get() as usize) {
                class.push(Reverse(gap.start().get()));
            }
        }
        self.classes = starts.into_iter().map(BinaryHeap::from).collect();
    }

    /// Rebuilds a class heap once stale (lazily deleted) entries
    /// outnumber live ones 4:1, bounding memory without touching the
    /// hot path.
    fn maybe_compact_class(&mut self, idx: usize) {
        let heap_len = self.classes.get(idx).map_or(0, BinaryHeap::len);
        if heap_len < 64 || heap_len as u64 <= 4 * u64::from(self.counts[idx]) {
            return;
        }
        let mut starts = std::mem::take(&mut self.classes[idx]).into_vec();
        starts.sort_unstable_by_key(|&Reverse(s)| s);
        starts.dedup();
        starts.retain(|&Reverse(s)| self.len_if_start(s) == Some(idx as u64));
        self.classes[idx] = BinaryHeap::from(starts);
    }

    /// Lowest live start in exact class `len` (the heaps must be built);
    /// pops stale heap entries on the way (an entry is live iff the gap
    /// at its start still has exactly this length).
    fn class_min(&mut self, len: u64) -> Option<u64> {
        while let Some(&Reverse(start)) = self.classes[len as usize].peek() {
            if self.len_if_start(start) == Some(len) {
                return Some(start);
            }
            self.classes[len as usize].pop();
        }
        None
    }

    /// Whether any exact class in `[s, SMALL_MAX]` is nonempty
    /// (callers guarantee `1 <= s <= SMALL_MAX`).
    fn any_class_at_least(&self, s: u64) -> bool {
        self.first_class_at_least(s).is_some()
    }

    /// Lowest nonempty exact class `>= s` (callers guarantee
    /// `1 <= s <= SMALL_MAX`).
    fn first_class_at_least(&self, s: u64) -> Option<u64> {
        let start_bit = (s - 1) as usize;
        let mut w = start_bit / 64;
        let mut mask = self.nonempty[w] & (!0u64 << (start_bit % 64));
        loop {
            if mask != 0 {
                return Some((w * 64 + mask.trailing_zeros() as usize + 1) as u64);
            }
            w += 1;
            if w >= CLASS_WORDS {
                return None;
            }
            mask = self.nonempty[w];
        }
    }

    /// Highest nonempty exact class, if any.
    fn last_class_nonempty(&self) -> Option<u64> {
        for w in (0..CLASS_WORDS).rev() {
            let m = self.nonempty[w];
            if m != 0 {
                return Some((w * 64 + 63 - m.leading_zeros() as usize + 1) as u64);
            }
        }
        None
    }

    fn any_fits(&self, s: u64) -> bool {
        if s <= SMALL_MAX {
            self.any_class_at_least(s) || !self.overflow.is_empty()
        } else {
            self.overflow.range((s, 0)..).next().is_some()
        }
    }

    /// The lowest-address gap of length `>= s`.
    ///
    /// No-fit requests (common under fragmentation: every hole is smaller
    /// than the ask, the object goes to the frontier) are answered by the
    /// class bitmap without touching a single gap; every other request is
    /// one descent of the length bounds.
    fn pick_first(&mut self, s: u64) -> Option<u64> {
        if !self.any_fits(s) {
            return None;
        }
        let ends = &self.ends;
        self.bounds
            .first_at_least(&self.starts, s, |start| gap_len(ends, start))
    }

    fn pick_best(&mut self, s: u64) -> Option<u64> {
        if s <= SMALL_MAX {
            if let Some(len) = self.first_class_at_least(s) {
                self.build_classes();
                return self.class_min(len);
            }
        }
        self.overflow
            .range((s, 0)..)
            .next()
            .map(|&(_, start)| start)
    }

    fn pick_worst(&mut self, s: u64) -> Option<u64> {
        if let Some(&(max_len, _)) = self.overflow.iter().next_back() {
            if max_len < s {
                return None;
            }
            return self
                .overflow
                .range((max_len, 0)..)
                .next()
                .map(|&(_, start)| start);
        }
        let max_len = self.last_class_nonempty()?;
        if max_len < s {
            return None;
        }
        self.build_classes();
        self.class_min(max_len)
    }

    fn take_frontier(&mut self, size: u64) -> Addr {
        let at = self.frontier;
        self.frontier += size;
        Addr::new(at)
    }

    /// Carves `size` words off the front of the gap at `start`; returns
    /// the gap's length.
    fn carve(&mut self, start: u64, size: u64) -> u64 {
        self.carve_at(start, start, size)
    }

    /// Carves `[at, at + size)` out of the gap starting at `start` and
    /// returns the gap's length. The remainders keep the gap's outer
    /// boundary bits; only the cut edges move.
    fn carve_at(&mut self, start: u64, at: u64, size: u64) -> u64 {
        let len = self.len_at(start);
        debug_assert!(start <= at && at + size <= start + len);
        self.size_remove(start, len);
        if at > start {
            self.ends.set(at - 1);
            self.size_insert(start, at - start);
        } else {
            self.starts.clear(start);
        }
        let tail = (start + len) - (at + size);
        if tail > 0 {
            self.starts.set(at + size);
            self.size_insert(at + size, tail);
        } else {
            self.ends.clear(start + len - 1);
        }
        len
    }

    /// Claims `size` words according to `policy` (with
    /// [`FitPolicy::NextFit`] behaving like first-fit; use
    /// [`take_next_fit`](Self::take_next_fit) to supply a cursor).
    /// Returns the placement and the length of the gap it was carved
    /// from, or `None` when the frontier served it.
    ///
    /// Never fails: the frontier always fits.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take(&mut self, size: Size, policy: FitPolicy) -> (Addr, Option<u64>) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let pick = match policy {
            FitPolicy::FirstFit | FitPolicy::NextFit => self.pick_first(s),
            FitPolicy::BestFit => self.pick_best(s),
            FitPolicy::WorstFit => self.pick_worst(s),
        };
        match pick {
            Some(start) => (Addr::new(start), Some(self.carve(start, s))),
            None => (self.take_frontier(s), None),
        }
    }

    /// Like [`take`](Self::take), but fails instead of letting the frontier
    /// pass `limit` (for arena-bounded managers). Interior gaps are always
    /// acceptable since they lie below the frontier.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn try_take_within(&mut self, size: Size, policy: FitPolicy, limit: u64) -> Option<Addr> {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let pick = match policy {
            FitPolicy::FirstFit | FitPolicy::NextFit => self.pick_first(s),
            FitPolicy::BestFit => self.pick_best(s),
            FitPolicy::WorstFit => self.pick_worst(s),
        };
        match pick {
            Some(start) => {
                self.carve(start, s);
                Some(Addr::new(start))
            }
            None if self.frontier + s <= limit => Some(self.take_frontier(s)),
            None => None,
        }
    }

    /// First fitting gap at or after `from`, wrapping once, and the
    /// number of gaps examined.
    fn scan_next_fit(&self, from: u64, s: u64) -> (Option<u64>, u64) {
        let mut probes = 0;
        let mut cur = self.starts.succ(from);
        while let Some(start) = cur {
            probes += 1;
            let len = self.len_at(start);
            if len >= s {
                return (Some(start), probes);
            }
            cur = self.starts.succ(start + len);
        }
        let mut cur = self.starts.succ(0);
        while let Some(start) = cur {
            if start >= from {
                break;
            }
            probes += 1;
            let len = self.len_at(start);
            if len >= s {
                return (Some(start), probes);
            }
            cur = self.starts.succ(start + len);
        }
        (None, probes)
    }

    /// Next-fit with an explicit roving cursor; updates the cursor to
    /// just past the placement. Returns the placement, the length of the
    /// gap it was carved from (`None` for the frontier) and the probes
    /// spent: one for the any-fits pre-check plus one per gap examined.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> (Addr, Option<u64>, u64) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let (found, scanned) = if self.any_fits(s) {
            self.scan_next_fit(cursor.get(), s)
        } else {
            (None, 0)
        };
        let (addr, gap_len) = match found {
            Some(start) => (Addr::new(start), Some(self.carve(start, s))),
            None => (self.take_frontier(s), None),
        };
        *cursor = addr + size;
        (addr, gap_len, 1 + scanned)
    }

    /// Claims `size` words at the lowest address that is a multiple of
    /// `align`. Linear in the number of gaps; prefer the buddy structure
    /// for hot aligned workloads.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or zero alignment.
    pub fn take_aligned(&mut self, size: Size, align: u64) -> Addr {
        assert!(!size.is_zero(), "cannot take zero words");
        assert!(align > 0, "alignment must be positive");
        let s = size.get();
        // A gap shorter than `s` cannot serve any alignment (aligning up
        // only shrinks the usable span), so the address-order scan can
        // start at the lowest gap of length >= s instead of gap zero —
        // the first-fit descent answers that.
        let mut found = None;
        let mut cur = self.pick_first(s);
        while let Some(start) = cur {
            let len = self.len_at(start);
            let a = Addr::new(start).align_up(align).get();
            if a + s <= start + len {
                found = Some((start, a));
                break;
            }
            cur = self.starts.succ(start + len);
        }
        match found {
            Some((start, at)) => {
                self.carve_at(start, at, s);
                Addr::new(at)
            }
            None => {
                let at = Addr::new(self.frontier).align_up(align).get();
                if at > self.frontier {
                    let skip_start = self.frontier;
                    self.frontier = at + s;
                    self.gap_insert(skip_start, at - skip_start);
                    self.coalesce_around(skip_start);
                } else {
                    self.frontier = at + s;
                }
                Addr::new(at)
            }
        }
    }

    /// Claims the specific extent `[start, start+size)` if it is entirely
    /// free; returns whether it succeeded.
    pub fn take_exact(&mut self, start: Addr, size: Size) -> bool {
        if size.is_zero() {
            return true;
        }
        let s = size.get();
        let at = start.get();
        if at >= self.frontier {
            let skip_start = self.frontier;
            self.frontier = at + s;
            if at > skip_start {
                self.gap_insert(skip_start, at - skip_start);
                self.coalesce_around(skip_start);
            }
            return true;
        }
        let Some((gstart, glen)) = self.gap_at_or_before(at) else {
            return false;
        };
        if at + s > gstart + glen {
            return false;
        }
        self.carve_at(gstart, at, s);
        true
    }

    /// Whether the extent `[start, start+size)` is entirely free.
    pub fn is_free(&self, start: Addr, size: Size) -> bool {
        if size.is_zero() {
            return true;
        }
        let at = start.get();
        let s = size.get();
        if at >= self.frontier {
            return true;
        }
        match self.gap_at_or_before(at) {
            Some((gstart, glen)) => at >= gstart && at + s <= gstart + glen,
            None => false,
        }
    }

    /// Returns `[start, start+size)` to the free pool, coalescing with
    /// neighbouring gaps and the frontier.
    ///
    /// # Panics
    ///
    /// Debug-panics if the range is already free (double release).
    pub fn release(&mut self, start: Addr, size: Size) {
        if size.is_zero() {
            return;
        }
        let at = start.get();
        let len = size.get();
        debug_assert!(
            at + len <= self.frontier,
            "released range [{at}, {}) must be below the frontier {}",
            at + len,
            self.frontier
        );
        let end = at + len;
        debug_assert!(
            self.gap_at_or_before(end - 1)
                .is_none_or(|(s, l)| s + l <= at),
            "released range [{at}, {end}) is already free"
        );
        let prev = self.gap_end_lookup(at);
        if end == self.frontier {
            // The freed range touches the frontier (so no gap follows
            // it): retreat over it and its predecessor gap instead of
            // recording a gap.
            self.frontier = match prev {
                Some(pstart) => {
                    self.gap_remove(pstart);
                    pstart
                }
                None => at,
            };
            self.coalesce_merges += u64::from(prev.is_some());
            return;
        }
        // A merge only moves the boundary bits on the freed range's
        // edges: the absorbed neighbours' outer bits become the merged
        // gap's, and the merged gap is counted once.
        let mut merges = 0u64;
        let mut gap_start = at;
        if let Some(pstart) = prev {
            self.size_remove(pstart, at - pstart);
            self.ends.clear(at - 1);
            gap_start = pstart;
            merges += 1;
        } else {
            self.starts.set(at);
        }
        let mut gap_end = end;
        if self.starts.contains(end) {
            let nlen = self.len_at(end);
            self.size_remove(end, nlen);
            self.starts.clear(end);
            gap_end += nlen;
            merges += 1;
        } else {
            self.ends.set(end - 1);
        }
        self.size_insert(gap_start, gap_end - gap_start);
        self.coalesce_merges += merges;
    }

    fn coalesce_around(&mut self, at: u64) {
        let mut merges = 0u64;
        let mut start = at;
        let mut len = self.len_at(at);
        // Merge with the predecessor: one end-bit test.
        if let Some(pstart) = self.gap_end_lookup(start) {
            let plen = self.gap_remove(pstart);
            self.gap_remove(start);
            start = pstart;
            len += plen;
            self.gap_insert(start, len);
            merges += 1;
        }
        // Merge with the successor: one start-bit test.
        if self.starts.contains(start + len) {
            self.gap_remove(start);
            let nlen = self.gap_remove(start + len);
            len += nlen;
            self.gap_insert(start, len);
            merges += 1;
        }
        // Retreat the frontier over a gap that now touches it.
        if start + len == self.frontier {
            self.gap_remove(start);
            self.frontier = start;
        }
        self.coalesce_merges += merges;
    }

    /// Forgets every gap, making the whole space free again (used by
    /// managers that rebuild their view after a full compaction). The
    /// coalesce-merge count is the run's, so it survives.
    pub fn clear(&mut self) {
        self.starts.clear_all();
        self.ends.clear_all();
        self.bounds.clear_all();
        for heap in &mut self.classes {
            heap.clear();
        }
        self.counts = [0; SMALL_MAX as usize + 1];
        self.nonempty = [0; CLASS_WORDS];
        self.overflow.clear();
        self.n_gaps = 0;
        self.total_words = 0;
        self.frontier = 0;
    }

    /// Publishes the run's coalesce merges and the index's high-water
    /// marks into the `pcb-metrics` registry, once at the end of a run; a
    /// relaxed-load no-op while the registry is off.
    pub fn publish_metrics(&self) {
        if !pcb_metrics::enabled() {
            return;
        }
        crate::publish_count("manager.coalesce_merges", self.coalesce_merges);
        pcb_metrics::record_gauge_max("manager.mirror_gaps", self.n_gaps as u64);
        let slab: usize = self.classes.iter().map(BinaryHeap::len).sum();
        pcb_metrics::record_gauge_max("manager.slab_high_water", slab as u64);
    }

    /// Internal-consistency check for tests: the indexes agree, gaps are
    /// disjoint, coalesced, non-empty, and below the frontier; the length
    /// bounds cover every gap from above, and the class heaps, once
    /// built, hold every small gap.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        let mut n = 0usize;
        let mut words = 0u64;
        let mut counts = [0u32; SMALL_MAX as usize + 1];
        let mut big = 0usize;
        let mut heaped: Vec<(u64, u64)> = (self.classes.iter().enumerate())
            .flat_map(|(len, heap)| heap.iter().map(move |&Reverse(s)| (len as u64, s)))
            .collect();
        heaped.sort_unstable();
        let mut cur = self.starts.succ(0);
        while let Some(start) = cur {
            let Some(last) = self.ends.succ(start) else {
                return Err(format!("gap at {start} has no end bit"));
            };
            let len = last + 1 - start;
            let next = self.starts.succ(start + 1);
            if next.is_some_and(|next| next <= last) {
                return Err(format!(
                    "gap at {start} has no end bit before the next start"
                ));
            }
            if let Some(pe) = prev_end {
                if start == pe {
                    return Err(format!("uncoalesced gaps at {start}"));
                }
            }
            if start + len > self.frontier {
                return Err(format!("gap [{start},{}) above frontier", start + len));
            }
            if start + len == self.frontier {
                return Err(format!("gap touching frontier at {start}"));
            }
            if self.gap_end_lookup(start + len) != Some(start) {
                return Err(format!("gap [{start},{len}] not found by end lookup"));
            }
            if let Some(bound) = self.bounds.covering(start).iter().find(|&&b| b < len) {
                return Err(format!(
                    "gap [{start},{len}] exceeds its length bound {bound}"
                ));
            }
            if len <= SMALL_MAX {
                counts[len as usize] += 1;
                if !self.classes.is_empty() && heaped.binary_search(&(len, start)).is_err() {
                    return Err(format!("gap [{start},{len}] missing from its class heap"));
                }
            } else {
                if !self.overflow.contains(&(len, start)) {
                    return Err(format!("gap [{start},{len}] missing from size index"));
                }
                big += 1;
            }
            n += 1;
            words += len;
            prev_end = Some(start + len);
            cur = next;
        }
        if n != self.n_gaps {
            return Err(format!("gap count mismatch: {n} != {}", self.n_gaps));
        }
        if words != self.total_words {
            return Err(format!(
                "gap words mismatch: {words} != {}",
                self.total_words
            ));
        }
        let mut end_bits = 0usize;
        let mut cur = self.ends.succ(0);
        while let Some(last) = cur {
            end_bits += 1;
            cur = self.ends.succ(last + 1);
        }
        if end_bits != n {
            return Err(format!("{end_bits} end bits for {n} gaps"));
        }
        if self.overflow.len() != big {
            return Err(format!(
                "overflow tree has {} entries for {big} large gaps",
                self.overflow.len()
            ));
        }
        for (c, &count) in counts.iter().enumerate().skip(1) {
            if count != self.counts[c] {
                return Err(format!(
                    "class {c} count mismatch: {} != {}",
                    count, self.counts[c]
                ));
            }
            let bit = (self.nonempty[(c - 1) / 64] >> ((c - 1) % 64)) & 1 == 1;
            if bit != (count > 0) {
                return Err(format!("class {c} nonempty bit out of sync"));
            }
        }
        Ok(())
    }
}

/// Address-ordered gap iterator over a [`FreeSpace`].
struct Gaps<'a> {
    fs: &'a FreeSpace,
    next: Option<u64>,
}

impl Iterator for Gaps<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        let start = self.next?;
        let len = self.fs.len_at(start);
        self.next = self.fs.starts.succ(start + len);
        Some(Extent::from_raw(start, len))
    }
}

/// The length of the gap starting at `start`: the distance to the next
/// end bit (gaps are disjoint, so that bit is this gap's last word).
#[inline]
fn gap_len(ends: &StartBits, start: u64) -> u64 {
    ends.succ(start).expect("every gap start has an end") + 1 - start
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_holes() -> FreeSpace {
        // Layout: [0,4) used, [4,8) free, [8,20) used, [20,30) free, [30,40) used.
        let mut fs = FreeSpace::new();
        let a = fs.take(Size::new(40), FitPolicy::FirstFit);
        assert_eq!(a, (Addr::new(0), None));
        fs.release(Addr::new(4), Size::new(4));
        fs.release(Addr::new(20), Size::new(10));
        fs.check_invariants().unwrap();
        fs
    }

    #[test]
    fn first_fit_prefers_lowest_address() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit).0, Addr::new(4));
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit).0, Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_prefers_tightest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::BestFit).0, Addr::new(4));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn worst_fit_prefers_largest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::WorstFit).0, Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn frontier_used_when_nothing_fits() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(11), FitPolicy::FirstFit).0, Addr::new(40));
        assert_eq!(fs.frontier(), Addr::new(51));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn release_coalesces_both_sides_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(30), FitPolicy::FirstFit);
        fs.release(Addr::new(0), Size::new(10));
        fs.release(Addr::new(20), Size::new(5));
        fs.release(Addr::new(10), Size::new(10)); // bridges both gaps
        fs.check_invariants().unwrap();
        assert_eq!(fs.gap_count(), 1);
        assert_eq!(fs.gap_words(), Size::new(25));
        fs.release(Addr::new(25), Size::new(5)); // touches frontier: retreat
        fs.check_invariants().unwrap();
        assert_eq!(fs.frontier(), Addr::new(0));
        assert_eq!(fs.gap_count(), 0);
    }

    #[test]
    fn next_fit_roves_and_wraps() {
        let mut fs = fs_with_holes();
        let mut cursor = Addr::new(10);
        // From 10: first fitting gap at/after 10 is [20,30), the first
        // gap examined.
        let got = fs.take_next_fit(Size::new(2), &mut cursor);
        assert_eq!(got, (Addr::new(20), Some(10), 2));
        assert_eq!(cursor, Addr::new(22));
        // [22,30) fits again.
        let got = fs.take_next_fit(Size::new(8), &mut cursor);
        assert_eq!(got, (Addr::new(22), Some(8), 2));
        // Nothing at/after 30 fits 4 words; wraps to [4,8).
        let got = fs.take_next_fit(Size::new(4), &mut cursor);
        assert_eq!(got, (Addr::new(4), Some(4), 2));
        // Nothing interior fits 4 words; the any-fits check sends it to
        // the frontier without examining a gap.
        let got = fs.take_next_fit(Size::new(4), &mut cursor);
        assert_eq!(got, (Addr::new(40), None, 1));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn aligned_take_from_gap_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(33), FitPolicy::FirstFit);
        fs.release(Addr::new(5), Size::new(12)); // gap [5,17)
                                                 // Aligned to 8: candidate 8, needs [8,16) ⊆ [5,17) ✓
        assert_eq!(fs.take_aligned(Size::new(8), 8), Addr::new(8));
        fs.check_invariants().unwrap();
        // Next aligned-8 request: gap remnants [5,8) and [16,17) too small;
        // frontier 33 aligns up to 40, leaving [33,40) as a gap.
        assert_eq!(fs.take_aligned(Size::new(8), 8), Addr::new(40));
        fs.check_invariants().unwrap();
        assert!(fs.is_free(Addr::new(33), Size::new(7)));
        assert_eq!(fs.frontier(), Addr::new(48));
    }

    #[test]
    fn take_exact_inside_gap_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(20), FitPolicy::FirstFit);
        fs.release(Addr::new(4), Size::new(8)); // gap [4,12)
        assert!(fs.take_exact(Addr::new(6), Size::new(4))); // middle of the gap
        fs.check_invariants().unwrap();
        assert!(!fs.take_exact(Addr::new(10), Size::new(4))); // [10,14) partly used
        assert!(fs.take_exact(Addr::new(30), Size::new(5))); // frontier, skips [20,30)
        fs.check_invariants().unwrap();
        assert!(fs.is_free(Addr::new(20), Size::new(10)));
        assert_eq!(fs.frontier(), Addr::new(35));
    }

    #[test]
    fn is_free_queries() {
        let fs = fs_with_holes();
        assert!(fs.is_free(Addr::new(4), Size::new(4)));
        assert!(!fs.is_free(Addr::new(4), Size::new(5)));
        assert!(!fs.is_free(Addr::new(0), Size::new(1)));
        assert!(fs.is_free(Addr::new(40), Size::new(1_000_000)));
        assert!(fs.is_free(Addr::new(25), Size::new(5)));
        assert!(!fs.is_free(Addr::new(25), Size::new(6)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut fs = fs_with_holes();
        fs.clear();
        assert_eq!(fs.frontier(), Addr::ZERO);
        assert_eq!(fs.gap_count(), 0);
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit).0, Addr::new(0));
    }

    #[test]
    fn traced_take_reports_gap_and_frontier() {
        for policy in [FitPolicy::FirstFit, FitPolicy::BestFit] {
            let mut fs = fs_with_holes();
            assert_eq!(fs.take(Size::new(4), policy), (Addr::new(4), Some(4)));
            let frontier_serve = fs.take(Size::new(11), policy);
            assert_eq!(frontier_serve, (Addr::new(40), None), "{policy:?}");
        }
        let mut fs = fs_with_holes();
        assert_eq!(
            fs.take(Size::new(4), FitPolicy::WorstFit),
            (Addr::new(20), Some(10))
        );
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<_> = FitPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["first-fit", "best-fit", "worst-fit", "next-fit"]);
    }

    #[test]
    fn many_interleaved_ops_keep_invariants() {
        let mut fs = FreeSpace::new();
        let mut live: Vec<(Addr, Size)> = Vec::new();
        for i in 0..500u64 {
            let size = Size::new(1 + (i * 7) % 13);
            let (addr, _) = fs.take(size, FitPolicy::ALL[(i % 4) as usize]);
            live.push((addr, size));
            if i % 3 == 0 {
                let (a, s) = live.remove((i as usize * 5) % live.len());
                fs.release(a, s);
            }
            fs.check_invariants().unwrap();
        }
    }
}
