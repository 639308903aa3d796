//! Manager-side free-space index.
//!
//! [`FreeSpace`] tracks the gaps of a manager's heap view and answers
//! the classic fit policies without scanning every hole — essential
//! because the paper's adversaries deliberately shatter the heap into
//! hundreds of thousands of holes. It answers every query from flat
//! structures instead of ordered trees:
//!
//! * an [`AddrMap`] — an open-addressed `u64 -> u64` hash — from gap
//!   start to length, so coalescing is O(1) lookups;
//! * a [`StartBits`] hierarchical bitmap over gap starts giving
//!   predecessor/successor/iteration in a handful of word operations;
//! * exact size classes `1..=SMALL_MAX` — per-class lazily-cleaned
//!   min-heaps of starts plus a nonempty bitmap, so first/best/worst fit
//!   are popcount scans; gaps larger than `SMALL_MAX` go to a small
//!   overflow `BTreeSet<(len, start)>` (adversarial workloads produce
//!   very few distinct large sizes).
//!
//! The seed `BTreeMap<u64, u64>` address mirror plus `BTreeSet<(len,
//! start)>` size index survives only as a test oracle
//! (`tests/oracle/`); `tests/manager_equivalence.rs` drives both in
//! lockstep and demands identical addresses and probe counts.
//!
//! The address space is unbounded above: everything at or beyond the
//! *frontier* is free. Gaps below the frontier are kept disjoint,
//! non-empty, and fully coalesced (no two adjacent gaps, no gap
//! touching the frontier).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use pcb_heap::{Addr, Extent, Size};

use crate::indexed::{AddrMap, StartBits};

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

/// Cost and shape statistics for a single traced take.
///
/// Produced by [`FreeSpace::take_traced`]/[`FreeSpace::take_next_fit_traced`]
/// so managers can report placement effort without altering any placement
/// decision (the traced variants choose exactly the same addresses as the
/// untraced ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeStats {
    /// Index probes performed while choosing the gap: size-class range
    /// probes for first/best/worst fit, gaps examined for next-fit.
    pub probes: u64,
    /// Length of the gap the placement was carved from, or `None` when
    /// the request was served from the frontier.
    pub gap_len: Option<u64>,
}

/// Free-space index with coalescing and an unbounded frontier.
///
/// ```
/// use pcb_alloc::{FitPolicy, FreeSpace};
/// use pcb_heap::{Addr, Size};
/// let mut fs = FreeSpace::new();
/// let a = fs.take(Size::new(10), FitPolicy::FirstFit); // from frontier
/// assert_eq!(a, Addr::new(0));
/// fs.release(Addr::new(2), Size::new(3)); // punch a hole
/// let b = fs.take(Size::new(3), FitPolicy::FirstFit); // reuses the hole
/// assert_eq!(b, Addr::new(2));
/// ```
#[derive(Debug, Clone)]
pub struct FreeSpace {
    /// start -> length, gaps strictly below the frontier.
    by_start: AddrMap,
    /// One bit per gap start, for ordered iteration and pred/succ.
    bits: StartBits,
    /// Lazily-cleaned min-heaps of starts, indexed by exact length.
    classes: Vec<BinaryHeap<Reverse<u64>>>,
    /// Live gaps per exact class (heaps may hold stale extras).
    counts: Vec<u32>,
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
}

impl Default for FreeSpace {
    fn default() -> Self {
        Self {
            by_start: AddrMap::default(),
            bits: StartBits::default(),
            classes: (0..=SMALL_MAX).map(|_| BinaryHeap::new()).collect(),
            counts: vec![0; SMALL_MAX as usize + 1],
            nonempty: [0; CLASS_WORDS],
            overflow: BTreeSet::new(),
            n_gaps: 0,
            total_words: 0,
            frontier: 0,
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
            next: self.bits.succ(0),
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

    /// The start of the gap ending exactly at `end`, if any: the
    /// predecessor start below `end` plus a length check. Replaces a
    /// dedicated end-keyed hash map — the bitmap predecessor probe is
    /// comparable on lookup and free on every insert/remove.
    fn gap_end_lookup(&self, end: u64) -> Option<u64> {
        let start = self.bits.pred(end)?;
        let len = self.by_start.get(start).expect("bit set implies gap");
        (start + len == end).then_some(start)
    }

    /// The gap starting exactly at `addr`, if any.
    pub fn gap_starting_at(&self, addr: Addr) -> Option<Extent> {
        self.by_start
            .get(addr.get())
            .map(|l| Extent::from_raw(addr.get(), l))
    }

    /// The gap containing `addr`, if any.
    pub fn gap_containing(&self, addr: Addr) -> Option<Extent> {
        let (start, len) = self.gap_at_or_before(addr.get())?;
        (addr.get() < start + len).then(|| Extent::from_raw(start, len))
    }

    /// The gap with the highest start at or below `at`, if any.
    fn gap_at_or_before(&self, at: u64) -> Option<(u64, u64)> {
        let start = self.bits.pred(at.saturating_add(1))?;
        let len = self.by_start.get(start).expect("bit set implies gap");
        Some((start, len))
    }

    fn gap_insert(&mut self, start: u64, len: u64) {
        debug_assert!(len > 0);
        debug_assert!(start + len <= self.frontier);
        self.by_start.insert(start, len);
        self.bits.set(start);
        if len <= SMALL_MAX {
            let idx = len as usize;
            self.counts[idx] += 1;
            self.nonempty[(idx - 1) / 64] |= 1 << ((idx - 1) % 64);
            self.classes[idx].push(Reverse(start));
        } else {
            self.overflow.insert((len, start));
        }
        self.n_gaps += 1;
        self.total_words += len;
    }

    fn gap_remove(&mut self, start: u64) -> u64 {
        let len = self
            .by_start
            .remove(start)
            .expect("gap exists when removed");
        self.bits.clear(start);
        if len <= SMALL_MAX {
            let idx = len as usize;
            self.counts[idx] -= 1;
            if self.counts[idx] == 0 {
                self.nonempty[(idx - 1) / 64] &= !(1 << ((idx - 1) % 64));
            }
            self.maybe_compact_class(idx);
        } else {
            let present = self.overflow.remove(&(len, start));
            debug_assert!(present, "size index and address map agree");
        }
        self.n_gaps -= 1;
        self.total_words -= len;
        len
    }

    /// Rebuilds a class heap once stale (lazily deleted) entries
    /// outnumber live ones 4:1, bounding memory without touching the
    /// hot path.
    fn maybe_compact_class(&mut self, idx: usize) {
        let heap_len = self.classes[idx].len();
        if heap_len < 64 || heap_len as u64 <= 4 * u64::from(self.counts[idx]) {
            return;
        }
        let mut starts = std::mem::take(&mut self.classes[idx]).into_vec();
        starts.sort_unstable_by_key(|&Reverse(s)| s);
        starts.dedup();
        starts.retain(|&Reverse(s)| self.by_start.get(s) == Some(idx as u64));
        self.classes[idx] = BinaryHeap::from(starts);
    }

    /// Lowest live start in exact class `len`; pops stale heap entries
    /// on the way (an entry is live iff the gap at its start still has
    /// exactly this length).
    fn class_min(&mut self, len: u64) -> Option<u64> {
        let heap = &mut self.classes[len as usize];
        while let Some(&Reverse(start)) = heap.peek() {
            if self.by_start.get(start) == Some(len) {
                return Some(start);
            }
            heap.pop();
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

    /// Min start over every fitting size class: exact classes come from
    /// the nonempty bitmap, large classes hop the overflow tree.
    ///
    /// Fast path first: the answer is the lowest-address fitting gap, and
    /// for small requests the lowest-address gap usually fits outright,
    /// so a bounded address-order probe beats merging every fitting size
    /// class. Degenerate populations (a long run of too-small gaps at the
    /// bottom) fall back to the class merge, so the worst case only adds
    /// a constant.
    fn pick_first(&mut self, s: u64) -> Option<u64> {
        // No-fit requests (common under fragmentation: every hole is
        // smaller than the ask, the object goes to the frontier) are
        // answered by the class bitmap without touching a single gap.
        if !self.any_fits(s) {
            return None;
        }
        const SCAN_CAP: u32 = 16;
        let mut cur = self.bits.succ(0);
        for _ in 0..SCAN_CAP {
            let Some(start) = cur else {
                return None; // no gap left can fit
            };
            let len = self.by_start.get(start).expect("bit set implies gap");
            if len >= s {
                return Some(start);
            }
            cur = self.bits.succ(start + 1);
        }
        let (best, _) = self.pick_first_inner(s);
        best
    }

    /// `pick_first` plus its probe count: one per distinct fitting size
    /// class present, plus the final empty probe.
    fn pick_first_traced(&mut self, s: u64) -> (Option<u64>, u64) {
        self.pick_first_inner(s)
    }

    fn pick_first_inner(&mut self, s: u64) -> (Option<u64>, u64) {
        let mut best: Option<u64> = None;
        let mut probes = 0u64;
        if s <= SMALL_MAX {
            let start_bit = (s - 1) as usize;
            let mut w = start_bit / 64;
            let mut mask = self.nonempty[w] & (!0u64 << (start_bit % 64));
            loop {
                while mask != 0 {
                    let len = (w * 64 + mask.trailing_zeros() as usize + 1) as u64;
                    mask &= mask - 1;
                    let m = self.class_min(len).expect("nonempty class has a member");
                    best = Some(best.map_or(m, |b| b.min(m)));
                    probes += 1;
                }
                w += 1;
                if w >= CLASS_WORDS {
                    break;
                }
                mask = self.nonempty[w];
            }
        }
        let mut from = s;
        while let Some(&(len, start)) = self.overflow.range((from, 0)..).next() {
            best = Some(best.map_or(start, |b| b.min(start)));
            probes += 1;
            match len.checked_add(1) {
                Some(next) => from = next,
                None => return (best, probes), // no size class can follow
            }
        }
        (best, probes + 1)
    }

    fn pick_best(&mut self, s: u64) -> Option<u64> {
        if s <= SMALL_MAX {
            if let Some(len) = self.first_class_at_least(s) {
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
        self.class_min(max_len)
    }

    fn take_frontier(&mut self, size: u64) -> Addr {
        let at = self.frontier;
        self.frontier += size;
        Addr::new(at)
    }

    fn carve(&mut self, start: u64, size: u64) -> Addr {
        self.carve_at(start, start, size)
    }

    fn carve_at(&mut self, start: u64, at: u64, size: u64) -> Addr {
        let len = self.gap_remove(start);
        debug_assert!(start <= at && at + size <= start + len);
        if at > start {
            self.gap_insert(start, at - start);
        }
        let tail = (start + len) - (at + size);
        if tail > 0 {
            self.gap_insert(at + size, tail);
        }
        Addr::new(at)
    }

    /// Claims `size` words according to `policy` (with
    /// [`FitPolicy::NextFit`] behaving like first-fit; use
    /// [`take_next_fit`](Self::take_next_fit) to supply a cursor).
    ///
    /// Never fails: the frontier always fits.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take(&mut self, size: Size, policy: FitPolicy) -> Addr {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let pick = match policy {
            FitPolicy::FirstFit | FitPolicy::NextFit => self.pick_first(s),
            FitPolicy::BestFit => self.pick_best(s),
            FitPolicy::WorstFit => self.pick_worst(s),
        };
        match pick {
            Some(start) => self.carve(start, s),
            None => self.take_frontier(s),
        }
    }

    /// Like [`take`](Self::take), but also reports how many index probes
    /// the policy performed and the size of the gap it carved from.
    /// Chooses exactly the same address as [`take`](Self::take).
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take_traced(&mut self, size: Size, policy: FitPolicy) -> (Addr, TakeStats) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let (pick, probes) = match policy {
            FitPolicy::FirstFit | FitPolicy::NextFit => self.pick_first_traced(s),
            FitPolicy::BestFit => (self.pick_best(s), 1),
            FitPolicy::WorstFit => (self.pick_worst(s), 2),
        };
        match pick {
            Some(start) => {
                let gap_len = self.by_start.get(start);
                (self.carve(start, s), TakeStats { probes, gap_len })
            }
            None => (
                self.take_frontier(s),
                TakeStats {
                    probes,
                    gap_len: None,
                },
            ),
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
            Some(start) => Some(self.carve(start, s)),
            None if self.frontier + s <= limit => Some(self.take_frontier(s)),
            None => None,
        }
    }

    /// First fitting gap at or after `from`, wrapping once; `probes`
    /// counts gaps examined when tracing.
    fn scan_next_fit(&self, from: u64, s: u64, mut probes: Option<&mut u64>) -> Option<u64> {
        let mut cur = self.bits.succ(from);
        while let Some(start) = cur {
            if let Some(p) = probes.as_deref_mut() {
                *p += 1;
            }
            let len = self.by_start.get(start).expect("bit set implies gap");
            if len >= s {
                return Some(start);
            }
            cur = self.bits.succ(start + 1);
        }
        let mut cur = self.bits.succ(0);
        while let Some(start) = cur {
            if start >= from {
                break;
            }
            if let Some(p) = probes.as_deref_mut() {
                *p += 1;
            }
            let len = self.by_start.get(start).expect("bit set implies gap");
            if len >= s {
                return Some(start);
            }
            cur = self.bits.succ(start + 1);
        }
        None
    }

    /// Next-fit with an explicit roving cursor; returns the placement and
    /// updates the cursor to just past it.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> Addr {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let from = cursor.get();
        let found = if self.any_fits(s) {
            self.scan_next_fit(from, s, None)
        } else {
            None
        };
        let addr = match found {
            Some(start) => self.carve(start, s),
            None => self.take_frontier(s),
        };
        *cursor = addr + size;
        addr
    }

    /// Like [`take_next_fit`](Self::take_next_fit), but also reports how
    /// many gaps were examined and the size of the gap carved from.
    /// Chooses exactly the same address and cursor update.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    pub fn take_next_fit_traced(&mut self, size: Size, cursor: &mut Addr) -> (Addr, TakeStats) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let from = cursor.get();
        let mut probes = 1u64; // the any-fits pre-check
        let found = if self.any_fits(s) {
            self.scan_next_fit(from, s, Some(&mut probes))
        } else {
            None
        };
        let (addr, gap_len) = match found {
            Some(start) => {
                let gap_len = self.by_start.get(start);
                (self.carve(start, s), gap_len)
            }
            None => (self.take_frontier(s), None),
        };
        *cursor = addr + size;
        (addr, TakeStats { probes, gap_len })
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
        // the size index answers that in O(classes).
        let mut found = None;
        let mut cur = self.pick_first(s);
        while let Some(start) = cur {
            let len = self.by_start.get(start).expect("bit set implies gap");
            let a = Addr::new(start).align_up(align).get();
            if a + s <= start + len {
                found = Some((start, a));
                break;
            }
            cur = self.bits.succ(start + 1);
        }
        match found {
            Some((start, at)) => self.carve_at(start, at, s),
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
        // Resolve both neighbor merges before touching the size index:
        // the merged gap is written once, instead of being inserted,
        // removed and re-inserted per absorbed neighbor.
        let mut merges = 0u64;
        let mut gap_start = at;
        let mut gap_len = len;
        if let Some(pstart) = self.gap_end_lookup(at) {
            gap_len += self.gap_remove(pstart);
            gap_start = pstart;
            merges += 1;
        }
        if self.by_start.get(at + len).is_some() {
            gap_len += self.gap_remove(at + len);
            merges += 1;
        }
        if gap_start + gap_len == self.frontier {
            // The freed range touches the frontier: retreat over it
            // instead of recording a gap.
            self.frontier = gap_start;
        } else {
            self.gap_insert(gap_start, gap_len);
        }
        Self::note_coalesce_merges(merges);
    }

    fn note_coalesce_merges(merges: u64) {
        if merges > 0 && pcb_metrics::enabled() {
            static COALESCES: pcb_metrics::Counter =
                pcb_metrics::Counter::new("manager.coalesce_merges");
            COALESCES.add(merges);
        }
    }

    fn coalesce_around(&mut self, at: u64) {
        let mut merges = 0u64;
        let mut start = at;
        let mut len = self.by_start.get(at).expect("gap just inserted");
        // Merge with the predecessor: O(1) via the end index.
        if let Some(pstart) = self.gap_end_lookup(start) {
            let plen = self.gap_remove(pstart);
            self.gap_remove(start);
            start = pstart;
            len += plen;
            self.gap_insert(start, len);
            merges += 1;
        }
        // Merge with the successor: O(1) via the start index.
        if self.by_start.get(start + len).is_some() {
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
        Self::note_coalesce_merges(merges);
    }

    /// Forgets everything, making the whole space free again (used by
    /// managers that rebuild their view after a full compaction).
    pub fn clear(&mut self) {
        self.by_start.clear();
        self.bits.clear_all();
        for heap in &mut self.classes {
            heap.clear();
        }
        self.counts.fill(0);
        self.nonempty = [0; CLASS_WORDS];
        self.overflow.clear();
        self.n_gaps = 0;
        self.total_words = 0;
        self.frontier = 0;
    }

    /// Publishes index high-water marks into the `pcb-metrics` plane; a
    /// relaxed-load no-op while the plane is detached.
    pub fn publish_metrics(&self) {
        if !pcb_metrics::enabled() {
            return;
        }
        static GAPS_HIGH: pcb_metrics::Gauge = pcb_metrics::Gauge::new("manager.mirror_gaps");
        static SLAB_HIGH: pcb_metrics::Gauge = pcb_metrics::Gauge::new("manager.slab_high_water");
        GAPS_HIGH.record_max(self.n_gaps as u64);
        let slab: usize = self.classes.iter().map(BinaryHeap::len).sum();
        SLAB_HIGH.record_max(slab as u64);
    }

    /// Internal-consistency check for tests: the indexes agree, gaps are
    /// disjoint, coalesced, non-empty, and below the frontier.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        let mut n = 0usize;
        let mut words = 0u64;
        let mut counts = vec![0u32; SMALL_MAX as usize + 1];
        let mut big = 0usize;
        let mut cur = self.bits.succ(0);
        while let Some(start) = cur {
            let Some(len) = self.by_start.get(start) else {
                return Err(format!("start bit set at {start} without a gap"));
            };
            if len == 0 {
                return Err(format!("empty gap at {start}"));
            }
            if let Some(pe) = prev_end {
                if start < pe {
                    return Err(format!("overlapping gaps at {start}"));
                }
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
            if len <= SMALL_MAX {
                counts[len as usize] += 1;
            } else {
                if !self.overflow.contains(&(len, start)) {
                    return Err(format!("gap [{start},{len}] missing from size index"));
                }
                big += 1;
            }
            n += 1;
            words += len;
            prev_end = Some(start + len);
            cur = self.bits.succ(start + 1);
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
        if self.by_start.len() != n {
            return Err(format!(
                "address map has {} entries for {n} gaps",
                self.by_start.len()
            ));
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
        let len = self.fs.by_start.get(start).expect("bit set implies gap");
        self.next = self.fs.bits.succ(start + 1);
        Some(Extent::from_raw(start, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_holes() -> FreeSpace {
        // Layout: [0,4) used, [4,8) free, [8,20) used, [20,30) free, [30,40) used.
        let mut fs = FreeSpace::new();
        let a = fs.take(Size::new(40), FitPolicy::FirstFit);
        assert_eq!(a, Addr::new(0));
        fs.release(Addr::new(4), Size::new(4));
        fs.release(Addr::new(20), Size::new(10));
        fs.check_invariants().unwrap();
        fs
    }

    #[test]
    fn first_fit_prefers_lowest_address() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(4));
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_prefers_tightest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::BestFit), Addr::new(4));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn worst_fit_prefers_largest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::WorstFit), Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn frontier_used_when_nothing_fits() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(11), FitPolicy::FirstFit), Addr::new(40));
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
        // From 10: first fitting gap at/after 10 is [20,30).
        assert_eq!(fs.take_next_fit(Size::new(2), &mut cursor), Addr::new(20));
        assert_eq!(cursor, Addr::new(22));
        // [22,30) fits again.
        assert_eq!(fs.take_next_fit(Size::new(8), &mut cursor), Addr::new(22));
        // Nothing at/after 30 fits 4 words; wraps to [4,8).
        assert_eq!(fs.take_next_fit(Size::new(4), &mut cursor), Addr::new(4));
        // Nothing interior fits 4 words; frontier.
        assert_eq!(fs.take_next_fit(Size::new(4), &mut cursor), Addr::new(40));
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
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(0));
    }

    #[test]
    fn traced_takes_match_untraced_choices() {
        for policy in FitPolicy::ALL {
            let mut plain = fs_with_holes();
            let mut traced = fs_with_holes();
            let mut plain_cursor = Addr::new(10);
            let mut traced_cursor = Addr::new(10);
            for step in 0..6u64 {
                let size = Size::new(2 + step % 5);
                let (a, b) = if policy == FitPolicy::NextFit {
                    let a = plain.take_next_fit(size, &mut plain_cursor);
                    let (b, t) = traced.take_next_fit_traced(size, &mut traced_cursor);
                    assert!(t.probes >= 1);
                    (a, b)
                } else {
                    let a = plain.take(size, policy);
                    let (b, t) = traced.take_traced(size, policy);
                    assert!(t.probes >= 1);
                    if let Some(len) = t.gap_len {
                        assert!(len >= size.get());
                    }
                    (a, b)
                };
                assert_eq!(a, b, "{policy:?} step {step}");
            }
            assert_eq!(plain_cursor, traced_cursor);
            traced.check_invariants().unwrap();
        }
    }

    #[test]
    fn traced_take_reports_gap_and_frontier() {
        let mut fs = fs_with_holes();
        let (addr, t) = fs.take_traced(Size::new(4), FitPolicy::FirstFit);
        assert_eq!(addr, Addr::new(4));
        assert_eq!(t.gap_len, Some(4));
        let (addr, t) = fs.take_traced(Size::new(11), FitPolicy::FirstFit);
        assert_eq!(addr, Addr::new(40), "frontier serve");
        assert_eq!(t.gap_len, None);
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
            let addr = fs.take(size, FitPolicy::ALL[(i % 4) as usize]);
            live.push((addr, size));
            if i % 3 == 0 {
                let (a, s) = live.remove((i as usize * 5) % live.len());
                fs.release(a, s);
            }
            fs.check_invariants().unwrap();
        }
    }
}
