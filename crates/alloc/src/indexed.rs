//! Indexed free-space mirror: the fast half of the `PCB_MIRROR` knob.
//!
//! The seed [`FreeSpace`](crate::FreeSpace) keeps a `BTreeMap` keyed by
//! gap start plus a `BTreeSet` keyed by `(len, start)`; every hot
//! operation pays a tree walk and a rebalance. This module answers the
//! same queries from flat structures:
//!
//! * [`AddrMap`] — an open-addressed `u64 -> u64` hash (fibonacci
//!   hashing, linear probing, backward-shift deletion) used twice: gap
//!   start → length and gap end → start. Coalescing becomes two O(1)
//!   lookups instead of two tree probes.
//! * [`StartBits`] — a three-level hierarchical bitmap over gap start
//!   addresses giving predecessor/successor/iteration in a handful of
//!   word operations (the same trick PR 5 used for the heap substrate).
//! * exact size classes `1..=SMALL_MAX` — per-class lazily-cleaned
//!   min-heaps of starts plus a nonempty bitmap, so first/best/worst fit
//!   are popcount scans; gaps larger than [`SMALL_MAX`] go to a small
//!   overflow `BTreeSet<(len, start)>` (adversarial workloads produce
//!   very few distinct large sizes).
//!
//! Every public operation chooses byte-for-byte the same address — and
//! reports the same probe counts — as the reference implementation; the
//! lockstep proptests in `tests/manager_equivalence.rs` pin that.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use pcb_heap::{Addr, Extent, Size};

use crate::freelist::{FitPolicy, TakeStats};

/// Largest gap length tracked by an exact size class; longer gaps go to
/// the overflow tree.
const SMALL_MAX: u64 = 256;
/// Words in the class-nonempty bitmap (bit `len - 1` for class `len`).
const CLASS_WORDS: usize = (SMALL_MAX as usize).div_ceil(64);

/// Sentinel for an empty [`AddrMap`] slot. Gap starts and ends are
/// strictly below the frontier, so `u64::MAX` is never a real key.
const EMPTY: u64 = u64::MAX;

/// Open-addressed `u64 -> u64` map: fibonacci hashing, linear probing,
/// backward-shift deletion, load factor ≤ 1/2. Lookup order is never
/// observable (the map is only probed by key), so it cannot perturb
/// placement decisions.
#[derive(Debug, Clone, Default)]
pub(crate) struct AddrMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    /// `64 - log2(capacity)`; meaningless while empty.
    shift: u32,
}

impl AddrMap {
    #[inline]
    pub(crate) fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn insert(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY, "sentinel key");
        if self.keys.is_empty() || (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn remove(&mut self, key: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                break;
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
        let val = self.vals[i];
        self.len -= 1;
        // Backward-shift deletion keeps probe chains gap-free without
        // tombstones: pull each displaced follower into the hole unless
        // its home lies strictly inside (hole, j].
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while self.keys[j] != EMPTY {
            let home = self.home(self.keys[j]);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.keys[hole] = self.keys[j];
                self.vals[hole] = self.vals[j];
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.keys[hole] = EMPTY;
        Some(val)
    }

    fn grow(&mut self) {
        let cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = vec![0; cap];
        self.shift = 64 - cap.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                let mask = cap - 1;
                let mut i = self.home(k);
                while self.keys[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
                self.len += 1;
            }
        }
    }

    pub(crate) fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.len = 0;
    }
}

/// Three-level hierarchical bitmap over `u64` indices (gap start
/// addresses here, page numbers in the page manager): level 0 has one bit
/// per index, each upper level summarises 64 words of the one below.
/// Predecessor/successor queries touch at most a few words per level
/// instead of walking a tree.
#[derive(Debug, Clone, Default)]
pub(crate) struct StartBits {
    l0: Vec<u64>,
    l1: Vec<u64>,
    l2: Vec<u64>,
}

impl StartBits {
    pub(crate) fn set(&mut self, i: u64) {
        let i = usize::try_from(i).expect("address fits in usize");
        let w0 = i / 64;
        if w0 >= self.l0.len() {
            self.l0.resize(w0 + 1, 0);
        }
        self.l0[w0] |= 1 << (i % 64);
        let w1 = w0 / 64;
        if w1 >= self.l1.len() {
            self.l1.resize(w1 + 1, 0);
        }
        self.l1[w1] |= 1 << (w0 % 64);
        let w2 = w1 / 64;
        if w2 >= self.l2.len() {
            self.l2.resize(w2 + 1, 0);
        }
        self.l2[w2] |= 1 << (w1 % 64);
    }

    pub(crate) fn clear(&mut self, i: u64) {
        let i = i as usize;
        let w0 = i / 64;
        self.l0[w0] &= !(1 << (i % 64));
        if self.l0[w0] == 0 {
            let w1 = w0 / 64;
            self.l1[w1] &= !(1 << (w0 % 64));
            if self.l1[w1] == 0 {
                let w2 = w1 / 64;
                self.l2[w2] &= !(1 << (w1 % 64));
            }
        }
    }

    fn clear_all(&mut self) {
        self.l0.clear();
        self.l1.clear();
        self.l2.clear();
    }

    /// Lowest set bit at or above `from`.
    pub(crate) fn succ(&self, from: u64) -> Option<u64> {
        let Ok(from) = usize::try_from(from) else {
            return None;
        };
        let w0 = from / 64;
        if w0 >= self.l0.len() {
            return None;
        }
        let m = self.l0[w0] & (!0u64 << (from % 64));
        if m != 0 {
            return Some((w0 * 64 + m.trailing_zeros() as usize) as u64);
        }
        let next = self.succ_word(w0)?;
        let m = self.l0[next];
        Some((next * 64 + m.trailing_zeros() as usize) as u64)
    }

    /// Lowest set level-0 word index strictly above `w0`.
    fn succ_word(&self, w0: usize) -> Option<usize> {
        let s0 = w0 + 1;
        let w1 = s0 / 64;
        if w1 < self.l1.len() {
            let m1 = self.l1[w1] & (!0u64 << (s0 % 64));
            if m1 != 0 {
                return Some(w1 * 64 + m1.trailing_zeros() as usize);
            }
        }
        let s1 = w1 + 1;
        let first = s1 / 64;
        for w2 in first..self.l2.len() {
            let m2 = if w2 == first {
                self.l2[w2] & (!0u64 << (s1 % 64))
            } else {
                self.l2[w2]
            };
            if m2 != 0 {
                let w1n = w2 * 64 + m2.trailing_zeros() as usize;
                let m1 = self.l1[w1n];
                return Some(w1n * 64 + m1.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Highest set bit strictly below `from`.
    fn pred(&self, from: u64) -> Option<u64> {
        if from == 0 || self.l0.is_empty() {
            return None;
        }
        let cap_last = self.l0.len() as u64 * 64 - 1;
        let t = (from - 1).min(cap_last) as usize;
        let w0 = t / 64;
        let m = self.l0[w0] & (!0u64 >> (63 - (t % 64)));
        if m != 0 {
            return Some((w0 * 64 + 63 - m.leading_zeros() as usize) as u64);
        }
        if w0 == 0 {
            return None;
        }
        let prev = self.pred_word(w0)?;
        let m = self.l0[prev];
        Some((prev * 64 + 63 - m.leading_zeros() as usize) as u64)
    }

    /// Highest set level-0 word index strictly below `w0` (which must be
    /// a valid word index, guaranteeing the level-1 probe is in range).
    fn pred_word(&self, w0: usize) -> Option<usize> {
        debug_assert!(w0 >= 1 && w0 < self.l0.len());
        let e0 = w0 - 1;
        let w1 = e0 / 64;
        let m1 = self.l1[w1] & (!0u64 >> (63 - (e0 % 64)));
        if m1 != 0 {
            return Some(w1 * 64 + 63 - m1.leading_zeros() as usize);
        }
        if w1 == 0 {
            return None;
        }
        let e1 = w1 - 1;
        let mut w2 = e1 / 64;
        let mut top = e1 % 64;
        loop {
            let m2 = self.l2[w2] & (!0u64 >> (63 - top));
            if m2 != 0 {
                let w1n = w2 * 64 + 63 - m2.leading_zeros() as usize;
                let m1 = self.l1[w1n];
                return Some(w1n * 64 + 63 - m1.leading_zeros() as usize);
            }
            if w2 == 0 {
                return None;
            }
            w2 -= 1;
            top = 63;
        }
    }
}

/// The indexed free-space mirror behind [`MirrorImpl::Indexed`].
///
/// [`MirrorImpl::Indexed`]: crate::MirrorImpl::Indexed
#[derive(Debug, Clone)]
pub(crate) struct IndexedFreeSpace {
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

impl Default for IndexedFreeSpace {
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

impl IndexedFreeSpace {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn frontier(&self) -> Addr {
        Addr::new(self.frontier)
    }

    pub(crate) fn gap_count(&self) -> usize {
        self.n_gaps
    }

    pub(crate) fn gap_words(&self) -> Size {
        Size::new(self.total_words)
    }

    pub(crate) fn gaps(&self) -> Gaps<'_> {
        Gaps {
            fs: self,
            next: self.bits.succ(0),
        }
    }

    pub(crate) fn largest_gap(&self) -> Size {
        if let Some(&(len, _)) = self.overflow.iter().next_back() {
            return Size::new(len);
        }
        Size::new(self.last_class_nonempty().unwrap_or(0))
    }

    pub(crate) fn gap_ending_at(&self, addr: Addr) -> Option<Extent> {
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

    pub(crate) fn gap_starting_at(&self, addr: Addr) -> Option<Extent> {
        self.by_start
            .get(addr.get())
            .map(|l| Extent::from_raw(addr.get(), l))
    }

    pub(crate) fn gap_containing(&self, addr: Addr) -> Option<Extent> {
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

    /// Min start over every fitting size class, like the reference
    /// `pick_first`: exact classes come from the nonempty bitmap, large
    /// classes hop the overflow tree.
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

    /// `pick_first` plus the probe count the reference implementation
    /// would report: one per distinct fitting size class present, plus
    /// the final empty probe.
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
                None => return (best, probes), // matches the reference break
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

    pub(crate) fn take(&mut self, size: Size, policy: FitPolicy) -> Addr {
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

    pub(crate) fn take_traced(&mut self, size: Size, policy: FitPolicy) -> (Addr, TakeStats) {
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

    pub(crate) fn try_take_within(
        &mut self,
        size: Size,
        policy: FitPolicy,
        limit: u64,
    ) -> Option<Addr> {
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

    pub(crate) fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> Addr {
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

    pub(crate) fn take_next_fit_traced(
        &mut self,
        size: Size,
        cursor: &mut Addr,
    ) -> (Addr, TakeStats) {
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

    pub(crate) fn take_aligned(&mut self, size: Size, align: u64) -> Addr {
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

    pub(crate) fn take_exact(&mut self, start: Addr, size: Size) -> bool {
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

    pub(crate) fn is_free(&self, start: Addr, size: Size) -> bool {
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

    pub(crate) fn release(&mut self, start: Addr, size: Size) {
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

    pub(crate) fn clear(&mut self) {
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

    /// Publishes high-water marks for the index structures; called by
    /// the dispatching wrapper when the metrics plane is attached.
    pub(crate) fn publish_metrics(&self) {
        if !pcb_metrics::enabled() {
            return;
        }
        static GAPS_HIGH: pcb_metrics::Gauge = pcb_metrics::Gauge::new("manager.mirror_gaps");
        static SLAB_HIGH: pcb_metrics::Gauge = pcb_metrics::Gauge::new("manager.slab_high_water");
        GAPS_HIGH.record_max(self.n_gaps as u64);
        let slab: usize = self.classes.iter().map(BinaryHeap::len).sum();
        SLAB_HIGH.record_max(slab as u64);
    }

    pub(crate) fn check_invariants(&self) -> Result<(), String> {
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

/// Address-ordered gap iterator over an [`IndexedFreeSpace`].
#[derive(Debug)]
pub(crate) struct Gaps<'a> {
    fs: &'a IndexedFreeSpace,
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

    #[test]
    fn addr_map_insert_get_remove() {
        let mut m = AddrMap::default();
        assert_eq!(m.get(0), None);
        for i in 0..1000u64 {
            m.insert(i * 7, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 7), Some(i));
        }
        assert_eq!(m.get(1), None);
        for i in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(i * 7), Some(i));
        }
        assert_eq!(m.len(), 500);
        for i in 0..1000u64 {
            let want = (i % 2 == 1).then_some(i);
            assert_eq!(m.get(i * 7), want, "key {}", i * 7);
        }
        assert_eq!(m.remove(2), None);
        m.insert(0, 42);
        assert_eq!(m.get(0), Some(42));
        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
    }

    #[test]
    fn addr_map_overwrites() {
        let mut m = AddrMap::default();
        m.insert(5, 1);
        m.insert(5, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(5), Some(2));
    }

    #[test]
    fn start_bits_pred_succ() {
        let mut b = StartBits::default();
        assert_eq!(b.succ(0), None);
        assert_eq!(b.pred(u64::MAX), None);
        let points = [0u64, 1, 63, 64, 65, 4095, 4096, 262143, 262144, 300000];
        for &p in &points {
            b.set(p);
        }
        for &p in &points {
            assert_eq!(b.succ(p), Some(p));
            assert_eq!(b.pred(p + 1), Some(p));
        }
        assert_eq!(b.succ(2), Some(63));
        assert_eq!(b.pred(63), Some(1));
        assert_eq!(b.succ(66), Some(4095));
        assert_eq!(b.pred(4095), Some(65));
        assert_eq!(b.succ(262145), Some(300000));
        assert_eq!(b.pred(300000), Some(262144));
        assert_eq!(b.succ(300001), None);
        assert_eq!(b.pred(0), None);
        b.clear(63);
        assert_eq!(b.succ(2), Some(64));
        assert_eq!(b.pred(64), Some(1));
        b.clear(4095);
        b.clear(4096);
        assert_eq!(b.succ(66), Some(262143));
        assert_eq!(b.pred(262143), Some(65));
    }

    #[test]
    fn start_bits_dense_walk() {
        let mut b = StartBits::default();
        for i in (0..10_000u64).step_by(3) {
            b.set(i);
        }
        let mut cur = b.succ(0);
        let mut seen = Vec::new();
        while let Some(i) = cur {
            seen.push(i);
            cur = b.succ(i + 1);
        }
        let want: Vec<u64> = (0..10_000).step_by(3).collect();
        assert_eq!(seen, want);
        let mut back = Vec::new();
        let mut cur = b.pred(u64::MAX);
        while let Some(i) = cur {
            back.push(i);
            cur = b.pred(i);
        }
        back.reverse();
        assert_eq!(back, want);
    }
}
