//! The seed free-space index, kept verbatim (apart from renaming) as the
//! oracle for the runtime [`pcb_alloc::FreeSpace`]: a `BTreeMap<u64, u64>`
//! address mirror plus a flat `BTreeSet<(len, start)>` size index. Every
//! fit policy must choose the same address and carve the same gap on
//! both, and next-fit must examine the same gaps.

use std::collections::{BTreeMap, BTreeSet};

use pcb_alloc::FitPolicy;
use pcb_heap::{Addr, Extent, Size};

/// The seed BTree-based free-space index.
#[derive(Debug, Default, Clone)]
pub struct ReferenceFreeSpace {
    /// start -> length, gaps strictly below the frontier.
    by_addr: BTreeMap<u64, u64>,
    /// Flat `(length, start)` index: lexicographic order groups gaps by
    /// size with the lowest address first within each size, so every fit
    /// policy is one or two `range` probes — no per-size inner set to
    /// allocate and tear down on the (hot) insert/remove path.
    by_len: BTreeSet<(u64, u64)>,
    /// Everything at or above this address is free.
    frontier: u64,
}

impl ReferenceFreeSpace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn frontier(&self) -> Addr {
        Addr::new(self.frontier)
    }

    pub fn gap_count(&self) -> usize {
        self.by_addr.len()
    }

    pub fn gap_words(&self) -> Size {
        Size::new(self.by_addr.values().sum())
    }

    pub fn gaps(&self) -> impl Iterator<Item = Extent> + '_ {
        self.by_addr.iter().map(|(&s, &l)| Extent::from_raw(s, l))
    }

    pub fn largest_gap(&self) -> Size {
        Size::new(self.by_len.iter().next_back().map_or(0, |&(len, _)| len))
    }

    pub fn gap_ending_at(&self, addr: Addr) -> Option<Extent> {
        self.by_addr
            .range(..addr.get())
            .next_back()
            .filter(|&(&s, &l)| s + l == addr.get())
            .map(|(&s, &l)| Extent::from_raw(s, l))
    }

    pub fn gap_starting_at(&self, addr: Addr) -> Option<Extent> {
        self.by_addr
            .get(&addr.get())
            .map(|&l| Extent::from_raw(addr.get(), l))
    }

    pub fn gap_containing(&self, addr: Addr) -> Option<Extent> {
        self.by_addr
            .range(..=addr.get())
            .next_back()
            .filter(|&(&s, &l)| addr.get() < s + l)
            .map(|(&s, &l)| Extent::from_raw(s, l))
    }

    fn index_remove(&mut self, start: u64, len: u64) {
        let present = self.by_len.remove(&(len, start));
        debug_assert!(present, "by_len and by_addr agree");
    }

    fn gap_remove(&mut self, start: u64) -> u64 {
        let len = self
            .by_addr
            .remove(&start)
            .expect("gap exists when removed");
        self.index_remove(start, len);
        len
    }

    fn gap_insert(&mut self, start: u64, len: u64) {
        debug_assert!(len > 0);
        debug_assert!(start + len <= self.frontier);
        self.by_addr.insert(start, len);
        self.by_len.insert((len, start));
    }

    pub fn take(&mut self, size: Size, policy: FitPolicy) -> (Addr, Option<u64>) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let pick = match policy {
            FitPolicy::FirstFit | FitPolicy::NextFit => self.pick_first(s),
            FitPolicy::BestFit => self.pick_best(s),
            FitPolicy::WorstFit => self.pick_worst(s),
        };
        match pick {
            Some(start) => {
                let gap_len = self.by_addr.get(&start).copied();
                (self.carve(start, s), gap_len)
            }
            None => (self.take_frontier(s), None),
        }
    }

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

    /// Next-fit, with the gap carved from and the probes spent: one for
    /// the any-fits pre-check plus one per gap examined.
    pub fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> (Addr, Option<u64>, u64) {
        assert!(!size.is_zero(), "cannot take zero words");
        let s = size.get();
        let from = cursor.get();
        let mut probes = 1u64; // the any-fits pre-check
        let any_fits = self.by_len.range((s, 0)..).next().is_some();
        let mut found = None;
        if any_fits {
            for (&start, &len) in self.by_addr.range(from..) {
                probes += 1;
                if len >= s {
                    found = Some(start);
                    break;
                }
            }
            if found.is_none() {
                for (&start, &len) in self.by_addr.range(..from) {
                    probes += 1;
                    if len >= s {
                        found = Some(start);
                        break;
                    }
                }
            }
        }
        let (addr, gap_len) = match found {
            Some(start) => {
                let gap_len = self.by_addr.get(&start).copied();
                (self.carve(start, s), gap_len)
            }
            None => (self.take_frontier(s), None),
        };
        *cursor = addr + size;
        (addr, gap_len, probes)
    }

    pub fn take_aligned(&mut self, size: Size, align: u64) -> Addr {
        assert!(!size.is_zero(), "cannot take zero words");
        assert!(align > 0, "alignment must be positive");
        let s = size.get();
        let found = self.by_addr.iter().find_map(|(&start, &len)| {
            let a = Addr::new(start).align_up(align).get();
            (a + s <= start + len).then_some((start, a))
        });
        match found {
            Some((start, at)) => self.carve_at(start, at, s),
            None => {
                let at = Addr::new(self.frontier).align_up(align).get();
                if at > self.frontier {
                    // The skipped run below the new frontier becomes a gap.
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

    pub fn take_exact(&mut self, start: Addr, size: Size) -> bool {
        if size.is_zero() {
            return true;
        }
        let s = size.get();
        let at = start.get();
        if at >= self.frontier {
            // Entirely in frontier space.
            let skip_start = self.frontier;
            self.frontier = at + s;
            if at > skip_start {
                self.gap_insert(skip_start, at - skip_start);
                self.coalesce_around(skip_start);
            }
            return true;
        }
        // Must lie inside a single gap (possibly extending into frontier
        // space only if the gap touches... gaps never touch the frontier,
        // so the extent must fit inside one gap).
        let Some((&gstart, &glen)) = self.by_addr.range(..=at).next_back() else {
            return false;
        };
        if at + s > gstart + glen {
            return false;
        }
        self.carve_at(gstart, at, s);
        true
    }

    pub fn is_free(&self, start: Addr, size: Size) -> bool {
        if size.is_zero() {
            return true;
        }
        let at = start.get();
        let s = size.get();
        if at >= self.frontier {
            return true;
        }
        match self.by_addr.range(..=at).next_back() {
            Some((&gstart, &glen)) => at >= gstart && at + s <= gstart + glen,
            None => false,
        }
    }

    fn pick_first(&self, size: u64) -> Option<u64> {
        // Min start over every fitting size class: hop from class to class
        // (the first entry of each is its lowest start), skipping the rest
        // of each class with a fresh range probe.
        let mut best: Option<u64> = None;
        let mut from = size;
        while let Some(&(len, start)) = self.by_len.range((from, 0)..).next() {
            best = Some(best.map_or(start, |b| b.min(start)));
            match len.checked_add(1) {
                Some(next) => from = next,
                None => break,
            }
        }
        best
    }

    fn pick_best(&self, size: u64) -> Option<u64> {
        // Smallest fitting size, lowest start: the very first entry.
        self.by_len
            .range((size, 0)..)
            .next()
            .map(|&(_, start)| start)
    }

    fn pick_worst(&self, size: u64) -> Option<u64> {
        // Largest size... but the LOWEST start within it, so probe the
        // size class again from its bottom.
        let &(max_len, _) = self.by_len.iter().next_back()?;
        if max_len < size {
            return None;
        }
        self.by_len
            .range((max_len, 0)..)
            .next()
            .map(|&(_, start)| start)
    }

    fn take_frontier(&mut self, size: u64) -> Addr {
        let at = self.frontier;
        self.frontier += size;
        Addr::new(at)
    }

    /// Removes `size` words from the front of the gap at `start`.
    fn carve(&mut self, start: u64, size: u64) -> Addr {
        self.carve_at(start, start, size)
    }

    /// Removes `[at, at+size)` from inside the gap starting at `start`.
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
        self.gap_insert(at, len);
        self.coalesce_around(at);
    }

    fn coalesce_around(&mut self, at: u64) {
        // Merge with predecessor.
        let mut start = at;
        let mut len = *self.by_addr.get(&at).expect("gap just inserted");
        if let Some((&pstart, &plen)) = self.by_addr.range(..start).next_back() {
            if pstart + plen == start {
                self.gap_remove(pstart);
                self.gap_remove(start);
                start = pstart;
                len += plen;
                self.gap_insert(start, len);
            }
        }
        // Merge with successor.
        if let Some((&nstart, &nlen)) = self.by_addr.range(start + 1..).next() {
            if start + len == nstart {
                self.gap_remove(start);
                self.gap_remove(nstart);
                len += nlen;
                self.gap_insert(start, len);
            }
        }
        // Retreat the frontier over a gap that now touches it.
        if start + len == self.frontier {
            self.gap_remove(start);
            self.frontier = start;
        }
    }

    pub fn clear(&mut self) {
        self.by_addr.clear();
        self.by_len.clear();
        self.frontier = 0;
    }

    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        for (&start, &len) in &self.by_addr {
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
            if !self.by_len.contains(&(len, start)) {
                return Err(format!("gap [{start},{len}] missing from size index"));
            }
            prev_end = Some(start + len);
        }
        let indexed: u64 = self.by_len.iter().map(|&(len, _)| len).sum();
        let direct: u64 = self.by_addr.values().sum();
        if indexed != direct {
            return Err(format!("size index mismatch: {indexed} != {direct}"));
        }
        Ok(())
    }
}
