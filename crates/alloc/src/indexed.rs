//! Flat index structures behind [`FreeSpace`](crate::FreeSpace), the
//! buddy allocator's free-block index and the page table of
//! [`PageManager`](crate::PageManager):
//!
//! * [`AddrMap`] — an open-addressed `u64 -> u64` hash (fibonacci
//!   hashing, linear probing, backward-shift deletion), for the buddy
//!   allocator;
//! * [`StartBits`] — a three-level hierarchical bitmap giving
//!   predecessor/successor/iteration in a handful of word operations
//!   (the same trick the heap's bitmap referee uses);
//! * [`LenBounds`] — lazily tightened upper bounds on gap length per
//!   [`StartBits`] block, for the first-fit descent.

/// Sentinel for an empty [`AddrMap`] slot. Block addresses are strictly
/// below the buddy arena's end, so `u64::MAX` is never a real key.
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
            self.l1.resize(w0 / 64 + 1, 0);
            self.l2.resize(w0 / 4096 + 1, 0);
        }
        let was = self.l0[w0];
        self.l0[w0] = was | 1 << (i % 64);
        if was != 0 {
            return; // the upper levels already mark this word
        }
        let w1 = w0 / 64;
        self.l1[w1] |= 1 << (w0 % 64);
        self.l2[w1 / 64] |= 1 << (w1 % 64);
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

    pub(crate) fn clear_all(&mut self) {
        self.l0.clear();
        self.l1.clear();
        self.l2.clear();
    }

    /// Whether bit `i` is set.
    #[inline]
    pub(crate) fn contains(&self, i: u64) -> bool {
        usize::try_from(i)
            .ok()
            .and_then(|i| self.l0.get(i / 64))
            .is_some_and(|w| (w >> (i % 64)) & 1 == 1)
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
    pub(crate) fn pred(&self, from: u64) -> Option<u64> {
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

/// Upper bounds on the length of the gaps that start in each block of a
/// [`StartBits`]: one `u64` per level-0 word (64 addresses), per level-1
/// word (4 096) and per level-2 word (262 144).
///
/// The bounds are lazy. [`raise`](Self::raise) lifts them when a gap is
/// inserted; a removal leaves them stale (still upper bounds, only
/// looser). [`first_at_least`](Self::first_at_least) skips every block
/// whose bound is below the ask and, in each block it searches without
/// success, tightens the bound to the exact maximum found. A stale block
/// is therefore searched at most once before it is exact again.
#[derive(Debug, Clone, Default)]
pub(crate) struct LenBounds {
    b0: Vec<u64>,
    b1: Vec<u64>,
    b2: Vec<u64>,
}

impl LenBounds {
    /// Records a gap of `len` words starting at `start`.
    #[inline]
    pub(crate) fn raise(&mut self, start: u64, len: u64) {
        let w0 = usize::try_from(start / 64).expect("address fits in usize");
        if w0 >= self.b0.len() {
            self.b0.resize(w0 + 1, 0);
            self.b1.resize(w0 / 64 + 1, 0);
            self.b2.resize(w0 / 4096 + 1, 0);
        }
        let (w1, w2) = (w0 / 64, w0 / 4096);
        self.b0[w0] = self.b0[w0].max(len);
        self.b1[w1] = self.b1[w1].max(len);
        self.b2[w2] = self.b2[w2].max(len);
    }

    pub(crate) fn clear_all(&mut self) {
        self.b0.clear();
        self.b1.clear();
        self.b2.clear();
    }

    /// The three bounds that cover `start`, finest first (zero where
    /// nothing was ever raised).
    pub(crate) fn covering(&self, start: u64) -> [u64; 3] {
        let w0 = start as usize / 64;
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        [
            at(&self.b0, w0),
            at(&self.b1, w0 / 64),
            at(&self.b2, w0 / 4096),
        ]
    }

    /// Lowest set bit `i` of `starts` with `len(i) >= s`, descending only
    /// into blocks whose bound admits `s`. Every block searched in full
    /// has its bound tightened to the largest length it holds.
    pub(crate) fn first_at_least(
        &mut self,
        starts: &StartBits,
        s: u64,
        len: impl Fn(u64) -> u64,
    ) -> Option<u64> {
        for (w2, &m) in starts.l2.iter().enumerate() {
            if m == 0 || self.b2[w2] < s {
                continue;
            }
            let mut tight2 = 0;
            let mut m2 = m;
            while m2 != 0 {
                let w1 = w2 * 64 + m2.trailing_zeros() as usize;
                m2 &= m2 - 1;
                if self.b1[w1] >= s {
                    let mut tight1 = 0;
                    let mut m1 = starts.l1[w1];
                    while m1 != 0 {
                        let w0 = w1 * 64 + m1.trailing_zeros() as usize;
                        m1 &= m1 - 1;
                        if self.b0[w0] >= s {
                            let mut tight0 = 0;
                            let mut m0 = starts.l0[w0];
                            while m0 != 0 {
                                let i = (w0 * 64) as u64 + u64::from(m0.trailing_zeros());
                                m0 &= m0 - 1;
                                let l = len(i);
                                if l >= s {
                                    return Some(i);
                                }
                                tight0 = tight0.max(l);
                            }
                            self.b0[w0] = tight0;
                        }
                        tight1 = tight1.max(self.b0[w0]);
                    }
                    self.b1[w1] = tight1;
                }
                tight2 = tight2.max(self.b1[w1]);
            }
            self.b2[w2] = tight2;
        }
        None
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
        for i in 0..1000u64 {
            assert_eq!(m.get(i * 7), Some(i));
        }
        assert_eq!(m.get(1), None);
        for i in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(i * 7), Some(i));
        }
        for i in 0..1000u64 {
            let want = (i % 2 == 1).then_some(i);
            assert_eq!(m.get(i * 7), want, "key {}", i * 7);
        }
        assert_eq!(m.remove(2), None);
        m.insert(0, 42);
        assert_eq!(m.get(0), Some(42));
    }

    #[test]
    fn addr_map_overwrites() {
        let mut m = AddrMap::default();
        m.insert(5, 1);
        m.insert(5, 2);
        assert_eq!(m.get(5), Some(2));
        assert_eq!(m.remove(5), Some(2));
        assert_eq!(m.get(5), None);
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
