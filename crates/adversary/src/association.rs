//! Object↔chunk association (Section 4 of the paper) and the potential
//! function `u(t)` it induces.
//!
//! During stage II of `P_F`, the heap is partitioned into aligned chunks of
//! `2^i` words. The program associates with each chunk a set `O_D` of
//! objects (or *halves* of objects — Figure 4's refinement), maintaining
//! the invariant that a used chunk keeps density at least `2^-ρ` so that
//! evacuating it is never profitable for a c-partial manager. This module
//! owns that bookkeeping:
//!
//! * association survives compaction — a moved (and therefore immediately
//!   freed) object stays in `O_D` as a *dead* entry until the chunk is
//!   reused by a fresh allocation;
//! * the middle chunk of each freshly placed object is tracked in the set
//!   `E` (Definition 4.12);
//! * the chunk potential `u_D` (Definition 4.3) and the total `u(t) =
//!   Σ u_D − n/4` (Definition 4.4) are maintained incrementally.
//!
//! The layout is sized by the associated objects, not by the ids ever
//! issued:
//!
//! * every chunk's entries are one contiguous run of a flat arena. A step
//!   change and each shedding pass rebuild the arena with the runs in
//!   chunk order; a chunk that a fresh allocation resets starts a new run
//!   at the arena's tail, and the cells it leaves behind are dropped by
//!   the next rebuild;
//! * the backrefs of live objects are a list sorted by id, one record per
//!   associated object. An object that loses its last backref leaves a
//!   tombstone there until the next shedding pass. A backref is the start
//!   word address of the chunk it names, so it stays valid across step
//!   changes (the chunk index is `addr >> step`).
//!
//! Ids, entry sizes, arena positions and chunk addresses are packed in
//! `u32`s: the heap keeps object ids and addresses below 2³².

use std::cmp::Reverse;

use pcb_heap::ObjectId;

/// One element of an `O_D` set: a whole object or one of its halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// The associated object's raw id.
    id: u32,
    /// Words this entry contributes to the chunk (the object's size, or
    /// half of it for a half-entry).
    words: u32,
    /// Whether the object is still live (dead entries are left behind by
    /// compacted-then-freed objects).
    live: bool,
    /// Whether this is one half of an object split across two chunks.
    half: bool,
}

impl Entry {
    fn new(id: ObjectId, words: u64, live: bool, half: bool) -> Self {
        Entry {
            id: raw_id(id),
            words: u32::try_from(words).expect("objects are smaller than 2^32 words"),
            live,
            half,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Chunk {
    /// The chunk's entries are `entries[start..start + len]`.
    start: u32,
    len: u32,
    /// Sum of `words` over entries (maintained, not recomputed).
    sum: u64,
    /// Membership in the set `E` of middle chunks (Definition 4.12).
    in_e: bool,
}

impl Chunk {
    /// Whether the chunk has a non-empty association or is in `E`.
    fn is_used(&self) -> bool {
        self.len != 0 || self.in_e
    }

    /// `u_D` for a chunk of `2^step` words at density exponent `rho`.
    fn potential(&self, step: u32, rho: u32) -> u128 {
        let cap = 1u128 << step;
        if self.in_e {
            cap
        } else {
            cap.min((self.sum as u128) << rho)
        }
    }

    fn run(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }

    /// Appends `entry` to the chunk's run. A run that does not end at the
    /// arena's tail is first copied there. A full arena grows by half its
    /// length, not by doubling: a run holds a whole object or one of its
    /// two halves, so doubling could reach four records per object.
    fn push(&mut self, entries: &mut Vec<Entry>, entry: Entry) {
        if entries.len() + self.len as usize >= entries.capacity() {
            entries.reserve_exact(entries.len() / 2 + self.len as usize + 1);
        }
        if self.len == 0 {
            self.start = arena_pos(entries.len());
        } else if self.run().end != entries.len() {
            let run = self.run();
            self.start = arena_pos(entries.len());
            entries.extend_from_within(run);
        }
        entries.push(entry);
        self.len += 1;
        self.sum += u64::from(entry.words);
    }
}

/// A live object's backrefs: the start addresses of the (at most two)
/// chunks holding its entries, `NO_CHUNK` when absent and never in slot 0
/// alone. Two backrefs that fall in the same chunk after a step change
/// name that chunk once. Both empty is a tombstone.
#[derive(Debug, Clone, Copy)]
struct Backref {
    id: u32,
    at: [u32; 2],
}

/// Marks an empty backref slot.
const NO_CHUNK: u32 = u32::MAX;

fn raw_id(id: ObjectId) -> u32 {
    u32::try_from(id.get()).expect("the heap keeps object ids below 2^32")
}

fn arena_pos(len: usize) -> u32 {
    u32::try_from(len).expect("the entry arena holds fewer than 2^32 entries")
}

/// The association state at one step, with `u(t)` maintained incrementally.
#[derive(Debug, Clone)]
pub struct Association {
    /// Current step `i`: chunks span `2^i` words.
    step: u32,
    /// Density exponent `ρ`: used chunks keep `sum ≥ 2^{step−ρ}` and the
    /// chunk potential saturates at density `2^-ρ`.
    rho: u32,
    /// Chunk `k` covers words `[k·2^step, (k+1)·2^step)`; chunks past the
    /// last used one may be absent.
    chunks: Vec<Chunk>,
    /// The entry arena the chunks' runs live in.
    entries: Vec<Entry>,
    /// Number of chunks with a non-empty association or in `E`.
    used: usize,
    /// Live-object backrefs, sorted by id.
    backrefs: Vec<Backref>,
    /// Σ u_D over all chunks, in words.
    u_sum: u128,
}

impl Association {
    /// Creates an empty association over chunks of `2^step` words.
    pub fn new(step: u32, rho: u32) -> Self {
        Association {
            step,
            rho,
            chunks: Vec::new(),
            entries: Vec::new(),
            used: 0,
            backrefs: Vec::new(),
            u_sum: 0,
        }
    }

    /// Line 9 of Algorithm 1 in bulk: the association over chunks of
    /// `2^step` words of the stage-I survivors, each `(index, id, words,
    /// live)` whole in the chunk at `index`. The same state as
    /// [`associate_whole`](Self::associate_whole) called for each survivor
    /// in turn, built in two passes (count, then fill) so every chunk's
    /// run is exactly sized and no run is ever copied.
    pub fn from_survivors<I>(step: u32, rho: u32, survivors: I) -> Self
    where
        I: Iterator<Item = (u64, ObjectId, u64, bool)> + Clone,
    {
        let mut assoc = Association::new(step, rho);
        let mut live = 0;
        for (index, _, _, is_live) in survivors.clone() {
            assoc.chunk_mut(index).len += 1;
            live += usize::from(is_live);
        }
        assoc.chunks.shrink_to_fit();
        let mut total = 0u32;
        for chunk in &mut assoc.chunks {
            chunk.start = total;
            total = total
                .checked_add(chunk.len)
                .expect("the entry arena holds fewer than 2^32 entries");
            chunk.len = 0;
        }
        let blank = Entry {
            id: 0,
            words: 0,
            live: false,
            half: false,
        };
        assoc.entries = vec![blank; total as usize];
        assoc.backrefs.reserve_exact(live);
        for (index, id, words, is_live) in survivors {
            let entry = Entry::new(id, words, is_live, false);
            let chunk = &mut assoc.chunks[index as usize];
            assoc.entries[(chunk.start + chunk.len) as usize] = entry;
            chunk.len += 1;
            chunk.sum += words;
            if is_live {
                assoc.add_backref(id, index);
            }
        }
        assoc.recount();
        assoc
    }

    /// Current step (chunk order).
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Chunk size in words.
    pub fn chunk_words(&self) -> u64 {
        1 << self.step
    }

    /// `Σ_D u_D` in words (add `− n/4` for the paper's `u(t)`).
    pub fn u_sum(&self) -> u128 {
        self.u_sum
    }

    /// The paper's `u(t) = Σ u_D − n/4`, in words (may be negative early).
    pub fn potential(&self, log_n: u32) -> i128 {
        self.u_sum as i128 - (1i128 << log_n) / 4
    }

    /// Number of chunks with a non-empty association or in `E`.
    pub fn used_chunks(&self) -> usize {
        self.used
    }

    /// The chunk index holding `addr` at the current step.
    pub fn chunk_of(&self, addr: u64) -> u64 {
        addr >> self.step
    }

    /// Sum of the words associated with the chunk at `index` (0 for an
    /// unused chunk).
    pub fn chunk_sum(&self, index: u64) -> u64 {
        self.chunks.get(index as usize).map_or(0, |c| c.sum)
    }

    /// The chunk at `index`, growing the table to reach it.
    fn chunk_mut(&mut self, index: u64) -> &mut Chunk {
        let i = index as usize;
        if i >= self.chunks.len() {
            self.chunks.resize(i + 1, Chunk::default());
        }
        &mut self.chunks[i]
    }

    /// Recomputes the used count and `u_sum` from scratch.
    fn recount(&mut self) {
        let (step, rho) = (self.step, self.rho);
        self.used = self.chunks.iter().filter(|c| c.is_used()).count();
        self.u_sum = self.chunks.iter().map(|c| c.potential(step, rho)).sum();
    }

    /// Applies `f` to the chunk at `index` and the entry arena, keeping
    /// `u_sum` and the used count consistent.
    fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut Chunk, &mut Vec<Entry>) -> R) -> R {
        let (step, rho) = (self.step, self.rho);
        self.chunk_mut(index);
        let chunk = &mut self.chunks[index as usize];
        let (was_used, before) = (chunk.is_used(), chunk.potential(step, rho));
        let r = f(chunk, &mut self.entries);
        let (is_used, after) = (chunk.is_used(), chunk.potential(step, rho));
        self.used = self.used + usize::from(is_used) - usize::from(was_used);
        self.u_sum = self.u_sum - before + after;
        r
    }

    /// The chunk at `index`'s entries (empty for an unused chunk).
    fn entries_of(&self, index: u64) -> &[Entry] {
        self.chunks
            .get(index as usize)
            .map_or(&[], |c| &self.entries[c.run()])
    }

    /// The position of the object's backref record, tombstone or not.
    fn backref_pos(&self, id: ObjectId) -> Result<usize, usize> {
        let raw = raw_id(id);
        match self.backrefs.last() {
            Some(last) if last.id < raw => Err(self.backrefs.len()),
            _ => self.backrefs.binary_search_by_key(&raw, |b| b.id),
        }
    }

    /// The object's backref slots (both empty if it has none).
    fn refs(&self, id: ObjectId) -> [u32; 2] {
        self.backref_pos(id)
            .map_or([NO_CHUNK; 2], |pos| self.backrefs[pos].at)
    }

    fn set_refs(&mut self, id: ObjectId, at: [u32; 2]) {
        match self.backref_pos(id) {
            Ok(pos) => self.backrefs[pos].at = at,
            Err(_) if at[0] == NO_CHUNK => {}
            Err(pos) => self.backrefs.insert(pos, Backref { id: raw_id(id), at }),
        }
    }

    /// The start word address of the chunk at `index`, as a backref.
    fn chunk_addr(&self, index: u64) -> u32 {
        u32::try_from(index << self.step)
            .ok()
            .filter(|&a| a != NO_CHUNK)
            .expect("chunks start below 2^32 - 1 words")
    }

    /// Adds a backref from the object to the chunk at `index`.
    fn add_backref(&mut self, id: ObjectId, index: u64) {
        let addr = self.chunk_addr(index);
        let mut at = self.refs(id);
        let slot = at
            .iter_mut()
            .find(|a| **a == NO_CHUNK)
            .expect("an object is associated with at most two chunks");
        *slot = addr;
        self.set_refs(id, at);
    }

    /// The distinct chunk indices an object's backrefs name.
    fn chunks_of(&self, id: ObjectId) -> (Option<u64>, Option<u64>) {
        self.distinct_chunks(self.refs(id))
    }

    /// The distinct chunk indices the backref slots `at` name.
    fn distinct_chunks(&self, [a, b]: [u32; 2]) -> (Option<u64>, Option<u64>) {
        let step = self.step;
        let first = (a != NO_CHUNK).then(|| u64::from(a) >> step);
        let second =
            (b != NO_CHUNK && Some(u64::from(b) >> step) != first).then(|| u64::from(b) >> step);
        (first, second)
    }

    /// Removes the object's backrefs to the chunk at `index`.
    fn drop_backref(&mut self, id: ObjectId, index: u64) {
        let step = self.step;
        let [a, b] = self.refs(id).map(|r| {
            if r != NO_CHUNK && u64::from(r) >> step == index {
                NO_CHUNK
            } else {
                r
            }
        });
        self.set_refs(id, if a == NO_CHUNK { [b, NO_CHUNK] } else { [a, b] });
    }

    /// Associates a whole live object with the chunk at `index` (used by
    /// line 9 of Algorithm 1 for the f_ρ-occupying survivors of stage I).
    pub fn associate_whole(&mut self, index: u64, id: ObjectId, words: u64, live: bool) {
        let entry = Entry::new(id, words, live, false);
        self.update(index, |chunk, entries| chunk.push(entries, entry));
        if live {
            self.add_backref(id, index);
        }
    }

    /// Doubles the chunk size: each pair of adjacent chunks becomes one
    /// (line 12: `O_D = O_D1 ∪ O_D2`), and `E` membership lapses
    /// (Definition 4.12). The arena is rebuilt with the merged runs in
    /// chunk order, dropping the cells reset chunks left behind.
    pub fn advance_step(&mut self) {
        self.step += 1;
        let merged_len = self.chunks.len().div_ceil(2);
        let kept: usize = self.chunks.iter().map(|c| c.len as usize).sum();
        let mut entries = Vec::with_capacity(kept);
        let mut halves: Vec<(u32, usize)> = Vec::new();
        for k in 0..merged_len {
            let lo = self.chunks[2 * k];
            let hi = self.chunks.get(2 * k + 1).copied().unwrap_or_default();
            let start = entries.len();
            entries.extend_from_slice(&self.entries[lo.run()]);
            merge_run(&mut entries, start, &self.entries[hi.run()], &mut halves);
            self.chunks[k] = Chunk {
                start: arena_pos(start),
                len: arena_pos(entries.len() - start),
                sum: lo.sum + hi.sum,
                in_e: false,
            };
        }
        self.chunks.truncate(merged_len);
        self.chunks.shrink_to_fit();
        self.entries = entries;
        self.recount();
    }

    /// Drops the cells no run holds and the backref tombstones, so both
    /// tables shrink with the objects they describe.
    fn compact(&mut self) {
        let kept: usize = self.chunks.iter().map(|c| c.len as usize).sum();
        let mut entries = Vec::with_capacity(kept);
        for chunk in &mut self.chunks {
            let start = arena_pos(entries.len());
            entries.extend_from_slice(&self.entries[chunk.run()]);
            chunk.start = start;
        }
        self.entries = entries;
        self.backrefs.retain(|b| b.at[0] != NO_CHUNK);
        if self.backrefs.capacity() > 2 * self.backrefs.len() {
            self.backrefs.shrink_to_fit();
        }
    }

    /// Marks a (compacted-then-freed) object's entries dead; the entries
    /// and their contribution to chunk sums remain until the chunks are
    /// reused (the paper's "association is not removed when an object is
    /// compacted").
    pub fn mark_dead(&mut self, id: ObjectId) {
        let (first, second) = self.chunks_of(id);
        self.set_refs(id, [NO_CHUNK; 2]);
        let raw = raw_id(id);
        for index in first.into_iter().chain(second) {
            self.update(index, |chunk, entries| {
                for e in entries[chunk.run()].iter_mut().filter(|e| e.id == raw) {
                    e.live = false;
                }
            });
        }
    }

    /// Whether the object currently has live entries.
    pub fn is_associated(&self, id: ObjectId) -> bool {
        self.refs(id)[0] != NO_CHUNK
    }

    /// Line 13 of Algorithm 1: for every chunk, de-allocate as many
    /// associated objects as possible while keeping `sum ≥ 2^{step−ρ}`.
    /// Dropping a half re-assigns it to the partner chunk (which is then
    /// re-evaluated); dropping a whole de-allocates the object for real.
    ///
    /// Each visit to a chunk drops, repeatedly, the largest live entry
    /// (by `(words, whole, id)`) whose removal keeps the threshold. The
    /// chunk's sum only falls during a visit, so an entry too large to drop
    /// once stays too large: one pass over the live entries in descending
    /// order makes the same choices.
    ///
    /// Returns the objects to free, in a deterministic order, and their
    /// total size in words (a dropped whole entry carries its object's
    /// full size).
    pub fn shed_density_surplus(&mut self) -> (Vec<ObjectId>, u64) {
        let threshold = 1u64 << (self.step - self.rho);
        let mut freed = Vec::new();
        let mut freed_words = 0;
        let mut worklist: Vec<u64> = (0..self.chunks.len() as u64)
            .filter(|&i| self.chunks[i as usize].is_used())
            .collect();
        let mut candidates: Vec<Entry> = Vec::new();
        while let Some(index) = worklist.pop() {
            let sum = self.chunks[index as usize].sum;
            candidates.clear();
            candidates.extend(
                self.entries_of(index)
                    .iter()
                    .filter(|e| e.live && sum - u64::from(e.words) >= threshold),
            );
            candidates.sort_unstable_by_key(|e| Reverse((e.words, !e.half, e.id)));
            for &entry in &candidates {
                let words = u64::from(entry.words);
                if self.chunks[index as usize].sum - words < threshold {
                    continue;
                }
                self.update(index, |chunk, entries| {
                    let run = &mut entries[chunk.run()];
                    let pos = run
                        .iter()
                        .position(|e| e.id == entry.id && e.half == entry.half)
                        .expect("candidate entry present");
                    run.swap(pos, run.len() - 1);
                    chunk.len -= 1;
                    chunk.sum -= words;
                });
                let id = ObjectId::from_raw(u64::from(entry.id));
                if entry.half {
                    // Re-assign the dropped half to the chunk holding the
                    // other half, then re-evaluate that chunk.
                    let step = self.step;
                    let [a, b] = self.refs(id);
                    let partner_addr = if u64::from(a) >> step == index { b } else { a };
                    assert!(partner_addr != NO_CHUNK, "a live half has a partner chunk");
                    self.set_refs(id, [partner_addr, NO_CHUNK]);
                    let partner = u64::from(partner_addr) >> step;
                    self.update(partner, |chunk, entries| {
                        let other = entries[chunk.run()]
                            .iter_mut()
                            .find(|e| e.id == entry.id && e.live)
                            .expect("partner holds the other half");
                        debug_assert!(other.half);
                        other.half = false;
                        other.words += entry.words;
                        chunk.sum += words;
                    });
                    worklist.push(partner);
                } else {
                    self.set_refs(id, [NO_CHUNK; 2]);
                    freed.push(id);
                    freed_words += words;
                }
            }
        }
        freed.sort_unstable();
        self.compact();
        (freed, freed_words)
    }

    /// Empties the chunk at `index` (association and `E` membership).
    fn reset(&mut self, index: u64) {
        // Only dead residue can sit on chunks a new object fully covers,
        // but stay defensive and drop the backrefs of live entries.
        let live: Vec<ObjectId> = self
            .entries_of(index)
            .iter()
            .filter(|e| e.live)
            .map(|e| ObjectId::from_raw(u64::from(e.id)))
            .collect();
        self.update(index, |chunk, _| {
            chunk.len = 0;
            chunk.sum = 0;
            chunk.in_e = false;
        });
        for id in live {
            self.drop_backref(id, index);
        }
    }

    /// Line 14 of Algorithm 1, after placing object `o` (of size
    /// `4·2^step`) whose first three fully covered chunks are `d1..d3`:
    /// reset their associations to `O_D1 = {o'}`, `O_D2 = ∅` (recorded in
    /// `E`), `O_D3 = {o''}`.
    pub fn claim_new_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        debug_assert_eq!(size, 4 << self.step, "stage-II objects span 4 chunks");
        for index in [d1, d2, d3] {
            self.reset(index);
        }
        let half = Entry::new(id, size / 2, true, true);
        for index in [d1, d3] {
            self.update(index, |chunk, entries| chunk.push(entries, half));
        }
        self.update(d2, |chunk, _| chunk.in_e = true);
        self.set_refs(id, [self.chunk_addr(d1), self.chunk_addr(d3)]);
    }

    /// The no-halves variant of [`claim_new_object`](Self::claim_new_object)
    /// (Section 3.1's third improvement switched off): the whole object is
    /// associated with the first covered chunk, the other two stay
    /// unassociated, and `E` is not used.
    pub fn claim_whole_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        for index in [d1, d2, d3] {
            self.reset(index);
        }
        let whole = Entry::new(id, size, true, false);
        self.update(d1, |chunk, entries| chunk.push(entries, whole));
        self.set_refs(id, [self.chunk_addr(d1), NO_CHUNK]);
    }

    /// Total words in live entries (the live space the association is
    /// holding hostage); used by tests for Proposition 4.17.
    pub fn live_associated_words(&self) -> u128 {
        self.chunks
            .iter()
            .flat_map(|c| &self.entries[c.run()])
            .filter(|e| e.live)
            .map(|e| u128::from(e.words))
            .sum()
    }

    /// Per-chunk view of the used chunks, in index order, for invariant
    /// checks: `(index, sum, live_count, entry_count, in_e)`.
    pub fn chunk_stats(&self) -> Vec<(u64, u64, usize, usize, bool)> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_used())
            .map(|(i, c)| {
                let run = &self.entries[c.run()];
                (
                    i as u64,
                    c.sum,
                    run.iter().filter(|e| e.live).count(),
                    run.len(),
                    c.in_e,
                )
            })
            .collect()
    }

    /// Capacities of the per-object tables (entry arena, backref list),
    /// in records.
    #[cfg(test)]
    pub(crate) fn table_capacities(&self) -> [usize; 2] {
        [self.entries.capacity(), self.backrefs.capacity()]
    }

    /// Checks Claim 4.15-style structural invariants plus internal
    /// consistency; returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Runs must lie inside the arena and not overlap.
        let mut owned = vec![false; self.entries.len()];
        for (index, chunk) in self.chunks.iter().enumerate() {
            let run = chunk.run();
            if run.end > self.entries.len() {
                return Err(format!("chunk {index}: run {run:?} past the arena"));
            }
            if owned[run.clone()].iter().any(|&o| o) {
                return Err(format!("chunk {index}: run {run:?} overlaps another"));
            }
            owned[run].fill(true);
        }
        if let Some(w) = self.backrefs.windows(2).find(|w| w[0].id >= w[1].id) {
            return Err(format!(
                "backrefs of {} and {} out of order",
                w[0].id, w[1].id
            ));
        }
        // Live entries packed as `id << 32 | chunk index << 1 | half` (a
        // chunk index is below 2³¹: addresses are below 2³² and the step is
        // at least 1), sorted to match against the backrefs in id order.
        let mut live: Vec<u64> = Vec::new();
        for (index, chunk) in self.chunks.iter().enumerate() {
            let run = &self.entries[chunk.run()];
            let sum: u64 = run.iter().map(|e| u64::from(e.words)).sum();
            if sum != chunk.sum {
                return Err(format!("chunk {index}: sum {} != {}", chunk.sum, sum));
            }
            if chunk.in_e && !run.is_empty() {
                return Err(format!("chunk {index}: in E but has entries"));
            }
            if let Some(e) = run.iter().find(|e| e.words == 0) {
                return Err(format!("chunk {index}: zero-word entry o{}", e.id));
            }
            live.extend(
                run.iter()
                    .filter(|e| e.live)
                    .map(|e| u64::from(e.id) << 32 | (index as u64) << 1 | u64::from(e.half)),
            );
        }
        live.sort_unstable();
        let id_of = |key: u64| (key >> 32) as u32;
        let missing = |key: u64| Err(format!("live o{} missing backrefs", id_of(key)));
        let mut rest = live.as_slice();
        for b in &self.backrefs {
            if b.at[0] == NO_CHUNK && b.at[1] != NO_CHUNK {
                return Err(format!("object {}: backref slot 0 empty, slot 1 set", b.id));
            }
            let unreferenced = rest.partition_point(|&k| id_of(k) < b.id);
            if let Some(&key) = rest[..unreferenced].first() {
                return missing(key);
            }
            rest = &rest[unreferenced..];
            let (mine, tail) = rest.split_at(rest.partition_point(|&k| id_of(k) == b.id));
            rest = tail;
            let (first, second) = self.distinct_chunks(b.at);
            if let (Some(&key), None) = (mine.first(), first) {
                return missing(key);
            }
            let chunk_of = |key: u64| (key & 0xffff_ffff) >> 1;
            if let Some(&key) = mine
                .iter()
                .find(|&&k| first != Some(chunk_of(k)) && second != Some(chunk_of(k)))
            {
                return Err(format!("live o{} lacks backref to {}", b.id, chunk_of(key)));
            }
            // Claim 4.15(2): a live object is whole in one chunk or split
            // as two halves over two chunks.
            if second.is_some() && mine.iter().filter(|&&k| k & 1 == 1).count() != 2 {
                return Err(format!("o{} in two chunks but not as two halves", b.id));
            }
        }
        if let Some(&key) = rest.first() {
            return missing(key);
        }
        let used = self.chunks.iter().filter(|c| c.is_used()).count();
        if used != self.used {
            return Err(format!("used count {} != fresh {used}", self.used));
        }
        // u_sum agrees with a from-scratch computation.
        let fresh: u128 = self
            .chunks
            .iter()
            .map(|c| c.potential(self.step, self.rho))
            .sum();
        if fresh != self.u_sum {
            return Err(format!("u_sum {} != fresh {}", self.u_sum, fresh));
        }
        Ok(())
    }
}

/// Appends the run `hi` to the run `out[lo_start..]`, coalescing the
/// half-entries of objects whose two halves sit in the two merging runs:
/// the half in `lo` becomes whole and the one in `hi` goes, so the
/// shedding logic never sees a half without a distinct partner. Entries of
/// one chunk have distinct ids, so only pairs across the two runs can
/// match.
fn merge_run(out: &mut Vec<Entry>, lo_start: usize, hi: &[Entry], scratch: &mut Vec<(u32, usize)>) {
    scratch.clear();
    if !hi.is_empty() {
        scratch.extend(
            out[lo_start..]
                .iter()
                .enumerate()
                .filter(|(_, e)| e.half)
                .map(|(i, e)| (e.id, lo_start + i)),
        );
    }
    if scratch.is_empty() {
        out.extend_from_slice(hi);
        return;
    }
    scratch.sort_unstable();
    for &e in hi {
        if e.half {
            if let Ok(k) = scratch.binary_search_by_key(&e.id, |&(id, _)| id) {
                let whole = &mut out[scratch[k].1];
                whole.words += e.words;
                whole.half = false;
                continue;
            }
        }
        out.push(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn figure_4_scenario() {
        // The paper's Figure 4: chunks of 8 words, density 1/4 (rho = 2).
        // Half of O2 on C7 and C8, O3 on C9, O1 also on C7. O1 can be
        // freed because C7 keeps density via O2's half.
        let mut a = Association::new(3, 2); // chunks of 8, threshold 2
        a.associate_whole(7, id(1), 2, true); // O1: 2 words on C7
        a.claim_new_object_for_test(7, id(2), 4); // O2 halves on C7, C8
        a.associate_whole(9, id(3), 2, true); // O3 on C9
        a.check_invariants().unwrap();
        let (freed, _) = a.shed_density_surplus();
        // C7 has sum 4 (O1=2 + half O2=2): dropping O1 leaves 2 >= 2. The
        // half of O2 cannot leave C7 (C7 would fall to 2-2=0 < 2 after?
        // dropping the half leaves O1's 2 words = threshold, so the half
        // *may* migrate to C8 first; either way O1 is ultimately freed and
        // every chunk keeps >= 2 words).
        assert!(freed.contains(&id(1)), "O1 freed: {freed:?}");
        assert!(!freed.contains(&id(3)), "O3 pins C9");
        a.check_invariants().unwrap();
        for (_, sum, _, entries, _) in a.chunk_stats() {
            if entries > 0 {
                assert!(sum >= 2);
            }
        }
    }

    impl Association {
        /// Test helper: place a half/half object on chunks (d, d+1) without
        /// the line-14 reset semantics.
        fn claim_new_object_for_test(&mut self, d: u64, id_: ObjectId, size: u64) {
            let half = size / 2;
            let entry = Entry::new(id_, half, true, true);
            for index in [d, d + 1] {
                self.update(index, |chunk, entries| chunk.push(entries, entry));
            }
            self.set_refs(id_, [self.chunk_addr(d), self.chunk_addr(d + 1)]);
        }
    }

    #[test]
    fn from_survivors_matches_one_by_one_association() {
        let survivors = [
            (5, 1, 2, true),
            (2, 3, 1, false),
            (5, 4, 4, true),
            (0, 6, 2, true),
        ];
        let bulk = Association::from_survivors(
            3,
            2,
            survivors
                .iter()
                .map(|&(index, raw, words, live)| (index, id(raw), words, live)),
        );
        let mut single = Association::new(3, 2);
        for &(index, raw, words, live) in &survivors {
            single.associate_whole(index, id(raw), words, live);
        }
        bulk.check_invariants().unwrap();
        assert_eq!(bulk.chunk_stats(), single.chunk_stats());
        assert_eq!(bulk.u_sum(), single.u_sum());
        assert_eq!(bulk.used_chunks(), single.used_chunks());
        for raw in 0..8 {
            assert_eq!(bulk.is_associated(id(raw)), single.is_associated(id(raw)));
        }
        // The bulk build sizes the arena exactly.
        assert_eq!(bulk.table_capacities(), [4, 3]);
    }

    #[test]
    fn potential_saturates_at_chunk_size() {
        let mut a = Association::new(4, 2); // chunks of 16, u caps at 16
        a.associate_whole(0, id(1), 2, true);
        assert_eq!(a.u_sum(), 8, "2 words << rho=2 -> 8");
        a.associate_whole(0, id(2), 6, true);
        assert_eq!(a.u_sum(), 16, "saturated at 2^step");
        a.associate_whole(1, id(3), 1, true);
        assert_eq!(a.u_sum(), 20);
        assert_eq!(a.potential(6), 20 - 16);
        a.check_invariants().unwrap();
    }

    #[test]
    fn advance_step_merges_and_preserves_sums() {
        let mut a = Association::new(3, 1);
        a.associate_whole(4, id(1), 3, true);
        a.associate_whole(5, id(2), 5, true);
        a.associate_whole(7, id(3), 1, true);
        a.advance_step();
        a.check_invariants().unwrap();
        assert_eq!(a.step(), 4);
        let stats = a.chunk_stats();
        // Chunks 4,5 -> 2 (sum 8); chunk 7 -> 3 (sum 1).
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0], (2, 8, 2, 2, false));
        assert_eq!(stats[1], (3, 1, 1, 1, false));
        // u: min(2*8,16)=16, min(2*1,16)=2.
        assert_eq!(a.u_sum(), 18);
    }

    #[test]
    fn mark_dead_keeps_sum_and_entries() {
        let mut a = Association::new(3, 1);
        a.associate_whole(0, id(1), 4, true);
        let u_before = a.u_sum();
        a.mark_dead(id(1));
        assert_eq!(a.u_sum(), u_before, "death does not change u");
        assert!(!a.is_associated(id(1)));
        let (freed, _) = a.shed_density_surplus();
        assert!(freed.is_empty(), "dead entries are never shed");
        a.check_invariants().unwrap();
    }

    #[test]
    fn claim_new_object_resets_and_tracks_e() {
        let mut a = Association::new(3, 2);
        // Old dead residue on the chunks to be covered.
        a.associate_whole(10, id(1), 2, false);
        a.associate_whole(11, id(2), 2, false);
        let cap = 8u128;
        assert!(a.u_sum() > 0);
        a.claim_new_object(10, 11, 12, id(5), 32);
        a.check_invariants().unwrap();
        // D1 and D3 hold 16-word halves (saturated), D2 is in E.
        assert_eq!(a.u_sum(), 3 * cap);
        let stats = a.chunk_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats[1].4, "middle chunk in E");
        assert_eq!(stats[1].3, 0, "middle chunk has no entries");
        // After a step change E lapses and the halves merge into chunk 5.
        a.advance_step();
        a.check_invariants().unwrap();
        let stats = a.chunk_stats();
        assert_eq!(stats.len(), 2, "{stats:?}");
        assert!(stats.iter().all(|s| !s.4), "E cleared on step change");
    }

    #[test]
    fn shed_respects_threshold_exactly() {
        let mut a = Association::new(4, 2); // threshold 4
        a.associate_whole(0, id(1), 4, true);
        a.associate_whole(0, id(2), 4, true);
        let (freed, _) = a.shed_density_surplus();
        assert_eq!(freed.len(), 1, "exactly one of the two 4-word objects");
        let stats = a.chunk_stats();
        assert_eq!(stats[0].1, 4, "threshold retained");
        // A chunk below threshold sheds nothing.
        let mut b = Association::new(4, 2);
        b.associate_whole(0, id(3), 2, true);
        assert!(b.shed_density_surplus().0.is_empty());
    }

    #[test]
    fn half_reassignment_cascades() {
        // Chunks of 8, rho 1 (threshold 4). Object A halves on chunks 0,1
        // (4+4); whole B=4 on chunk 0; whole C=4 on chunk 1.
        let mut a = Association::new(3, 1);
        a.associate_whole(0, id(10), 4, true);
        a.associate_whole(1, id(11), 4, true);
        a.claim_new_object_for_test(0, id(12), 8);
        a.check_invariants().unwrap();
        let (freed, _) = a.shed_density_surplus();
        a.check_invariants().unwrap();
        // Enough mass exists to free both whole objects: each chunk ends
        // holding exactly one half... or the halves migrate to one chunk.
        // Whatever the cascade order, every chunk with entries keeps >= 4
        // and at least one whole object is freed.
        assert!(!freed.is_empty());
        for (_, sum, _, entries, _) in a.chunk_stats() {
            if entries > 0 {
                assert!(sum >= 4, "density threshold violated");
            }
        }
        // Total live words retained across chunks is at least threshold
        // per non-empty chunk.
        assert!(a.live_associated_words() >= 4);
    }
}
