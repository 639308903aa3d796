//! The seed object↔chunk association, kept verbatim as the oracle for
//! `association_equivalence`: a `BTreeMap` of chunks and a `HashMap` of
//! per-object backref vectors, both rebuilt or walked in full at every
//! step change. The runtime [`pcb_adversary::Association`] must agree with
//! it after every operation.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};

use pcb_heap::ObjectId;

/// One element of an `O_D` set: a whole object or one of its halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The associated object.
    pub id: ObjectId,
    /// Words this entry contributes to the chunk (the object's size, or
    /// half of it for a half-entry).
    pub words: u64,
    /// Whether the object is still live (dead entries are left behind by
    /// compacted-then-freed objects).
    pub live: bool,
    /// Whether this is one half of an object split across two chunks.
    pub half: bool,
}

#[derive(Debug, Clone, Default)]
struct Chunk {
    entries: Vec<Entry>,
    /// Sum of `words` over entries (maintained, not recomputed).
    sum: u64,
    /// Membership in the set `E` of middle chunks (Definition 4.12).
    in_e: bool,
}

/// The association state at one step, with `u(t)` maintained incrementally.
#[derive(Debug, Clone)]
pub struct Association {
    /// Current step `i`: chunks span `2^i` words.
    step: u32,
    /// Density exponent `ρ`: used chunks keep `sum ≥ 2^{step−ρ}` and the
    /// chunk potential saturates at density `2^-ρ`.
    rho: u32,
    chunks: BTreeMap<u64, Chunk>,
    /// Live-object backrefs: object -> chunk indices holding its entries.
    by_object: HashMap<ObjectId, Vec<u64>>,
    /// Σ u_D over all chunks, in words.
    u_sum: u128,
}

impl Association {
    /// Creates an empty association over chunks of `2^step` words.
    pub fn new(step: u32, rho: u32) -> Self {
        Association {
            step,
            rho,
            chunks: BTreeMap::new(),
            by_object: HashMap::new(),
            u_sum: 0,
        }
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
        self.chunks.len()
    }

    /// The chunk index holding `addr` at the current step.
    pub fn chunk_of(&self, addr: u64) -> u64 {
        addr >> self.step
    }

    /// Applies `f` to the chunk at `index`, keeping `u_sum` consistent.
    fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut Chunk) -> R) -> R {
        let chunk = self.chunks.entry(index).or_default();
        let cap = 1u128 << self.step;
        let before = if chunk.in_e {
            cap
        } else {
            cap.min((chunk.sum as u128) << self.rho)
        };
        let r = f(chunk);
        let after = if chunk.in_e {
            cap
        } else {
            cap.min((chunk.sum as u128) << self.rho)
        };
        if chunk.entries.is_empty() && !chunk.in_e {
            self.chunks.remove(&index);
        }
        self.u_sum = self.u_sum - before + after;
        r
    }

    /// Associates a whole live object with the chunk at `index` (used by
    /// line 9 of Algorithm 1 for the f_ρ-occupying survivors of stage I).
    pub fn associate_whole(&mut self, index: u64, id: ObjectId, words: u64, live: bool) {
        self.update(index, |chunk| {
            chunk.entries.push(Entry {
                id,
                words,
                live,
                half: false,
            });
            chunk.sum += words;
        });
        if live {
            self.by_object.entry(id).or_default().push(index);
        }
    }

    /// Doubles the chunk size: each pair of adjacent chunks becomes one
    /// (line 12: `O_D = O_D1 ∪ O_D2`), and `E` membership lapses
    /// (Definition 4.12).
    pub fn advance_step(&mut self) {
        let old = std::mem::take(&mut self.chunks);
        self.step += 1;
        self.u_sum = 0;
        for (index, mut chunk) in old {
            let new_index = index / 2;
            chunk.in_e = false;
            let merged = self.chunks.entry(new_index).or_default();
            merged.sum += chunk.sum;
            merged.entries.append(&mut chunk.entries);
        }
        self.chunks.retain(|_, c| !c.entries.is_empty());
        // An object whose two halves sat in the two merging chunks is now
        // whole in one chunk: coalesce its half-entries so the shedding
        // logic never sees a half without a distinct partner.
        for chunk in self.chunks.values_mut() {
            let mut i = 0;
            while i < chunk.entries.len() {
                if chunk.entries[i].half {
                    if let Some(j) = (i + 1..chunk.entries.len())
                        .find(|&j| chunk.entries[j].id == chunk.entries[i].id)
                    {
                        let other = chunk.entries.swap_remove(j);
                        debug_assert!(other.half);
                        chunk.entries[i].words += other.words;
                        chunk.entries[i].half = false;
                    }
                }
                i += 1;
            }
        }
        let cap = 1u128 << self.step;
        self.u_sum = self
            .chunks
            .values()
            .map(|c| cap.min((c.sum as u128) << self.rho))
            .sum();
        for indices in self.by_object.values_mut() {
            for idx in indices.iter_mut() {
                *idx /= 2;
            }
            indices.dedup();
        }
    }

    /// Marks a (compacted-then-freed) object's entries dead; the entries
    /// and their contribution to chunk sums remain until the chunks are
    /// reused (the paper's "association is not removed when an object is
    /// compacted").
    pub fn mark_dead(&mut self, id: ObjectId) {
        let Some(indices) = self.by_object.remove(&id) else {
            return;
        };
        for index in indices {
            self.update(index, |chunk| {
                for e in chunk.entries.iter_mut().filter(|e| e.id == id) {
                    e.live = false;
                }
            });
        }
    }

    /// Whether the object currently has live entries.
    pub fn is_associated(&self, id: ObjectId) -> bool {
        self.by_object.contains_key(&id)
    }

    /// Line 13 of Algorithm 1: for every chunk, de-allocate as many
    /// associated objects as possible while keeping `sum ≥ 2^{step−ρ}`.
    /// Dropping a half re-assigns it to the partner chunk (which is then
    /// re-evaluated); dropping a whole de-allocates the object for real.
    ///
    /// Returns the objects to free, in a deterministic order.
    pub fn shed_density_surplus(&mut self) -> Vec<ObjectId> {
        let threshold = 1u64 << (self.step - self.rho);
        let mut freed = Vec::new();
        let mut worklist: Vec<u64> = self.chunks.keys().copied().collect();
        while let Some(index) = worklist.pop() {
            while let Some(chunk) = self.chunks.get(&index) {
                // Droppable: live entries whose removal keeps the chunk at
                // or above the density threshold. Prefer the largest.
                let candidate = chunk
                    .entries
                    .iter()
                    .filter(|e| e.live && chunk.sum - e.words >= threshold)
                    .max_by_key(|e| (e.words, !e.half, e.id))
                    .copied();
                let Some(entry) = candidate else { break };
                self.update(index, |chunk| {
                    let pos = chunk
                        .entries
                        .iter()
                        .position(|e| e.id == entry.id && e.half == entry.half)
                        .expect("candidate entry present");
                    chunk.entries.swap_remove(pos);
                    chunk.sum -= entry.words;
                });
                if entry.half {
                    // Re-assign the dropped half to the chunk holding the
                    // other half, then re-evaluate that chunk.
                    let partner = {
                        let indices = self
                            .by_object
                            .get_mut(&entry.id)
                            .expect("live half has backrefs");
                        let pos = indices
                            .iter()
                            .position(|&i| i == index)
                            .expect("backref to this chunk");
                        indices.swap_remove(pos);
                        indices[0]
                    };
                    self.update(partner, |chunk| {
                        let other = chunk
                            .entries
                            .iter_mut()
                            .find(|e| e.id == entry.id && e.live)
                            .expect("partner holds the other half");
                        debug_assert!(other.half);
                        other.half = false;
                        other.words += entry.words;
                        chunk.sum += entry.words;
                    });
                    worklist.push(partner);
                } else {
                    self.by_object.remove(&entry.id);
                    freed.push(entry.id);
                }
            }
        }
        freed.sort_unstable();
        freed
    }

    /// Line 14 of Algorithm 1, after placing object `o` (of size
    /// `4·2^step`) whose first three fully covered chunks are `d1..d3`:
    /// reset their associations to `O_D1 = {o'}`, `O_D2 = ∅` (recorded in
    /// `E`), `O_D3 = {o''}`.
    pub fn claim_new_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        debug_assert_eq!(size, 4 << self.step, "stage-II objects span 4 chunks");
        for index in [d1, d2, d3] {
            let dropped = self.update(index, |chunk| {
                chunk.sum = 0;
                chunk.in_e = false;
                std::mem::take(&mut chunk.entries)
            });
            // Remove backrefs of discarded live entries (only dead entries
            // can be present on fully covered chunks, but stay defensive).
            for e in dropped.iter().filter(|e| e.live) {
                if let Some(indices) = self.by_object.get_mut(&e.id) {
                    indices.retain(|&i| i != index);
                    if indices.is_empty() {
                        self.by_object.remove(&e.id);
                    }
                }
            }
        }
        let half = size / 2;
        for index in [d1, d3] {
            self.update(index, |chunk| {
                chunk.entries.push(Entry {
                    id,
                    words: half,
                    live: true,
                    half: true,
                });
                chunk.sum += half;
            });
        }
        self.update(d2, |chunk| {
            chunk.in_e = true;
        });
        self.by_object.insert(id, vec![d1, d3]);
    }

    /// The no-halves variant of [`claim_new_object`](Self::claim_new_object)
    /// (Section 3.1's third improvement switched off): the whole object is
    /// associated with the first covered chunk, the other two stay
    /// unassociated, and `E` is not used.
    pub fn claim_whole_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        for index in [d1, d2, d3] {
            let dropped = self.update(index, |chunk| {
                chunk.sum = 0;
                chunk.in_e = false;
                std::mem::take(&mut chunk.entries)
            });
            for e in dropped.iter().filter(|e| e.live) {
                if let Some(indices) = self.by_object.get_mut(&e.id) {
                    indices.retain(|&i| i != index);
                    if indices.is_empty() {
                        self.by_object.remove(&e.id);
                    }
                }
            }
        }
        self.update(d1, |chunk| {
            chunk.entries.push(Entry {
                id,
                words: size,
                live: true,
                half: false,
            });
            chunk.sum += size;
        });
        self.by_object.insert(id, vec![d1]);
    }

    /// Total words in live entries (the live space the association is
    /// holding hostage); used by tests for Proposition 4.17.
    pub fn live_associated_words(&self) -> u128 {
        self.chunks
            .values()
            .flat_map(|c| &c.entries)
            .filter(|e| e.live)
            .map(|e| e.words as u128)
            .sum()
    }

    /// Per-chunk view for invariant checks: `(index, sum, live_count,
    /// entry_count, in_e)`.
    pub fn chunk_stats(&self) -> Vec<(u64, u64, usize, usize, bool)> {
        self.chunks
            .iter()
            .map(|(&i, c)| {
                (
                    i,
                    c.sum,
                    c.entries.iter().filter(|e| e.live).count(),
                    c.entries.len(),
                    c.in_e,
                )
            })
            .collect()
    }

    /// Checks Claim 4.15-style structural invariants plus internal
    /// consistency; returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut halves: HashMap<ObjectId, u32> = HashMap::new();
        for (&index, chunk) in &self.chunks {
            let sum: u64 = chunk.entries.iter().map(|e| e.words).sum();
            if sum != chunk.sum {
                return Err(format!("chunk {index}: sum {} != {}", chunk.sum, sum));
            }
            if chunk.in_e && !chunk.entries.is_empty() {
                return Err(format!("chunk {index}: in E but has entries"));
            }
            for e in &chunk.entries {
                if e.words == 0 {
                    return Err(format!("chunk {index}: zero-word entry {}", e.id));
                }
                if e.live {
                    let backrefs = self
                        .by_object
                        .get(&e.id)
                        .ok_or_else(|| format!("live {} missing backrefs", e.id))?;
                    if !backrefs.contains(&index) {
                        return Err(format!("live {} lacks backref to {index}", e.id));
                    }
                    if e.half {
                        *halves.entry(e.id).or_default() += 1;
                    }
                }
            }
        }
        // Claim 4.15(2): a live object is whole in one chunk or split as
        // two halves over two chunks.
        for (id, indices) in &self.by_object {
            match indices.len() {
                1 => {}
                2 => {
                    if halves.get(id) != Some(&2) {
                        return Err(format!("{id} in two chunks but not as two halves"));
                    }
                    if indices[0] == indices[1] {
                        return Err(format!("{id} has duplicate chunk backrefs"));
                    }
                }
                k => return Err(format!("{id} associated with {k} chunks")),
            }
        }
        // u_sum agrees with a from-scratch computation.
        let cap = 1u128 << self.step;
        let fresh: u128 = self.chunks.values().map(|c| self.u_of_raw(c, cap)).sum();
        if fresh != self.u_sum {
            return Err(format!("u_sum {} != fresh {}", self.u_sum, fresh));
        }
        Ok(())
    }

    fn u_of_raw(&self, chunk: &Chunk, cap: u128) -> u128 {
        if chunk.in_e {
            cap
        } else {
            cap.min((chunk.sum as u128) << self.rho)
        }
    }
}
