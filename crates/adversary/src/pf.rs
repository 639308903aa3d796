//! The paper's bad program `P_F` (Algorithm 1).
//!
//! `P_F` forces every c-partial memory manager into a heap of at least
//! `M · h` words (Theorem 1). It runs in two stages over steps
//! `i = 0, 1, …, log₂(n) − 2`:
//!
//! * **Stage I** (steps `0..=ρ`): Robson's bad program, adapted to survive
//!   compaction through *ghost objects* — whenever the manager moves an
//!   object, `P_F` frees it immediately but keeps a ghost at its original
//!   address so the offset-selection and de-allocation decisions of
//!   Robson's algorithm are unchanged (Definition 4.1, Claim 4.8).
//!   Steps `ρ+1 .. 2ρ−1` are null steps that only let the chunk size grow.
//! * **Stage II** (steps `2ρ ..= log₂(n) − 2`): chunk sizes double each
//!   step; each chunk keeps a set of associated objects with density at
//!   least `2^-ρ` (so evacuating it never pays for the manager), surplus
//!   objects are freed (line 13), and `⌊x·M·2^{−i−2}⌋` objects of size
//!   `2^{i+2}` are allocated (line 14), each claiming three empty chunks.
//!
//! The three improvements over POPL'11 that Section 3.1 describes are
//! individually switchable through [`PfVariant`], giving the ablation
//! baseline (all off) used by experiment E7.

use pcb_heap::{Addr, MoveResponse, ObjectId, Program, Size};

use crate::association::Association;
use crate::math;
use crate::occupancy::{first_occupying_word, is_f_occupying, OffsetTracker};

/// Which of Section 3.1's improvements are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfVariant {
    /// Improvement 1: run Robson's program (with offset optimization) as
    /// stage I. When off, stage I degenerates to the initial fill with no
    /// offset selection (`f` stays 0) — the paper's first improvement.
    pub robson_stage1: bool,
    /// Improvement 2: allocate the regimented `x·M` words per stage-II
    /// step instead of greedily allocating as much as fits.
    pub regimented_alloc: bool,
    /// Improvement 3: split each new object's association into two halves
    /// on its first and third covered chunks. When off, the whole object
    /// is associated with the first chunk only.
    pub half_assignment: bool,
}

impl PfVariant {
    /// The full program of the paper.
    pub const FULL: PfVariant = PfVariant {
        robson_stage1: true,
        regimented_alloc: true,
        half_assignment: true,
    };

    /// The POPL'11-style baseline: all three improvements off.
    pub const BASELINE: PfVariant = PfVariant {
        robson_stage1: false,
        regimented_alloc: false,
        half_assignment: false,
    };
}

impl Default for PfVariant {
    fn default() -> Self {
        PfVariant::FULL
    }
}

/// Parameters of a `P_F` run.
#[derive(Debug, Clone, Copy)]
pub struct PfConfig {
    /// Live-space bound `M` in words.
    pub m: u64,
    /// `log₂` of the largest object size `n`.
    pub log_n: u32,
    /// Compaction bound `c`.
    pub c: u64,
    /// Density exponent `ρ` (chunk density threshold `2^-ρ`).
    pub rho: u32,
    /// Target waste factor `h` (drives `x = (1 − 2^{−ρ}h)/(ρ+1)`).
    pub h: f64,
    /// Which improvements to enable.
    pub variant: PfVariant,
    /// Record analysis invariants (Claim 4.16) during the run.
    pub validate: bool,
}

impl PfConfig {
    /// The canonical configuration: optimal `ρ` and the Theorem 1 `h` for
    /// `(m, n, c)`, all improvements on.
    ///
    /// # Errors
    ///
    /// Returns a message when no feasible `ρ` exists (e.g. `n` too small
    /// or `c < 3`).
    pub fn new(m: u64, log_n: u32, c: u64) -> Result<Self, String> {
        let (rho, h) = math::optimal_rho_memo(m, log_n, c)
            .ok_or_else(|| format!("no feasible rho for M={m}, log n={log_n}, c={c}"))?;
        Ok(PfConfig {
            m,
            log_n,
            c,
            rho,
            h,
            variant: PfVariant::FULL,
            validate: false,
        })
    }

    /// Overrides the density exponent (recomputing `h`); useful for
    /// sweeping `ρ` in experiments.
    ///
    /// # Errors
    ///
    /// Returns a message when `rho` is infeasible for the parameters.
    pub fn with_rho(mut self, rho: u32) -> Result<Self, String> {
        let h = math::waste_factor(self.m, self.log_n, self.c, rho)
            .ok_or_else(|| format!("rho={rho} infeasible"))?;
        self.rho = rho;
        self.h = h;
        Ok(self)
    }

    /// Selects a variant; returns `self` for chaining.
    pub fn with_variant(mut self, variant: PfVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Enables invariant recording; returns `self` for chaining.
    pub fn with_validation(mut self) -> Self {
        self.validate = true;
        self
    }

    /// The stage-II allocation fraction `x`.
    pub fn x(&self) -> f64 {
        math::stage2_alloc_fraction(self.h, self.rho)
    }

    /// The last step index, `log₂(n) − 2`.
    pub fn last_step(&self) -> u32 {
        self.log_n - 2
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LiveObj {
    addr: Addr,
    size: Size,
}

impl LiveObj {
    /// An empty [`IdMap`] slot: no object has size zero.
    const VACANT: LiveObj = LiveObj {
        addr: Addr::ZERO,
        size: Size::ZERO,
    };

    fn is_vacant(self) -> bool {
        self.size.is_zero()
    }
}

/// Id-indexed object table. Engine ids are small sequential integers, so
/// a slot vector beats hashing on every placement/free, and iteration
/// comes out in id order — which is the order every consumer sorts into
/// anyway. A slot of size zero is vacant, which keeps a slot at 16 bytes
/// (an `Option<LiveObj>` takes 24): the table grows with every id ever
/// issued.
#[derive(Debug, Default)]
struct IdMap {
    slots: Vec<LiveObj>,
}

impl IdMap {
    fn insert(&mut self, id: ObjectId, obj: LiveObj) {
        debug_assert!(!obj.is_vacant(), "objects are never empty");
        let i = id.get() as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, LiveObj::VACANT);
        }
        self.slots[i] = obj;
    }

    fn get(&self, id: ObjectId) -> Option<LiveObj> {
        self.slots
            .get(id.get() as usize)
            .copied()
            .filter(|o| !o.is_vacant())
    }

    fn remove(&mut self, id: ObjectId) -> Option<LiveObj> {
        let slot = self.slots.get_mut(id.get() as usize)?;
        let obj = std::mem::replace(slot, LiveObj::VACANT);
        (!obj.is_vacant()).then_some(obj)
    }

    fn clear(&mut self) {
        self.slots.clear();
    }

    /// Live entries in ascending id order.
    fn iter(&self) -> impl Iterator<Item = (ObjectId, LiveObj)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.is_vacant())
            .map(|(i, &o)| (ObjectId::from_raw(i as u64), o))
    }

    fn values(&self) -> impl Iterator<Item = LiveObj> + '_ {
        self.slots.iter().copied().filter(|o| !o.is_vacant())
    }
}

/// Execution phases of `P_F`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Step 0: fill with `M` unit objects.
    Fill,
    /// Steps `1..=ρ`: Robson adaptation.
    Robson(u32),
    /// Steps `ρ+1 ..= 2ρ−1`: null steps.
    Null(u32),
    /// Steps `2ρ ..= log n − 2`.
    Stage2(u32),
    /// Execution complete.
    Done,
}

/// The bad program `P_F` of Algorithm 1.
///
/// Drive it with [`pcb_heap::Execution`] against any
/// [`pcb_heap::MemoryManager`]; the measured heap size divided by `M`
/// approaches (and for c-partial managers can never beat) the waste factor
/// `h` of Theorem 1.
#[derive(Debug)]
pub struct PfProgram {
    cfg: PfConfig,
    round: u32,
    f: u64,
    live: IdMap,
    live_words: u64,
    /// Stage-I ghosts at their original (birth) address.
    ghosts: IdMap,
    ghost_words: u64,
    /// Incrementally maintained candidate scores over live ∪ ghosts for
    /// the next Robson offset choice. Stage-I moves are score-neutral (the
    /// ghost inherits the birth address and size), so only placements and
    /// step transitions touch it.
    tracker: OffsetTracker,
    assoc: Option<Association>,
    /// Words allocated in each stage (the analysis' `s₁`, `s₂`).
    s1_words: u64,
    s2_words: u64,
    /// Words compacted in each stage (the analysis' `q₁`, `q₂`).
    q1_words: u64,
    q2_words: u64,
    violations: Vec<String>,
}

impl PfProgram {
    /// Creates the program for a configuration.
    pub fn new(cfg: PfConfig) -> Self {
        PfProgram {
            cfg,
            round: 0,
            f: 0,
            live: IdMap::default(),
            live_words: 0,
            ghosts: IdMap::default(),
            ghost_words: 0,
            tracker: OffsetTracker::new(),
            assoc: None,
            s1_words: 0,
            s2_words: 0,
            q1_words: 0,
            q2_words: 0,
            violations: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PfConfig {
        &self.cfg
    }

    fn phase(&self) -> Phase {
        let rho = self.cfg.rho;
        let last = self.cfg.last_step();
        match self.round {
            0 => Phase::Fill,
            r if r <= rho => Phase::Robson(r),
            r if r < 2 * rho => Phase::Null(r),
            r if r <= last => Phase::Stage2(r),
            _ => Phase::Done,
        }
    }

    /// Words compacted during stage I (the analysis' `q₁`).
    pub fn q1_words(&self) -> u64 {
        self.q1_words
    }

    /// Words compacted during stage II (`q₂`).
    pub fn q2_words(&self) -> u64 {
        self.q2_words
    }

    /// Words allocated during stage I (`s₁`).
    pub fn s1_words(&self) -> u64 {
        self.s1_words
    }

    /// Words allocated during stage II (`s₂`).
    pub fn s2_words(&self) -> u64 {
        self.s2_words
    }

    /// The association state (present once stage II has started).
    pub fn association(&self) -> Option<&Association> {
        self.assoc.as_ref()
    }

    /// The potential `u(t) = Σ u_D − n/4` in words, if stage II started.
    pub fn potential(&self) -> Option<i128> {
        self.assoc.as_ref().map(|a| a.potential(self.cfg.log_n))
    }

    /// Claim 4.16 violations recorded so far (empty unless
    /// [`PfConfig::validate`] is set — and, if the paper and this
    /// implementation are right, empty regardless).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Builds the line-9 association: each `f_ρ`-occupying live or ghost
    /// object is associated with the `2^{2ρ−1}`-chunk containing its
    /// occupying word.
    fn init_association(&mut self) {
        let step = 2 * self.cfg.rho - 1;
        let mut assoc = Association::new(step, self.cfg.rho);
        let chunk_words = 1u64 << step;
        // `live` and `ghosts` are id-indexed with disjoint ids, so walking
        // the ids in order visits every survivor once, in id order.
        let ids = self.live.slots.len().max(self.ghosts.slots.len());
        for raw in 0..ids as u64 {
            let id = ObjectId::from_raw(raw);
            let (obj, live) = match (self.live.get(id), self.ghosts.get(id)) {
                (Some(obj), _) => (obj, true),
                (None, Some(obj)) => (obj, false),
                (None, None) => continue,
            };
            if let Some(word) = first_occupying_word(obj.addr, obj.size, self.f, self.cfg.rho) {
                // The occupying word is defined w.r.t. step-ρ chunks; the
                // association chunk (size 2^{2ρ−1}) is the one containing
                // that word.
                let index = word.get() / chunk_words;
                assoc.associate_whole(index, id, obj.size.get(), live);
            }
        }
        self.ghosts.clear();
        self.ghost_words = 0;
        self.assoc = Some(assoc);
    }

    fn validate_u_monotone(&mut self, before: i128, what: &str) {
        if !self.cfg.validate {
            return;
        }
        let after = self.potential().expect("association exists");
        if after < before {
            self.violations
                .push(format!("u decreased on {what}: {before} -> {after}"));
        }
    }
}

impl Program for PfProgram {
    fn name(&self) -> &str {
        if self.cfg.variant == PfVariant::FULL {
            "pf"
        } else if self.cfg.variant == PfVariant::BASELINE {
            "pf-baseline"
        } else {
            "pf-variant"
        }
    }

    fn live_bound(&self) -> Size {
        Size::new(self.cfg.m)
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        match self.phase() {
            Phase::Fill | Phase::Null(_) | Phase::Done => Vec::new(),
            Phase::Robson(i) => {
                // Line 5: pick f_i; line 6: free the non-f_i-occupying.
                debug_assert_eq!(self.tracker.step(), i);
                if self.cfg.variant.robson_stage1 {
                    self.f = self.tracker.choose();
                }
                let f = self.f;
                // IdMap iteration is already in ascending id order.
                let freed: Vec<ObjectId> = self
                    .live
                    .iter()
                    .filter(|&(_, o)| !is_f_occupying(o.addr, o.size, f, i))
                    .map(|(id, _)| id)
                    .collect();
                for &id in &freed {
                    let o = self.live.remove(id).expect("selected from live");
                    self.live_words -= o.size.get();
                }
                // Ghosts vanish silently (they are already de-allocated).
                let ghost_gone: Vec<ObjectId> = self
                    .ghosts
                    .iter()
                    .filter(|&(_, o)| !is_f_occupying(o.addr, o.size, f, i))
                    .map(|(id, _)| id)
                    .collect();
                for id in ghost_gone {
                    let o = self.ghosts.remove(id).expect("selected from ghosts");
                    self.ghost_words -= o.size.get();
                }
                // Seed the step-(i+1) candidate scores from the surviving
                // live-or-ghost inventory; round-`i` allocations accumulate
                // via `placed`.
                self.tracker.advance(f, i + 1);
                for o in self.live.values().chain(self.ghosts.values()) {
                    self.tracker.add(o.addr, o.size);
                }
                freed
            }
            Phase::Stage2(i) => {
                // First stage-II step: build the line-9 association, then
                // advance into the step-i partition.
                if self.assoc.is_none() {
                    self.init_association();
                }
                let before = self.potential().expect("association just built");
                self.assoc.as_mut().expect("built above").advance_step();
                debug_assert_eq!(self.assoc.as_ref().unwrap().step(), i);
                self.validate_u_monotone(before, "step change");
                // Line 13: shed surplus while keeping chunk density 2^-ρ.
                let before = self.potential().expect("association exists");
                let freed = self
                    .assoc
                    .as_mut()
                    .expect("association exists")
                    .shed_density_surplus();
                self.validate_u_monotone(before, "density shedding");
                if self.cfg.validate {
                    if let Err(e) = self.assoc.as_ref().unwrap().check_invariants() {
                        self.violations.push(format!("step {i}: {e}"));
                    }
                }
                for &id in &freed {
                    let o = self.live.remove(id).expect("shed objects are live");
                    self.live_words -= o.size.get();
                }
                freed
            }
        }
    }

    fn allocs(&mut self) -> Vec<Size> {
        match self.phase() {
            Phase::Fill => vec![Size::WORD; self.cfg.m as usize],
            Phase::Robson(i) => {
                // Line 7: fill the remaining budget with 2^i-word objects;
                // ghosts count against M (the analysis treats them as live).
                let size = 1u64 << i;
                let budget = self
                    .cfg
                    .m
                    .saturating_sub(self.live_words + self.ghost_words);
                vec![Size::new(size); (budget / size) as usize]
            }
            Phase::Null(_) | Phase::Done => Vec::new(),
            Phase::Stage2(i) => {
                // Line 14: x·M words per step (regimented), capped by M.
                let size = 1u64 << (i + 2);
                let budget = self.cfg.m.saturating_sub(self.live_words) / size;
                let count = if self.cfg.variant.regimented_alloc {
                    let regimented = (self.cfg.x() * self.cfg.m as f64 / size as f64) as u64;
                    regimented.min(budget)
                } else {
                    budget
                };
                vec![Size::new(size); count as usize]
            }
        }
    }

    fn placed(&mut self, id: ObjectId, addr: Addr, size: Size) {
        self.live.insert(id, LiveObj { addr, size });
        self.live_words += size.get();
        match self.phase() {
            Phase::Stage2(i) => {
                self.s2_words += size.get();
                let assoc = self.assoc.as_mut().expect("stage II has an association");
                // The first three chunks fully covered by the object.
                let chunk = 1u64 << i;
                let d1 = addr.get().div_ceil(chunk);
                debug_assert!((d1 + 3) * chunk <= addr.get() + size.get());
                let (u_before, q) = if self.cfg.validate {
                    let q: u64 = (d1..d1 + 3).map(|d| assoc.chunk_sum(d)).sum();
                    (assoc.potential(self.cfg.log_n), q)
                } else {
                    (0, 0)
                };
                if self.cfg.variant.half_assignment {
                    assoc.claim_new_object(d1, d1 + 1, d1 + 2, id, size.get());
                } else {
                    assoc.claim_whole_object(d1, d1 + 1, d1 + 2, id, size.get());
                }
                if self.cfg.validate {
                    let u_after = self.assoc.as_ref().unwrap().potential(self.cfg.log_n);
                    // Claim 4.16(2): Δu ≥ ¾|o| − 2^ρ·q(o). Compare at 4×
                    // scale to stay in integers.
                    let lhs = 4 * (u_after - u_before);
                    let rhs = 3 * size.get() as i128 - 4 * ((q as i128) << self.cfg.rho);
                    if self.cfg.variant.half_assignment && lhs < rhs {
                        self.violations.push(format!(
                            "claim 4.16(2) violated at {id}: 4Δu = {lhs} < {rhs}"
                        ));
                    }
                }
            }
            Phase::Fill | Phase::Robson(_) => {
                self.s1_words += size.get();
                self.tracker.add(addr, size);
            }
            Phase::Null(_) | Phase::Done => {}
        }
    }

    fn moved(&mut self, id: ObjectId, _from: Addr, _to: Addr, size: Size) -> MoveResponse {
        // "If the memory manager compacts an object, ask [it] to
        // de-allocate this object immediately."
        let obj = self
            .live
            .remove(id)
            .expect("the manager can only move live objects");
        self.live_words -= size.get();
        match self.phase() {
            Phase::Stage2(_) => {
                self.q2_words += size.get();
                if let Some(assoc) = self.assoc.as_mut() {
                    assoc.mark_dead(id);
                }
            }
            _ => {
                // Stage I (including fill and null steps): keep a ghost at
                // the original allocation address (Definition 4.1).
                self.q1_words += size.get();
                self.ghosts.insert(
                    id,
                    LiveObj {
                        addr: obj.addr,
                        size: obj.size,
                    },
                );
                self.ghost_words += size.get();
            }
        }
        MoveResponse::FreeImmediately
    }

    fn round_done(&mut self) {
        self.round += 1;
    }

    fn finished(&self) -> bool {
        matches!(self.phase(), Phase::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_map_slots_stay_16_bytes() {
        assert_eq!(std::mem::size_of::<LiveObj>(), 16);
    }

    #[test]
    fn id_map_treats_size_zero_as_vacant() {
        let mut map = IdMap::default();
        let obj = LiveObj {
            addr: Addr::new(0),
            size: Size::new(2),
        };
        map.insert(ObjectId::from_raw(3), obj);
        assert_eq!(map.get(ObjectId::from_raw(3)), Some(obj));
        assert_eq!(map.get(ObjectId::from_raw(1)), None);
        assert_eq!(map.get(ObjectId::from_raw(9)), None);
        assert_eq!(
            map.iter().collect::<Vec<_>>(),
            vec![(ObjectId::from_raw(3), obj)]
        );
        assert_eq!(map.remove(ObjectId::from_raw(3)), Some(obj));
        assert_eq!(map.remove(ObjectId::from_raw(3)), None);
        assert_eq!(map.values().count(), 0);
    }
}
