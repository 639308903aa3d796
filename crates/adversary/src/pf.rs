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

/// A stage-I object in 12 bytes: the heap keeps object ids and addresses
/// below 2³², and stage-I sizes are at most `2^ρ` words. Size zero marks a
/// tombstone, left by an object that moved until the next Robson pass
/// drops it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Obj {
    id: u32,
    addr: u32,
    size: u32,
}

impl Obj {
    fn new(id: ObjectId, addr: Addr, size: Size) -> Self {
        let narrow =
            |v: u64| u32::try_from(v).expect("the heap keeps ids and addresses below 2^32");
        Obj {
            id: narrow(id.get()),
            addr: narrow(addr.get()),
            size: narrow(size.get()),
        }
    }

    fn id(self) -> ObjectId {
        ObjectId::from_raw(u64::from(self.id))
    }

    fn addr(self) -> Addr {
        Addr::new(u64::from(self.addr))
    }

    fn size(self) -> Size {
        Size::new(u64::from(self.size))
    }

    fn is_tombstone(self) -> bool {
        self.size == 0
    }

    fn occupies(self, f: u64, i: u32) -> bool {
        is_f_occupying(self.addr(), self.size(), f, i)
    }
}

/// Stage I's live and ghost inventories merged in ascending id order,
/// tombstones skipped; each object comes with whether it is live.
#[derive(Debug, Clone)]
struct IdOrder<'a> {
    live: &'a [Obj],
    ghosts: &'a [Obj],
}

impl Iterator for IdOrder<'_> {
    type Item = (Obj, bool);

    fn next(&mut self) -> Option<(Obj, bool)> {
        loop {
            let take_live = match (self.live.first(), self.ghosts.first()) {
                (None, None) => return None,
                (Some(l), Some(g)) => l.id < g.id,
                (live, _) => live.is_some(),
            };
            let (list, live) = if take_live {
                (&mut self.live, true)
            } else {
                (&mut self.ghosts, false)
            };
            let (&obj, rest) = list.split_first().expect("checked non-empty");
            *list = rest;
            if !obj.is_tombstone() {
                return Some((obj, live));
            }
        }
    }
}

/// Drops the objects that are tombstones or not `f`-occupying at step
/// `i`, returning the dropped words; `freed` collects the dropped objects'
/// ids in list order. Shrinks the list once it fills less than half its
/// capacity, so its size follows the inventory, not its peak.
fn robson_pass(list: &mut Vec<Obj>, f: u64, i: u32, mut freed: Option<&mut Vec<ObjectId>>) -> u64 {
    let mut words = 0;
    list.retain(|&o| {
        if o.is_tombstone() {
            return false;
        }
        let keep = o.occupies(f, i);
        if !keep {
            words += u64::from(o.size);
            if let Some(freed) = freed.as_mut() {
                freed.push(o.id());
            }
        }
        keep
    });
    if list.capacity() > 2 * list.len() {
        list.shrink_to_fit();
    }
    words
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
    /// Stage-I live objects in ascending id order (ids arrive in that
    /// order). Emptied when the association is built: from then on the
    /// association is the only per-object record.
    live: Vec<Obj>,
    live_words: u64,
    /// Stage-I ghosts at their original (birth) address, in the order
    /// their objects moved.
    ghosts: Vec<Obj>,
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
            live: Vec::new(),
            live_words: 0,
            ghosts: Vec::new(),
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
    /// occupying word. The stage-I inventories go with it.
    fn init_association(&mut self) {
        let step = 2 * self.cfg.rho - 1;
        let (f, rho) = (self.f, self.cfg.rho);
        let live = std::mem::take(&mut self.live);
        let mut ghosts = std::mem::take(&mut self.ghosts);
        ghosts.sort_unstable_by_key(|o| o.id);
        let survivors = IdOrder {
            live: &live,
            ghosts: &ghosts,
        }
        .filter_map(move |(obj, live)| {
            // The occupying word is defined w.r.t. step-ρ chunks; the
            // association chunk (size 2^{2ρ−1}) is the one containing
            // that word.
            let word = first_occupying_word(obj.addr(), obj.size(), f, rho)?;
            Some((word.get() >> step, obj.id(), u64::from(obj.size), live))
        });
        self.assoc = Some(Association::from_survivors(step, rho, survivors));
        self.ghost_words = 0;
    }

    /// Capacities of the per-object tables, in records: the stage-I
    /// inventories, then the association's entry arena and backrefs.
    #[cfg(test)]
    fn table_capacities(&self) -> [usize; 4] {
        let [entries, backrefs] = self
            .assoc
            .as_ref()
            .map_or([0, 0], Association::table_capacities);
        [
            self.live.capacity(),
            self.ghosts.capacity(),
            entries,
            backrefs,
        ]
    }

    /// The position of a live stage-I object in the live list.
    fn live_pos(&self, id: ObjectId) -> Option<usize> {
        let raw = u32::try_from(id.get()).ok()?;
        let pos = self.live.binary_search_by_key(&raw, |o| o.id).ok()?;
        (!self.live[pos].is_tombstone()).then_some(pos)
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
                // The live list is in ascending id order, and so is `freed`.
                let mut freed = Vec::new();
                self.live_words -= robson_pass(&mut self.live, f, i, Some(&mut freed));
                // Ghosts vanish silently (they are already de-allocated).
                self.ghost_words -= robson_pass(&mut self.ghosts, f, i, None);
                // Seed the step-(i+1) candidate scores from the surviving
                // live-or-ghost inventory; round-`i` allocations accumulate
                // via `placed`.
                self.tracker.advance(f, i + 1);
                for o in self.live.iter().chain(&self.ghosts) {
                    self.tracker.add(o.addr(), o.size());
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
                let (freed, freed_words) = self
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
                self.live_words -= freed_words;
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
                let obj = Obj::new(id, addr, size);
                debug_assert!(self.live.last().is_none_or(|o| o.id < obj.id), "ids ascend");
                self.live.push(obj);
                self.s1_words += size.get();
                self.tracker.add(addr, size);
            }
            Phase::Null(_) | Phase::Done => {}
        }
    }

    fn moved(&mut self, id: ObjectId, _from: Addr, _to: Addr, size: Size) -> MoveResponse {
        // "If the memory manager compacts an object, ask [it] to
        // de-allocate this object immediately."
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
                let pos = self
                    .live_pos(id)
                    .expect("the manager can only move live objects");
                let birth = self.live[pos];
                self.live[pos].size = 0;
                self.ghosts.push(birth);
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
    use pcb_alloc::ManagerKind;
    use pcb_heap::{Execution, Heap, NullObserver, Params};

    #[test]
    fn stage_one_records_stay_12_bytes() {
        assert_eq!(std::mem::size_of::<Obj>(), 12);
    }

    #[test]
    fn id_order_merges_live_and_ghosts_and_skips_tombstones() {
        let obj = |id, size| Obj { id, addr: 0, size };
        let live = [obj(1, 1), obj(4, 0), obj(6, 2)];
        let ghosts = [obj(2, 1), obj(5, 1), obj(9, 1)];
        let merged: Vec<(u32, bool)> = IdOrder {
            live: &live,
            ghosts: &ghosts,
        }
        .map(|(o, live)| (o.id, live))
        .collect();
        assert_eq!(
            merged,
            [(1, true), (2, false), (5, false), (6, true), (9, false)]
        );
    }

    /// Every per-object table is sized by the objects `P_F` holds, not by
    /// the ids the heap has issued: at every round boundary each table's
    /// capacity stays within twice the live objects plus the ghosts held
    /// (the stage-I ghost list, then the association's dead entries), and
    /// so within twice the peak of that count. The bound bites: once stage
    /// II starts, the heap has issued more than twice as many ids as there
    /// are objects held, so an id-indexed table fails it.
    #[test]
    fn per_object_tables_follow_live_and_ghost_objects() {
        let (m, log_n, c) = (1 << 12, 8, 20);
        let params = Params::new(m, log_n, c).expect("valid");
        for kind in [ManagerKind::PagesThm2, ManagerKind::FirstFit] {
            let cfg = PfConfig::new(m, log_n, c).expect("feasible");
            let mut exec = Execution::new(Heap::new(c), PfProgram::new(cfg), kind.build(&params));
            let (mut peak, mut max_ghosts, mut id_indexed_fails) = (0, 0, false);
            while !exec.program().finished() {
                exec.step_round(&mut NullObserver).expect("P_F runs");
                let program = exec.program();
                let ghosts = match program.association() {
                    Some(assoc) => assoc.chunk_stats().iter().map(|s| s.3 - s.2).sum(),
                    None => program.ghosts.len(),
                };
                let held = exec.heap().live_count() + ghosts;
                peak = peak.max(held);
                max_ghosts = max_ghosts.max(ghosts);
                for (table, cap) in program.table_capacities().into_iter().enumerate() {
                    assert!(
                        cap <= 2 * held && cap <= 2 * peak,
                        "{kind}: table {table} holds {cap} records for {held} objects \
                         (peak {peak}) after round {}",
                        exec.rounds()
                    );
                }
                let ids = exec.heap().stats().objects_placed as usize;
                id_indexed_fails |= program.association().is_some() && ids > 2 * held;
            }
            assert!(
                id_indexed_fails,
                "{kind}: the bound must tell id-indexed tables apart"
            );
            if kind == ManagerKind::PagesThm2 {
                assert!(max_ghosts > 0, "the compacting run keeps ghosts");
            }
        }
    }
}
