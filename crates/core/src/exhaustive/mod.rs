//! Exhaustive worst-case search at toy scale: model checking the model.
//!
//! The adversaries in `pcb-adversary` are *constructions* — clever but
//! specific. At tiny parameters we can instead enumerate **every**
//! program in `P2(M, n)` against a placement policy and find the true
//! worst-case heap size by exhausting the reachable heap-configuration
//! space. That provides an independent check of the whole framework:
//!
//! * the true worst case must be at least Robson's lower-bound formula
//!   (it is a bound on the *best* allocator, and our policies are not
//!   better than the best);
//! * the constructive adversary [`RobsonProgram`](pcb_adversary::RobsonProgram)
//!   must achieve a heap no larger than the true worst case;
//! * the search's witness value pins each policy's exact toy-scale worst
//!   case as a regression constant.
//!
//! Only non-moving policies whose decisions depend solely on the current
//! heap configuration (plus at most a bounded scalar, like next-fit's
//! roving pointer, folded into the state) are searchable; that covers
//! first-fit, best-fit, and next-fit. The state space is the set of
//! reachable configurations, deduplicated, so the search is a BFS — run
//! **level-synchronously**: each frontier is expanded in parallel (the
//! successor function is pure) and the new states are deduplicated into a
//! hash-sharded seen-set, one shard per worker, so no locks are needed.
//! The reachable set, the worst heap size, and the state count are
//! independent of expansion order, so the parallel search returns exactly
//! what the sequential one does (set `PCB_THREADS=1` to force the
//! sequential path).
//!
//! # The packed state pipeline
//!
//! Scale is capped by memory, not CPU: the seen-set must hold every
//! reachable configuration. The search therefore runs on a compact,
//! allocation-free state pipeline (see [`packed`] and the
//! [`Interner`]):
//!
//! * configurations are delta-encoded into `u16` words, inline in the
//!   [`PackedState`] struct for ≤ 4 intervals, with the hash precomputed
//!   at encode time (an FxHash-style fold — no SipHash anywhere);
//! * each dedup shard interns states into an append-only arena indexed
//!   by dense `u32` ids, so retained states cost a few payload bytes
//!   instead of an owned `Vec` plus a heap allocation each;
//! * successors are encoded straight from the parent's decoded intervals
//!   through per-worker scratch buffers — no intermediate interval
//!   vector, no per-child clone.
//!
//! The seed implementation survives as a test oracle
//! (`tests/oracle/`) that the packed pipeline is tested byte-identical
//! against.

pub mod checkpoint;
pub mod intern;
pub mod packed;

use std::cell::RefCell;

use crate::fleet::CheckpointOptions;
use crate::parallel;
use crate::params::Params;
use intern::Interner;
use packed::PackedState;

/// A placement policy searchable by [`worst_case`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SearchPolicy {
    /// Lowest-address gap that fits, else the frontier.
    FirstFit,
    /// Smallest gap that fits (ties: lowest address), else the frontier.
    BestFit,
    /// First gap that fits scanning from the roving pointer (the end of
    /// the previous allocation), wrapping around; else the frontier. The
    /// rover is part of the searched state.
    NextFit,
}

impl SearchPolicy {
    /// Every searchable policy.
    pub const ALL: [SearchPolicy; 3] = [
        SearchPolicy::FirstFit,
        SearchPolicy::BestFit,
        SearchPolicy::NextFit,
    ];

    /// Stable name.
    pub fn name(self) -> &'static str {
        match self {
            SearchPolicy::FirstFit => "first-fit",
            SearchPolicy::BestFit => "best-fit",
            SearchPolicy::NextFit => "next-fit",
        }
    }

    /// Whether the policy carries a roving pointer in its state.
    pub fn has_rover(self) -> bool {
        matches!(self, SearchPolicy::NextFit)
    }

    /// Places a `size`-word object into the configuration (sorted,
    /// disjoint intervals) and returns the address. `rover` is ignored by
    /// the stateless policies.
    pub fn place(self, occ: &[(u64, u64)], rover: u64, size: u64) -> u64 {
        // Gaps between intervals (and before the first).
        let mut best: Option<(u64, u64)> = None; // (len, start)
        let mut wrapped: Option<u64> = None; // next-fit pass 2 candidate
        let mut cursor = 0u64;
        for &(start, len) in occ {
            if start > cursor {
                let gap_start = cursor;
                let gap_end = start;
                match self {
                    SearchPolicy::FirstFit => {
                        if gap_end - gap_start >= size {
                            return gap_start;
                        }
                    }
                    SearchPolicy::BestFit => {
                        let gap = gap_end - gap_start;
                        if gap >= size && best.is_none_or(|(bl, _)| gap < bl) {
                            best = Some((gap, gap_start));
                        }
                    }
                    SearchPolicy::NextFit => {
                        // Pass 1: the first gap usable at or after the
                        // rover (a gap straddling the rover counts from
                        // the rover). Gaps are visited in address order,
                        // so the first hit is the next-fit choice.
                        let usable = gap_start.max(rover);
                        if usable + size <= gap_end {
                            return usable;
                        }
                        // Pass 2 (wrap-around): the first gap from the
                        // bottom of memory that fits entirely before the
                        // scan would reach the rover again.
                        if wrapped.is_none() && gap_start < rover && gap_start + size <= gap_end {
                            wrapped = Some(gap_start);
                        }
                    }
                }
            }
            cursor = cursor.max(start + len);
        }
        match self {
            SearchPolicy::BestFit => best.map(|(_, start)| start).unwrap_or(cursor),
            SearchPolicy::NextFit => wrapped.unwrap_or(cursor),
            SearchPolicy::FirstFit => cursor, // frontier
        }
    }
}

/// The result of an exhaustive search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCase {
    /// The true worst-case heap size in words.
    pub heap_size: u64,
    /// Number of distinct reachable heap configurations.
    pub states: usize,
}

/// Deterministic search statistics riding along with a [`WorstCase`].
///
/// Everything except `resident_bytes` is a pure function of the
/// parameters and the policy; `resident_bytes` additionally depends on
/// the shard count (one interner per shard, each with its own capacity
/// rounding), i.e. on `PCB_THREADS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchStats {
    /// BFS depth: number of expanded levels.
    pub levels: usize,
    /// Widest frontier across all levels, in states.
    pub peak_frontier: usize,
    /// Total interned payload words (length prefixes included).
    pub payload_words: u64,
    /// Resident bytes of the seen-set across all shards at completion.
    pub resident_bytes: u64,
}

/// A [`WorstCase`] plus the [`SearchStats`] describing how it was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchReport {
    /// The search result.
    pub worst: WorstCase,
    /// How the search went.
    pub stats: SearchStats,
}

/// Why a search could not certify a worst case: the parameters were not
/// toy enough for the configured limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// The reachable set outgrew `max_states`.
    StateSpaceExceeded {
        /// States seen when the cap tripped.
        states: usize,
        /// The configured cap.
        max_states: usize,
    },
    /// A reachable configuration touched the address cap, so a maximum
    /// below it cannot be certified.
    AddressCapReached {
        /// The address cap, `4·M·(log₂ n + 2)` words.
        limit: u64,
    },
    /// The address cap itself does not fit the packed `u16` encoding;
    /// such parameters are far beyond exhaustive reach anyway.
    EncodingOverflow {
        /// The address cap that overflowed.
        limit: u64,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::StateSpaceExceeded { states, max_states } => write!(
                f,
                "state space exceeded {max_states} (at {states} states); \
                 parameters are not toy-scale"
            ),
            SearchError::AddressCapReached { limit } => write!(
                f,
                "address cap {limit} reached; enlarge the limit to certify a maximum"
            ),
            SearchError::EncodingOverflow { limit } => write!(
                f,
                "address cap {limit} overflows the packed u16 encoding; \
                 parameters are far beyond toy scale"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Below this many frontier states a level is expanded inline; the
/// per-level thread fan-out only pays for itself on wide levels.
const PAR_LEVEL: usize = 256;

/// Per-worker scratch: the decoded interval list and the encoder's word
/// buffer, reused across every state a worker expands.
struct Scratch {
    intervals: Vec<(u64, u64)>,
    words: Vec<u16>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            intervals: Vec::new(),
            words: Vec::new(),
        })
    };
}

/// Exhausts every `P2(M, n)` program against the policy and returns the
/// maximum heap span any program can force, with search statistics.
///
/// The address range is capped at `4·M·log₂(n+2)` words as a safety net;
/// reaching it means the cap was too small to certify a maximum. The
/// `WorstCase` inside the report is byte-identical across thread counts
/// (`PCB_THREADS=1` forces the sequential path) and to the seed
/// implementation kept as a test oracle.
///
/// # Errors
///
/// [`SearchError`] when the reachable configurations exceed `max_states`
/// or the address cap is hit — "the parameters are not toy enough" —
/// instead of aborting the process.
pub fn try_worst_case(
    params: Params,
    policy: SearchPolicy,
    max_states: usize,
) -> Result<SearchReport, SearchError> {
    try_worst_case_observed(
        params,
        policy,
        max_states,
        &crate::RunConfig::from_env(),
        |_| {},
    )
}

/// One per-level progress pulse from [`try_worst_case_with`].
#[derive(Debug, Clone, Copy)]
pub struct LevelPulse {
    /// BFS levels expanded so far.
    pub levels: usize,
    /// States in the next frontier (0 when the search just drained).
    pub frontier_states: usize,
    /// States interned across all shards so far.
    pub seen_states: usize,
    /// Resident bytes of the seen-set across all shards.
    pub resident_bytes: u64,
}

/// [`try_worst_case`] with an explicit, already-resolved
/// [`RunConfig`](crate::RunConfig) (`run.threads` replaces the
/// `PCB_THREADS` lookup; the report is byte-identical for any value) and
/// a per-level observer, as [`try_worst_case_with`] without a checkpoint.
///
/// # Errors
///
/// Same as [`try_worst_case`].
pub fn try_worst_case_observed(
    params: Params,
    policy: SearchPolicy,
    max_states: usize,
    run: &crate::RunConfig,
    on_level: impl FnMut(LevelPulse),
) -> Result<SearchReport, SearchError> {
    match try_worst_case_with(params, policy, max_states, run, None, on_level) {
        Ok(SearchOutcome::Complete(report)) => Ok(report),
        Err(ResumeError::Search(e)) => Err(e),
        Ok(SearchOutcome::Paused { .. }) | Err(ResumeError::Checkpoint(_)) => {
            unreachable!("a search without a checkpoint neither pauses nor saves")
        }
    }
}

/// The result of a checkpointed search.
#[derive(Debug)]
pub enum SearchOutcome {
    /// The frontier drained; the certified report.
    Complete(SearchReport),
    /// The search stopped at `stop_after` levels with a checkpoint on
    /// disk; resume to continue.
    Paused {
        /// BFS levels expanded so far.
        levels_done: usize,
    },
}

/// Errors from a checkpointed search: either the search itself failed,
/// or its checkpoint could not be written/read/matched.
#[derive(Debug)]
pub enum ResumeError {
    /// The underlying search failed (cap exceeded, encoding overflow).
    Search(SearchError),
    /// The checkpoint could not be written, parsed, or belongs to a
    /// different search.
    Checkpoint(String),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Search(e) => write!(f, "{e}"),
            ResumeError::Checkpoint(msg) => write!(f, "search checkpoint error: {msg}"),
        }
    }
}

impl std::error::Error for ResumeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResumeError::Search(e) => Some(e),
            ResumeError::Checkpoint(_) => None,
        }
    }
}

/// [`try_worst_case_with`] with a checkpoint and no observer.
///
/// # Errors
///
/// Same as [`try_worst_case_with`].
pub fn try_worst_case_resumable(
    params: Params,
    policy: SearchPolicy,
    max_states: usize,
    run: &crate::RunConfig,
    opts: &CheckpointOptions,
) -> Result<SearchOutcome, ResumeError> {
    try_worst_case_with(params, policy, max_states, run, Some(opts), |_| {})
}

/// The search loop every entry point runs. `on_level` fires after every
/// expanded BFS level with a [`LevelPulse`], so a CLI can heartbeat a
/// long search without touching the result.
///
/// With `checkpoint_opts`, the seen-set, frontier, and running maximum
/// are saved to its path every `every` BFS levels; with `resume` set the
/// search continues from the saved level instead of the root, and with
/// `stop_after` it pauses there. The [`WorstCase`] of a resumed search is
/// identical to an uninterrupted one (the reachable set does not depend
/// on where the fold was cut); of the stats only `resident_bytes` may
/// differ, since it reflects allocator capacity history rather than the
/// result. Without a checkpoint the search always runs to completion.
///
/// # Errors
///
/// [`ResumeError::Search`] as for [`try_worst_case`];
/// [`ResumeError::Checkpoint`] for unreadable or mismatched checkpoints.
pub fn try_worst_case_with(
    params: Params,
    policy: SearchPolicy,
    max_states: usize,
    run: &crate::RunConfig,
    checkpoint_opts: Option<&CheckpointOptions>,
    mut on_level: impl FnMut(LevelPulse),
) -> Result<SearchOutcome, ResumeError> {
    let _span = pcb_metrics::span!("exhaustive.worst_case");
    let mut search = Search::new(params, policy, max_states, run).map_err(ResumeError::Search)?;
    if let Some(opts) = checkpoint_opts.filter(|opts| opts.resume) {
        checkpoint::restore(&mut search, params, policy, opts)?;
    }
    let mut since_save = 0usize;
    while !search.is_done() {
        if let Some(opts) = checkpoint_opts {
            if opts
                .stop_after
                .is_some_and(|stop| search.stats.levels >= stop)
            {
                checkpoint::save(&search, params, policy, opts)?;
                return Ok(SearchOutcome::Paused {
                    levels_done: search.stats.levels,
                });
            }
        }
        search.step().map_err(ResumeError::Search)?;
        on_level(LevelPulse {
            levels: search.stats.levels,
            frontier_states: search.frontier.len(),
            seen_states: search.seen.iter().map(Interner::len).sum(),
            resident_bytes: search.seen.iter().map(Interner::resident_bytes).sum(),
        });
        if let Some(opts) = checkpoint_opts {
            since_save += 1;
            if since_save >= opts.every.max(1) {
                checkpoint::save(&search, params, policy, opts)?;
                since_save = 0;
            }
        }
    }
    // A final save so that resuming a finished search re-emits its
    // report without re-expanding anything.
    if let Some(opts) = checkpoint_opts {
        checkpoint::save(&search, params, policy, opts)?;
    }
    Ok(SearchOutcome::Complete(search.into_report()))
}

/// The level-synchronous BFS, reified so it can be stepped, paused, and
/// serialized: everything the search loop used to hold in local
/// variables.
#[derive(Debug)]
struct Search {
    policy: SearchPolicy,
    m: u64,
    limit: u64,
    sizes: Vec<u64>,
    has_rover: bool,
    threads: usize,
    shards: usize,
    max_states: usize,
    /// Hash-sharded seen-set, one interner per shard.
    seen: Vec<Interner>,
    /// The states discovered in the previous level, next to expand.
    frontier: Vec<PackedState>,
    /// Running maximum span.
    worst: u64,
    stats: SearchStats,
}

impl Search {
    fn new(
        params: Params,
        policy: SearchPolicy,
        max_states: usize,
        run: &crate::RunConfig,
    ) -> Result<Search, SearchError> {
        let m = params.m();
        let limit = 4 * m * (params.log_n() as u64 + 2);
        if limit > u16::MAX as u64 {
            return Err(SearchError::EncodingOverflow { limit });
        }
        // Sizes: the P2 discipline.
        let sizes: Vec<u64> = (0..=params.log_n()).map(|k| 1u64 << k).collect();
        let has_rover = policy.has_rover();

        // Stable shard assignment from the precomputed hash: the
        // partition must not depend on any per-process randomness, so
        // the shard sizes behave identically from run to run. The
        // interner's index consumes the hash's high bits, so using the
        // low bits here is independent.
        let shards = run.threads.clamp(1, 64);
        let mut seen: Vec<Interner> = (0..shards).map(|_| Interner::new()).collect();
        let root = SCRATCH.with(|scratch| {
            let scratch = &mut scratch.borrow_mut().words;
            PackedState::encode(&[], has_rover.then_some(0), scratch)
        });
        seen[(root.hash64() % shards as u64) as usize].insert(&root);
        Ok(Search {
            policy,
            m,
            limit,
            sizes,
            has_rover,
            threads: run.threads,
            shards,
            max_states,
            seen,
            frontier: vec![root],
            worst: 0,
            stats: SearchStats {
                levels: 0,
                peak_frontier: 1,
                payload_words: 0,
                resident_bytes: 0,
            },
        })
    }

    fn shard_of(&self, state: &PackedState) -> usize {
        (state.hash64() % self.shards as u64) as usize
    }

    fn is_done(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Pure successor function: span of the state plus every state one
    /// allocation or one free away, encoded directly from the decoded
    /// parent through this worker's scratch buffers. Safe to evaluate
    /// from any thread.
    fn expand(&self, state: &PackedState) -> Result<(u64, Vec<PackedState>), SearchError> {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let rover = state
                .decode_into(&mut scratch.intervals, self.has_rover)
                .unwrap_or(0);
            let occ = &scratch.intervals;
            let live: u64 = occ.iter().map(|&(_, l)| l).sum();
            let span = occ.last().map(|&(s, l)| s + l).unwrap_or(0);
            if span >= self.limit {
                return Err(SearchError::AddressCapReached { limit: self.limit });
            }
            let mut succ = Vec::with_capacity(self.sizes.len() + occ.len());
            // Allocate any P2 size that fits under M.
            for &size in &self.sizes {
                if live + size > self.m {
                    continue;
                }
                let addr = self.policy.place(occ, rover, size);
                let pos = occ.partition_point(|&(s, _)| s < addr);
                let next_rover = self.has_rover.then_some(addr + size);
                succ.push(PackedState::encode_splice(
                    occ,
                    pos,
                    addr,
                    size,
                    next_rover,
                    &mut scratch.words,
                ));
            }
            // Free any single object. The rover is clamped to the new
            // span: scanning from beyond the heap's end is equivalent to
            // scanning from its end, so the clamp is a canonicalization
            // that keeps the state space tight.
            for i in 0..occ.len() {
                let next_rover = self.has_rover.then(|| {
                    let last = if i == occ.len() - 1 {
                        occ.len().checked_sub(2).map(|j| occ[j])
                    } else {
                        occ.last().copied()
                    };
                    let next_span = last.map(|(s, l)| s + l).unwrap_or(0);
                    rover.min(next_span)
                });
                succ.push(PackedState::encode_remove(
                    occ,
                    i,
                    next_rover,
                    &mut scratch.words,
                ));
            }
            Ok((span, succ))
        })
    }

    /// Expands one BFS level: the body of the original search loop.
    fn step(&mut self) -> Result<(), SearchError> {
        // One span per BFS level: a trace of the search shows the level
        // widths growing and the dedup fan-out taking over.
        let _level_span = pcb_metrics::span!("exhaustive.level");
        self.stats.levels += 1;
        self.stats.peak_frontier = self.stats.peak_frontier.max(self.frontier.len());
        // High-water marks in the metric registry, once per level (one
        // relaxed load each when metrics are off).
        pcb_metrics::record_gauge_max("exhaustive.frontier_states", self.frontier.len() as u64);
        pcb_metrics::record_gauge_max("exhaustive.levels", self.stats.levels as u64);
        let frontier = std::mem::take(&mut self.frontier);
        // Level-synchronous expansion: fan the frontier across threads.
        let expanded: Vec<Result<(u64, Vec<PackedState>), SearchError>> =
            if frontier.len() >= PAR_LEVEL {
                parallel::par_map_threads(self.threads, &frontier, |state| self.expand(state))
            } else {
                frontier.iter().map(|state| self.expand(state)).collect()
            };

        // Route successors to their dedup shard. Each shard is owned by
        // exactly one worker below, so insertion needs no locks.
        let mut by_shard: Vec<Vec<PackedState>> = vec![Vec::new(); self.shards];
        for result in expanded {
            let (span, succ) = result?;
            self.worst = self.worst.max(span);
            for next in succ {
                by_shard[self.shard_of(&next)].push(next);
            }
        }

        let total_succ: usize = by_shard.iter().map(Vec::len).sum();
        let _dedup_span = pcb_metrics::span!("exhaustive.dedup");
        self.frontier = if self.shards > 1 && total_succ >= PAR_LEVEL {
            let mut fresh_by_shard: Vec<Vec<PackedState>> = Vec::with_capacity(self.shards);
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .seen
                    .iter_mut()
                    .zip(by_shard)
                    .map(|(shard, bucket)| {
                        scope.spawn(move || {
                            let mut fresh = Vec::with_capacity(bucket.len());
                            for next in bucket {
                                if shard.insert(&next) {
                                    fresh.push(next);
                                }
                            }
                            fresh
                        })
                    })
                    .collect();
                for handle in handles {
                    match handle.join() {
                        Ok(fresh) => fresh_by_shard.push(fresh),
                        Err(panic) => std::panic::resume_unwind(panic),
                    }
                }
            });
            fresh_by_shard.into_iter().flatten().collect()
        } else {
            let mut fresh = Vec::with_capacity(total_succ);
            for (shard, bucket) in self.seen.iter_mut().zip(by_shard) {
                for next in bucket {
                    if shard.insert(&next) {
                        fresh.push(next);
                    }
                }
            }
            fresh
        };

        let states: usize = self.seen.iter().map(Interner::len).sum();
        let resident = self.seen.iter().map(Interner::resident_bytes).sum();
        pcb_metrics::record_gauge_max("exhaustive.interned_states", states as u64);
        pcb_metrics::record_gauge_max("exhaustive.resident_bytes", resident);
        pcb_metrics::record_gauge_max("exhaustive.payload_words", self.stats.payload_words);
        if states > self.max_states {
            return Err(SearchError::StateSpaceExceeded {
                states,
                max_states: self.max_states,
            });
        }
        Ok(())
    }

    fn into_report(mut self) -> SearchReport {
        self.stats.payload_words = self.seen.iter().map(Interner::payload_words).sum();
        self.stats.resident_bytes = self.seen.iter().map(Interner::resident_bytes).sum();
        SearchReport {
            worst: WorstCase {
                heap_size: self.worst,
                states: self.seen.iter().map(Interner::len).sum(),
            },
            stats: self.stats,
        }
    }
}

/// Panicking convenience wrapper around [`try_worst_case`], for tests and
/// call sites with known-toy parameters.
///
/// ```
/// use partial_compaction::{exhaustive::{worst_case, SearchPolicy}, Params};
/// let p = Params::new(6, 1, 10)?; // M = 6 words, sizes {1, 2}
/// let wc = worst_case(p, SearchPolicy::FirstFit, 100_000);
/// assert_eq!(wc.heap_size, 9); // vs Robson's 8 for the optimal allocator
/// # Ok::<(), partial_compaction::ParamsError>(())
/// ```
///
/// # Panics
///
/// Panics if the reachable configurations exceed `max_states` (the
/// parameters were not "toy" enough) or the address cap is hit.
pub fn worst_case(params: Params, policy: SearchPolicy, max_states: usize) -> WorstCase {
    match try_worst_case(params, policy, max_states) {
        Ok(report) => report.worst,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::robson;
    use pcb_adversary::RobsonProgram;
    use pcb_alloc::{FitPolicy, FreeListManager};
    use pcb_heap::{Execution, Heap};

    fn toy(m: u64, log_n: u32) -> Params {
        Params::new(m, log_n, 10).expect("toy parameters are valid")
    }

    #[test]
    fn true_worst_case_dominates_robsons_lower_bound() {
        // Robson's formula lower-bounds the BEST allocator; any concrete
        // policy's true worst case is at least that.
        for (m, log_n) in [(6u64, 1u32), (8, 1), (8, 2)] {
            let params = toy(m, log_n);
            let bound = robson::bound_p2(params);
            for policy in SearchPolicy::ALL {
                let wc = worst_case(params, policy, 3_000_000);
                assert!(
                    wc.heap_size as f64 >= bound.floor(),
                    "{} at M={m}, log n={log_n}: true worst {} < Robson {bound}",
                    policy.name(),
                    wc.heap_size
                );
            }
        }
    }

    #[test]
    fn constructive_adversary_never_exceeds_the_true_worst_case() {
        // P_R is one program; the exhaustive maximum is over all of them.
        let (m, log_n) = (8u64, 1u32);
        let params = toy(m, log_n);
        let wc = worst_case(params, SearchPolicy::FirstFit, 3_000_000);
        let program = RobsonProgram::new(m, log_n);
        let mut exec = Execution::new(
            Heap::non_moving(),
            program,
            FreeListManager::new(FitPolicy::FirstFit),
        );
        let report = exec.run().expect("P_R runs");
        assert!(
            report.heap_size <= wc.heap_size,
            "P_R {} exceeds the exhaustive maximum {}",
            report.heap_size,
            wc.heap_size
        );
    }

    #[test]
    fn pinned_toy_scale_worst_cases() {
        // Exact regression constants (see EXPERIMENTS.md E11). Robson's
        // formula gives 8 at (M=6, n=2) and 11 at (M=8, n=2) for the
        // OPTIMAL allocator; concrete policies do strictly worse, and
        // best-fit is sometimes worse than first-fit (the classic
        // anomaly).
        let p62 = toy(6, 1);
        assert_eq!(
            worst_case(p62, SearchPolicy::FirstFit, 3_000_000).heap_size,
            9
        );
        assert_eq!(
            worst_case(p62, SearchPolicy::BestFit, 3_000_000).heap_size,
            9
        );
        let p82 = toy(8, 1);
        assert_eq!(
            worst_case(p82, SearchPolicy::FirstFit, 3_000_000).heap_size,
            12
        );
        assert_eq!(
            worst_case(p82, SearchPolicy::BestFit, 3_000_000).heap_size,
            13
        );
    }

    #[test]
    fn pinned_next_fit_worst_cases() {
        // Next-fit leaves garbage behind the rover until the scan wraps,
        // so its toy worst cases sit at or above first-fit's — and the
        // rover multiplies the reachable state count (see EXPERIMENTS.md
        // "Scaling the search").
        let ff62 = worst_case(toy(6, 1), SearchPolicy::FirstFit, 3_000_000);
        let nf62 = worst_case(toy(6, 1), SearchPolicy::NextFit, 3_000_000);
        assert!(nf62.heap_size >= ff62.heap_size);
        assert_eq!(nf62.heap_size, 9);
        assert_eq!(nf62.states, 3600);
        let nf82 = worst_case(toy(8, 1), SearchPolicy::NextFit, 3_000_000);
        assert_eq!(nf82.heap_size, 13);
        assert_eq!(nf82.states, 148_903);
    }

    #[test]
    fn explicit_thread_counts_all_match_the_env_driven_search() {
        let baseline = try_worst_case(toy(8, 2), SearchPolicy::FirstFit, 3_000_000)
            .expect("toy")
            .worst;
        for threads in [1, 2, 4] {
            let run = crate::RunConfig::default().with_threads(threads);
            let report =
                try_worst_case_observed(toy(8, 2), SearchPolicy::FirstFit, 3_000_000, &run, |_| {})
                    .expect("toy");
            assert_eq!(report.worst, baseline, "threads={threads}");
        }
    }

    fn temp_checkpoint(name: &str) -> CheckpointOptions {
        CheckpointOptions::new(
            std::env::temp_dir().join(format!("pcb-search-{}-{name}.json", std::process::id())),
        )
    }

    #[test]
    fn paused_and_resumed_search_certifies_the_same_worst_case() {
        // The rover policy has the richest state space of the toys; use
        // it so re-sharding on resume is actually exercised.
        let params = toy(6, 1);
        let full = try_worst_case(params, SearchPolicy::NextFit, 3_000_000).expect("toy");

        let opts = temp_checkpoint("pause-resume").every(2).stop_after(4);
        match try_worst_case_resumable(
            params,
            SearchPolicy::NextFit,
            3_000_000,
            &crate::RunConfig::default(),
            &opts,
        )
        .expect("pause")
        {
            SearchOutcome::Paused { levels_done } => assert_eq!(levels_done, 4),
            SearchOutcome::Complete(_) => panic!("stop_after must pause"),
        }
        // Resume under a different thread count: the seen-set re-shards.
        let resumed = match try_worst_case_resumable(
            params,
            SearchPolicy::NextFit,
            3_000_000,
            &crate::RunConfig::default().with_threads(4),
            &CheckpointOptions::new(opts.path.clone()).resume(true),
        )
        .expect("resume")
        {
            SearchOutcome::Complete(report) => report,
            SearchOutcome::Paused { .. } => panic!("resume must complete"),
        };
        assert_eq!(resumed.worst, full.worst);
        assert_eq!(resumed.stats.levels, full.stats.levels);
        assert_eq!(resumed.stats.peak_frontier, full.stats.peak_frontier);
        assert_eq!(resumed.stats.payload_words, full.stats.payload_words);
        // resident_bytes is capacity history, not a result — not compared.

        // Resuming the finished search re-emits the report without
        // expanding anything (the saved frontier is empty).
        let again = match try_worst_case_resumable(
            params,
            SearchPolicy::NextFit,
            3_000_000,
            &crate::RunConfig::default(),
            &CheckpointOptions::new(opts.path.clone()).resume(true),
        )
        .expect("re-resume")
        {
            SearchOutcome::Complete(report) => report,
            SearchOutcome::Paused { .. } => panic!("finished search must complete"),
        };
        assert_eq!(again.worst, full.worst);
        std::fs::remove_file(&opts.path).ok();
    }

    #[test]
    fn search_checkpoints_from_a_different_search_are_rejected() {
        let params = toy(6, 1);
        let opts = temp_checkpoint("mismatch").stop_after(2);
        try_worst_case_resumable(
            params,
            SearchPolicy::FirstFit,
            3_000_000,
            &crate::RunConfig::default(),
            &opts,
        )
        .expect("pause");
        // Same file, different policy: the fingerprint must refuse it.
        let err = try_worst_case_resumable(
            params,
            SearchPolicy::BestFit,
            3_000_000,
            &crate::RunConfig::default(),
            &CheckpointOptions::new(opts.path.clone()).resume(true),
        )
        .unwrap_err();
        assert!(matches!(err, ResumeError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        std::fs::remove_file(&opts.path).ok();
    }

    #[test]
    fn state_space_cap_reports_a_typed_error() {
        let err = try_worst_case(toy(8, 2), SearchPolicy::FirstFit, 10).unwrap_err();
        match err {
            SearchError::StateSpaceExceeded { states, max_states } => {
                assert_eq!(max_states, 10);
                assert!(states > 10);
            }
            other => panic!("expected StateSpaceExceeded, got {other:?}"),
        }
        assert!(err.to_string().contains("not toy-scale"));
    }

    #[test]
    fn oversized_parameters_report_encoding_overflow() {
        let params = Params::new(1 << 16, 10, 10).expect("valid but huge");
        let err = try_worst_case(params, SearchPolicy::FirstFit, 1_000).unwrap_err();
        assert!(matches!(err, SearchError::EncodingOverflow { .. }));
    }

    #[test]
    fn report_stats_are_consistent() {
        let report = try_worst_case(toy(8, 1), SearchPolicy::FirstFit, 3_000_000).expect("toy");
        assert_eq!(report.worst.heap_size, 12);
        assert!(report.stats.levels > 0);
        assert!(report.stats.peak_frontier > 0);
        assert!(report.stats.payload_words > 0);
        assert!(report.stats.resident_bytes > 0);
        // Mean resident cost per state stays far under the seed's
        // Vec-per-state representation (~100+ bytes/state); at this small
        // scale capacity rounding still dominates the payload.
        let per_state = report.stats.resident_bytes as f64 / report.worst.states as f64;
        assert!(per_state < 64.0, "bytes/state = {per_state:.1}");
    }

    #[test]
    fn fixed_size_programs_cannot_fragment() {
        // log n = 0 is rejected by Params, so emulate: sizes {1} via
        // log_n = 1 but M too small for any size-2 object to matter...
        // Direct check instead: a single-size search space never exceeds
        // M. Use the policy placer directly.
        let occ = vec![(0u64, 1), (2, 1), (4, 1)];
        // Unit holes are always reusable by unit objects.
        assert_eq!(SearchPolicy::FirstFit.place(&occ, 0, 1), 1);
        assert_eq!(SearchPolicy::BestFit.place(&occ, 0, 1), 1);
    }

    #[test]
    fn next_fit_scans_from_the_rover_and_wraps() {
        let occ = vec![(0u64, 1), (2, 1), (4, 1), (8, 1)];
        // Gaps: [1,2) [3,4) [5,8). Rover at 4: the first usable gap at or
        // after the rover is [5,8).
        assert_eq!(SearchPolicy::NextFit.place(&occ, 4, 1), 5);
        // Rover at 4, size 3 does not fit [5,8) fully... it does (len 3).
        assert_eq!(SearchPolicy::NextFit.place(&occ, 4, 3), 5);
        // Rover at 6: gap [5,8) is usable from 6 for size 2.
        assert_eq!(SearchPolicy::NextFit.place(&occ, 6, 2), 6);
        // Rover at 8 (heap end side): nothing at or after; wrap to [1,2).
        assert_eq!(SearchPolicy::NextFit.place(&occ, 8, 1), 1);
        // Nothing fits anywhere: frontier.
        assert_eq!(SearchPolicy::NextFit.place(&occ, 8, 4), 9);
    }

    #[test]
    fn placer_matches_the_real_freelist_manager() {
        // The search's pure placer must agree with the production
        // FreeListManager on the same configuration.
        use pcb_heap::{Addr, Size};
        let occ = vec![(0u64, 2), (4, 1), (8, 4)];
        for (policy, fit) in [
            (SearchPolicy::FirstFit, FitPolicy::FirstFit),
            (SearchPolicy::BestFit, FitPolicy::BestFit),
        ] {
            for size in [1u64, 2, 3, 5] {
                // Recreate `occ` through the real manager: allocate
                // [0,2) [2,4) [4,5) [5,8) [8,12), free [2,4) and [5,8),
                // then allocate the probe (allocation index 5).
                let program = pcb_heap::ScriptedProgram::new(Size::new(100))
                    .round([], [2, 2, 1, 3, 4])
                    .round([1, 3], [size]);
                let mut exec =
                    Execution::new(Heap::non_moving(), program, FreeListManager::new(fit));
                exec.run().unwrap();
                let placed = exec
                    .heap()
                    .live_objects()
                    .find(|r| r.id().get() == 5)
                    .map(|r| r.addr());
                let expect = policy.place(&occ, 0, size);
                assert_eq!(
                    placed,
                    Some(Addr::new(expect)),
                    "{} size {size}",
                    policy.name()
                );
            }
        }
    }
}
