//! Lockstep differential test: the dense runtime [`Association`] against
//! the seed `BTreeMap`/`HashMap` implementation kept in `oracle/`.
//!
//! Both are driven with the same operation streams — line-9 association of
//! live and dead survivors, line-14 claims over dead residue (with and
//! without halves), deaths by compaction, step changes and line-13
//! shedding with its half-reassignment cascades — and after every
//! operation they must agree on everything the public API shows, and both
//! must pass their own invariant checks.

mod oracle;

use pcb_adversary::Association;
use pcb_heap::ObjectId;
use proptest::prelude::*;

/// The two implementations plus the ids handed out so far.
struct Lockstep {
    dense: Association,
    seed: oracle::Association,
    ids: Vec<ObjectId>,
    /// Entries removed by shedding that were half re-assignments rather
    /// than frees, summed over the run.
    reassigned: usize,
}

impl Lockstep {
    fn new(step: u32, rho: u32) -> Self {
        Lockstep {
            dense: Association::new(step, rho),
            seed: oracle::Association::new(step, rho),
            ids: Vec::new(),
            reassigned: 0,
        }
    }

    fn fresh_id(&mut self) -> ObjectId {
        let id = ObjectId::from_raw(self.ids.len() as u64);
        self.ids.push(id);
        id
    }

    fn step(&self) -> u32 {
        self.seed.step()
    }

    fn associate_whole(&mut self, index: u64, words: u64, live: bool) {
        let id = self.fresh_id();
        self.dense.associate_whole(index, id, words, live);
        self.seed.associate_whole(index, id, words, live);
    }

    /// The first `d1 ≥ from` whose chunks `d1..d1+3` hold no live entries
    /// (what a freshly placed object's fully covered chunks look like).
    fn free_run(&self, from: u64) -> u64 {
        let stats = self.seed.chunk_stats();
        let has_live = |d: u64| stats.iter().any(|s| s.0 == d && s.2 > 0);
        (from..)
            .find(|&d| (d..d + 3).all(|i| !has_live(i)))
            .expect("chunk indices are unbounded")
    }

    fn claim(&mut self, from: u64, halves: bool) {
        let d1 = self.free_run(from);
        let id = self.fresh_id();
        let size = 4 << self.step();
        if halves {
            self.dense.claim_new_object(d1, d1 + 1, d1 + 2, id, size);
            self.seed.claim_new_object(d1, d1 + 1, d1 + 2, id, size);
        } else {
            self.dense.claim_whole_object(d1, d1 + 1, d1 + 2, id, size);
            self.seed.claim_whole_object(d1, d1 + 1, d1 + 2, id, size);
        }
    }

    fn mark_dead(&mut self, pick: u64) {
        let live: Vec<ObjectId> = self
            .ids
            .iter()
            .copied()
            .filter(|&id| self.seed.is_associated(id))
            .collect();
        if let Some(&id) = live.get(pick as usize % live.len().max(1)) {
            self.dense.mark_dead(id);
            self.seed.mark_dead(id);
        }
    }

    fn advance_step(&mut self) {
        self.dense.advance_step();
        self.seed.advance_step();
    }

    fn shed(&mut self) -> Result<(), TestCaseError> {
        let entries =
            |a: &oracle::Association| -> usize { a.chunk_stats().iter().map(|s| s.3).sum() };
        let before = entries(&self.seed);
        let live_words = self.seed.live_associated_words();
        let (dense, dense_words) = self.dense.shed_density_surplus();
        let seed = self.seed.shed_density_surplus();
        prop_assert_eq!(&dense, &seed, "freed lists differ");
        // Re-assigned halves keep their words live, so the live words
        // that went are the freed objects' sizes.
        prop_assert_eq!(
            u128::from(dense_words),
            live_words - self.seed.live_associated_words(),
            "freed words differ"
        );
        self.reassigned += before - entries(&self.seed) - seed.len();
        Ok(())
    }

    /// Everything observable must agree, and both must be internally
    /// consistent.
    fn agree(&self, after: &str) -> Result<(), TestCaseError> {
        self.seed
            .check_invariants()
            .map_err(|e| TestCaseError::fail(format!("seed after {after}: {e}")))?;
        self.dense
            .check_invariants()
            .map_err(|e| TestCaseError::fail(format!("dense after {after}: {e}")))?;
        let stats = self.seed.chunk_stats();
        prop_assert_eq!(
            self.dense.chunk_stats(),
            stats.clone(),
            "chunk_stats after {}",
            after
        );
        prop_assert_eq!(
            self.dense.u_sum(),
            self.seed.u_sum(),
            "u_sum after {}",
            after
        );
        prop_assert_eq!(
            self.dense.used_chunks(),
            self.seed.used_chunks(),
            "used_chunks after {}",
            after
        );
        prop_assert_eq!(self.dense.step(), self.seed.step(), "step after {}", after);
        prop_assert_eq!(
            self.dense.live_associated_words(),
            self.seed.live_associated_words(),
            "live words after {}",
            after
        );
        for &(index, sum, ..) in &stats {
            prop_assert_eq!(
                self.dense.chunk_sum(index),
                sum,
                "chunk_sum({}) after {}",
                index,
                after
            );
        }
        for &id in &self.ids {
            prop_assert_eq!(
                self.dense.is_associated(id),
                self.seed.is_associated(id),
                "is_associated({}) after {}",
                id,
                after
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_association_matches_the_seed_in_lockstep(
        rho in 1u32..4,
        extra_step in 0u32..3,
        survivors in proptest::collection::vec((0u64..48, 1u64..24, any::<bool>()), 1..48),
        ops in proptest::collection::vec((0u8..6, 0u64..64, 1u64..64), 1..64),
    ) {
        let mut run = Lockstep::new(rho + extra_step, rho);
        for &(index, words, live) in &survivors {
            run.associate_whole(index, words, live);
            run.agree("associate_whole")?;
        }
        for &(op, a, b) in &ops {
            let what = match op {
                0 => {
                    run.claim(a, true);
                    "claim_new_object"
                }
                1 => {
                    run.claim(a, false);
                    "claim_whole_object"
                }
                2 => {
                    run.mark_dead(a);
                    "mark_dead"
                }
                3 if run.step() < 24 => {
                    run.advance_step();
                    "advance_step"
                }
                4 => {
                    // Line-9-style whole entries, off the chunks in `E`.
                    let index = a;
                    let in_e = run.seed.chunk_stats().iter().any(|s| s.0 == index && s.4);
                    if !in_e {
                        run.associate_whole(index, b, a % 2 == 0);
                    }
                    "associate_whole"
                }
                _ => {
                    run.shed()?;
                    "shed_density_surplus"
                }
            };
            run.agree(what)?;
        }
    }
}

#[test]
fn half_reassignment_cascades_agree() {
    // Objects A, B, C are claimed with halves at chunks (0, 2), (3, 5) and
    // (6, 8) of 4 words; after one step change (chunks of 8, threshold 4
    // at rho = 1) they sit on (0, 1), (1, 2) and (3, 4), so A and B share
    // chunk 1. With a 4-word whole object on every chunk, shedding moves
    // C's, B's and then A's half into its partner chunk, each move pushing
    // mass into a chunk that is re-evaluated next.
    let mut run = Lockstep::new(2, 1);
    run.claim(0, true);
    run.claim(0, true);
    run.claim(0, true);
    run.agree("claims").unwrap();
    run.advance_step();
    run.agree("advance_step").unwrap();
    for index in 0..6 {
        run.associate_whole(index, 4, true);
    }
    run.agree("associate_whole").unwrap();
    run.shed().unwrap();
    run.agree("shed_density_surplus").unwrap();
    assert!(
        run.reassigned == 3,
        "expected a cascade of half re-assignments, saw {}",
        run.reassigned
    );
}
