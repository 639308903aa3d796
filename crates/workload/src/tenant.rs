//! One closed enum over every tenant workload family.
//!
//! The fleet simulator (and the single-heap `simulate` command) needs to
//! pick a program *kind* at runtime — churn, ramp, trace replay, or the
//! paper's `P_F` adversary — and instantiate it for a concrete tenant
//! shape. [`Family`] is that dispatch point: a family holds no per-run
//! state, and [`Family::instantiate`] stamps out a fresh [`Program`] for
//! a given [`TenantShape`], so a mixer can spawn millions of per-tenant
//! programs from four values.

use rand::rngs::StdRng;
use rand::SeedableRng;

use pcb_adversary::{PfConfig, PfProgram};
use pcb_heap::{Program, Trace, TraceEvent};

use crate::churn::{ChurnConfig, ChurnWorkload, Lifetime};
use crate::dist::SizeDist;
use crate::ramp::{RampConfig, RampWorkload};
use crate::replay::TraceWorkload;

/// The concrete parameters of one tenant heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShape {
    /// Live-space bound `M` in words.
    pub m: u64,
    /// `log₂` of the maximum object size.
    pub log_n: u32,
    /// Compaction bound `c` (used by budgeted families).
    pub c: u64,
    /// Per-tenant RNG seed.
    pub seed: u64,
    /// Number of rounds the program should run.
    pub rounds: u32,
    /// Allocation attempts per round (families that batch).
    pub allocs_per_round: usize,
}

/// A tenant workload family: a factory for per-tenant [`Program`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Steady-state churn (geometric sizes, die-young lifetimes).
    Churn,
    /// Phased grow/release (server-style ramps).
    Ramp,
    /// Replay of a deterministic synthetic "recorded session" derived
    /// from the tenant's seed.
    Replay,
    /// The paper's `P_F` program. When no feasible `ρ` exists for the
    /// tenant's `(M, n, c)` (small tenants), the tenant deterministically
    /// degrades to churn: the fleet must never fail because the Zipf tail
    /// handed the adversary a heap too small for Theorem 1's construction.
    Adversary,
}

impl Family {
    /// The four families, in canonical (mixer) order.
    pub const ALL: [Family; 4] = [
        Family::Churn,
        Family::Ramp,
        Family::Replay,
        Family::Adversary,
    ];

    /// Short family name for reports ("churn", "ramp", …).
    pub fn kind(self) -> &'static str {
        match self {
            Family::Churn => "churn",
            Family::Ramp => "ramp",
            Family::Replay => "replay",
            Family::Adversary => "adversary",
        }
    }

    /// Whether the family's programs expect a c-partial (budgeted)
    /// compacting heap rather than a non-moving one.
    pub fn needs_budget(self) -> bool {
        self == Family::Adversary
    }

    /// Builds a fresh program for one tenant.
    pub fn instantiate(self, shape: &TenantShape) -> Box<dyn Program> {
        match self {
            Family::Churn => Box::new(ChurnWorkload::new(churn_config(shape))),
            Family::Ramp => {
                // A ramp phase fills the whole bound M, so the object
                // count per tenant is M / mean size. The benign geometric
                // default (~3-word mean) makes large tenants dominate a
                // fleet's wall-clock; the bimodal cells-plus-buffers
                // profile keeps phases fragmenting (small survivors pin
                // big holes) at ~5x fewer objects.
                let n = 1u64 << shape.log_n;
                Box::new(RampWorkload::new(RampConfig {
                    phases: shape.rounds,
                    seed: shape.seed,
                    dist: SizeDist::Bimodal {
                        small: 2.min(n),
                        large: n,
                        p_large: 0.2,
                    },
                    ..RampConfig::benign(shape.m, shape.log_n)
                }))
            }
            Family::Replay => Box::new(TraceWorkload::new(&synthesize(shape))),
            Family::Adversary => match PfConfig::new(shape.m, shape.log_n, shape.c) {
                Ok(cfg) => Box::new(PfProgram::new(cfg)),
                Err(_) => Box::new(ChurnWorkload::new(churn_config(shape))),
            },
        }
    }
}

fn churn_config(shape: &TenantShape) -> ChurnConfig {
    ChurnConfig {
        m: shape.m,
        log_n: shape.log_n,
        dist: SizeDist::Geometric(0.25),
        target_live: 0.9,
        rounds: shape.rounds,
        allocs_per_round: shape.allocs_per_round,
        lifetime: Lifetime::DieYoung { bias: 0.8 },
        seed: shape.seed,
    }
}

/// Synthesizes a replay tenant's session trace: a round-structured
/// request stream (allocations drawn from a geometric distribution, ~half
/// of the live set freed at each round boundary) emitted directly as
/// [`TraceEvent`]s. Replaying it through [`TraceWorkload`] exercises the
/// same code path as replaying a trace recorded from a real run, without
/// retaining any per-tenant trace storage beyond the program's lifetime.
fn synthesize(shape: &TenantShape) -> Trace {
    let mut rng = StdRng::seed_from_u64(shape.seed);
    let dist = SizeDist::Geometric(0.25).sampler(shape.log_n);
    let mut trace = Trace::new(u64::MAX);
    let mut next_id = 0u64;
    let mut live: Vec<(u64, u64)> = Vec::new();
    let mut live_words = 0u64;
    // Addresses are synthetic (never validated by the replay, which
    // reuses only the request stream); a bump cursor keeps them
    // distinct for readability in dumps.
    let mut cursor = 0u64;
    for round in 0..shape.rounds {
        trace.events.push(TraceEvent::RoundStart { round });
        if round > 0 {
            // Free roughly half of the live set, oldest-biased.
            let drop = live.len() / 2;
            for (id, size) in live.drain(..drop) {
                live_words -= size;
                trace.events.push(TraceEvent::Freed { id });
            }
        }
        for _ in 0..shape.allocs_per_round {
            let size = dist.sample(&mut rng).get();
            if live_words + size > shape.m {
                continue;
            }
            trace.events.push(TraceEvent::Placed {
                id: next_id,
                addr: cursor,
                size,
            });
            live.push((next_id, size));
            live_words += size;
            cursor += size;
            next_id += 1;
        }
        trace.events.push(TraceEvent::RoundEnd { round });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_alloc::ManagerKind;
    use pcb_heap::{Execution, Heap, Params};

    fn shape() -> TenantShape {
        TenantShape {
            m: 1 << 10,
            log_n: 6,
            c: 10,
            seed: 42,
            rounds: 12,
            allocs_per_round: 8,
        }
    }

    #[test]
    fn every_family_instantiates_and_runs() {
        for family in Family::ALL {
            let shape = shape();
            let program = family.instantiate(&shape);
            let heap = if family.needs_budget() {
                Heap::new(shape.c)
            } else {
                Heap::non_moving()
            };
            let params = Params::new(shape.m * 4, shape.log_n, shape.c).expect("valid");
            let mut exec = Execution::new(heap, program, ManagerKind::FirstFit.build(&params));
            let report = exec
                .run_summary()
                .unwrap_or_else(|e| panic!("{}: {e}", family.kind()));
            assert!(report.objects_placed > 0, "{}", family.kind());
        }
    }

    #[test]
    fn replay_synthesis_is_deterministic() {
        let a = synthesize(&shape());
        let b = synthesize(&shape());
        assert_eq!(a.events, b.events);
        let c = synthesize(&TenantShape {
            seed: 43,
            ..shape()
        });
        assert_ne!(a.events, c.events, "seed must matter");
    }

    #[test]
    fn adversary_falls_back_on_tiny_tenants() {
        // m = 8 leaves no feasible rho; the factory must still produce a
        // runnable program.
        let tiny = TenantShape {
            m: 8,
            log_n: 2,
            ..shape()
        };
        let program = Family::Adversary.instantiate(&tiny);
        assert_eq!(program.name(), "churn");
    }

    #[test]
    fn kind_lookup_round_trips() {
        // A spec's kind index names its family in the mixer's kind list.
        let mixer = crate::WorkloadMixer::new(crate::MixerConfig::default()).expect("valid");
        let kinds = mixer.kinds();
        assert_eq!(kinds.len(), Family::ALL.len());
        for index in 0..256 {
            let spec = mixer.tenant(index);
            assert_eq!(mixer.family(&spec).kind(), kinds[spec.kind]);
            assert_eq!(Family::ALL[spec.kind], mixer.family(&spec));
        }
    }
}
