//! A uniform way to name and instantiate every manager in the suite, used
//! by the simulation harness, the benches, and the examples.

use core::fmt;
use std::str::FromStr;

use pcb_heap::{MemoryManager, Params};

use crate::buddy::{BuddyAllocator, BuddySelect};
use crate::compacting::CompactingManager;
use crate::freelist::FitPolicy;
use crate::full_compact::FullCompactor;
use crate::pages::PageManager;
use crate::policy::FreeListManager;
use crate::robson::RobsonAllocator;
use crate::segregated::SegregatedManager;
use crate::tlsf::TlsfManager;

/// Every manager in the suite, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ManagerKind {
    /// First-fit free list (non-moving).
    FirstFit,
    /// Best-fit free list (non-moving).
    BestFit,
    /// Worst-fit free list (non-moving).
    WorstFit,
    /// Next-fit free list (non-moving).
    NextFit,
    /// Binary buddy (non-moving, aligned).
    Buddy,
    /// Segregated storage (non-moving).
    Segregated,
    /// Robson-style lowest-aligned-fit (non-moving, aligned).
    Robson,
    /// Bendersky–Petrank `(c+1)M` arena with slide compaction (c-partial).
    CompactingBp11,
    /// Theorem-2-style size-class pages with evacuation (c-partial).
    PagesThm2,
    /// Two-level segregated fit (non-moving, O(1) good-fit; the classic
    /// real-time allocator).
    Tlsf,
    /// Unlimited-budget full compaction — NOT c-partial; the paper's
    /// "overhead factor 1" contrast. Requires
    /// [`pcb_heap::Heap::unlimited_compaction`].
    FullCompaction,
}

impl ManagerKind {
    /// Every kind, in a stable order.
    pub const ALL: [ManagerKind; 10] = [
        ManagerKind::FirstFit,
        ManagerKind::BestFit,
        ManagerKind::WorstFit,
        ManagerKind::NextFit,
        ManagerKind::Buddy,
        ManagerKind::Segregated,
        ManagerKind::Robson,
        ManagerKind::Tlsf,
        ManagerKind::CompactingBp11,
        ManagerKind::PagesThm2,
    ];

    /// The non-moving kinds (Robson's results apply to these).
    pub const NON_MOVING: [ManagerKind; 8] = [
        ManagerKind::FirstFit,
        ManagerKind::BestFit,
        ManagerKind::WorstFit,
        ManagerKind::NextFit,
        ManagerKind::Buddy,
        ManagerKind::Segregated,
        ManagerKind::Robson,
        ManagerKind::Tlsf,
    ];

    /// The compacting (c-partial) kinds.
    pub const COMPACTING: [ManagerKind; 2] = [ManagerKind::CompactingBp11, ManagerKind::PagesThm2];

    /// Every kind plus the non-c-partial full-compaction baseline.
    pub const WITH_BASELINE: [ManagerKind; 11] = [
        ManagerKind::FirstFit,
        ManagerKind::BestFit,
        ManagerKind::WorstFit,
        ManagerKind::NextFit,
        ManagerKind::Buddy,
        ManagerKind::Segregated,
        ManagerKind::Robson,
        ManagerKind::Tlsf,
        ManagerKind::CompactingBp11,
        ManagerKind::PagesThm2,
        ManagerKind::FullCompaction,
    ];

    /// Stable lowercase name (parseable back via [`FromStr`]).
    pub fn name(self) -> &'static str {
        match self {
            ManagerKind::FirstFit => "first-fit",
            ManagerKind::BestFit => "best-fit",
            ManagerKind::WorstFit => "worst-fit",
            ManagerKind::NextFit => "next-fit",
            ManagerKind::Buddy => "buddy",
            ManagerKind::Segregated => "segregated",
            ManagerKind::Robson => "robson-aligned",
            ManagerKind::Tlsf => "tlsf",
            ManagerKind::CompactingBp11 => "compacting-bp11",
            ManagerKind::PagesThm2 => "pages-thm2",
            ManagerKind::FullCompaction => "full-compaction",
        }
    }

    /// Whether the kind ever moves objects.
    pub fn is_compacting(self) -> bool {
        matches!(
            self,
            ManagerKind::CompactingBp11 | ManagerKind::PagesThm2 | ManagerKind::FullCompaction
        )
    }

    /// Whether the kind needs an unlimited compaction budget (it is not a
    /// c-partial manager and the paper's bounds do not apply to it).
    pub fn is_unbounded(self) -> bool {
        matches!(self, ManagerKind::FullCompaction)
    }

    /// The compaction bound of the heap a run under this kind gets, in
    /// the encoding of [`Heap::with_c`](pcb_heap::Heap::with_c): `0`
    /// (unlimited) for a manager the paper's bounds do not apply to,
    /// `c` when the kind compacts or the program needs a c-partial heap
    /// (`P_F` relies on one), and `u64::MAX` (non-moving) otherwise.
    /// This is the one place that choice is made.
    pub fn heap_c(self, program_needs_budget: bool, c: u64) -> u64 {
        if self.is_unbounded() {
            0
        } else if program_needs_budget || self.is_compacting() {
            c
        } else {
            u64::MAX
        }
    }

    /// Instantiates the manager for the experiment parameters `(M, n, c)`.
    ///
    /// # Panics
    ///
    /// Panics on parameter combinations the kind cannot serve (see
    /// [`try_build`](Self::try_build), which reports them as a typed
    /// error instead).
    pub fn build(self, params: &Params) -> Box<dyn MemoryManager> {
        match self.try_build(params) {
            Ok(manager) => manager,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`build`](Self::build), but reports parameter combinations
    /// the kind cannot serve as a [`BuildError`] instead of panicking —
    /// the constructor for harness paths (CLI, fleet) where a user's
    /// parameter mistake must become a clean exit message.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] naming the kind and the violated
    /// constraint.
    pub fn try_build(self, params: &Params) -> Result<Box<dyn MemoryManager>, BuildError> {
        let (c, m, log_n) = (params.c(), params.m(), params.log_n());
        Ok(match self {
            ManagerKind::FirstFit => Box::new(FreeListManager::new(FitPolicy::FirstFit)),
            ManagerKind::BestFit => Box::new(FreeListManager::new(FitPolicy::BestFit)),
            ManagerKind::WorstFit => Box::new(FreeListManager::new(FitPolicy::WorstFit)),
            ManagerKind::NextFit => Box::new(FreeListManager::new(FitPolicy::NextFit)),
            ManagerKind::Buddy => Box::new(BuddyAllocator::new(log_n, BuddySelect::SmallestOrder)),
            ManagerKind::Segregated => Box::new(SegregatedManager::new(log_n)),
            ManagerKind::Robson => Box::new(RobsonAllocator::new(log_n)),
            ManagerKind::Tlsf => Box::new(TlsfManager::new()),
            ManagerKind::CompactingBp11 => Box::new(CompactingManager::new(c, m)),
            ManagerKind::PagesThm2 => Box::new(PageManager::try_new(c.max(2), log_n).map_err(
                |e| BuildError {
                    kind: self,
                    detail: e.to_string(),
                },
            )?),
            ManagerKind::FullCompaction => Box::new(FullCompactor::new()),
        })
    }
}

/// A [`ManagerKind`] that cannot be instantiated for the given
/// parameters (e.g. a size-class order beyond the page manager's
/// geometry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// The kind that failed to build.
    pub kind: ManagerKind,
    /// The violated constraint, human-readable.
    pub detail: String,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build manager `{}`: {}", self.kind, self.detail)
    }
}

impl std::error::Error for BuildError {}

impl fmt::Display for ManagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error parsing a [`ManagerKind`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseManagerKindError {
    /// The unrecognized input.
    pub input: String,
}

impl fmt::Display for ParseManagerKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown manager kind `{}`", self.input)
    }
}

impl std::error::Error for ParseManagerKindError {}

impl FromStr for ManagerKind {
    type Err = ParseManagerKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ManagerKind::WITH_BASELINE
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseManagerKindError {
                input: s.to_owned(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram, Size};

    #[test]
    fn names_round_trip() {
        for kind in ManagerKind::ALL {
            let parsed: ManagerKind = kind.name().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("no-such-manager".parse::<ManagerKind>().is_err());
    }

    #[test]
    fn every_kind_serves_a_basic_script() {
        for kind in ManagerKind::ALL {
            let program = ScriptedProgram::new(Size::new(256))
                .round([], [1, 2, 4, 8, 16])
                .round([0, 2], [4, 1])
                .round([1, 3, 4], [8, 8]);
            let heap = if kind.is_compacting() {
                Heap::new(10)
            } else {
                Heap::non_moving()
            };
            let params = Params::new(256, 6, 10).unwrap();
            let mut exec = Execution::new(heap, program, kind.build(&params));
            let report = exec.run_summary().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(exec.manager().name(), kind.name());
            assert_eq!(report.objects_placed, 9, "{kind}");
        }
    }

    #[test]
    fn try_build_reports_unbuildable_geometry_as_a_typed_error() {
        // log_n = 46 passes Params validation but exceeds the page
        // manager's geometry: try_build must say so without panicking.
        let params = Params::new((1 << 46) + 1, 46, 10).unwrap();
        let err = match ManagerKind::PagesThm2.try_build(&params) {
            Err(e) => e,
            Ok(_) => panic!("log_n = 46 must not build a page manager"),
        };
        assert_eq!(err.kind, ManagerKind::PagesThm2);
        let msg = err.to_string();
        assert!(
            msg.contains("pages-thm2") && msg.contains("max_order"),
            "{msg}"
        );

        // Buildable parameters succeed for every kind.
        let params = Params::new(256, 6, 10).unwrap();
        for kind in ManagerKind::WITH_BASELINE {
            assert!(kind.try_build(&params).is_ok(), "{kind}");
        }
    }

    #[test]
    fn non_moving_kinds_never_move() {
        for kind in ManagerKind::NON_MOVING {
            assert!(!kind.is_compacting());
            let program = ScriptedProgram::new(Size::new(64))
                .round([], [4, 4, 4])
                .round([1], [2]);
            let params = Params::new(64, 5, 10).unwrap();
            let mut exec = Execution::new(Heap::non_moving(), program, kind.build(&params));
            let report = exec.run_summary().unwrap();
            assert_eq!(report.objects_moved, 0, "{kind}");
        }
    }
}
