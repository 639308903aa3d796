//! Error types for the heap substrate.

use core::fmt;

use crate::addr::{Addr, Extent, Size};
use crate::object::ObjectId;

/// Errors raised by the ground-truth [`SpaceMap`](crate::SpaceMap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The attempted extent collides with an existing one.
    Overlap {
        /// The extent that was being claimed.
        attempted: Extent,
        /// The already-stored extent it collides with.
        existing: Extent,
        /// Owner of the colliding extent.
        holder: ObjectId,
    },
    /// A zero-sized extent was offered.
    EmptyExtent {
        /// The object the extent was claimed for.
        owner: ObjectId,
    },
    /// No interval starts at the given address.
    NotOccupied {
        /// The address that was offered as an interval start.
        addr: Addr,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::Overlap {
                attempted,
                existing,
                holder,
            } => write!(f, "extent {attempted} overlaps {existing} held by {holder}"),
            SpaceError::EmptyExtent { owner } => {
                write!(f, "zero-sized extent offered for {owner}")
            }
            SpaceError::NotOccupied { addr } => {
                write!(f, "no interval starts at {addr}")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// Errors raised by [`Heap`](crate::Heap) operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The placement or relocation target is not free.
    Space(SpaceError),
    /// The object id is not live in the heap.
    UnknownObject(ObjectId),
    /// A placement names an object id that is already live.
    AlreadyLive(ObjectId),
    /// A relocation was requested that exceeds the remaining compaction
    /// allowance of a budget-enforcing heap.
    BudgetExceeded {
        /// Object the manager tried to move.
        id: ObjectId,
        /// Its size (the cost of the move).
        size: Size,
        /// Words of compaction allowance remaining before the move.
        remaining: Size,
    },
    /// An allocation of size zero or above the configured maximum `n`.
    InvalidSize {
        /// The offending size.
        size: Size,
        /// The configured maximum object size, if any.
        max: Option<Size>,
    },
    /// A replayed trace names an object id the dense object table cannot
    /// index (ids stay below `2^32 − 1`).
    IdOutOfRange(u64),
    /// A replayed trace puts an object past the `2^32`-word address space.
    ExtentOutOfRange {
        /// The object's start address in words.
        addr: u64,
        /// Its size in words.
        size: u64,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::Space(e) => write!(f, "space conflict: {e}"),
            HeapError::UnknownObject(id) => write!(f, "object {id} is not live"),
            HeapError::AlreadyLive(id) => write!(f, "object {id} is already live"),
            HeapError::BudgetExceeded {
                id,
                size,
                remaining,
            } => write!(
                f,
                "moving {id} ({size}) exceeds remaining compaction allowance of {remaining}"
            ),
            HeapError::InvalidSize { size, max } => match max {
                Some(max) => write!(f, "invalid object size {size} (max {max})"),
                None => write!(f, "invalid object size {size}"),
            },
            HeapError::IdOutOfRange(id) => {
                write!(
                    f,
                    "object id {id} is out of range (ids stay below 2^32 - 1)"
                )
            }
            HeapError::ExtentOutOfRange { addr, size } => write!(
                f,
                "{size} words at address {addr} end past the 2^32-word address space"
            ),
        }
    }
}

impl std::error::Error for HeapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeapError::Space(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpaceError> for HeapError {
    fn from(e: SpaceError) -> Self {
        HeapError::Space(e)
    }
}

/// Errors raised while driving a program against a manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecutionError {
    /// The heap rejected an operation the manager requested.
    Heap(HeapError),
    /// The manager failed to produce a placement for a request.
    AllocationFailed {
        /// Size that could not be served.
        size: Size,
        /// Manager-provided reason.
        reason: String,
    },
    /// The program exceeded its declared live-space bound `M`.
    LiveSpaceExceeded {
        /// Live words after the offending allocation.
        live: Size,
        /// The declared bound.
        bound: Size,
    },
    /// The program requested freeing an object that is not live.
    BadFree(ObjectId),
    /// A paranoia cross-check found the manager's free-space mirror
    /// diverging from the ground-truth [`SpaceMap`](crate::SpaceMap).
    MirrorDivergence {
        /// Round at which the divergence was detected.
        round: u32,
        /// Round at which a chaos fault was injected, when the engine
        /// injected one (detection latency = `round - injected_round`).
        injected_round: Option<u32>,
        /// First divergence found, as reported by the manager.
        detail: String,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::Heap(e) => write!(f, "heap error: {e}"),
            ExecutionError::AllocationFailed { size, reason } => {
                write!(f, "manager failed to allocate {size}: {reason}")
            }
            ExecutionError::LiveSpaceExceeded { live, bound } => {
                write!(f, "program exceeded live-space bound: {live} > {bound}")
            }
            ExecutionError::BadFree(id) => write!(f, "program freed non-live object {id}"),
            ExecutionError::MirrorDivergence {
                round,
                injected_round,
                detail,
            } => {
                write!(f, "manager mirror diverged from space map at round {round}")?;
                if let Some(injected) = injected_round {
                    write!(f, " (fault injected at round {injected})")?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

impl std::error::Error for ExecutionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecutionError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for ExecutionError {
    fn from(e: HeapError) -> Self {
        ExecutionError::Heap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SpaceError::Overlap {
            attempted: Extent::from_raw(0, 4),
            existing: Extent::from_raw(2, 4),
            holder: ObjectId::from_raw(9),
        };
        let s = e.to_string();
        assert!(s.contains("overlaps") && s.contains("o9"));

        let h: HeapError = e.into();
        assert!(h.to_string().contains("space conflict"));

        let x: ExecutionError = HeapError::UnknownObject(ObjectId::from_raw(3)).into();
        assert!(x.to_string().contains("o3"));
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e: HeapError = SpaceError::NotOccupied { addr: Addr::new(5) }.into();
        assert!(e.source().is_some());
        let x: ExecutionError = e.into();
        assert!(x.source().is_some());
    }

    #[test]
    fn budget_error_mentions_numbers() {
        let e = HeapError::BudgetExceeded {
            id: ObjectId::from_raw(1),
            size: Size::new(16),
            remaining: Size::new(3),
        };
        let s = e.to_string();
        assert!(s.contains("16w") && s.contains("3w"));
    }
}
