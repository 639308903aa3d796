//! The memory-manager side of the paper's interaction model.
//!
//! A [`MemoryManager`] answers allocation requests with placement addresses
//! and may relocate live objects (compaction) through [`HeapOps`], which
//! enforces the c-partial budget and immediately reports each move to the
//! program — the program may respond by freeing the moved object on the
//! spot, which is exactly how the paper's bad program `P_F` reacts
//! (Definition 4.1, ghost objects).

use core::fmt;

use crate::addr::{Addr, Extent, Size};
use crate::error::HeapError;
use crate::event::{Event, Observer, Tick};
use crate::heap::Heap;
use crate::object::ObjectId;
use crate::program::{MoveResponse, Program};
use crate::space::SpaceMap;

/// An allocation request forwarded to the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// Identity the new object will have once placed.
    pub id: ObjectId,
    /// Requested size in words.
    pub size: Size,
}

/// What became of a relocation after the program was notified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// The object now lives at the destination.
    Moved,
    /// The program freed the object the moment it was moved (the `P_F`
    /// reaction): both the old and the new location are now free, but the
    /// move still consumed compaction budget.
    Discarded,
}

/// A manager-side placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementError {
    /// Human-readable reason (e.g. "arena exhausted and no budget").
    pub reason: String,
}

impl PlacementError {
    /// Creates a placement error with the given reason.
    pub fn new(reason: impl Into<String>) -> Self {
        PlacementError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "placement failed: {}", self.reason)
    }
}

impl std::error::Error for PlacementError {}

impl From<HeapError> for PlacementError {
    fn from(e: HeapError) -> Self {
        PlacementError::new(e.to_string())
    }
}

/// The window through which a manager touches the heap while serving a
/// request. Relocations are budget-checked and the program is notified of
/// each move *immediately*, before the manager regains control.
pub struct HeapOps<'a, 'o> {
    pub(crate) heap: &'a mut Heap,
    pub(crate) program: &'a mut dyn Program,
    // The observer's trait-object lifetime `'o` outlives the per-request
    // borrow `'a`, so the engine can reborrow its observer for each
    // request instead of surrendering it for the whole round.
    pub(crate) observer: Option<&'a mut (dyn Observer + 'o)>,
    pub(crate) tick: &'a mut Tick,
}

impl HeapOps<'_, '_> {
    /// Read-only view of the heap.
    pub fn heap(&self) -> &Heap {
        self.heap
    }

    /// Words of compaction allowance currently available.
    pub fn allowance(&self) -> Size {
        self.heap.budget().allowance()
    }

    /// Whether moving `size` words now is within budget.
    pub fn can_move(&self, size: Size) -> bool {
        self.heap.budget().can_move(size)
    }

    /// Relocates live object `id` to `to`, spending budget, then notifies
    /// the program. If the program frees the object in response (the `P_F`
    /// reaction), the free is performed before this call returns and
    /// [`MoveOutcome::Discarded`] is reported so the caller can treat both
    /// locations as free.
    ///
    /// # Errors
    ///
    /// Fails (leaving the heap unchanged) if the object is not live, the
    /// destination is not free, or the move exceeds the allowance.
    pub fn relocate(&mut self, id: ObjectId, to: Addr) -> Result<MoveOutcome, HeapError> {
        let _span = pcb_metrics::span!("engine.compact");
        let size = self
            .heap
            .record(id)
            .ok_or(HeapError::UnknownObject(id))?
            .size();
        let from = self.heap.relocate(id, to)?;
        if from == to {
            return Ok(MoveOutcome::Moved);
        }
        self.emit(Event::Moved { id, from, to, size });
        match self.program.moved(id, from, to, size) {
            MoveResponse::Keep => Ok(MoveOutcome::Moved),
            MoveResponse::FreeImmediately => {
                let (addr, size) = self
                    .heap
                    .free(id)
                    .expect("object was just relocated, so it is live");
                // Budget spent moving an object that died on arrival:
                // charge it to the ghost-words attribution bucket.
                self.heap.note_ghost(size);
                self.emit(Event::Freed { id, addr, size });
                Ok(MoveOutcome::Discarded)
            }
        }
    }

    fn emit(&mut self, event: Event) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_event(*self.tick, &event);
        }
        *self.tick += 1;
    }
}

impl fmt::Debug for HeapOps<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapOps")
            .field("tick", &self.tick)
            .field("allowance", &self.allowance())
            .finish()
    }
}

/// Verdict of a manager's self-check against the ground-truth
/// [`SpaceMap`] (see [`MemoryManager::mirror_check`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirrorCheck {
    /// The manager's mirror agrees with the referee.
    Clean,
    /// The mirror disagrees; the payload describes the first divergence
    /// found (deterministic for a given mirror state).
    Divergent(String),
    /// The manager keeps no redundant mirror to cross-check.
    Unsupported,
}

/// A memory manager: the allocator-plus-compactor of the paper's model.
///
/// Implementations must return a placement whose extent is free when
/// `place` returns; the engine verifies this against the ground-truth
/// [`SpaceMap`](crate::SpaceMap) and fails the execution otherwise.
pub trait MemoryManager {
    /// Short human-readable policy name (for reports).
    fn name(&self) -> &str;

    /// Chooses a placement for `req`, optionally compacting first via `ops`.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the manager cannot serve the request
    /// (e.g. a bounded-arena manager that is out of space and budget).
    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError>;

    /// Observes a program-initiated free (so the manager can recycle the
    /// space). Called for every free, including frees of objects the
    /// manager just moved.
    fn note_free(&mut self, id: ObjectId, addr: Addr, size: Size);

    /// Observes that the engine committed the placement returned by
    /// [`place`](Self::place). Default: nothing (managers usually update
    /// their structures inside `place` already).
    fn note_place(&mut self, id: ObjectId, addr: Addr, size: Size) {
        let _ = (id, addr, size);
    }

    /// The extent the manager considers to be its heap (for diagnostics
    /// only; `HS` is always measured by the ground truth). Default: none.
    fn arena(&self) -> Option<Extent> {
        None
    }

    /// Cross-checks the manager's redundant free-space mirror against
    /// the ground-truth [`SpaceMap`] (paranoia mode). Managers without
    /// a mirror report [`MirrorCheck::Unsupported`]; the default does.
    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        let _ = space;
        MirrorCheck::Unsupported
    }

    /// Injects one deterministic, detectable corruption into the
    /// manager's mirror (chaos `mirror-flip` site), choosing the victim
    /// from `roll`. Returns whether a fault was actually planted —
    /// `false` (the default) for managers without a mirror, or when the
    /// current mirror state offers nothing to corrupt.
    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        let _ = (roll, space);
        false
    }

    /// Words the manager is currently holding that no object occupies
    /// and no other request can use — internal fragmentation (for page
    /// managers, the unusable tails of open pages). Default 0 for
    /// managers that hand out exact fits.
    fn internal_waste(&self) -> u64 {
        0
    }

    /// Publishes the counters and histograms the manager kept in its own
    /// fields, and its index high-water marks, into the `pcb-metrics`
    /// plane (`manager.*` plus the manager's own series, e.g.
    /// `pages.evictions` or `alloc.size`). The engine calls this once per
    /// run while the metrics registry is enabled. Counting must never
    /// change a placement decision, only describe it. Default: nothing —
    /// managers without instrumentation publish no series.
    fn publish_metrics(&self) {}
}

/// Boxed-manager forwarding so `Box<dyn MemoryManager>` is itself a manager
/// (letting harnesses mix manager kinds in one collection).
impl MemoryManager for Box<dyn MemoryManager> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        (**self).place(req, ops)
    }

    fn note_free(&mut self, id: ObjectId, addr: Addr, size: Size) {
        (**self).note_free(id, addr, size)
    }

    fn note_place(&mut self, id: ObjectId, addr: Addr, size: Size) {
        (**self).note_place(id, addr, size)
    }

    fn arena(&self) -> Option<Extent> {
        (**self).arena()
    }

    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        (**self).mirror_check(space)
    }

    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        (**self).inject_mirror_fault(roll, space)
    }

    fn internal_waste(&self) -> u64 {
        (**self).internal_waste()
    }

    fn publish_metrics(&self) {
        (**self).publish_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_error_display() {
        let e = PlacementError::new("arena full");
        assert!(e.to_string().contains("arena full"));
        let from_heap: PlacementError = HeapError::UnknownObject(ObjectId::from_raw(1)).into();
        assert!(from_heap.reason.contains("o1"));
    }
}
