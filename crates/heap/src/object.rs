//! Object identity and per-object records.

use core::fmt;

use crate::addr::{Addr, Extent, Size};

/// A unique identifier for an allocated object.
///
/// Identifiers are handed out by the [`Heap`](crate::Heap) in allocation
/// order and are never reused, so an `ObjectId` also serves as an allocation
/// sequence number (the "k-th object" ordering that the paper's reduction in
/// Claim 4.8 relies on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates an identifier from its raw sequence number.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// The raw sequence number.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Monotone generator of fresh [`ObjectId`]s.
#[derive(Debug, Default, Clone)]
pub struct ObjectIdGen {
    next: u64,
}

impl ObjectIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh identifier, never previously returned.
    pub fn fresh(&mut self) -> ObjectId {
        let id = ObjectId(self.next);
        self.next += 1;
        id
    }

    /// Moves past `id`: every later [`fresh`](Self::fresh) id is above it.
    pub fn skip(&mut self, id: ObjectId) {
        self.next = self.next.max(id.0.saturating_add(1));
    }

    /// Number of identifiers handed out so far.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

/// The live record of an object currently resident in the heap: its id
/// and current footprint, read from the referee's slot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRecord {
    id: ObjectId,
    addr: Addr,
    size: Size,
}

impl ObjectRecord {
    /// Creates a record of object `id` occupying `[addr, addr + size)`.
    pub fn new(id: ObjectId, addr: Addr, size: Size) -> Self {
        ObjectRecord { id, addr, size }
    }

    /// The object's identifier.
    #[inline]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The object's current address.
    #[inline]
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The object's size in words.
    #[inline]
    pub fn size(&self) -> Size {
        self.size
    }

    /// The current footprint `[addr, addr + size)`.
    #[inline]
    pub fn extent(&self) -> Extent {
        Extent::new(self.addr, self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_gen_is_monotone_and_dense() {
        let mut gen = ObjectIdGen::new();
        let a = gen.fresh();
        let b = gen.fresh();
        let c = gen.fresh();
        assert!(a < b && b < c);
        assert_eq!(c.get() - a.get(), 2);
        assert_eq!(gen.issued(), 3);
    }

    #[test]
    fn id_display() {
        assert_eq!(ObjectId::from_raw(12).to_string(), "o12");
    }
}
