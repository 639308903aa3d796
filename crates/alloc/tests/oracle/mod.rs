//! Seed implementations of the manager-side structures, kept verbatim
//! (apart from renaming) as test oracles: the `BTreeMap` free space, the
//! `BTreeSet`-indexed buddy, segregated and TLSF managers, and the
//! `BTreeMap` page manager. The lockstep suites demand that the runtime
//! structures answer exactly like these.

mod free_space;
mod managers;
mod pages;

pub use free_space::ReferenceFreeSpace;
pub use managers::{SeedBuddyAllocator, SeedSegregatedManager, SeedTlsfManager};
pub use pages::SeedPageManager;
