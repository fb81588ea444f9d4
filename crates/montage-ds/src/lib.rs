//! # montage-ds — data structures built on Montage
//!
//! The structures evaluated in the paper, written against the public
//! [`montage`] API exactly as a downstream user would:
//!
//! * [`MontageHashMap`] — the lock-per-bucket hashmap of paper Fig. 2: the
//!   lookup structure (buckets, chains, locks) is entirely transient; only
//!   key/value payloads live in NVM.
//! * [`MontageQueue`] — the single-lock queue: payloads carry consecutive
//!   sequence numbers (the "items and their order" the abstraction needs),
//!   and the linked structure is transient.
//! * [`MontageNbQueue`] — a nonblocking Michael–Scott queue that linearizes
//!   through [`montage::VerifyCell::cas_verify`], demonstrating the paper's
//!   Sec. 3.3 recipe for lock-free structures.
//! * [`MontageSortedList`] — a Harris-style lock-free sorted list with
//!   consistent `range(lo, hi)` scans: the ordered map.
//! * [`MontageGraph`] — the general graph of Sec. 6.3: a payload per vertex
//!   and per edge (edges name their endpoints; vertices do **not** point to
//!   edges, avoiding long persistent pointer chains), with transient
//!   adjacency and per-vertex locks.
//!
//! Every structure has a `recover` constructor that rebuilds its transient
//! state from a [`montage::RecoveredState`], optionally in parallel.

pub mod graph;
pub mod hashmap;
pub mod nbqueue;
pub mod queue;
pub mod sortedlist;

pub use graph::MontageGraph;
pub use hashmap::MontageHashMap;
pub use nbqueue::MontageNbQueue;
pub use queue::MontageQueue;
pub use sortedlist::MontageSortedList;

/// Payload type tags used by the bundled structures (pass your own when
/// instantiating several structures of the same kind in one pool).
pub mod tags {
    pub const HASHMAP: u16 = 1;
    pub const QUEUE: u16 = 2;
    pub const NBQUEUE: u16 = 3;
    pub const GRAPH_VERTEX: u16 = 4;
    pub const GRAPH_EDGE: u16 = 5;
    pub const KVSTORE: u16 = 6;
    // 7, 8 and 9 are retired: pools written by older builds may still hold
    // payloads with those tags, so no bundled structure may reuse them.
    pub const SORTED_LIST: u16 = 10;
}
