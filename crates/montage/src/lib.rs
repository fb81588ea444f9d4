//! # montage — buffered persistent data structures (the paper's core system)
//!
//! Rust reproduction of **Montage** (Wen, Cai, Du, Jenkins, Valpey, Scott,
//! *"A Fast, General System for Buffered Persistent Data Structures"*,
//! ICPP '21): the first general-purpose system for *buffered durably
//! linearizable* structures.
//!
//! Montage manages **payload blocks** — the minimal semantic state of a data
//! structure — in persistent memory, while the structure keeps all of its
//! indexing/synchronization state in transient DRAM. A millisecond-scale
//! **epoch clock** divides execution so that no operation appears to span an
//! epoch boundary; all payloads created or modified in epoch *e* persist
//! together when the clock ticks from *e+1* to *e+2*. If a crash occurs in
//! epoch *e*, work from epochs *e* and *e−1* is lost, but everything older is
//! recovered **consistently**. A fast [`EpochSys::sync`] flushes on demand,
//! as in file and database systems.
//!
//! ## Quick tour
//!
//! ```
//! use montage::{EpochSys, EsysConfig};
//! use pmem::{PmemConfig, PmemPool};
//!
//! let pool = PmemPool::new(PmemConfig::strict_for_test(16 << 20));
//! let esys = EpochSys::format(pool, EsysConfig::default());
//! let tid = esys.register_thread();
//!
//! // An update operation: BEGIN_OP .. END_OP via an RAII guard.
//! let g = esys.begin_op(tid);
//! let h = esys.pnew(&g, 7 /* type tag */, &42u64); // PNEW
//! let h = esys.set(&g, h, |v| *v += 1).unwrap();   // in-place or copy-on-write
//! assert_eq!(esys.read(&g, h).unwrap(), 43);
//! drop(g);                                          // END_OP
//!
//! esys.sync();                                      // force persistence
//! ```
//!
//! ## Module map (mirrors Fig. 3 of the paper)
//!
//! * [`payload`] — payload block headers (`ALLOC`/`UPDATE`/`DELETE`), handles
//! * [`tracker`] — the operation tracker (per-thread active-epoch slots)
//! * [`buffers`] — per-thread `to_persist` rings for the 4 recent epochs and
//!   epoch-tagged `to_free` lists
//! * [`dcss`] — `CAS_verify`/`load_verify` (double-compare-single-swap on the
//!   epoch clock) for nonblocking structures
//! * [`esys`] — `EpochSys`: `BEGIN_OP`/`END_OP`, `PNEW`/`PDELETE`, `get`/`set`,
//!   epoch advance, `sync`
//! * [`advancer`] — the background epoch-advancing thread
//! * [`recovery`] — post-crash sweep, anti-payload cancellation, parallel rebuild

pub mod advancer;
pub mod buffers;
pub mod config;
pub mod dcss;
pub mod errors;
pub mod esys;
pub mod payload;
pub mod recovery;
pub mod sync;
pub mod tracker;

pub use advancer::Advancer;
pub use config::{EsysConfig, FreeStrategy, PersistStrategy};
pub use dcss::VerifyCell;
pub use errors::{EpochChanged, OldSeeNewException, RecoveryError};
pub use esys::{EpochPin, EpochSys, OpGuard, ThreadId};
pub use payload::{PHandle, PayloadKind, HDR_SIZE};
pub use recovery::{
    try_recover, QuarantinedPayload, RecoveredItem, RecoveredState, RecoveryReport,
};
