//! `CAS_verify` / `load_verify`: a software double-compare-single-swap
//! (after Harris et al., "A Practical Multi-word Compare-and-Swap
//! Operation") that updates a location **only if the epoch clock still holds
//! the operation's epoch** (paper Sec. 3.2).
//!
//! Nonblocking structures linearize through [`VerifyCell::cas_verify`]: a
//! successful call is guaranteed to have taken effect while the clock read
//! the operation's epoch, so the operation linearizes in the epoch that
//! labels its payloads (well-formedness property 3). The compatible
//! [`VerifyCell::load`] performs **no stores** unless a DCSS is in progress
//! on the cell, in which case it helps it complete — this is the paper's
//! `load_verify2`, chosen so read-dominated workloads induce no cache-line
//! invalidations. (The paper's alternative, a read-CAS on an adjacent
//! counter, trades read cost for simpler verification; only the variant
//! used by the reported experiments is implemented.)
//!
//! Values are limited to 62 bits (cells store `v << 1`; the LSB marks an
//! in-flight descriptor). That comfortably holds transient pointers and
//! tagged indices, the paper's use cases.

use crate::sync::{weaken, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::errors::EpochChanged;
use crate::esys::{EpochSys, OpGuard};

/// Failure modes of [`VerifyCell::cas_verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasVerifyError {
    /// The cell did not hold the expected value; the actual value is given.
    Conflict(u64),
    /// The epoch advanced between `BEGIN_OP` and the linearization attempt;
    /// the operation must restart (in the new epoch).
    Epoch(EpochChanged),
}

const MAX_DESCRIPTORS: usize = 1024;
const IDX_BITS: u32 = 10;

const UNDECIDED: u64 = 0;
const SUCCEEDED: u64 = 1;
const FAILED: u64 = 2;

/// One announcement slot; recycled per thread, versioned by `seq`.
struct Descriptor {
    /// Even = stable/published; odd = being (re)initialized.
    seq: AtomicU64,
    cell: AtomicUsize,
    old: AtomicU64,
    new: AtomicU64,
    epoch: AtomicU64,
    /// Packed `(seq << 2) | state` so a decision can never be applied to a
    /// recycled descriptor.
    decision: AtomicU64,
}

struct Arena {
    descs: Box<[Descriptor]>,
}

fn arena() -> &'static Arena {
    static ARENA: OnceLock<Arena> = OnceLock::new();
    ARENA.get_or_init(|| Arena {
        descs: (0..MAX_DESCRIPTORS)
            .map(|_| Descriptor {
                seq: AtomicU64::new(0),
                cell: AtomicUsize::new(0),
                old: AtomicU64::new(0),
                new: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                decision: AtomicU64::new(0),
            })
            .collect(),
    })
}

fn my_desc_idx() -> usize {
    // Allocation bookkeeping only — never part of a cross-thread handoff, so
    // it stays on uninstrumented primitives (a model-check execution spawns
    // fresh OS threads every run; instrumenting this would add schedule
    // points and, without the free list, exhaust the arena).
    use crate::sync::uninstrumented::AtomicUsize as PlainUsize;
    static NEXT: PlainUsize = PlainUsize::new(0);
    static FREE: std::sync::Mutex<Vec<usize>> = std::sync::Mutex::new(Vec::new());

    /// Returns the slot to the free list when the owning thread exits, so
    /// short-lived threads (tests, model-check executions) can't exhaust the
    /// arena. The descriptor's `seq` versioning already makes reuse by a
    /// different thread indistinguishable from reuse by the same thread.
    struct Slot(usize);
    impl Drop for Slot {
        fn drop(&mut self) {
            FREE.lock().unwrap().push(self.0);
        }
    }
    thread_local! {
        static IDX: Slot = Slot(FREE.lock().unwrap().pop().unwrap_or_else(|| {
            // ord(counter): one-time slot handout; no data published via it.
            let idx = NEXT.fetch_add(1, Ordering::Relaxed);
            assert!(idx < MAX_DESCRIPTORS, "too many DCSS threads");
            idx
        }));
    }
    IDX.with(|s| s.0)
}

#[inline]
fn mark(idx: usize, seq: u64) -> u64 {
    (seq << (IDX_BITS + 1)) | ((idx as u64) << 1) | 1
}

#[inline]
fn unmark(word: u64) -> (usize, u64) {
    (
        ((word >> 1) & ((1 << IDX_BITS) - 1)) as usize,
        word >> (IDX_BITS + 1),
    )
}

#[inline]
fn is_marked(word: u64) -> bool {
    word & 1 == 1
}

/// A 62-bit atomic cell supporting epoch-verified CAS.
#[derive(Debug)]
pub struct VerifyCell(AtomicU64);

impl VerifyCell {
    pub fn new(v: u64) -> Self {
        debug_assert!(v < 1 << 62);
        VerifyCell(AtomicU64::new(v << 1))
    }

    /// Reads the cell, helping any in-flight DCSS first. Performs no store
    /// instructions when no DCSS is in progress.
    pub fn load(&self, esys: &EpochSys) -> u64 {
        loop {
            let cur = self.0.load(Ordering::SeqCst);
            if !is_marked(cur) {
                return cur >> 1;
            }
            self.help(esys, cur);
        }
    }

    /// Plain store; only safe during single-threaded initialization.
    pub fn store_unsync(&self, v: u64) {
        debug_assert!(v < 1 << 62);
        self.0.store(v << 1, Ordering::SeqCst);
    }

    /// Plain (unverified) CAS, used for helper actions that are not
    /// linearization points — e.g. swinging a Michael–Scott tail pointer.
    /// Helps any in-flight DCSS first. Returns `true` on success.
    pub fn cas_plain(&self, esys: &EpochSys, old: u64, new: u64) -> bool {
        debug_assert!(old < 1 << 62 && new < 1 << 62);
        loop {
            let cur = self.0.load(Ordering::SeqCst);
            if is_marked(cur) {
                self.help(esys, cur);
                continue;
            }
            if cur != old << 1 {
                return false;
            }
            match self
                .0
                .compare_exchange_weak(cur, new << 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(_) => continue,
            }
        }
    }

    /// `CAS_verify`: atomically replaces `old` with `new` **iff** the epoch
    /// clock still equals the operation's epoch. On success the operation
    /// may be said to have linearized while the clock held `g.epoch()`.
    pub fn cas_verify(
        &self,
        esys: &EpochSys,
        g: &OpGuard<'_>,
        old: u64,
        new: u64,
    ) -> Result<(), CasVerifyError> {
        debug_assert!(old < 1 << 62 && new < 1 << 62);
        let idx = my_desc_idx();
        let d = &arena().descs[idx];

        // Publish a fresh descriptor generation (seqlock-style).
        // ord(relaxed): only this thread writes `seq`; helpers validate it.
        let s = d.seq.load(Ordering::Relaxed);
        debug_assert_eq!(s % 2, 0);
        // ord(publish): odd marker must precede the field rewrites below.
        d.seq.store(s + 1, Ordering::Release);
        // ord(relaxed): field writes are ordered by the final `seq` publish.
        d.cell.store(self as *const _ as usize, Ordering::Relaxed);
        // ord(relaxed): ordered by the final `seq` publish.
        d.old.store(old << 1, Ordering::Relaxed);
        // ord(relaxed): ordered by the final `seq` publish.
        d.new.store(new << 1, Ordering::Relaxed);
        // ord(relaxed): ordered by the final `seq` publish.
        d.epoch.store(g.epoch(), Ordering::Relaxed);
        let s2 = s + 2;
        // ord(relaxed): ordered by the final `seq` publish.
        d.decision.store((s2 << 2) | UNDECIDED, Ordering::Relaxed);
        // ord(publish): makes the descriptor fields visible to helpers that
        // acquire-load `seq` after seeing the marked cell word.
        d.seq
            .store(s2, weaken("dcss.desc.publish", Ordering::Release));

        let marked = mark(idx, s2);

        // Install the descriptor.
        loop {
            let cur = self.0.load(Ordering::SeqCst);
            if is_marked(cur) {
                self.help(esys, cur);
                continue;
            }
            if cur != old << 1 {
                return Err(CasVerifyError::Conflict(cur >> 1));
            }
            match self
                .0
                .compare_exchange_weak(cur, marked, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(_) => continue,
            }
        }

        // Verify the epoch and decide.
        let ok = esys.curr_epoch() == g.epoch();
        let want = if ok { SUCCEEDED } else { FAILED };
        let _ = d.decision.compare_exchange(
            (s2 << 2) | UNDECIDED,
            (s2 << 2) | want,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        let outcome = d.decision.load(Ordering::SeqCst) & 0b11;

        // Detach the descriptor.
        let final_word = if outcome == SUCCEEDED {
            new << 1
        } else {
            old << 1
        };
        let _ = self
            .0
            .compare_exchange(marked, final_word, Ordering::SeqCst, Ordering::SeqCst);

        if outcome == SUCCEEDED {
            Ok(())
        } else {
            Err(CasVerifyError::Epoch(EpochChanged {
                op_epoch: g.epoch(),
                current_epoch: esys.curr_epoch(),
            }))
        }
    }

    /// Helps the DCSS whose descriptor is encoded in `word` to completion.
    fn help(&self, esys: &EpochSys, word: u64) {
        let (idx, seq) = unmark(word);
        let d = &arena().descs[idx];
        // Seqlock read of the descriptor fields.
        // ord(acquire): pairs with the owner's `seq` publish; the SeqCst
        // install CAS on the cell already ordered the fields, but the seq
        // validation below needs its own edge for the recycled case.
        let old = d.old.load(Ordering::Acquire);
        // ord(acquire): see above.
        let new = d.new.load(Ordering::Acquire);
        // ord(acquire): see above.
        let epoch = d.epoch.load(Ordering::Acquire);
        // ord(acquire): pairs with the Release `seq` publish.
        if d.seq.load(Ordering::Acquire) != seq {
            // Owner finished and recycled; the mark will be gone on re-read.
            return;
        }
        let ok = esys.curr_epoch() == epoch;
        let want = if ok { SUCCEEDED } else { FAILED };
        let _ = d.decision.compare_exchange(
            (seq << 2) | UNDECIDED,
            (seq << 2) | want,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        let decision = d.decision.load(Ordering::SeqCst);
        if decision >> 2 != seq {
            return; // recycled since
        }
        let final_word = if decision & 0b11 == SUCCEEDED {
            new
        } else {
            old
        };
        let _ = self
            .0
            .compare_exchange(word, final_word, Ordering::SeqCst, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsysConfig;
    use pmem::{PmemConfig, PmemPool};
    use std::sync::Arc;

    fn sys() -> Arc<EpochSys> {
        EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(8 << 20)),
            EsysConfig::default(),
        )
    }

    #[test]
    fn mark_roundtrip() {
        let m = mark(513, 77);
        assert!(is_marked(m));
        assert_eq!(unmark(m), (513, 77));
        assert!(!is_marked(42 << 1));
    }

    #[test]
    fn cas_verify_succeeds_in_stable_epoch() {
        let s = sys();
        let tid = s.register_thread();
        let cell = VerifyCell::new(5);
        let g = s.begin_op(tid);
        cell.cas_verify(&s, &g, 5, 6).unwrap();
        assert_eq!(cell.load(&s), 6);
    }

    #[test]
    fn cas_verify_reports_conflict() {
        let s = sys();
        let tid = s.register_thread();
        let cell = VerifyCell::new(5);
        let g = s.begin_op(tid);
        match cell.cas_verify(&s, &g, 4, 6) {
            Err(CasVerifyError::Conflict(v)) => assert_eq!(v, 5),
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(cell.load(&s), 5, "failed CAS must not change the cell");
    }

    #[test]
    fn cas_verify_fails_after_epoch_advance() {
        let s = sys();
        let tid = s.register_thread();
        let cell = VerifyCell::new(5);
        let g = s.begin_op(tid);
        s.advance_epoch(); // op is in epoch e, clock now e+1
        match cell.cas_verify(&s, &g, 5, 6) {
            Err(CasVerifyError::Epoch(_)) => {}
            other => panic!("expected epoch failure, got {other:?}"),
        }
        assert_eq!(cell.load(&s), 5, "epoch-failed CAS must not take effect");
    }

    #[test]
    fn sequential_reuse_of_descriptor() {
        let s = sys();
        let tid = s.register_thread();
        let cell = VerifyCell::new(0);
        for i in 0..100u64 {
            let g = s.begin_op(tid);
            cell.cas_verify(&s, &g, i, i + 1).unwrap();
        }
        assert_eq!(cell.load(&s), 100);
    }

    #[test]
    fn concurrent_counter_is_exact() {
        let s = sys();
        let cell = Arc::new(VerifyCell::new(0));
        let mut handles = vec![];
        const PER: u64 = 2000;
        for _ in 0..4 {
            let s = s.clone();
            let cell = cell.clone();
            handles.push(std::thread::spawn(move || {
                let tid = s.register_thread();
                let mut done = 0;
                while done < PER {
                    let g = s.begin_op(tid);
                    let cur = cell.load(&s);
                    if cell.cas_verify(&s, &g, cur, cur + 1).is_ok() {
                        done += 1;
                    }
                }
            }));
        }
        // Advance epochs while they contend, to exercise epoch failures.
        for _ in 0..20 {
            s.advance_epoch();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load(&s), 4 * PER);
    }
}
