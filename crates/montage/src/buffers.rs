//! Per-thread `to_persist` buckets for the four most recent epochs, indexed
//! by `epoch % 4` (paper Fig. 3), and a per-thread `to_free` list.
//!
//! `to_persist` is the per-thread **circular write-back buffer** of Sec. 5.2,
//! implemented — as in the paper — as a bespoke lock-free ring: a fixed-
//! capacity array of slots with a sequence-number protocol (single owner
//! producer, stealing consumers). The owner pushes without any lock or heap
//! allocation; the background advancer and helping `sync` callers steal
//! entries at epoch boundaries by CASing the ring head. Pushing into a full
//! ring writes the oldest entry back incrementally ("when these buffers
//! overflow, the oldest entries are written back incrementally").
//!
//! ## Steal protocol: claim → flush → release
//!
//! Each slot carries a sequence number. For ring capacity `C` (always ≥ 2)
//! and a monotonically increasing global index `i`:
//!
//! * a slot at position `i % C` is free for the owner's push `i` when its
//!   sequence equals `i`; the owner writes the entry and publishes it by
//!   storing sequence `i + 1` (Release), then advances `tail`;
//! * a consumer at head `h` may take the slot once its sequence is `h + 1`;
//!   it claims the entry by CASing `head` from `h` to `h + 1`, **issues the
//!   entry's write-back while the slot is still in its claimed state**, and
//!   only then frees the slot by CASing sequence `h + 1` to `h + C`.
//!
//! The flush-before-release order is what makes the protocol nonblocking for
//! everyone else: a consumer parked between its claim and its release leaves
//! the slot in a *scannable* claimed state, so any helper
//! ([`Ring::help_claimed`], reached via [`Buffers::help_drainers`]) can
//! finish the write-back on its behalf and release the slot with a CAS.
//! Duplicate `clwb`s from helper/claimant races are idempotent; the release
//! CASes all write the same value, so losing one is benign.
//!
//! ### Why a helper's flush-before-release is sound
//!
//! A helper reads the claimed slot's `(off, len)` and flushes *before* its
//! validating release CAS, so it can race the slot being recycled. Three
//! facts make that safe:
//!
//! 1. values are published before `seq := i + 1` (Release) and the helper
//!    reads `seq == i + 1` first (Acquire), so it can never see values older
//!    than cycle `i`'s;
//! 2. each field is an individual atomic, so a racing read returns cycle
//!    `i`'s or a later cycle's value for that field — every such value is a
//!    valid in-pool extent field (the flush clamps the combined extent to
//!    the pool just in case), and `clwb` of *any* resident extent is
//!    semantically a no-op beyond cost;
//! 3. the release CAS succeeding from `i + 1` proves `seq` never left the
//!    claimed state (its transitions are monotone), hence no recycle
//!    happened, hence the values the helper flushed were exactly cycle
//!    `i`'s. If the CAS fails, whoever released the slot flushed the real
//!    entry first — the helper's flush was at worst a spurious extra `clwb`.
//!
//! The owner's push uses the same trick when it wraps onto a slot whose
//! previous consumer is still inside its claim window: it flushes the stale
//! entry itself and releases, so the owner never blocks either.
//!
//! ## Epoch discipline (why concurrent push/drain is safe)
//!
//! A bucket only ever holds entries of a single epoch `E` at a time. Owners
//! push into bucket `E % 4` only while registered in epoch `E`; drainers only
//! drain stale epochs (`advance_epoch` drains `<= e − 1`; `BEGIN_OP` helping
//! drains the owner's *own* older buckets). Bucket reuse at `E + 4` happens
//! only after the drain of `E` completed, ordered by the epoch clock (SeqCst
//! store in `advance_epoch`, SeqCst load in `BEGIN_OP`). A *bypassed*
//! straggler (see `esys.rs`) can push an epoch-`E` entry after `E`'s boundary
//! has already run; such an entry belongs to an incomplete, unacknowledged
//! operation — it is drained by the next boundary, and the payload checksum
//! quarantines it if a crash cut catches it half-flushed.
//!
//! ## Crash consistency at the fence
//!
//! Crash consistency rests on one rule: **every entry claimed from a ring
//! has its `clwb` issued before the epoch-boundary fence that declares its
//! epoch durable**. Claim-flush-release keeps unflushed entries scannable,
//! so the boundary sequence is: drain every stale bucket, then
//! [`Buffers::help_drainers`] (finish any claim still in flight — a parked
//! drainer, a parked overflow pop), then fence. No counter rendezvous, no
//! waiting on any other thread's schedule.
//!
//! ### The claim census (why the help scan is usually free)
//!
//! Scanning every slot of every ring on every boundary costs thousands of
//! atomic loads, all for a case (a consumer parked inside its claim window)
//! that in a healthy run never happens. A single global census counter
//! ([`Buffers::claims`]) brackets every pop pass: incremented before a
//! consumer's first claim CAS can execute, decremented only after its last
//! release. The boundary reads it once after its drains and skips the whole
//! help scan when it is zero. This is a *gate*, never a rendezvous — a
//! nonzero census triggers one bounded help scan, it is never waited on.
//!
//! Soundness of skipping: a claimed-but-unflushed entry the boundary's own
//! drains did not pop implies its claimant's head-CAS preceded a head load
//! performed by those drains (pops and emptiness checks load `head` with
//! Acquire). The census increment is sequenced before that CAS (a Release
//! write to `head`), so it happens-before the boundary's subsequent census
//! read, which therefore observes it; the matching decrement cannot have
//! run (it is sequenced after the release that has not happened), so the
//! census reads ≥ 1 and the scan runs. Claim windows opened *after* the
//! census read can only claim entries the drains left visible — entries
//! pushed by a bypassed straggler, which ride the next boundary by design.
//!
//! ## Flush coalescing
//!
//! N in-place `set`s of one hot payload within an epoch used to enqueue N
//! identical extents, issuing N redundant `clwb`s at the boundary. A small
//! per-thread, epoch-tagged dedup table now recognises a push whose cache-
//! line extent is already covered by a resident ring entry of the same epoch
//! and skips it. Entries need no eager clearing: an epoch mismatch
//! invalidates them implicitly. Two places need care:
//!
//! * the overflow pop removes a *same-epoch* entry from the ring, so any
//!   table entry anchored at that extent must die with it;
//! * once the epoch clock has moved past the pusher's epoch, concurrent
//!   boundary drains may already have popped the "covering" entry, so the
//!   caller passes a `still_current` revalidation hook and the push falls
//!   through to a real enqueue when it fires (see `push_persist`).
//!
//! ## Reclamation list
//!
//! `to_free` is one per-thread, mutex-protected list of `(epoch, block)`
//! pairs, each retirement tagged with its exact epoch. Unlike the persist
//! buckets it is not indexed by `epoch % 4`: a bypassed straggler pins
//! reclamation, so retirements can outlive four epochs, and an exact tag is
//! what keeps each block from being freed before (or long after) its own
//! two-epoch schedule. A reclaimer removes the entries at or below its
//! limit under the lock and then, outside it, tombstones and writes back
//! each block; it fences before deallocating them. No persistence event
//! runs under the lock, so a parked thread can never wedge it, and removal
//! under the lock makes the reclaimer the sole dealloc authority for what
//! it took: a parked reclaimer delays its blocks (leaks them until it
//! resumes), never double-frees them.

use crate::sync::{weaken, AtomicU32, AtomicU64, AtomicUsize, Mutex, Ordering};

use crossbeam::utils::CachePadded;
use pmem::{line_of, POff, PmemPool};

use crate::payload::Header;

/// A payload extent to write back: block offset + total length (header+data).
pub type PersistEntry = (POff, u32);

/// Number of direct-mapped coalescing-table slots per thread (power of two).
const DEDUP_SLOTS: usize = 128;

/// Epoch value that never matches a real epoch (real epochs start at
/// [`crate::FIRST_EPOCH`]); used for invalidated dedup entries.
const DEDUP_DEAD: u64 = 0;

/// One slot of a lock-free ring.
struct Slot {
    seq: AtomicUsize,
    off: AtomicU64,
    len: AtomicU32,
}

/// Fixed-capacity single-producer / multi-consumer ring of `(off, len)`
/// pairs. See the module docs for the sequence protocol.
///
/// Public (but hidden) so the `interleave` model-check harnesses can drive
/// the claim/help/release protocol directly under the schedule explorer.
#[doc(hidden)]
pub struct Ring {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot]>,
}

impl Ring {
    #[doc(hidden)]
    pub fn new(capacity: usize) -> Ring {
        // capacity ≥ 2 keeps the free form (seq ≡ p mod C) and the
        // published/claimed form (seq ≡ p + 1 mod C) distinguishable in
        // `help_claimed`'s slot scan.
        let capacity = capacity.max(2);
        Ring {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    off: AtomicU64::new(0),
                    len: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    #[doc(hidden)]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    #[doc(hidden)]
    pub fn is_empty(&self) -> bool {
        // tail is read first: seeing head ≥ tail with a stale tail can only
        // under-report emptiness transiently, never invent entries.
        // ord(acquire): pairs with the tail publish in `push_with`.
        let t = self.tail.load(Ordering::Acquire);
        // ord(acquire): pairs with the head-claim CAS in `pop_with`.
        self.head.load(Ordering::Acquire) >= t
    }

    /// Owner-only push. Returns `Err(())` when the ring is full. If the
    /// target slot's previous consumer is still inside its claim window, the
    /// owner finishes its write-back via `flush` and releases the slot
    /// itself instead of waiting (module docs).
    #[doc(hidden)]
    #[allow(clippy::result_unit_err)] // internal API, pub only for the interleave harness; Err(()) = full
    pub fn push_with(&self, off: u64, len: u32, mut flush: impl FnMut(u64, u32)) -> Result<(), ()> {
        let cap = self.capacity();
        // ord(relaxed): tail is owner-written; this is the owner.
        let t = self.tail.load(Ordering::Relaxed);
        // ord(acquire): pairs with the head-claim CAS in `pop_with`.
        if t - self.head.load(Ordering::Acquire) >= cap {
            return Err(());
        }
        let slot = &self.slots[t % cap];
        // head has passed index t - cap, so the previous occupant's consumer
        // won its claim-CAS; if that consumer is parked before its release,
        // flush the stale entry on its behalf and complete the release —
        // the push must not block on another thread's progress. All release
        // CASes write the same value (t = (t - cap) + cap), so whichever
        // side loses simply finds the slot already free.
        loop {
            // ord(acquire): seeing the claimed form must also show us the
            // claimant's entry fields so the help-flush reads cycle i's data.
            let s = slot.seq.load(Ordering::Acquire);
            if s == t {
                break;
            }
            debug_assert!(
                t + 1 >= cap && s == t + 1 - cap,
                "slot seq {s} is neither free ({t}) nor claimed ({})",
                t.wrapping_add(1).wrapping_sub(cap)
            );
            // ord(relaxed): ordered by the acquire on `seq` above; a racing
            // recycle is tolerated (module docs, helper-flush soundness).
            let o = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): same argument as `off`.
            let l = slot.len.load(Ordering::Relaxed);
            flush(o, l);
            // ord(acqrel): release our help-flush before freeing the slot;
            // acquire so a lost race shows us the winner's release.
            if slot
                .seq
                .compare_exchange(s, t, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        // ord(relaxed): published by the `seq` store below.
        slot.off.store(off, Ordering::Relaxed);
        // ord(relaxed): published by the `seq` store below.
        slot.len.store(len, Ordering::Relaxed);
        // ord(publish): consumers acquire `seq` and must see off/len.
        slot.seq
            .store(t + 1, weaken("ring.seq.publish", Ordering::Release));
        // ord(publish): pop_with acquires tail before reading the slot.
        self.tail
            .store(t + 1, weaken("ring.tail.publish", Ordering::Release));
        Ok(())
    }

    /// Multi-consumer pop (steal). Returns `None` when the ring is empty.
    /// `flush` is invoked on the entry **inside the claim window**, before
    /// the slot is released, so a consumer parked mid-flush leaves the entry
    /// recoverable by [`Ring::help_claimed`].
    #[doc(hidden)]
    pub fn pop_with(&self, mut flush: impl FnMut(u64, u32)) -> Option<(u64, u32)> {
        loop {
            // ord(acquire): pairs with claim CASes by racing consumers.
            let h = self.head.load(Ordering::Acquire);
            // ord(acquire): pairs with the owner's tail publish.
            let t = self.tail.load(Ordering::Acquire);
            if h >= t {
                return None;
            }
            let slot = &self.slots[h % self.capacity()];
            // ord(acquire): pairs with the owner's `seq` publish so off/len
            // below read cycle h's values.
            if slot.seq.load(Ordering::Acquire) != h + 1 {
                // A racing consumer already claimed index h; re-read head.
                continue;
            }
            // ord(relaxed): ordered by the acquire on `seq` above.
            let off = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): ordered by the acquire on `seq` above.
            let len = slot.len.load(Ordering::Relaxed);
            // ord(acqrel): the claim must not sink below the seq check
            // (acquire) and publishes our intent to flush (release).
            if self
                .head
                .compare_exchange(h, h + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                // Winning the CAS proves nobody consumed index h before us,
                // so (off, len) read above belong to index h. Claim → flush
                // → release: the write-back is issued while the slot is
                // still claimed so helpers can finish it if we park here.
                flush(off, len);
                // The release is a CAS because a helper (or the owner's
                // wrap-around push) may have completed it for us; a failure
                // means the slot was already flushed and recycled.
                // ord(acqrel): the flush above must not sink below the
                // release; failure needs no edge (we discard the result).
                let _ = slot.seq.compare_exchange(
                    h + 1,
                    h + self.capacity(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                );
                return Some((off, len));
            }
        }
    }

    /// Helper scan: finish the write-back + release of every slot whose
    /// consumer is parked inside its claim window. Wait-free — one pass over
    /// the slots, a bounded number of atomic ops each, never spins on
    /// another thread. See the module docs for the soundness argument of
    /// flushing before the validating release CAS.
    #[doc(hidden)]
    pub fn help_claimed(&self, mut flush: impl FnMut(u64, u32)) {
        let cap = self.capacity();
        for (p, slot) in self.slots.iter().enumerate() {
            // ord(acquire): pairs with the owner's publish; off/len below
            // must be no older than the claimed cycle's.
            let s = slot.seq.load(Ordering::Acquire);
            if s == 0 || (s - 1) % cap != p {
                // Free or released form; nothing pending here.
                continue;
            }
            let i = s - 1;
            // ord(acquire): pairs with the claimant's head CAS.
            if self.head.load(Ordering::Acquire) <= i {
                // Published but unclaimed: a drain pass owns this one; it is
                // still visible to `pop_with`, not stuck.
                continue;
            }
            // ord(relaxed): ordered by the acquire on `seq`; a racing
            // recycle is tolerated (module docs, helper-flush soundness).
            let off = slot.off.load(Ordering::Relaxed);
            // ord(relaxed): same argument as `off`.
            let len = slot.len.load(Ordering::Relaxed);
            flush(off, len);
            // ord(acqrel): release our flush before freeing the slot.
            let _ = slot
                .seq
                .compare_exchange(s, i + cap, Ordering::AcqRel, Ordering::Relaxed);
        }
    }

    /// Model-check probe: number of slots currently in the claimed form
    /// (claim CAS won, release CAS not yet performed). Read-only; exists so
    /// the `interleave` harnesses can assert the boundary's census gate
    /// never leaves a claimed entry unhelped at a fence.
    #[doc(hidden)]
    pub fn debug_claimed(&self) -> usize {
        let cap = self.capacity();
        let mut n = 0;
        for (p, slot) in self.slots.iter().enumerate() {
            // ord(acquire): same edge as `help_claimed`'s scan.
            let s = slot.seq.load(Ordering::Acquire);
            if s == 0 || (s - 1) % cap != p {
                continue;
            }
            // ord(acquire): pairs with the claimant's head CAS.
            if self.head.load(Ordering::Acquire) > s - 1 {
                n += 1;
            }
        }
        n
    }
}

/// One direct-mapped coalescing-table entry: "a resident ring entry of
/// `epoch` covers cache lines `[first, last]`". Owner-only access; atomics
/// are used purely so the table can live behind `&self`.
struct DedupEntry {
    epoch: AtomicU64,
    first: AtomicU64,
    last: AtomicU64,
}

/// One epoch bucket of the circular write-back buffer.
struct PersistBucket {
    /// Which epoch this bucket currently holds entries for.
    epoch: AtomicU64,
    ring: Ring,
}

/// All buffered state of one thread.
struct ThreadState {
    persist: [PersistBucket; 4],
    /// `(epoch, block)` retirements awaiting reclamation (module docs).
    to_free: Mutex<Vec<(u64, u64)>>,
    dedup: Box<[DedupEntry]>,
}

impl ThreadState {
    fn new(capacity: usize) -> ThreadState {
        ThreadState {
            persist: std::array::from_fn(|_| PersistBucket {
                epoch: AtomicU64::new(0),
                ring: Ring::new(capacity),
            }),
            to_free: Mutex::new(Vec::new()),
            dedup: (0..DEDUP_SLOTS)
                .map(|_| DedupEntry {
                    epoch: AtomicU64::new(DEDUP_DEAD),
                    first: AtomicU64::new(0),
                    last: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    #[inline]
    fn dedup_at(&self, first_line: u64) -> &DedupEntry {
        let idx = (first_line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as usize;
        &self.dedup[idx & (DEDUP_SLOTS - 1)]
    }
}

/// `clwb_range` with the extent clamped to the pool. Helper flushes can race
/// a slot being recycled and read an `(off, len)` pair mixed across two
/// entries (each field individually valid); the combined extent is harmless
/// to flush but could marginally overrun the pool end.
#[inline]
fn clwb_clamped(pool: &PmemPool, off: u64, len: u32) {
    let size = pool.size() as u64;
    if off >= size {
        return;
    }
    let len = u64::from(len.max(1)).min(size - off);
    // lint: allow(flush-no-fence): drains only write back; the epoch-boundary sfence in advance_epoch makes them durable (the claim/help/release ordering this rides on is model-checked by interleave's harness_ring)
    pool.clwb_range(POff::new(off), len as usize);
}

/// Per-thread buffer sets for every registered thread.
pub struct Buffers {
    threads: Box<[CachePadded<ThreadState>]>,
    capacity: usize,
    /// Census of pop passes currently inside (or about to enter) a claim
    /// window, across all persist rings. See the module docs:
    /// `advance_epoch` skips the `help_drainers` slot scans entirely while
    /// this reads zero. A consumer parked mid-claim keeps its bracket open —
    /// the census stays positive and every boundary scans until the claim
    /// is helped *and* the claimant resumes.
    claims: CachePadded<AtomicUsize>,
}

/// RAII bracket around a pop pass for the claim census. Held across every
/// code path that can claim a ring entry, opened *before* the first claim
/// CAS can execute.
struct ClaimScope<'a>(&'a AtomicUsize);

impl Drop for ClaimScope<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Buffers {
    pub fn new(max_threads: usize, capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Buffers {
            threads: (0..max_threads)
                .map(|_| CachePadded::new(ThreadState::new(capacity)))
                .collect(),
            capacity,
            claims: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    fn claim_scope(&self) -> ClaimScope<'_> {
        // SeqCst: the census gate's soundness needs a total order between
        // this increment and the boundary's one-shot read (module docs).
        self.claims
            .fetch_add(1, weaken("buffers.census", Ordering::SeqCst));
        ClaimScope(&self.claims)
    }

    /// `true` while any pop pass may be inside a claim window. One atomic
    /// load; the boundary's cheap gate in front of [`Buffers::help_drainers`].
    pub fn claims_open(&self) -> bool {
        self.claims.load(Ordering::SeqCst) != 0
    }

    /// Ring capacity per bucket.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records that the payload at `blk` (of `len` bytes including header)
    /// was created or modified in `epoch` by thread `tid`. Owner-only; never
    /// locks or allocates. If the push's cache-line extent is already covered
    /// by a same-epoch ring entry it is coalesced away entirely; if the ring
    /// is full, the oldest entry is written back (no fence) before inserting.
    ///
    /// `still_current` revalidates — *after* the coalescing decision, with a
    /// SeqCst-ordered read — that the epoch clock has not moved past
    /// `epoch`. Boundary drains only pop a bucket once the clock has
    /// advanced past its epoch (the advance loads the clock before its
    /// drains), so `still_current() == true` sequenced after the dedup hit
    /// proves the covering entry was still resident when the decision was
    /// made. Without it, a bypassed straggler could coalesce against an
    /// entry a concurrent boundary drain already flushed, leaving this
    /// push's latest bytes with no resident entry to flush them.
    ///
    /// Returns the number of cache-line flushes the push coalesced away
    /// (0 when it enqueued).
    pub fn push_persist(
        &self,
        pool: &PmemPool,
        tid: usize,
        epoch: u64,
        blk: POff,
        len: u32,
        still_current: impl FnOnce() -> bool,
    ) -> u64 {
        let st = &self.threads[tid];
        let first = line_of(blk.raw());
        let last = line_of(blk.raw() + u64::from(len.max(1)) - 1);

        // Coalescing: a same-epoch resident entry already covers this extent,
        // so its boundary clwb_range subsumes ours.
        let d = st.dedup_at(first);
        // ord(relaxed): dedup table is owner-only (module docs).
        if d.epoch.load(Ordering::Relaxed) == epoch
            // ord(relaxed): owner-only, as above.
            && d.first.load(Ordering::Relaxed) == first
            // ord(relaxed): owner-only, as above.
            && d.last.load(Ordering::Relaxed) >= last
            && still_current()
        {
            return last - first + 1;
        }

        let b = &st.persist[(epoch % 4) as usize];
        // ord(relaxed): owner-only; the owner is the only labeller.
        if !b.ring.is_empty() && b.epoch.load(Ordering::Relaxed) != epoch {
            // An older epoch is still resident: pushes a bypassed straggler
            // made after that epoch's boundary drained. Write them back now;
            // like the boundary's own pops, they are fenced by the next
            // boundary, and the bucket again holds one epoch.
            let _census = self.claim_scope();
            while b.ring.pop_with(|o, l| clwb_clamped(pool, o, l)).is_some() {}
        }
        // ord(publish): drainers acquire the bucket epoch before popping.
        b.epoch.store(epoch, Ordering::Release);
        while b
            .ring
            .push_with(blk.raw(), len, |o, l| clwb_clamped(pool, o, l))
            .is_err()
        {
            // Full: write back the oldest entry incrementally. The popped
            // entry leaves this same-epoch bucket, so kill any coalescing
            // promise anchored at its extent (see module docs).
            let _census = self.claim_scope();
            if let Some((o, _)) = b.ring.pop_with(|o, l| clwb_clamped(pool, o, l)) {
                let od = st.dedup_at(line_of(o));
                // ord(relaxed): dedup table is owner-only.
                if od.epoch.load(Ordering::Relaxed) == epoch
                    // ord(relaxed): owner-only.
                    && od.first.load(Ordering::Relaxed) == line_of(o)
                {
                    // ord(relaxed): owner-only.
                    od.epoch.store(DEDUP_DEAD, Ordering::Relaxed);
                }
            }
        }
        // ord(relaxed): dedup table is owner-only.
        d.first.store(first, Ordering::Relaxed);
        // ord(relaxed): owner-only.
        d.last.store(last, Ordering::Relaxed);
        // ord(relaxed): owner-only.
        d.epoch.store(epoch, Ordering::Relaxed);
        0
    }

    /// Writes back (without fencing) all of thread `tid`'s entries for
    /// `epoch`. Safe to call concurrently with other drainers and — for
    /// epochs the owner can no longer push into — with the owner.
    pub fn drain_persist(&self, pool: &PmemPool, tid: usize, epoch: u64) {
        let st = &self.threads[tid];
        let b = &st.persist[(epoch % 4) as usize];
        // ord(acquire): pairs with the owner's bucket-epoch publish.
        if !b.ring.is_empty() && b.epoch.load(Ordering::Acquire) == epoch {
            let _census = self.claim_scope();
            while b.ring.pop_with(|o, l| clwb_clamped(pool, o, l)).is_some() {}
        }
    }

    /// Writes back all of `tid`'s entries for every epoch `<= epoch`.
    pub fn drain_persist_upto(&self, pool: &PmemPool, tid: usize, epoch: u64) {
        let st = &self.threads[tid];
        for b in st.persist.iter() {
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            if !b.ring.is_empty() && b.epoch.load(Ordering::Acquire) <= epoch {
                let _census = self.claim_scope();
                while b.ring.pop_with(|o, l| clwb_clamped(pool, o, l)).is_some() {}
            }
        }
    }

    /// Finishes the write-back + release of any of thread `tid`'s ring
    /// entries whose consumer is parked inside its claim window (a stalled
    /// boundary drainer or a stalled overflow pop). Called by
    /// `advance_epoch` after its drains and **before** the boundary fence,
    /// in place of the old counter rendezvous: wait-free, and duplicate
    /// `clwb`s with a claimant that later resumes are idempotent.
    pub fn help_drainers(&self, pool: &PmemPool, tid: usize) {
        for b in self.threads[tid].persist.iter() {
            b.ring.help_claimed(|o, l| clwb_clamped(pool, o, l));
        }
    }

    /// Model-check probe: claimed-but-unreleased slots across all of
    /// `tid`'s rings (see [`Ring::debug_claimed`]).
    #[doc(hidden)]
    pub fn debug_claimed(&self, tid: usize) -> usize {
        self.threads[tid]
            .persist
            .iter()
            .map(|b| b.ring.debug_claimed())
            .sum()
    }

    /// Schedules block `blk` (retired in `epoch`) for reclamation two epochs
    /// later. Owner-only.
    pub fn push_free(&self, tid: usize, epoch: u64, blk: POff) {
        self.threads[tid].to_free.lock().push((epoch, blk.raw()));
    }

    /// Reclaims thread `tid`'s retirements for all epochs `<= epoch`:
    /// tombstones each block header and schedules its line for write-back
    /// (so the sweep can never resurrect it), then returns the blocks for
    /// deallocation. The caller fences and deallocates. Used by worker-local
    /// reclamation in `BEGIN_OP` and by the advance.
    pub fn take_free_upto(&self, pool: &PmemPool, tid: usize, epoch: u64) -> Vec<POff> {
        // The lock is released at the end of this statement: no persistence
        // event ever runs under it (module docs).
        let taken: Vec<POff> = self.threads[tid]
            .to_free
            .lock()
            .extract_if(.., |&mut (e, _)| e <= epoch)
            .map(|(_, o)| POff::new(o))
            .collect();
        for &blk in &taken {
            Header::tombstone(pool, blk);
            // lint: allow(flush-no-fence): the caller fences before it deallocates (the boundary sfence in advance_epoch, or the worker-local reclaim's own sfence)
            pool.clwb(blk);
        }
        taken
    }

    /// Minimum epoch with unpersisted entries across **this thread's**
    /// buckets ([`u64::MAX`] if none). Lock-free exact scan: 4 buckets × a
    /// handful of atomic loads — cheap enough to be the per-thread gate in
    /// `advance_epoch`. A claimed-but-unreleased entry is invisible here; the boundary covers
    /// it with [`Buffers::help_drainers`], never by waiting.
    pub fn min_pending(&self, tid: usize) -> u64 {
        self.threads[tid]
            .persist
            .iter()
            .filter(|b| !b.ring.is_empty())
            // ord(acquire): pairs with the owner's bucket-epoch publish.
            .map(|b| b.epoch.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmemConfig;

    fn pool() -> PmemPool {
        PmemPool::new(PmemConfig::default())
    }

    fn push(b: &Buffers, p: &PmemPool, tid: usize, epoch: u64, blk: POff, len: u32) -> u64 {
        b.push_persist(p, tid, epoch, blk, len, || true)
    }

    #[test]
    fn push_then_drain_flushes_everything() {
        let p = pool();
        let b = Buffers::new(2, 8);
        for i in 0..5u64 {
            push(&b, &p, 0, 10, POff::new(4096 + i * 128), 64);
        }
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 10);
        let after = p.stats().snapshot().clwbs;
        assert_eq!(after - before, 5, "five single-line payloads flushed");
        assert_eq!(b.min_pending(0), u64::MAX);
    }

    #[test]
    fn overflow_writes_back_oldest_incrementally() {
        let p = pool();
        let b = Buffers::new(1, 2);
        push(&b, &p, 0, 4, POff::new(4096), 64);
        push(&b, &p, 0, 4, POff::new(8192), 64);
        assert_eq!(p.stats().snapshot().clwbs, 0, "no flush below capacity");
        push(&b, &p, 0, 4, POff::new(12288), 64);
        assert_eq!(
            p.stats().snapshot().clwbs,
            1,
            "overflow flushes the oldest entry"
        );
    }

    #[test]
    fn min_pending_tracks_oldest_epoch() {
        let p = pool();
        let b = Buffers::new(1, 8);
        assert_eq!(b.min_pending(0), u64::MAX);
        push(&b, &p, 0, 9, POff::new(4096), 64);
        push(&b, &p, 0, 10, POff::new(8192), 64);
        assert_eq!(b.min_pending(0), 9);
        b.drain_persist(&p, 0, 9);
        assert_eq!(b.min_pending(0), 10);
    }

    #[test]
    fn drain_upto_spans_buckets() {
        let p = pool();
        let b = Buffers::new(1, 8);
        push(&b, &p, 0, 9, POff::new(4096), 64);
        push(&b, &p, 0, 10, POff::new(8192), 64);
        b.drain_persist_upto(&p, 0, 10);
        assert_eq!(b.min_pending(0), u64::MAX);
    }

    #[test]
    fn take_free_tombstones_blocks() {
        let p = pool();
        let b = Buffers::new(1, 8);
        let blk = POff::new(4096);
        Header::write_new(
            &p,
            blk,
            crate::payload::PayloadKind::Alloc,
            0,
            7,
            1,
            8,
            Header::data_sum(&[0u8; 8]),
        );
        b.push_free(0, 7, blk);
        assert!(
            b.take_free_upto(&p, 0, 6).is_empty(),
            "an earlier limit yields nothing"
        );
        let freed = b.take_free_upto(&p, 0, 7);
        assert_eq!(freed, vec![blk]);
        assert_eq!(Header::magic(&p, blk), crate::payload::MAGIC_TOMBSTONE);
        assert!(
            b.take_free_upto(&p, 0, 7).is_empty(),
            "taken entries leave the list"
        );
    }

    #[test]
    fn buckets_are_per_thread() {
        let p = pool();
        let b = Buffers::new(2, 8);
        push(&b, &p, 0, 4, POff::new(4096), 64);
        assert_eq!(b.min_pending(1), u64::MAX);
        assert_eq!(b.min_pending(0), 4);
    }

    #[test]
    fn repeated_same_extent_pushes_coalesce_to_one_flush() {
        let p = pool();
        let b = Buffers::new(1, 8);
        let saved: u64 = (0..6)
            .map(|_| push(&b, &p, 0, 4, POff::new(4096), 64))
            .sum();
        assert_eq!(saved, 5, "five of six pushes coalesced");
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            1,
            "one clwb covers all six"
        );
    }

    #[test]
    fn stale_clock_revalidation_defeats_coalescing() {
        // A bypassed straggler whose epoch is no longer current must not
        // coalesce: the covering entry may already have been drained by a
        // concurrent boundary. The revalidation hook returning false forces
        // a real enqueue.
        let p = pool();
        let b = Buffers::new(1, 8);
        b.push_persist(&p, 0, 4, POff::new(4096), 64, || true);
        assert_eq!(
            b.push_persist(&p, 0, 4, POff::new(4096), 64, || false),
            0,
            "stale push must not coalesce"
        );
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            2,
            "both pushes resident"
        );
    }

    #[test]
    fn smaller_covered_extent_coalesces_larger_does_not() {
        let p = pool();
        let b = Buffers::new(1, 8);
        // 3-line entry, then a 1-line re-push of its first line: covered.
        push(&b, &p, 0, 4, POff::new(4096), 192);
        assert_eq!(push(&b, &p, 0, 4, POff::new(4096), 8), 1);
        // Growing the extent is NOT covered and must enqueue.
        assert_eq!(push(&b, &p, 0, 4, POff::new(4096), 256), 0);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 4);
        // Entry 1 (3 lines) + entry 3 (4 lines).
        assert_eq!(p.stats().snapshot().clwbs - before, 7);
    }

    #[test]
    fn coalescing_is_epoch_scoped() {
        let p = pool();
        let b = Buffers::new(1, 8);
        push(&b, &p, 0, 4, POff::new(4096), 64);
        b.drain_persist(&p, 0, 4);
        // Same extent, next epoch: the old ring entry is gone, so this push
        // must enqueue again (the table entry's epoch tag misses).
        assert_eq!(push(&b, &p, 0, 5, POff::new(4096), 64), 0);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 5);
        assert_eq!(p.stats().snapshot().clwbs - before, 1);
    }

    #[test]
    fn overflow_pop_invalidates_coalescing_entry() {
        let p = pool();
        let b = Buffers::new(1, 2);
        let hot = POff::new(4096);
        push(&b, &p, 0, 4, hot, 64);
        push(&b, &p, 0, 4, POff::new(8192), 64);
        // Overflow pops `hot` (the oldest) and writes it back early...
        push(&b, &p, 0, 4, POff::new(12288), 64);
        assert_eq!(p.stats().snapshot().clwbs, 1);
        // ...so a new same-epoch push of `hot` must NOT coalesce against the
        // now-dead entry: it must re-enter the ring to reach the boundary.
        assert_eq!(
            push(&b, &p, 0, 4, hot, 64),
            0,
            "stale table entry must not coalesce"
        );
        // That re-push overflows again, writing back 8192's entry.
        assert_eq!(p.stats().snapshot().clwbs, 2);
        let before = p.stats().snapshot().clwbs;
        b.drain_persist(&p, 0, 4);
        assert_eq!(
            p.stats().snapshot().clwbs - before,
            2,
            "12288 and the re-pushed hot line"
        );
    }

    #[test]
    fn steady_state_push_does_not_allocate_or_lock() {
        // Indirect check: a full epoch of pushes + drain round-trips with the
        // ring staying within its fixed capacity (overflow pops included).
        let p = pool();
        let b = Buffers::new(1, 4);
        for round in 0..100u64 {
            let e = 4 + round;
            for i in 0..16u64 {
                push(&b, &p, 0, e, POff::new(4096 + i * 64), 64);
            }
            b.drain_persist(&p, 0, e);
            assert_eq!(b.min_pending(0), u64::MAX);
        }
        // 16 distinct lines per round: 12 overflow + 4 drained = 16 clwbs.
        assert_eq!(p.stats().snapshot().clwbs, 1600);
    }

    #[test]
    fn concurrent_drainers_consume_each_entry_exactly_once() {
        use std::sync::atomic::AtomicU64 as A64;
        use std::sync::Arc;

        let p = pool();
        let b = Arc::new(Buffers::new(1, 256));
        const ROUNDS: u64 = 60;
        const PER_ROUND: u64 = 200;
        // The owner fills epoch e and publishes the round; two stealing
        // drainers race to drain every completed epoch, like the advancer
        // and a helping sync caller would.
        let done_round = Arc::new(A64::new(0));
        std::thread::scope(|s| {
            {
                let b = b.clone();
                let p = p.clone();
                let done_round = done_round.clone();
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let e = 4 + r;
                        // The epoch clock only reaches e after e-4 was
                        // drained (by the advance that moved it to e-2), so
                        // an owner can never push into a bucket that still
                        // holds entries; model that constraint here.
                        while b.min_pending(0) <= e - 4 {
                            std::thread::yield_now();
                        }
                        for i in 0..PER_ROUND {
                            // Distinct lines, so every entry should clwb once.
                            push(&b, &p, 0, e, POff::new((1 + r * PER_ROUND + i) * 64), 64);
                        }
                        done_round.store(r + 1, std::sync::atomic::Ordering::Release);
                    }
                });
            }
            for _ in 0..2 {
                let b = b.clone();
                let p = p.clone();
                let done_round = done_round.clone();
                s.spawn(move || loop {
                    let done = done_round.load(std::sync::atomic::Ordering::Acquire);
                    // Drain only completed (quiescent) epochs, as the epoch
                    // protocol guarantees.
                    for r in 0..done {
                        b.drain_persist(&p, 0, 4 + r);
                    }
                    if done == ROUNDS {
                        break;
                    }
                    std::thread::yield_now();
                });
            }
        });
        b.drain_persist_upto(&p, 0, u64::MAX - 1);
        assert_eq!(b.min_pending(0), u64::MAX);
        // Exactly-once: ROUNDS × PER_ROUND distinct lines, one clwb each —
        // nothing lost, nothing double-flushed. (Ring capacity 256 > 200
        // per epoch means no overflow write-backs muddy the count, and no
        // helper runs, so no idempotent duplicates either.)
        assert_eq!(p.stats().snapshot().clwbs, ROUNDS * PER_ROUND);
    }

    #[test]
    fn ring_owner_push_completes_preempted_consumer_release() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        // Tiny ring, so the producer constantly reuses slots whose previous
        // consumer is still inside its claim→release window: the push's
        // help path runs hot, and the producer must never block on a
        // preempted consumer (it flushes + releases the slot itself).
        let r = Arc::new(Ring::new(2));
        const N: u64 = 10_000;
        let stop = Arc::new(AtomicBool::new(false));
        // Wait loops yield rather than spin: on a single-core runner a
        // spinning waiter burns its whole quantum while the thread it waits
        // on is descheduled, turning the test pathological.
        std::thread::scope(|s| {
            let mut consumers = Vec::new();
            for _ in 0..2 {
                let r = r.clone();
                let stop = stop.clone();
                consumers.push(s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match r.pop_with(|_, _| {}) {
                            Some((o, _)) => got.push(o),
                            None if stop.load(Ordering::Acquire) => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    got
                }));
            }
            {
                let r = r.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    for i in 1..=N {
                        while r.push_with(i, 0, |_, _| {}).is_err() {
                            std::thread::yield_now();
                        }
                    }
                    stop.store(true, Ordering::Release);
                });
            }
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (1..=N).collect::<Vec<_>>(),
                "every push popped exactly once, none lost or duplicated"
            );
        });
    }

    #[test]
    fn help_claimed_finishes_a_parked_consumers_entry() {
        // Deterministically freeze a consumer inside its claim window:
        // emulate the claim by CASing head past a published entry without
        // flushing or releasing, exactly the state a parked `pop_with`
        // leaves behind. A helper must find the entry, flush it with the
        // correct extent, and release the slot so the owner can reuse it.
        let r = Ring::new(4);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        r.push_with(8192, 64, |_, _| {}).unwrap();
        r.head
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        let mut helped = Vec::new();
        r.help_claimed(|o, l| helped.push((o, l)));
        assert_eq!(
            helped,
            vec![(4096, 64)],
            "exactly the claimed entry is helped; the published one is left to drains"
        );
        // Slot 0 was released by the helper: after draining the published
        // entry the owner can wrap around the whole ring without blocking.
        assert_eq!(r.pop_with(|_, _| {}), Some((8192, 64)));
        for i in 0..4u64 {
            r.push_with(100 + i, 0, |_, _| panic!("no slot should need help"))
                .unwrap();
        }
    }

    #[test]
    fn help_claimed_is_idempotent_and_skips_live_entries() {
        let r = Ring::new(4);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        // Nothing claimed: a helper pass must not touch anything.
        r.help_claimed(|_, _| panic!("no claimed slot exists"));
        // Claim it, help it twice: the second pass sees the released form.
        r.head
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .unwrap();
        let mut n = 0;
        r.help_claimed(|_, _| n += 1);
        r.help_claimed(|_, _| n += 1);
        assert_eq!(n, 1, "a released slot is never re-helped");
    }

    #[test]
    fn pop_with_flushes_inside_the_claim_window() {
        // The flush closure must run while the slot still shows the claimed
        // sequence (h + 1), i.e. before the release CAS — that is the
        // property helpers rely on.
        let r = Ring::new(2);
        r.push_with(4096, 64, |_, _| {}).unwrap();
        let seq_at_flush = std::cell::Cell::new(0usize);
        r.pop_with(|_, _| seq_at_flush.set(r.slots[0].seq.load(Ordering::Acquire)));
        assert_eq!(seq_at_flush.get(), 1, "flush ran in the claimed state");
        assert_eq!(
            r.slots[0].seq.load(Ordering::Acquire),
            2,
            "slot released after the flush"
        );
    }

    #[test]
    fn boundary_with_racing_drainers_leaves_no_dirty_lines() {
        use std::sync::atomic::{AtomicBool, AtomicU64 as A64};
        use std::sync::Arc;

        // Models the advance_epoch boundary under the helping protocol: per
        // round the checker drains, helps any claim still in flight, and
        // then requires every pushed entry's write-back to have been issued
        // — with racing drainers that may be anywhere inside their claim
        // windows. Coverage is asserted exactly: each round's distinct lines
        // must all be flushed by the time the checker finishes (duplicates
        // from helper/claimant races are allowed, losses are not).
        let p = pool();
        let b = Arc::new(Buffers::new(1, 256));
        const ROUNDS: u64 = 30;
        const PER_ROUND: u64 = 200;
        let done = Arc::new(A64::new(0)); // rounds fully pushed
        let go = Arc::new(A64::new(0)); // rounds the checker has verified
        let stop = Arc::new(AtomicBool::new(false));
        // Wait loops yield rather than spin (single-core runners).
        std::thread::scope(|s| {
            {
                // Owner: pushes one epoch's worth of distinct lines per
                // round, gated on the checker's verdict for the previous one.
                let (b, p) = (b.clone(), p.clone());
                let (done, go) = (done.clone(), go.clone());
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        while go.load(Ordering::Acquire) < r {
                            std::thread::yield_now();
                        }
                        for i in 0..PER_ROUND {
                            push(
                                &b,
                                &p,
                                0,
                                4 + r,
                                POff::new((1 + r * PER_ROUND + i) * 64),
                                64,
                            );
                        }
                        done.store(r + 1, Ordering::Release);
                    }
                });
            }
            for _ in 0..2 {
                // Racing drainers (the BEGIN_OP helpers of the real system).
                let (b, p) = (b.clone(), p.clone());
                let (done, stop) = (done.clone(), stop.clone());
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let d = done.load(Ordering::Acquire);
                        for r in 0..d {
                            b.drain_persist(&p, 0, 4 + r);
                        }
                        std::thread::yield_now();
                    }
                });
            }
            // Checker: plays the advancer's boundary sequence per round.
            for r in 0..ROUNDS {
                while done.load(Ordering::Acquire) < r + 1 {
                    std::thread::yield_now();
                }
                b.drain_persist_upto(&p, 0, 4 + r);
                while b.min_pending(0) != u64::MAX {
                    std::thread::yield_now();
                }
                b.help_drainers(&p, 0);
                // Fence point: empty rings + help pass done ⇒ every line
                // pushed so far had its clwb issued at least once. (With a
                // drainer parked mid-claim its entry was helped; duplicates
                // are possible, losses are not.)
                assert!(
                    p.stats().snapshot().clwbs >= (r + 1) * PER_ROUND,
                    "round {r}: some pushed line was never written back"
                );
                go.store(r + 1, Ordering::Release);
            }
            stop.store(true, Ordering::Release);
        });
        // End-to-end ledger: all lines distinct, so flushes ≥ pushes; the
        // surplus is exactly the idempotent helper duplicates.
        assert!(p.stats().snapshot().clwbs >= ROUNDS * PER_ROUND);
    }

    #[test]
    fn persist_bucket_reuse_writes_back_the_older_epoch() {
        // A bypassed straggler's late epoch-7 push is still resident when
        // its owner's next op, at epoch 11, maps to the same bucket.
        let p = pool();
        let b = Buffers::new(1, 8);
        push(&b, &p, 0, 7, POff::new(4096), 64);
        assert_eq!(p.stats().snapshot().clwbs, 0);
        push(&b, &p, 0, 11, POff::new(8192), 64);
        assert_eq!(p.stats().snapshot().clwbs, 1, "epoch-7 entry written back");
        assert_eq!(
            b.min_pending(0),
            11,
            "only the epoch-11 entry stays pending"
        );
    }

    #[test]
    fn retirements_keep_their_exact_epochs() {
        // Reclamation pinned by a straggler leaves epoch 7 pending when
        // epoch 11 retires. Neither may take the other's epoch: epoch 7
        // must not wait for 11, nor 11 go with 7.
        let p = pool();
        let b = Buffers::new(1, 8);
        let blks: Vec<POff> = [7u64, 11]
            .iter()
            .enumerate()
            .map(|(i, &epoch)| {
                let blk = POff::new(4096 + i as u64 * 128);
                Header::write_new(
                    &p,
                    blk,
                    crate::payload::PayloadKind::Alloc,
                    0,
                    epoch,
                    i as u64,
                    8,
                    Header::data_sum(&[0u8; 8]),
                );
                b.push_free(0, epoch, blk);
                blk
            })
            .collect();
        assert_eq!(b.take_free_upto(&p, 0, 9), vec![blks[0]]);
        assert_eq!(b.take_free_upto(&p, 0, 10), vec![]);
        assert_eq!(b.take_free_upto(&p, 0, 11), vec![blks[1]]);
    }

    #[test]
    fn concurrent_retire_and_reclaim_take_each_block_once() {
        use std::sync::atomic::AtomicU64 as A64;
        use std::sync::Arc;

        // The owner retires one block per epoch E, E+4, E+8, … — every one
        // of them maps to the same `epoch % 4` index — while a reclaimer
        // races it with a rising limit that trails the retirements, so it
        // always finds entries on both sides of its limit.
        const E: u64 = 7;
        const N: u64 = 2_000;
        let epoch_of = |blk: POff| E + 4 * ((blk.raw() - 4096) / 64);
        let p = pool();
        let b = Arc::new(Buffers::new(1, 2));
        let retired = Arc::new(A64::new(0));
        let mut taken = std::thread::scope(|s| {
            {
                let (b, retired) = (b.clone(), retired.clone());
                s.spawn(move || {
                    for i in 0..N {
                        b.push_free(0, E + 4 * i, POff::new(4096 + i * 64));
                        retired.store(i + 1, std::sync::atomic::Ordering::Release);
                    }
                });
            }
            let (b, p, retired) = (b.clone(), p.clone(), retired.clone());
            s.spawn(move || {
                let mut taken = Vec::new();
                loop {
                    let done = retired.load(std::sync::atomic::Ordering::Acquire);
                    let limit = E + 4 * (done / 2);
                    for blk in b.take_free_upto(&p, 0, limit) {
                        assert!(
                            epoch_of(blk) <= limit,
                            "took epoch {} under limit {limit}",
                            epoch_of(blk)
                        );
                        taken.push(blk);
                    }
                    if done == N {
                        break taken;
                    }
                    std::thread::yield_now();
                }
            })
            .join()
            .unwrap()
        });
        taken.extend(b.take_free_upto(&p, 0, u64::MAX));
        taken.sort();
        assert_eq!(
            taken,
            (0..N).map(|i| POff::new(4096 + i * 64)).collect::<Vec<_>>(),
            "every retired block taken exactly once"
        );
    }
}
