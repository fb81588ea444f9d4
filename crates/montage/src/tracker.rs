//! The operation tracker: per-thread announcement of the epoch in which a
//! thread's operation is active (paper Fig. 3, `Tracker operation_tracker`).

use crate::sync::{weaken, AtomicU64, Ordering};

use crossbeam::utils::CachePadded;

/// Slot value meaning "no active operation".
pub const IDLE: u64 = u64::MAX;

/// Per-thread active-epoch slots.
pub struct Tracker {
    slots: Box<[CachePadded<AtomicU64>]>,
}

impl Tracker {
    pub fn new(max_threads: usize) -> Self {
        Tracker {
            slots: (0..max_threads)
                .map(|_| CachePadded::new(AtomicU64::new(IDLE)))
                .collect(),
        }
    }

    /// Announces that thread `tid` is running an operation in `epoch`.
    /// SeqCst so the subsequent clock re-read in `BEGIN_OP` cannot be
    /// reordered before the announcement (a StoreLoad edge).
    #[inline]
    pub fn register(&self, tid: usize, epoch: u64) {
        self.slots[tid].store(epoch, Ordering::SeqCst);
    }

    /// Clears thread `tid`'s announcement.
    #[inline]
    pub fn unregister(&self, tid: usize) {
        // ord(publish): the op's payload writes and ring pushes must be
        // visible to any advancer that observes this slot as idle — this
        // edge is what keeps the advance's `min_pending` gate from reading
        // a stale empty ring and skipping a needed drain.
        self.slots[tid].store(IDLE, weaken("tracker.unregister", Ordering::Release));
    }

    /// Epoch thread `tid` is registered in, or [`IDLE`].
    #[inline]
    pub fn load(&self, tid: usize) -> u64 {
        // ord(acquire): pairs with the Release in `unregister`.
        self.slots[tid].load(weaken("tracker.idle.acquire", Ordering::Acquire))
    }

    /// Blocks until no thread is registered in any epoch `<= epoch`
    /// (the advance step `operation_tracker.wait_all(curr_epoch - 1)`).
    ///
    /// A stalled thread can delay this arbitrarily — that is the paper's
    /// documented liveness caveat for blocking advances. The nonblocking
    /// advance uses [`Tracker::wait_all_bounded`] instead and helps the
    /// straggler's write-backs to completion rather than waiting.
    pub fn wait_all(&self, epoch: u64) {
        for slot in self.slots.iter() {
            let mut spins = 0u32;
            // ord(acquire): seeing the slot leave `epoch` must also show us
            // the finished op's writes before we retire its blocks.
            while slot.load(weaken("tracker.idle.acquire", Ordering::Acquire)) <= epoch {
                spins += 1;
                if spins.is_multiple_of(64) {
                    crate::sync::yield_now();
                } else {
                    crate::sync::spin_loop();
                }
            }
        }
    }

    /// Bounded [`Tracker::wait_all`]: gives each slot at most `spins`
    /// spin/yield steps to leave epochs `<= epoch`, then moves on. Returns
    /// the number of slots still registered at `<= epoch` when the grace
    /// window ran out — the stragglers the caller is about to bypass.
    ///
    /// The grace window keeps the quiescent fast path identical to the
    /// blocking advance (an in-flight op normally retires within a few
    /// hundred instructions); the bound is what makes `advance_epoch` — and
    /// therefore `sync` — complete in a bounded number of steps no matter
    /// what any one thread does (nbMontage's liveness property).
    pub fn wait_all_bounded(&self, epoch: u64, spins: usize) -> usize {
        let mut stragglers = 0usize;
        for slot in self.slots.iter() {
            let mut tries = 0usize;
            loop {
                // ord(acquire): same edge as `wait_all` — pairs with the
                // Release in `unregister`.
                if slot.load(weaken("tracker.idle.acquire", Ordering::Acquire)) > epoch {
                    break;
                }
                tries += 1;
                if tries > spins {
                    stragglers += 1;
                    break;
                }
                if tries.is_multiple_of(64) {
                    crate::sync::yield_now();
                } else {
                    crate::sync::spin_loop();
                }
            }
        }
        stragglers
    }

    /// Smallest epoch any thread is currently registered in ([`IDLE`] =
    /// `u64::MAX` if none). Reclamation uses this as its safety frontier:
    /// blocks retired in epoch `r` may be freed only once every active
    /// thread's epoch exceeds `r`, which a bypassed (parked) straggler keeps
    /// pinned down without blocking the clock.
    pub fn oldest_active(&self) -> u64 {
        self.slots
            .iter()
            // ord(acquire): the frontier gates reclamation; pairs with the
            // Release in `unregister`.
            .map(|s| s.load(Ordering::Acquire))
            .min()
            .unwrap_or(IDLE)
    }

    /// True iff some thread is currently registered in `epoch`.
    pub fn any_active_in(&self, epoch: u64) -> bool {
        self.slots
            .iter()
            // ord(acquire): pairs with the Release in `unregister`.
            .any(|s| s.load(Ordering::Acquire) == epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn register_unregister_roundtrip() {
        let t = Tracker::new(4);
        assert_eq!(t.load(2), IDLE);
        t.register(2, 7);
        assert_eq!(t.load(2), 7);
        assert!(t.any_active_in(7));
        t.unregister(2);
        assert_eq!(t.load(2), IDLE);
        assert!(!t.any_active_in(7));
    }

    #[test]
    fn wait_all_returns_when_no_old_ops() {
        let t = Tracker::new(4);
        t.register(0, 10);
        t.wait_all(9); // nothing ≤ 9 → returns immediately
    }

    #[test]
    fn wait_all_blocks_until_old_op_ends() {
        let t = Arc::new(Tracker::new(2));
        t.register(0, 5);
        let t2 = t.clone();
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            t2.unregister(0);
        });
        let start = std::time::Instant::now();
        t.wait_all(5);
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "must wait for the op"
        );
        releaser.join().unwrap();
    }
}
