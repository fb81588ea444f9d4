//! Model-check harness 1: the epoch clock's single-winner CAS, the
//! durable-clock mirror `sync` acks against, and the tracker gate that
//! lets an advancer trust an idle slot.
//!
//! The code under test is the *real* `montage::esys::EpochSys` advance
//! path and the real `Tracker`/`Buffers` protocol — the harness only
//! shrinks the configuration (one thread slot, capacity-2 rings, a one-spin
//! grace window) so bound-2 exploration is exhaustive.
//!
//! Three seeded-weakening fixtures then downgrade one ordering each and
//! assert the checker produces a counterexample:
//!
//! * `esys.durable.mirror` — the winner's durable-clock release; without
//!   it a syncer can ack an epoch whose write-backs it cannot see.
//! * `tracker.unregister` — the op's idle publish; without it an advancer
//!   can observe the slot idle yet miss the op's buffered pushes.
//! * `tracker.idle.acquire` — the matching load side of the same edge.

use std::sync::Arc;

use interleave::{check, try_check, Config};
use montage::buffers::Buffers;
use montage::sync::thread;
use montage::sync::{spin_loop, AtomicBool, Ordering};
use montage::tracker::{Tracker, IDLE};
use montage::{EpochSys, EsysConfig, FreeStrategy, PersistStrategy};
use pmem::{POff, PmemConfig, PmemPool};

// One thread slot: every boundary scan (tracker, per-thread rings) is a
// single iteration, which keeps exhaustive bound-2 exploration
// in the hundreds of executions instead of hundreds of thousands. The
// advancing racer needs no slot of its own — `advance_epoch` never
// registers.
fn tiny_esys() -> Arc<EpochSys> {
    let cfg = EsysConfig {
        max_threads: 1,
        persist: PersistStrategy::Buffered(2),
        free: FreeStrategy::Background,
        epoch_length: std::time::Duration::from_secs(3600),
        advance_grace_spins: 1,
    };
    EpochSys::format(PmemPool::new(PmemConfig::strict_for_test(8 << 20)), cfg)
}

/// Two racing advances over the same quiescent system: the clock ticks
/// once per boundary (the CAS admits one winner), the durable mirror never
/// runs ahead of the clock, and once both advances returned the mirror has
/// caught up — plus, if both boundaries happened (clock moved twice), the
/// op's epoch-`e0` buffered write-back must have been drained.
#[test]
fn epoch_tick_has_single_winner_and_mirror_catches_up() {
    let r = check(Config::from_env(), || {
        let sys = tiny_esys();
        let e0 = sys.curr_epoch();
        let t0 = sys.register_thread();
        {
            let g = sys.begin_op(t0);
            sys.pnew(&g, 1, &0xabu64);
        }

        let s2 = sys.clone();
        let racer = thread::spawn(move || {
            s2.advance_epoch();
        });
        sys.advance_epoch();
        racer.join().unwrap();

        let clock = sys.curr_epoch();
        assert!(
            clock == e0 + 1 || clock == e0 + 2,
            "two advances tick the clock once or twice, got {e0} -> {clock}"
        );
        assert_eq!(
            sys.durable_epoch(),
            clock,
            "quiescent mirror must equal the clock"
        );
        if clock == e0 + 2 {
            assert_eq!(
                sys.debug_min_pending(t0),
                u64::MAX,
                "the e0 boundary ran, so the op's write-back must be drained"
            );
        }
    });
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// A syncer-shaped observer: waits for the durable mirror to reach
/// `e0 + 2` (the op's durability point) and then asserts it can see the
/// op's write-back drained. The *only* edge from the advancing thread to
/// the observer is the durable-clock release — exactly the edge `sync`
/// acks rely on.
fn durable_mirror_body() {
    let sys = tiny_esys();
    let e0 = sys.curr_epoch();
    let t0 = sys.register_thread();
    {
        let g = sys.begin_op(t0);
        sys.pnew(&g, 1, &0xcdu64);
    }

    let s2 = sys.clone();
    let observer = thread::spawn(move || {
        while s2.durable_epoch() < e0 + 2 {
            spin_loop();
        }
        assert_eq!(
            s2.debug_min_pending(t0),
            u64::MAX,
            "durable mirror visible but the drained ring is not"
        );
    });

    sys.advance_epoch();
    sys.advance_epoch();
    observer.join().unwrap();
}

#[test]
fn durable_mirror_carries_the_boundary_drains() {
    let r = check(Config::from_env(), durable_mirror_body);
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// Seeded weakening: the winner's durable-clock publish downgraded to
/// Relaxed no longer carries the boundary's drains; some schedule lets the
/// observer read the new mirror value while still seeing the pre-drain
/// ring — the ack-without-durability bug `sync` is built to exclude.
#[test]
fn weakened_durable_mirror_is_caught() {
    let v = try_check(
        Config::from_env().with_weaken("esys.durable.mirror"),
        durable_mirror_body,
    )
    .expect_err("weakened durable mirror must be caught");
    assert!(
        v.message.contains("drained ring is not"),
        "unexpected counterexample: {v}"
    );
}

/// The advancer-side tracker gate, reduced to its moving parts: a worker
/// registers, pushes a buffered write-back, and unregisters; an advancer
/// that observes the slot idle must then see the ring state the op left
/// behind, or its `min_pending` gate will skip a drain the boundary needs.
fn tracker_gate_body() {
    let pool = Arc::new(PmemPool::new(PmemConfig::strict_for_test(1 << 20)));
    let tracker = Arc::new(Tracker::new(1));
    let bufs = Arc::new(Buffers::new(1, 2));
    // Stands in for the synchronization `BEGIN_OP` establishes at
    // registration (the SeqCst announce/validate handshake): acquiring it
    // tells the advancer the op exists, so a later idle read cannot be the
    // slot's *initial* value. It is published before the op's pushes, so
    // it delivers none of the state the unregister edge is responsible
    // for — the fixtures below stay unmasked.
    let registered = Arc::new(AtomicBool::new(false));

    let (t2, b2, p2, r2) = (
        tracker.clone(),
        bufs.clone(),
        pool.clone(),
        registered.clone(),
    );
    let worker = thread::spawn(move || {
        t2.register(0, 10);
        r2.store(true, Ordering::Release);
        b2.push_persist(&p2, 0, 10, POff::new(64 * 1024), 8, || true);
        t2.unregister(0);
    });

    // Advancer: watch the op appear, then watch it retire, then run the
    // gated drain exactly the way `advance_epoch` does.
    while !registered.load(Ordering::Acquire) {
        spin_loop();
    }
    while tracker.load(0) != IDLE {
        spin_loop();
    }
    if bufs.min_pending(0) < 11 {
        bufs.drain_persist_upto(&pool, 0, 10);
    }
    assert_eq!(
        bufs.min_pending(0),
        u64::MAX,
        "idle slot observed but the op's write-back was skipped"
    );

    worker.join().unwrap();
}

#[test]
fn idle_tracker_slot_publishes_the_finished_op() {
    let r = check(Config::from_env(), tracker_gate_body);
    assert!(!r.truncated, "exploration must finish: {r:?}");
}

/// Seeded weakening: the unregister publish downgraded to Relaxed lets the
/// advancer see the slot idle while its ring still reads empty — it skips
/// the drain and fences with the op's write-back still buffered.
#[test]
fn weakened_unregister_is_caught() {
    let v = try_check(
        Config::from_env().with_weaken("tracker.unregister"),
        tracker_gate_body,
    )
    .expect_err("weakened unregister must be caught");
    assert!(
        v.message.contains("write-back was skipped"),
        "unexpected counterexample: {v}"
    );
}

/// Seeded weakening: same edge, load side — the advancer's idle read
/// downgraded to Relaxed discards the synchronization the Release publish
/// offered, producing the same skipped-drain schedule.
#[test]
fn weakened_idle_acquire_is_caught() {
    let v = try_check(
        Config::from_env().with_weaken("tracker.idle.acquire"),
        tracker_gate_body,
    )
    .expect_err("weakened idle acquire must be caught");
    assert!(
        v.message.contains("write-back was skipped"),
        "unexpected counterexample: {v}"
    );
}
