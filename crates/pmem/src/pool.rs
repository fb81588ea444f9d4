//! The pool: working image, durable image, flush/fence, crash.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{PmemConfig, PmemMode};
use crate::fault::PmemFault;
use crate::layout::{line_of, lines_spanned, POff, CACHE_LINE};
#[cfg(feature = "persist-san")]
use crate::san::{ProbeGuard, SanReport, SanState};
use crate::stats::PmemStats;

/// Unique id per pool instance, used to key thread-local write-back queues.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Fast-mode per-thread count of unfenced `clwb`s per pool, so a fence
    /// is charged per line it actually drains (matching hardware, where the
    /// flush itself is asynchronous and the fence pays the wait). Keyed by
    /// pool id: the count bump on every buffered `clwb` is O(1), and a fence
    /// *removes* the pool's entry, so the map only ever holds pools with
    /// write-backs currently outstanding — it does not grow with the number
    /// of pools a process creates over its lifetime (bench loops allocate
    /// thousands).
    static PENDING_COUNT: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
}

fn count_add(id: u64, n: u64) {
    PENDING_COUNT.with(|c| *c.borrow_mut().entry(id).or_insert(0) += n);
}

fn count_take(id: u64) -> u64 {
    PENDING_COUNT.with(|c| c.borrow_mut().remove(&id).unwrap_or(0))
}

struct Working {
    ptr: *mut u8,
    layout: Layout,
}

impl Drop for Working {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `alloc_zeroed(self.layout)` in
        // `PmemPool::new` and is freed exactly once (Working is owned by the
        // pool's Arc'd Inner).
        unsafe { dealloc(self.ptr, self.layout) };
    }
}

// SAFETY: the working image models shared physical memory; concurrent access
// discipline is the responsibility of the code running on top of it (exactly
// as with real DAX-mapped NVM). The pointer itself is never reallocated.
unsafe impl Send for Working {}
unsafe impl Sync for Working {}

/// Parking state for the stall fault plan
/// ([`crate::ChaosConfig::stall_at_event`]).
#[derive(Default)]
struct StallState {
    /// Set (once) by the thread whose event charge crossed the threshold;
    /// guarantees exactly one victim parks per pool.
    claimed: AtomicBool,
    flags: Mutex<StallFlags>,
    cv: Condvar,
}

#[derive(Default)]
struct StallFlags {
    /// A victim is currently parked inside `charge_events`.
    parked: bool,
    /// [`PmemPool::release_stalled`] was called (sticky; a victim arriving
    /// after the release never parks).
    released: bool,
}

struct Inner {
    id: u64,
    config: PmemConfig,
    stats: PmemStats,
    working: Working,
    /// Durable shadow image, present only in [`PmemMode::Strict`].
    durable: Option<Mutex<Box<[u8]>>>,
    /// Strict mode: lines `clwb`'d but not yet made durable by a fence.
    ///
    /// This set is **pool-global**, not per-thread: `CLWB` initiates an
    /// asynchronous write-back that completes regardless of who fences, and
    /// Montage's epoch protocol depends on exactly that — workers issue
    /// incremental write-backs and the background advancer's fence at the
    /// epoch boundary "waits for the writes-back to complete" (paper
    /// Sec. 3.2). A fence therefore drains every pending line. Lines that
    /// are *never* followed by any fence before a crash are still lost,
    /// which is the pessimistic direction tests need.
    ///
    /// Kept as a set: re-`clwb`ing a dirty line before the next fence is
    /// idempotent on hardware, so duplicates would only inflate the fence's
    /// drain work (`lines_drained` counts unique lines made durable).
    pending: Mutex<HashSet<u64>>,
    /// Running persistence-event count. Only advanced while the fault plan
    /// ([`crate::ChaosConfig::crash_at_event`]) is armed; see
    /// [`PmemPool::persistence_events`].
    events: AtomicU64,
    /// Set once the event count reaches the fault plan's crash point. From
    /// then on flushes and fences are dropped (the durable image is frozen)
    /// and the checked operations report [`PmemFault::Crashed`].
    poisoned: AtomicBool,
    /// Parking state for the stall fault plan; see
    /// [`crate::ChaosConfig::stall_at_event`].
    stall: StallState,
    /// Timebase for the simulated device drain queue below.
    origin: Instant,
    /// Nanosecond (since `origin`) at which this pool's simulated NVM
    /// device finishes draining everything queued so far. Each fence
    /// *reserves* its drain time here and then blocks — sleeping, not
    /// spinning — until the reservation completes. On hardware an `SFENCE`
    /// stalls only the calling thread while the DIMM's write-pending queue
    /// drains; other threads keep executing, and independent DIMMs drain in
    /// parallel. Modeling the drain as per-pool serial *device* time (rather
    /// than a CPU busy-wait) reproduces both properties: concurrent fences
    /// on one pool queue behind each other, while fences on different pools
    /// overlap freely.
    device_busy: AtomicU64,
    /// Per-cache-line shadow persistency state (the `persist-san`
    /// sanitizer); see the [`crate::san`] module docs.
    #[cfg(feature = "persist-san")]
    san: SanState,
}

/// A simulated persistent-memory pool. Cheap to clone (it is an `Arc`).
///
/// See the [crate docs](crate) for the semantics. All accessor methods take
/// offsets ([`POff`]); raw-pointer access is available via [`PmemPool::at`]
/// for code that needs atomics or in-place structs, with the same aliasing
/// obligations as real shared memory.
#[derive(Clone)]
pub struct PmemPool {
    inner: Arc<Inner>,
}

impl PmemPool {
    /// Allocates a fresh, zero-filled pool.
    pub fn new(config: PmemConfig) -> Self {
        assert!(config.size >= crate::ROOT_AREA_SIZE, "pool too small");
        assert_eq!(
            config.size % CACHE_LINE,
            0,
            "pool size must be line-aligned"
        );
        let layout = Layout::from_size_align(config.size, 4096).expect("pool layout");
        // SAFETY: the layout has non-zero size (asserted >= ROOT_AREA_SIZE
        // above).
        let ptr = unsafe { alloc_zeroed(layout) };
        assert!(!ptr.is_null(), "pool allocation failed");
        let durable = match config.mode {
            PmemMode::Strict => Some(Mutex::new(vec![0u8; config.size].into_boxed_slice())),
            PmemMode::Fast => None,
        };
        PmemPool {
            inner: Arc::new(Inner {
                id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
                config,
                stats: PmemStats::default(),
                working: Working { ptr, layout },
                durable,
                pending: Mutex::new(HashSet::new()),
                events: AtomicU64::new(0),
                poisoned: AtomicBool::new(false),
                stall: StallState::default(),
                origin: Instant::now(),
                device_busy: AtomicU64::new(0),
                #[cfg(feature = "persist-san")]
                san: SanState::new(config.size),
            }),
        }
    }

    /// Pool size in bytes.
    #[inline]
    pub fn size(&self) -> usize {
        self.inner.config.size
    }

    /// Process-unique pool id. Multi-pool front-ends (the sharded kv store)
    /// use this to tell shards' pools apart in reports and stats keys.
    #[inline]
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The pool's configuration.
    #[inline]
    pub fn config(&self) -> &PmemConfig {
        &self.inner.config
    }

    /// Persistence statistics.
    #[inline]
    pub fn stats(&self) -> &PmemStats {
        &self.inner.stats
    }

    // ---- fault plan ---------------------------------------------------------

    /// Charges `n` persistence events against the fault plans and returns
    /// how many of them take effect. With no plan armed, accounting is
    /// skipped and all `n` take effect. Once the running count reaches the
    /// crash plan's point the pool is poisoned and every later event is
    /// dropped — a partial charge models a crash landing *inside* a
    /// multi-line flush. The stall plan parks the thread whose charge
    /// crossed its threshold (after the crash-plan check, so a charge that
    /// crosses both poisons first and the park becomes a no-op); straggler
    /// mode injects a seeded per-event delay.
    #[inline]
    fn charge_events(&self, n: u64) -> u64 {
        let chaos = &self.inner.config.chaos;
        if chaos.crash_at_event.is_none()
            && chaos.stall_at_event.is_none()
            && chaos.straggler_permille == 0
        {
            return n;
        }
        if n == 0 {
            return 0;
        }
        let before = self.inner.events.fetch_add(n, Ordering::Relaxed);
        if chaos.straggler_permille > 0
            && event_roll(chaos.seed, before) < chaos.straggler_permille as u64
        {
            std::thread::sleep(std::time::Duration::from_micros(
                chaos.straggler_delay_us as u64,
            ));
        }
        let eff = match chaos.crash_at_event {
            None => n,
            Some(plan) => {
                if before.saturating_add(n) >= plan
                    && self
                        .inner
                        .poisoned
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    self.inner.stats.on_injected_crash();
                    // A parked victim belongs to the execution that just
                    // died; wake it so its thread can observe the fault and
                    // unwind instead of hanging past the crash.
                    self.wake_stalled();
                }
                if before >= plan {
                    0
                } else {
                    (plan - before).min(n)
                }
            }
        };
        if let Some(stall) = chaos.stall_at_event {
            if before < stall && before.saturating_add(n) >= stall {
                self.park_at_stall_point();
            }
        }
        eff
    }

    /// Parks the calling thread — the stall fault plan tripped on its event
    /// charge — until [`PmemPool::release_stalled`] or pool poisoning. Cold
    /// and outlined: fires at most once per pool. The park happens *inside*
    /// the flush/fence/store that crossed the threshold, before any pool
    /// lock is taken, so peers' persistence primitives keep working; any
    /// locks the victim holds in the layers above (a bucket mutex, an open
    /// operation's epoch reservation) stay held, which is exactly the
    /// adversarial schedule liveness tests need.
    #[cold]
    fn park_at_stall_point(&self) {
        let st = &self.inner.stall;
        if st
            .claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        self.inner.stats.on_stall();
        let mut flags = st.flags.lock();
        flags.parked = true;
        st.cv.notify_all(); // wake `await_stalled` watchers
        while !flags.released && !self.is_poisoned() {
            st.cv.wait(&mut flags);
        }
        flags.parked = false;
        st.cv.notify_all();
    }

    /// Wakes a parked stall victim so it can re-check its wait condition
    /// (used by the poisoning paths; does not itself release the stall).
    fn wake_stalled(&self) {
        let st = &self.inner.stall;
        let _flags = st.flags.lock();
        st.cv.notify_all();
    }

    /// Blocks until the stall fault plan has parked its victim or `timeout`
    /// elapses; returns whether a thread is parked. Harness entry point:
    /// arm [`crate::ChaosConfig::stall_at_event`], start the workload, and
    /// `await_stalled` before exercising the peers.
    pub fn await_stalled(&self, timeout: std::time::Duration) -> bool {
        let st = &self.inner.stall;
        let deadline = Instant::now() + timeout;
        let mut flags = st.flags.lock();
        while !flags.parked {
            if st.cv.wait_until(&mut flags, deadline).timed_out() {
                return flags.parked;
            }
        }
        true
    }

    /// Number of threads currently parked by the stall plan (0 or 1).
    pub fn stalled_count(&self) -> usize {
        usize::from(self.inner.stall.flags.lock().parked)
    }

    /// Releases a thread parked by the stall fault plan. Idempotent, and
    /// safe to call before the victim parks — the release is sticky, so a
    /// victim arriving later passes straight through.
    pub fn release_stalled(&self) {
        let st = &self.inner.stall;
        let mut flags = st.flags.lock();
        flags.released = true;
        st.cv.notify_all();
    }

    /// Persistence events charged so far. Counting happens only while a
    /// fault plan is armed (`chaos.crash_at_event` / `chaos.stall_at_event`
    /// is `Some`, or straggler mode is on); a sweep harness's counting pass
    /// arms `Some(u64::MAX)` to count without ever crashing.
    #[inline]
    pub fn persistence_events(&self) -> u64 {
        self.inner.events.load(Ordering::Relaxed)
    }

    /// Whether the fault plan has tripped.
    #[inline]
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// The pending fault, if the fault plan has tripped.
    #[inline]
    pub fn fault(&self) -> Option<PmemFault> {
        if self.is_poisoned() {
            Some(PmemFault::Crashed {
                at_event: self.inner.config.chaos.crash_at_event.unwrap_or(0),
            })
        } else {
            None
        }
    }

    /// `Err` once the fault plan has tripped; for cooperative early exits in
    /// code that wants to stop doing doomed work.
    #[inline]
    pub fn check_fault(&self) -> Result<(), PmemFault> {
        match self.fault() {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    #[inline]
    fn check(&self, off: POff, len: usize) {
        debug_assert!(
            (off.raw() as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.inner.config.size),
            "pmem access out of bounds: off={off:?} len={len}"
        );
    }

    /// Raw pointer to offset `off`, viewed as `T`.
    ///
    /// # Safety
    /// The caller must respect `T`'s alignment at `off`, stay in bounds, and
    /// coordinate concurrent access exactly as it would for shared memory.
    #[inline]
    pub unsafe fn at<T>(&self, off: POff) -> *mut T {
        self.check(off, std::mem::size_of::<T>());
        self.inner.working.ptr.add(off.raw() as usize).cast::<T>()
    }

    /// Reads a `Copy` value at `off`.
    ///
    /// # Safety
    /// As for [`PmemPool::at`]; additionally the bytes must be a valid `T`.
    #[inline]
    #[track_caller]
    pub unsafe fn read<T: Copy>(&self, off: POff) -> T {
        #[cfg(feature = "persist-san")]
        self.inner.san.on_read(
            off.raw(),
            std::mem::size_of::<T>(),
            std::panic::Location::caller(),
        );
        self.at::<T>(off).read()
    }

    /// Writes a `Copy` value at `off` (store only; not persistent until
    /// flushed and fenced).
    ///
    /// The store always reaches the *working* image, even on a poisoned
    /// pool: a real crash discards the caches (our working image) anyway,
    /// so letting the doomed execution keep storing is indistinguishable
    /// from the recovered pool's point of view, and it keeps in-memory
    /// structures coherent for threads that have not yet observed the
    /// fault. What a poisoned pool cuts off is *durability* (flush/fence).
    ///
    /// # Safety
    /// As for [`PmemPool::at`].
    #[inline]
    #[track_caller]
    pub unsafe fn write<T: Copy>(&self, off: POff, val: &T) {
        self.charge_events(1);
        #[cfg(feature = "persist-san")]
        self.inner.san.on_write(
            off.raw(),
            std::mem::size_of::<T>(),
            std::panic::Location::caller(),
        );
        self.at::<T>(off).write(*val);
    }

    /// Like [`PmemPool::write`], but declares the store *transient by
    /// design*: never flushed, reconstructed from scratch on recovery
    /// (allocator free-list links are the canonical case). Charges the same
    /// single persistence event as `write`, so fault-plan sweep points are
    /// identical whichever of the two a call site uses; under `persist-san`
    /// the line is exempt from the epoch-boundary check (unless it also
    /// holds an unflushed tracked store).
    ///
    /// # Safety
    /// As for [`PmemPool::at`].
    #[inline]
    pub unsafe fn write_transient<T: Copy>(&self, off: POff, val: &T) {
        self.charge_events(1);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write_transient(off.raw(), std::mem::size_of::<T>());
        self.at::<T>(off).write(*val);
    }

    /// Copies `src` into the pool at `off`. Like [`PmemPool::write`], the
    /// store lands in the working image even on a poisoned pool.
    #[track_caller]
    pub fn write_bytes(&self, off: POff, src: &[u8]) {
        self.charge_events(1);
        self.check(off, src.len());
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write(off.raw(), src.len(), std::panic::Location::caller());
        // SAFETY: `check` verified `[off, off+len)` is in bounds; `src` is a
        // borrowed slice, so it cannot alias the working image.
        unsafe {
            std::ptr::copy_nonoverlapping(
                src.as_ptr(),
                self.inner.working.ptr.add(off.raw() as usize),
                src.len(),
            );
        }
    }

    /// Copies `dst.len()` bytes out of the pool at `off`.
    #[track_caller]
    pub fn read_bytes(&self, off: POff, dst: &mut [u8]) {
        self.check(off, dst.len());
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_read(off.raw(), dst.len(), std::panic::Location::caller());
        // SAFETY: `check` verified `[off, off+len)` is in bounds; `dst` is an
        // exclusive borrow, so it cannot alias the working image.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.inner.working.ptr.add(off.raw() as usize),
                dst.as_mut_ptr(),
                dst.len(),
            );
        }
    }

    /// An atomic `u64` view of the 8 bytes at `off` (must be 8-aligned).
    ///
    /// # Safety
    /// `off` must be 8-byte aligned and in bounds; all accesses to those
    /// bytes must go through atomics while this view is in use.
    #[inline]
    pub unsafe fn atomic_u64(&self, off: POff) -> &AtomicU64 {
        debug_assert_eq!(off.raw() % 8, 0, "atomic_u64 requires 8-byte alignment");
        &*(self.at::<u64>(off) as *const AtomicU64)
    }

    /// Models a dependent load that misses the CPU caches into NVM media.
    /// Pointer-chasing structures call this once per node dereference; it
    /// charges `media_read_ns` (a latency, not a bandwidth, cost).
    #[inline]
    pub fn touch(&self) {
        spin_ns(self.inner.config.latency.media_read_ns);
    }

    /// Models a bulk payload read of `len` bytes from NVM media: reserves
    /// `media_read_line_ns` per cache line on the pool's device queue, so
    /// large reads contend with fence drains for the DIMM's bandwidth.
    /// Free when the latency model's `media_read_line_ns` is zero.
    #[inline]
    pub fn media_read(&self, len: usize) {
        let per_line = self.inner.config.latency.media_read_line_ns;
        if per_line == 0 || len == 0 {
            return;
        }
        self.wait_device(per_line * lines_spanned(0, len));
    }

    // ---- persistence primitives -------------------------------------------

    /// `CLWB`: schedule write-back of the cache line containing `off`.
    /// Durability is guaranteed only after a subsequent [`PmemPool::sfence`]
    /// from the same thread.
    #[inline]
    #[track_caller]
    pub fn clwb(&self, off: POff) {
        self.check(off, 1);
        self.inner.stats.on_clwb();
        spin_ns(self.inner.config.latency.clwb_issue_ns);
        if self.charge_events(1) == 0 {
            return; // cut off by the fault plan: the write-back never starts
        }
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_clwb(line_of(off.raw()), 1, 1, std::panic::Location::caller());
        if self.inner.durable.is_some() {
            self.inner.pending.lock().insert(line_of(off.raw()));
        } else {
            count_add(self.inner.id, 1);
        }
    }

    /// `CLWB` every cache line in `[off, off+len)`. The issue latency for
    /// the whole range is charged in one spin (per-line spins would be
    /// dominated by timer overhead at nanosecond scales).
    #[track_caller]
    pub fn clwb_range(&self, off: POff, len: usize) {
        if len == 0 {
            return;
        }
        self.check(off, len);
        let n = lines_spanned(off.raw(), len);
        let first = line_of(off.raw());
        // One event per line, so a crash point can land *inside* the range:
        // the first `eff` lines get their write-back, the rest never start.
        let eff = self.charge_events(n);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_clwb(first, n, eff, std::panic::Location::caller());
        if self.inner.durable.is_some() {
            let mut p = self.inner.pending.lock();
            for i in 0..eff {
                p.insert(first + i);
            }
        } else {
            count_add(self.inner.id, eff);
        }
        for _ in 0..n {
            self.inner.stats.on_clwb();
        }
        spin_ns(self.inner.config.latency.clwb_issue_ns * n);
    }

    /// `SFENCE`: drain this thread's pending write-backs to durable media.
    #[track_caller]
    pub fn sfence(&self) {
        let lat = &self.inner.config.latency;
        // A fence is a single event: either the whole drain happens before
        // the crash point or none of it does (pending lines die unfenced).
        if self.charge_events(1) == 0 {
            self.inner.stats.on_sfence(0);
            return;
        }
        #[cfg(feature = "persist-san")]
        self.inner.san.on_sfence(std::panic::Location::caller());
        let drained = if let Some(durable) = &self.inner.durable {
            let lines = std::mem::take(&mut *self.inner.pending.lock());
            let mut dur = durable.lock();
            for &line in &lines {
                self.drain_line(&mut dur, line);
            }
            lines.len() as u64
        } else {
            // Fast mode: drain the per-thread pending count.
            count_take(self.inner.id)
        };
        self.inner.stats.on_sfence(drained);
        // The fence instruction itself is CPU time for the calling thread;
        // the media drain is *device* time on this pool's write queue.
        spin_ns(lat.fence_base_ns);
        let media_ns = drained * (lat.fence_per_line_ns + lat.media_write_ns);
        if media_ns > 0 {
            self.wait_device(media_ns);
        }
    }

    /// Reserves `media_ns` of drain time on this pool's simulated NVM device
    /// and blocks until the reservation completes. The wait sleeps when the
    /// deadline is far enough out to make a syscall worthwhile and spins the
    /// final stretch for accuracy, so other threads — including fences on
    /// *other* pools — keep the CPU while this pool's queue drains. See the
    /// `device_busy` field docs for why this is a queue and not a spin.
    fn wait_device(&self, media_ns: u64) {
        let now = self.inner.origin.elapsed().as_nanos() as u64;
        let done = self
            .inner
            .device_busy
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |busy| {
                Some(busy.max(now) + media_ns)
            })
            .expect("device reservation always succeeds")
            .max(now)
            + media_ns;
        // OS sleeps overshoot by tens of microseconds (timer slack), so a
        // `sleep(remaining)` would charge a 6µs drain ~70µs of real blocking —
        // a 10x penalty that lands precisely on callers who batch their drain
        // work into one fence. Sleep only the stretch the OS can deliver
        // without running past the deadline, then spin the accurate tail.
        const SLEEP_SLACK_NS: u64 = 200_000;
        loop {
            let now = self.inner.origin.elapsed().as_nanos() as u64;
            if now >= done {
                return;
            }
            let remaining = done - now;
            if remaining > SLEEP_SLACK_NS {
                std::thread::sleep(std::time::Duration::from_nanos(remaining - SLEEP_SLACK_NS));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Convenience: `clwb_range` + `sfence`.
    #[track_caller]
    pub fn persist_range(&self, off: POff, len: usize) {
        self.clwb_range(off, len);
        self.sfence();
    }

    // ---- checked variants ---------------------------------------------------
    //
    // Same effects as the plain primitives, but they report
    // [`PmemFault::Crashed`] once the fault plan has tripped — including when
    // the call itself is what trips it — so cooperative code can unwind
    // instead of continuing a doomed execution. On an unpoisoned pool they
    // are exactly the plain primitives.

    /// Checked [`PmemPool::clwb`].
    #[track_caller]
    pub fn try_clwb(&self, off: POff) -> Result<(), PmemFault> {
        self.check_fault()?;
        self.clwb(off);
        self.check_fault()
    }

    /// Checked [`PmemPool::clwb_range`].
    #[track_caller]
    pub fn try_clwb_range(&self, off: POff, len: usize) -> Result<(), PmemFault> {
        self.check_fault()?;
        self.clwb_range(off, len);
        self.check_fault()
    }

    /// Checked [`PmemPool::sfence`].
    #[track_caller]
    pub fn try_sfence(&self) -> Result<(), PmemFault> {
        self.check_fault()?;
        self.sfence();
        self.check_fault()
    }

    /// Checked [`PmemPool::persist_range`].
    #[track_caller]
    pub fn try_persist_range(&self, off: POff, len: usize) -> Result<(), PmemFault> {
        self.check_fault()?;
        self.persist_range(off, len);
        self.check_fault()
    }

    /// Checked [`PmemPool::write_bytes`].
    #[track_caller]
    pub fn try_write_bytes(&self, off: POff, src: &[u8]) -> Result<(), PmemFault> {
        self.check_fault()?;
        self.write_bytes(off, src);
        self.check_fault()
    }

    fn drain_line(&self, durable: &mut [u8], line: u64) {
        self.drain_line_prefix(durable, line, CACHE_LINE);
    }

    /// Copies the first `bytes` bytes of `line` from the working image to
    /// the durable image (whole line for a normal drain, a prefix for a
    /// torn write-back).
    fn drain_line_prefix(&self, durable: &mut [u8], line: u64, bytes: usize) {
        let start = (line as usize) * CACHE_LINE;
        let end = (start + bytes.min(CACHE_LINE)).min(self.inner.config.size);
        // SAFETY: `start..end` is clamped to the pool size; `durable` is a
        // separate heap allocation of the same size.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.inner.working.ptr.add(start),
                durable.as_mut_ptr().add(start),
                end - start,
            );
        }
    }

    // ---- crash simulation --------------------------------------------------

    /// Simulates a whole-machine power failure and restart.
    ///
    /// Returns a new pool whose contents are exactly the durable image: only
    /// data that was `clwb`'d and fenced (plus chaos-mode spontaneous
    /// evictions) survives. Panics in [`PmemMode::Fast`], which has no
    /// durable image.
    ///
    /// All other threads must have stopped using the old pool; lingering
    /// writes after the crash point would be lost on real hardware too, but
    /// here they would race with the image copy.
    pub fn crash(&self) -> PmemPool {
        let durable = self
            .inner
            .durable
            .as_ref()
            .expect("crash() requires PmemMode::Strict");
        self.inner.stats.on_crash();

        let mut dur = durable.lock();
        let chaos = self.inner.config.chaos;
        // Chaos: the power cut may catch in-flight write-backs part-way
        // through a line. Each pending (clwb'd, unfenced) line may persist
        // only a prefix of itself, at 8-byte ECC-word granularity.
        if chaos.torn_line_permille > 0 {
            let crashes = self.inner.stats.crashes.load(Ordering::Relaxed);
            let mut rng =
                SmallRng::seed_from_u64(chaos.seed ^ crashes.wrapping_mul(0xA24BAED4963EE407));
            // HashSet iteration order is not deterministic; sort so the same
            // seed always tears the same lines the same way.
            let mut lines: Vec<u64> = self.inner.pending.lock().iter().copied().collect();
            lines.sort_unstable();
            for line in lines {
                if rng.gen_range(0..1000) < chaos.torn_line_permille as u32 {
                    let words = rng.gen_range(1u64..8); // strict prefix
                    self.drain_line_prefix(&mut dur, line, words as usize * 8);
                    self.inner.stats.on_torn_line();
                }
            }
        }
        // Chaos: arbitrary cache evictions may have persisted unflushed lines.
        if chaos.spontaneous_evict_permille > 0 {
            let crashes = self.inner.stats.crashes.load(Ordering::Relaxed);
            let mut rng =
                SmallRng::seed_from_u64(chaos.seed ^ crashes.wrapping_mul(0x9E3779B97F4A7C15));
            let nlines = self.inner.config.size / CACHE_LINE;
            for line in 0..nlines as u64 {
                if rng.gen_range(0..1000) < chaos.spontaneous_evict_permille as u32 {
                    self.drain_line(&mut dur, line);
                }
            }
        }

        // The restarted machine gets a disarmed fault plan: the plan applied
        // to the execution that just died, not to recovery code running
        // after the reboot (which would otherwise re-poison at event N).
        let mut cfg = self.inner.config;
        cfg.chaos.crash_at_event = None;
        cfg.chaos.stall_at_event = None;
        let new = PmemPool::new(cfg);
        // Raw image copy: machine-internal, not a program store — it must
        // not charge persistence events or perturb sanitizer shadow state.
        // SAFETY: both images are `config.size` bytes (same config) and live
        // in distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(dur.as_ptr(), new.inner.working.ptr, dur.len());
        }
        {
            let new_durable = new.inner.durable.as_ref().unwrap();
            new_durable.lock().copy_from_slice(&dur);
        }
        // Hand the restarted pool the crash cut's shadow knowledge: which
        // lines' contents were never made durable before the power failed.
        #[cfg(feature = "persist-san")]
        self.inner.san.arm_restart(&new.inner.san);
        // Pending-but-unfenced flushes die with the machine.
        self.inner.pending.lock().clear();
        // A thread parked by the stall plan belongs to the execution that
        // just died; release it so its (joinable) OS thread can unwind. Its
        // post-release activity lands only in the dead pool's images.
        self.release_stalled();
        new
    }

    // ---- cross-process persistence ------------------------------------------

    /// Writes the **durable image** to a file, making persistence survive
    /// process exit (standing in for the file that a DAX mapping would be
    /// backed by). Strict mode only. Format: `"PMEMSNAP"` magic, size, image.
    pub fn save_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let durable = self
            .inner
            .durable
            .as_ref()
            .expect("save_to_file requires PmemMode::Strict");
        let dur = durable.lock();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(b"PMEMSNAP")?;
        f.write_all(&(self.inner.config.size as u64).to_le_bytes())?;
        f.write_all(&dur)?;
        f.flush()?;
        Ok(())
    }

    /// Loads a pool from a [`PmemPool::save_to_file`] snapshot. The restored
    /// pool starts from the snapshot in both images (as if freshly rebooted
    /// from that persistent state).
    pub fn load_from_file(path: &std::path::Path, config: PmemConfig) -> std::io::Result<PmemPool> {
        use std::io::Read;
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic)?;
        if &magic != b"PMEMSNAP" {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a pmem snapshot",
            ));
        }
        let mut szb = [0u8; 8];
        f.read_exact(&mut szb)?;
        let size = u64::from_le_bytes(szb) as usize;
        if size != config.size {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("snapshot is {size} B but config.size is {} B", config.size),
            ));
        }
        let mut image = vec![0u8; size];
        f.read_exact(&mut image)?;
        let pool = PmemPool::new(config);
        // Raw image copy, as in `crash()`: not a program store.
        // SAFETY: `image.len() == size == config.size` was checked above;
        // the snapshot buffer and the working image are distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(image.as_ptr(), pool.inner.working.ptr, image.len());
        }
        if let Some(durable) = &pool.inner.durable {
            durable.lock().copy_from_slice(&image);
        }
        // Everything in a snapshot is by definition the durable image, so a
        // recovery-time read of any of it is legitimate prefix semantics.
        #[cfg(feature = "persist-san")]
        pool.inner.san.mark_all_durable();
        Ok(pool)
    }

    // ---- persistency sanitizer ----------------------------------------------
    //
    // The `san_*` methods below exist unconditionally so instrumentation
    // points in higher crates (the epoch system, recovery, the allocator)
    // need no feature gates of their own; without the `persist-san` feature
    // they compile to nothing.

    /// Asserts the epoch-boundary invariant: every tracked store from before
    /// the *previous* boundary has been flushed by now. The epoch advancer
    /// calls this right after its boundary fence, before bumping the clock.
    /// No-op without the `persist-san` feature.
    #[inline]
    #[track_caller]
    pub fn san_epoch_boundary(&self) {
        #[cfg(feature = "persist-san")]
        {
            // Once the fault plan trips, flushes and fences are dropped —
            // including the boundary fence this call follows — so the
            // boundary never actually declared anything durable. Unflushed
            // lines are not protocol violations then; they are the crash.
            if self.is_poisoned() {
                return;
            }
            self.inner
                .san
                .on_epoch_boundary(std::panic::Location::caller());
        }
    }

    /// Declares `[off, off+len)` stored-to by an untracked mechanism (an
    /// atomic store through [`PmemPool::atomic_u64`], a raw write through
    /// [`PmemPool::at`], a pool-to-pool copy), so the sanitizer sees the
    /// store that a following flush is for. No-op without the feature.
    #[inline]
    #[track_caller]
    pub fn san_mark_dirty(&self, off: POff, len: usize) {
        #[cfg(not(feature = "persist-san"))]
        let _ = (off, len);
        #[cfg(feature = "persist-san")]
        self.inner
            .san
            .on_write(off.raw(), len, std::panic::Location::caller());
    }

    /// Runs `f` in a *probe scope*: recovery-time reads inside it are exempt
    /// from the dirty-read check, for recovery code that validates before it
    /// trusts (checksummed header probes over a block sweep). A transparent
    /// wrapper without the feature.
    #[inline]
    pub fn san_probe<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(feature = "persist-san")]
        let _guard = ProbeGuard::enter();
        f()
    }

    /// Opens the recovery window: until [`PmemPool::san_end_recovery`],
    /// reads are checked against the set of lines whose pre-crash content
    /// never became durable. No-op without the feature.
    #[inline]
    pub fn san_begin_recovery(&self) {
        #[cfg(feature = "persist-san")]
        self.inner.san.begin_recovery();
    }

    /// Closes the recovery window opened by [`PmemPool::san_begin_recovery`].
    #[inline]
    pub fn san_end_recovery(&self) {
        #[cfg(feature = "persist-san")]
        self.inner.san.end_recovery();
    }

    /// Snapshot of everything the sanitizer has recorded so far.
    #[cfg(feature = "persist-san")]
    pub fn san_report(&self) -> SanReport {
        self.inner.san.report()
    }

    /// Enables or disables deny mode: panic at the violation site for the
    /// correctness classes ([`crate::SanClass::is_correctness`]). On by
    /// default.
    #[cfg(feature = "persist-san")]
    pub fn san_set_deny(&self, deny: bool) {
        self.inner.san.set_deny(deny);
    }

    /// Clears recorded violations and counters; shadow line states are kept.
    /// Audits use this to delimit a measurement window.
    #[cfg(feature = "persist-san")]
    pub fn san_reset_counts(&self) {
        self.inner.san.reset_counts();
    }
}

/// Deterministic per-event roll in `0..1000` for straggler injection
/// (splitmix64 finalizer over `seed ^ event`): a given (seed, workload)
/// pair delays the same events on every run.
#[inline]
fn event_roll(seed: u64, event: u64) -> u64 {
    let mut z = seed ^ event.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1000
}

/// Busy-wait for approximately `ns` nanoseconds (0 = free).
#[inline]
fn spin_ns(ns: u64) {
    if ns == 0 {
        return;
    }
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChaosConfig;

    fn strict_pool() -> PmemPool {
        PmemPool::new(PmemConfig::strict_for_test(1 << 20))
    }

    /// Test-only safe store. Every offset used in this module is a
    /// hardcoded, in-bounds, 8-aligned scratch slot — exactly the contract
    /// the unsafe accessor asks the caller to uphold.
    #[track_caller]
    fn w(p: &PmemPool, off: POff, v: u64) {
        // SAFETY: see the doc comment — in-bounds, aligned, plain data.
        unsafe { p.write(off, &v) }
    }

    /// Test-only safe load; same contract as [`w`].
    #[track_caller]
    fn r(p: &PmemPool, off: POff) -> u64 {
        // SAFETY: see `w`.
        unsafe { p.read::<u64>(off) }
    }

    #[test]
    fn write_read_roundtrip() {
        let p = strict_pool();
        let off = POff::new(8192);
        w(&p, off, 0xDEADBEEFu64);
        assert_eq!(r(&p, off), 0xDEADBEEF);
    }

    #[test]
    fn unflushed_data_lost_on_crash() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0, "unflushed line must not survive");
    }

    #[test]
    fn flushed_but_unfenced_data_lost_on_crash() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        p.clwb(off);
        // No sfence.
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0, "clwb without fence is not durable");
    }

    #[test]
    fn flushed_and_fenced_data_survives() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 42u64);
        p.persist_range(off, 8);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 42);
    }

    #[test]
    fn flush_granularity_is_whole_lines() {
        let p = strict_pool();
        let a = POff::new(4096); // same line
        let b = POff::new(4096 + 32);
        w(&p, a, 1);
        w(&p, b, 2);
        p.persist_range(a, 8); // flushing a's line also captures b
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 1);
        assert_eq!(r(&p2, b), 2);
    }

    #[test]
    fn fence_captures_value_at_fence_time() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.clwb(off);
        w(&p, off, 2u64); // re-dirty before the fence
        p.sfence();
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 2);
    }

    #[test]
    fn crash_preserves_durable_across_two_crashes() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 7u64);
        p.persist_range(off, 8);
        let p2 = p.crash();
        let p3 = p2.crash();
        assert_eq!(r(&p3, off), 7);
    }

    #[test]
    fn any_threads_fence_drains_pending_clwbs() {
        // CLWB write-backs are asynchronous: a later fence from *any* thread
        // covers them (the epoch advancer's boundary fence relies on this).
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 9u64);
        p.clwb(off);
        let p_clone = p.clone();
        std::thread::spawn(move || p_clone.sfence()).join().unwrap();
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 9);
    }

    #[test]
    fn clwb_never_fenced_is_lost() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 9u64);
        std::thread::scope(|s| {
            let p = p.clone();
            s.spawn(move || p.clwb(off)); // flushing thread exits, no fence anywhere
        });
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 0);
    }

    #[test]
    fn repeated_clwbs_of_one_line_drain_once() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 3u64);
        for _ in 0..5 {
            p.clwb(off);
        }
        p.sfence();
        let snap = p.stats().snapshot();
        let clwbs = snap.clwbs;
        let drained = snap.lines_drained;
        assert_eq!(clwbs, 5, "every issued clwb is counted");
        assert_eq!(drained, 1, "the fence drains the dirty line once");
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 3);
    }

    #[test]
    fn stats_count_flushes_and_fences() {
        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.clwb_range(off, 200); // 4 lines
        p.sfence();
        let snap = p.stats().snapshot();
        let clwbs = snap.clwbs;
        let fences = snap.sfences;
        let drained = snap.lines_drained;
        assert_eq!(clwbs, 4);
        assert_eq!(fences, 1);
        assert_eq!(drained, 4);
    }

    #[test]
    fn chaos_mode_may_persist_unflushed_lines() {
        let p = PmemPool::new(PmemConfig {
            size: 1 << 20,
            mode: PmemMode::Strict,
            latency: crate::LatencyModel::DRAM,
            chaos: ChaosConfig {
                spontaneous_evict_permille: 1000, // evict everything
                seed: 1,
                ..Default::default()
            },
        });
        let off = POff::new(4096);
        w(&p, off, 5u64);
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 5, "100% eviction persists all lines");
    }

    #[test]
    fn fast_mode_counts_but_does_not_shadow() {
        let p = PmemPool::new(PmemConfig::default());
        let off = POff::new(4096);
        w(&p, off, 1u64);
        p.persist_range(off, 8);
        assert_eq!(p.stats().snapshot().clwbs, 1);
    }

    #[test]
    fn atomic_view_is_shared_with_plain_writes() {
        let p = strict_pool();
        let off = POff::new(4096);
        // SAFETY: `off` is 8-aligned and in bounds; the view is only used
        // from this thread.
        let a = unsafe { p.atomic_u64(off) };
        a.store(11, Ordering::SeqCst);
        assert_eq!(r(&p, off), 11);
    }

    #[test]
    fn snapshot_roundtrips_across_processes() {
        let dir = std::env::temp_dir().join(format!("pmem-snap-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pool.img");

        let p = strict_pool();
        let off = POff::new(4096);
        w(&p, off, 0xC0FFEEu64);
        p.persist_range(off, 8);
        w(&p, off.add(8), 1u64); // never persisted
        p.save_to_file(&path).unwrap();

        let p2 = PmemPool::load_from_file(&path, PmemConfig::strict_for_test(1 << 20)).unwrap();
        assert_eq!(r(&p2, off), 0xC0FFEE);
        assert_eq!(r(&p2, off.add(8)), 0, "snapshot holds durable image only");
        // And the restored pool has normal crash semantics.
        w(&p2, off, 7u64);
        let p3 = p2.crash();
        assert_eq!(r(&p3, off), 0xC0FFEE);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_rejects_wrong_geometry() {
        let dir = std::env::temp_dir().join(format!("pmem-snap2-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("pool.img");
        strict_pool().save_to_file(&path).unwrap();
        assert!(PmemPool::load_from_file(&path, PmemConfig::strict_for_test(2 << 20)).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_pool_is_zeroed() {
        let p = strict_pool();
        let mut buf = [1u8; 256];
        p.read_bytes(POff::new(12345 & !63), &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    // ---- fault plan ---------------------------------------------------------

    fn faulted_pool(crash_at: u64) -> PmemPool {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.crash_at_event = Some(crash_at);
        PmemPool::new(cfg)
    }

    #[test]
    fn event_counting_is_free_until_armed() {
        let p = strict_pool();
        w(&p, POff::new(4096), 1u64);
        p.persist_range(POff::new(4096), 8);
        assert_eq!(p.persistence_events(), 0, "no plan, no accounting");
        assert!(p.fault().is_none());
    }

    #[test]
    fn counting_pass_counts_without_crashing() {
        let p = faulted_pool(u64::MAX);
        let off = POff::new(4096);
        w(&p, off, 1u64); // 1 event
        p.clwb_range(off, 200); // 4 lines = 4 events
        p.sfence(); // 1 event
        assert_eq!(p.persistence_events(), 6);
        assert!(!p.is_poisoned());
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 1);
    }

    #[test]
    fn poisoned_pool_freezes_durable_image() {
        // Plan: write(1) + clwb(1) + sfence(1) = 3 events make `a` durable;
        // everything after event 3 must be dropped.
        let p = faulted_pool(3);
        let a = POff::new(4096);
        let b = POff::new(8192);
        w(&p, a, 7u64);
        p.clwb(a);
        p.sfence();
        assert!(p.is_poisoned(), "plan trips exactly at event N");
        assert_eq!(p.fault(), Some(PmemFault::Crashed { at_event: 3 }));
        w(&p, b, 9u64);
        p.persist_range(b, 8); // dropped: pool already crashed
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 7, "events 1..=3 took effect");
        assert_eq!(r(&p2, b), 0, "post-crash events dropped");
        assert!(p2.fault().is_none(), "restarted pool has a clean plan");
        assert_eq!(p2.stats().snapshot().injected_crashes, 0);
    }

    #[test]
    fn crash_point_can_land_inside_a_range_flush() {
        // write a (1) + write b (1) = 2 events; plan 3 lets exactly one of
        // the four clwb_range lines start its write-back.
        let p = faulted_pool(3);
        let a = POff::new(4096);
        let b = POff::new(4096 + 64);
        w(&p, a, 1);
        w(&p, b, 2);
        p.clwb_range(a, 256); // 4 lines, only the first survives the plan
        p.sfence(); // dropped (pool poisoned)
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 0, "line flushed, never fenced");
        assert_eq!(r(&p2, b), 0);
    }

    #[test]
    fn dropped_fence_leaves_lines_pending_not_durable() {
        let p = faulted_pool(2); // write + clwb allowed, fence dropped
        let a = POff::new(4096);
        w(&p, a, 5u64);
        p.clwb(a);
        p.sfence();
        assert!(p.is_poisoned());
        let p2 = p.crash();
        assert_eq!(r(&p2, a), 0);
    }

    #[test]
    fn checked_ops_report_the_fault() {
        let p = faulted_pool(1);
        let a = POff::new(4096);
        assert!(p.try_write_bytes(a, &[1, 2, 3]).is_err(), "trips the plan");
        assert_eq!(
            p.try_clwb(a),
            Err(PmemFault::Crashed { at_event: 1 }),
            "already poisoned"
        );
        assert!(p.try_sfence().is_err());
        assert!(p.try_persist_range(a, 8).is_err());
        // The store itself still landed in the working image (caches).
        // SAFETY: `a` is in bounds; u8 has no alignment requirement.
        assert_eq!(unsafe { p.read::<u8>(a) }, 1);
    }

    #[test]
    fn torn_line_persists_a_prefix_only() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.torn_line_permille = 1000; // tear every pending line
        cfg.chaos.seed = 42;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096); // line-aligned
        let full = [0xABu8; 64];
        p.write_bytes(off, &full);
        p.clwb(off);
        // No fence: the line is pending at crash time, so it tears.
        let p2 = p.crash();
        let mut got = [0u8; 64];
        p2.read_bytes(off, &mut got);
        let persisted = got.iter().take_while(|&&b| b == 0xAB).count();
        assert!(
            (8..64).contains(&persisted),
            "a torn line persists a strict, non-empty prefix (got {persisted} bytes)"
        );
        assert_eq!(persisted % 8, 0, "tears happen at ECC-word granularity");
        assert!(got[persisted..].iter().all(|&b| b == 0), "suffix lost");
        assert_eq!(p.stats().snapshot().torn_lines, 1);
    }

    #[test]
    fn fenced_lines_do_not_tear() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.torn_line_permille = 1000;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096);
        p.write_bytes(off, &[0xCDu8; 64]);
        p.persist_range(off, 64); // fence drains it: no longer pending
        let p2 = p.crash();
        let mut got = [0u8; 64];
        p2.read_bytes(off, &mut got);
        assert!(got.iter().all(|&b| b == 0xCD), "fenced data is whole");
        assert_eq!(p.stats().snapshot().torn_lines, 0);
    }

    #[test]
    fn sweep_points_are_deterministic() {
        // Identical plans + identical single-threaded workloads must leave
        // identical durable images.
        let run = |crash_at: u64| -> Vec<u8> {
            let p = faulted_pool(crash_at);
            for i in 0..8u64 {
                let off = POff::new(4096 + i * 64);
                w(&p, off, i + 1);
                p.clwb(off);
                if i % 3 == 2 {
                    p.sfence();
                }
            }
            p.sfence();
            let crashed = p.crash();
            let mut img = vec![0u8; 4096];
            crashed.read_bytes(POff::new(4096), &mut img);
            img
        };
        for point in [0, 1, 5, 9, 13, 20] {
            assert_eq!(run(point), run(point), "crash point {point} not replayable");
        }
    }

    #[test]
    fn stall_parks_exactly_one_thread_and_releases() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(3);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || {
            let off = POff::new(4096);
            w(&p2, off, 1); // event 1
            p2.clwb(off); // event 2
            p2.sfence(); // event 3: parks inside the fence
            7u64
        });
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        assert_eq!(p.stalled_count(), 1);
        // Peers keep full use of the pool while the victim is parked —
        // including the fence path the victim is parked inside of.
        let off2 = POff::new(8192);
        w(&p, off2, 9);
        p.persist_range(off2, 8);
        assert_eq!(p.stalled_count(), 1, "peer traffic must not unpark");
        p.release_stalled();
        assert_eq!(victim.join().unwrap(), 7);
        assert_eq!(p.stalled_count(), 0);
        assert_eq!(p.stats().snapshot().stalls_injected, 1);
        // Once released, the victim's fence completed normally: its line is
        // durable alongside the peer's.
        let crashed = p.crash();
        assert_eq!(r(&crashed, POff::new(4096)), 1);
        assert_eq!(r(&crashed, off2), 9);
    }

    #[test]
    fn poisoning_releases_a_parked_victim() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(2);
        cfg.chaos.crash_at_event = Some(5);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || {
            let off = POff::new(4096);
            w(&p2, off, 1);
            p2.clwb(off); // crosses event 2: parks
        });
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        // Peer activity trips the crash plan; the victim must come back on
        // its own (a dead execution's threads cannot stay parked forever).
        for i in 0..4u64 {
            w(&p, POff::new(8192 + i * 8), i);
        }
        assert!(p.is_poisoned());
        victim.join().unwrap();
        assert_eq!(p.stalled_count(), 0);
    }

    #[test]
    fn explicit_crash_releases_a_parked_victim() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.stall_at_event = Some(1);
        let p = PmemPool::new(cfg);
        let p2 = p.clone();
        let victim = std::thread::spawn(move || w(&p2, POff::new(4096), 1));
        assert!(p.await_stalled(std::time::Duration::from_secs(10)));
        let crashed = p.crash();
        victim.join().unwrap();
        assert!(
            crashed.config().chaos.stall_at_event.is_none(),
            "the restarted machine must not inherit the stall plan"
        );
    }

    #[test]
    fn straggler_rolls_are_deterministic_and_calibrated() {
        assert_eq!(event_roll(42, 7), event_roll(42, 7));
        let hits = (0..10_000u64).filter(|&e| event_roll(42, e) < 100).count();
        assert!(
            (700..1300).contains(&hits),
            "a 100-permille plan should hit ~10% of events (got {hits}/10000)"
        );
    }

    #[test]
    fn straggler_mode_counts_events_and_stays_functional() {
        let mut cfg = PmemConfig::strict_for_test(1 << 20);
        cfg.chaos.straggler_permille = 1000;
        cfg.chaos.straggler_delay_us = 0;
        let p = PmemPool::new(cfg);
        let off = POff::new(4096);
        w(&p, off, 5);
        p.persist_range(off, 8);
        assert!(p.persistence_events() >= 3, "straggler mode arms counting");
        let p2 = p.crash();
        assert_eq!(r(&p2, off), 5);
    }
}
