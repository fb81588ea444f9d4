//! Pool configuration: size, crash-semantics mode, latency model, chaos.

/// Crash-semantics fidelity of the pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmemMode {
    /// Keep a durable shadow image: data survives [`crate::PmemPool::crash`]
    /// only if it was `clwb`'d and a subsequent `sfence` was issued by the
    /// same thread. Used by all crash-consistency tests.
    Strict,
    /// No shadow image; `clwb`/`sfence` only charge latency and update the
    /// statistics counters. Used by throughput benchmarks, where the cost of
    /// persistence instructions (not crash recovery) is the object of study.
    Fast,
}

/// Latency charged to persistence instructions, in nanoseconds.
///
/// Defaults approximate published Optane DC measurements (Izraelevitz et al.,
/// "Basic Performance Measurements of the Intel Optane DC Persistent Memory
/// Module"): a `CLWB` costs little to *issue* but the fence that drains it
/// pays the media write. We charge a small issue cost per flush plus a drain
/// cost per outstanding line at the fence, which reproduces the key behaviour
/// Montage exploits: batching flushes and moving the fence off the critical
/// path is much cheaper than flush+fence per operation.
///
/// Two kinds of cost are charged differently. Issue costs (`clwb_issue_ns`,
/// `fence_base_ns`, `media_read_ns`) are CPU time: the calling thread
/// busy-waits, exactly as the instruction would occupy its core. Drain costs
/// (`fence_per_line_ns` + `media_write_ns` per outstanding line) are *device*
/// time: the fence reserves that much time on the pool's serial drain queue
/// and sleeps until the reservation completes. On hardware an `SFENCE` stalls
/// only its thread while the DIMM's write-pending queue drains — other
/// threads keep running, and distinct DIMMs drain in parallel. Consequently
/// concurrent fences on one pool serialize behind its queue (shared write
/// bandwidth), while fences on different pools — e.g. the shards of a
/// multi-pool store — overlap fully.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Cost to issue one `clwb` (ns).
    pub clwb_issue_ns: u64,
    /// Cost per pending line drained by an `sfence` (ns).
    pub fence_per_line_ns: u64,
    /// Fixed cost of an `sfence` (ns), even with nothing pending.
    pub fence_base_ns: u64,
    /// Extra write cost per cache line written to NVM media, charged at
    /// drain time in addition to `fence_per_line_ns` (models Optane's
    /// ~3x-DRAM write latency / limited write bandwidth).
    pub media_write_ns: u64,
    /// Cost of a dependent read that misses CPU caches into NVM media
    /// (Optane reads are ~2-4x DRAM latency). Charged by
    /// [`crate::PmemPool::touch`], which pointer-chasing structures call
    /// once per node dereference.
    pub media_read_ns: u64,
    /// Device occupancy per 64-byte line of *bulk* payload reads, charged
    /// on the pool's drain queue by [`crate::PmemPool::media_read`]. Models
    /// a single DIMM's finite read bandwidth; bulk reads and fence drains
    /// contend for the same device, as they do on Optane hardware. Distinct
    /// from `media_read_ns`, the per-miss *latency* of a dependent pointer
    /// chase (a CPU stall, not queue occupancy).
    pub media_read_line_ns: u64,
}

impl LatencyModel {
    /// Latency model used for transient-DRAM baselines: everything free.
    pub const DRAM: LatencyModel = LatencyModel {
        clwb_issue_ns: 0,
        fence_per_line_ns: 0,
        fence_base_ns: 0,
        media_write_ns: 0,
        media_read_ns: 0,
        media_read_line_ns: 0,
    };

    /// Optane-like defaults.
    pub const OPTANE: LatencyModel = LatencyModel {
        clwb_issue_ns: 20,
        fence_per_line_ns: 60,
        fence_base_ns: 30,
        media_write_ns: 100,
        media_read_ns: 150,
        // ~2.5 GB/s of single-DIMM read bandwidth.
        media_read_line_ns: 25,
    };
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::OPTANE
    }
}

/// Optional adversarial behaviour for crash testing.
///
/// Real CPU caches may evict (and therefore persist) *any* dirty line at any
/// time, so recovery code must tolerate data reaching NVM that was never
/// explicitly flushed. With `spontaneous_evict_permille > 0`, a [`crate::PmemPool::crash`]
/// in `Strict` mode additionally persists a random subset of lines from the
/// working image before discarding it, modelling arbitrary evictions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosConfig {
    /// Per-line probability (in 1/1000) that an unflushed line is persisted
    /// anyway at crash time.
    pub spontaneous_evict_permille: u16,
    /// Per-line probability (in 1/1000) that a **pending** line (`clwb`'d
    /// but not yet fenced) is *torn* at crash time: only a prefix of the
    /// line, at 8-byte ECC-word granularity, reaches durable media. Models
    /// a power cut catching a write-back part-way through a line.
    pub torn_line_permille: u16,
    /// RNG seed for eviction and tearing choices (deterministic replay).
    pub seed: u64,
    /// Fault plan: `Some(n)` arms the persistence-event counter and poisons
    /// the pool once `n` events (stores, per-line flushes, fences) have
    /// taken effect. After that, flushes and fences are dropped — the
    /// durable image is frozen exactly as of event `n` — and the checked
    /// `try_*` pool operations return [`crate::PmemFault::Crashed`].
    /// `Some(u64::MAX)` counts events without ever crashing (used by sweep
    /// harnesses for their counting pass). Event accounting is skipped
    /// entirely when neither this nor [`ChaosConfig::stall_at_event`] is
    /// armed, keeping the hot path free of the counter.
    pub crash_at_event: Option<u64>,
    /// Stall plan: `Some(n)` parks the thread whose persistence-event charge
    /// crosses `n` — it blocks *inside* the flush/fence/store that crossed
    /// the threshold, mid-operation, until [`crate::PmemPool::release_stalled`]
    /// is called or the pool is poisoned by [`crate::PmemPool::crash`] / the
    /// crash plan tripping. Models a thread descheduled (page fault, signal,
    /// preemption) at the worst possible moment; liveness tests use it to
    /// prove other threads' `sync` completes while the victim is parked.
    /// Exactly one thread parks per pool (the first to cross).
    pub stall_at_event: Option<u64>,
    /// Straggler mode: per-event probability (in 1/1000) that the charging
    /// thread sleeps [`ChaosConfig::straggler_delay_us`] before proceeding.
    /// A randomized, milder cousin of [`ChaosConfig::stall_at_event`]: ops
    /// become slow rather than stuck, exercising the grace-window bypass in
    /// the epoch advance without ever requiring an external release. Rolls
    /// are seeded by [`ChaosConfig::seed`] and the event index, so a given
    /// (seed, workload) pair delays the same events on every run.
    pub straggler_permille: u16,
    /// Sleep duration, in microseconds, for each straggler roll that hits.
    pub straggler_delay_us: u32,
}

/// Full pool configuration.
#[derive(Clone, Copy, Debug)]
pub struct PmemConfig {
    /// Pool size in bytes (includes the root area).
    pub size: usize,
    /// Crash-semantics mode.
    pub mode: PmemMode,
    /// Latency model for persistence instructions.
    pub latency: LatencyModel,
    /// Adversarial eviction model (Strict mode only).
    pub chaos: ChaosConfig,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            size: 64 << 20,
            mode: PmemMode::Fast,
            latency: LatencyModel::DRAM,
            chaos: ChaosConfig::default(),
        }
    }
}

impl PmemConfig {
    /// Strict-mode config with zero latency — the standard test configuration.
    pub fn strict_for_test(size: usize) -> Self {
        PmemConfig {
            size,
            mode: PmemMode::Strict,
            latency: LatencyModel::DRAM,
            chaos: ChaosConfig::default(),
        }
    }

    /// Fast-mode config with the Optane latency model — the standard
    /// benchmark configuration.
    pub fn bench_nvm(size: usize) -> Self {
        PmemConfig {
            size,
            mode: PmemMode::Fast,
            latency: LatencyModel::OPTANE,
            chaos: ChaosConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fast_and_free() {
        let c = PmemConfig::default();
        assert_eq!(c.mode, PmemMode::Fast);
        assert_eq!(c.latency.clwb_issue_ns, 0);
    }

    #[test]
    fn presets() {
        assert_eq!(PmemConfig::strict_for_test(1024).mode, PmemMode::Strict);
        let b = PmemConfig::bench_nvm(1024);
        assert_eq!(b.mode, PmemMode::Fast);
        assert!(b.latency.media_write_ns > 0);
    }
}
