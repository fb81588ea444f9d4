//! # kvstore — a memcached-like key-value cache
//!
//! Stand-in for the protected-library memcached variant of Kjellqvist et
//! al. used in the paper's Sec. 6.2 validation: the client links directly
//! against the cache (no sockets), the hash index and LRU bookkeeping stay
//! in DRAM, and item storage is pluggable:
//!
//! * [`KvBackend::Dram`] — fully transient ("DRAM (T)" in Fig. 10);
//! * [`KvBackend::Nvm`] — items in the NVM pool via Ralloc, index in DRAM
//!   ("effectively equivalent to the configuration of Montage (T)");
//! * [`KvBackend::Montage`] — items are Montage payloads: the cache is fully
//!   persistent and recoverable.
//!
//! The memcached item layout (key, flags, value) is preserved in the item
//! bytes; LRU is per-stripe with stamp-ordered eviction.

pub mod protocol;
pub mod router;
pub mod session_table;
pub mod sharded;

pub use router::ShardRouter;
pub use session_table::{
    DetectOutcome, DetectStats, DetectedWrite, DESC_BYTES, RESULT_MAX, SESSION_TAG,
};
pub use sharded::{
    ShardRecovery, ShardedKvStore, StoreBatch, StoreError, StoreLease, StoreRecoveryReport,
};

use session_table::{SessionRecord, SessionTable};

use montage::sync::uninstrumented::{AtomicUsize, Ordering};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use montage::{EpochSys, OpGuard, PHandle, RecoveredState, ThreadId};
use parking_lot::Mutex;
use pmem::POff;
use ralloc::Ralloc;

/// 32-byte padded keys, as in the paper's benchmarks.
pub type Key = [u8; 32];

/// Payload tag used for Montage-backed items.
pub const KV_TAG: u16 = 6;

/// Item storage backend.
#[derive(Clone)]
pub enum KvBackend {
    Dram,
    Nvm(Arc<Ralloc>),
    Montage(Arc<EpochSys>),
}

enum ItemRef {
    Dram(Box<[u8]>),
    Nvm(POff, u32),
    Montage(PHandle<[u8]>),
}

#[derive(Default)]
struct Stripe {
    map: HashMap<Key, (ItemRef, u64)>,
    lru: BTreeMap<u64, Key>,
    /// Key-ordered mirror of `map`'s key set, maintained at every insert
    /// and removal — what gives `scan` its per-stripe ordered walk without
    /// sorting under the lock.
    ordered: BTreeSet<Key>,
    next_stamp: u64,
}

impl Stripe {
    /// Restamps `key` as the stripe's most recently used.
    fn touch(&mut self, key: &Key) {
        if let Some((_, stamp)) = self.map.get_mut(key) {
            self.lru.remove(stamp);
            *stamp = self.next_stamp;
            self.next_stamp += 1;
            self.lru.insert(*stamp, *key);
        }
    }
}

/// The cache. `capacity` bounds the item count, split evenly across stripes
/// (memcached's memory cap).
pub struct KvStore {
    backend: KvBackend,
    stripes: Box<[Mutex<Stripe>]>,
    capacity_per_stripe: usize,
    len: AtomicUsize,
    evictions: AtomicUsize,
    /// Detectable-operations state: one durable descriptor per session (see
    /// [`session_table`]). Descriptors live in this store's pool, so in a
    /// sharded deployment each session's descriptor sits in the shard of the
    /// key it last mutated there — fault containment matches the data's.
    sessions: SessionTable,
}

/// Montage item layout: key bytes then value bytes.
const KEY_BYTES: usize = 32;

impl KvStore {
    pub fn new(backend: KvBackend, stripes: usize, capacity: usize) -> Self {
        assert!(stripes > 0);
        KvStore {
            backend,
            capacity_per_stripe: (capacity / stripes).max(1),
            stripes: (0..stripes).map(|_| Mutex::default()).collect(),
            len: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            sessions: SessionTable::default(),
        }
    }

    /// Rebuilds a Montage-backed cache after a crash. KV payloads rebuild
    /// the index; session descriptors rebuild the detectable-operations
    /// table, marked `recovered` so replays from them count as acks carried
    /// across the crash.
    pub fn recover(
        esys: Arc<EpochSys>,
        stripes: usize,
        capacity: usize,
        rec: &RecoveredState,
    ) -> Self {
        let store = Self::new(KvBackend::Montage(esys), stripes, capacity);
        for item in rec.shards.iter().flatten() {
            match item.tag {
                KV_TAG => {
                    let key: Key = rec.with_bytes(item, |b| b[..KEY_BYTES].try_into().unwrap());
                    let mut stripe = store.stripes[store.index(&key)].lock();
                    store.insert_locked(&mut stripe, key, ItemRef::Montage(item.handle()));
                }
                SESSION_TAG => {
                    let Some((sid, rid, op_kind, result)) =
                        rec.with_bytes(item, session_table::decode_descriptor)
                    else {
                        continue; // malformed descriptors are dropped, not trusted
                    };
                    *store.sessions.slot(sid).lock() = Some(SessionRecord {
                        rid,
                        op_kind,
                        result,
                        handle: Some(item.handle()),
                        recovered: true,
                    });
                }
                _ => {}
            }
        }
        store
    }

    /// Registers the calling worker; returns the id to pass to operations.
    pub fn register_thread(&self) -> usize {
        self.esys().map_or(0, |esys| esys.register_thread().0)
    }

    /// Fallible worker registration for connection-oriented front-ends:
    /// `None` means the Montage thread table is fully leased (the caller
    /// should reject the session rather than panic). Transient backends have
    /// no per-thread state, so registration always succeeds with id 0.
    pub fn try_register_thread(&self) -> Option<usize> {
        self.esys()
            .map_or(Some(0), |esys| esys.try_register_thread().map(|t| t.0))
    }

    /// Returns a worker id leased via [`KvStore::try_register_thread`] (or
    /// [`KvStore::register_thread`]) so a later session can reuse it.
    pub fn unregister_thread(&self, tid: usize) {
        if let Some(esys) = self.esys() {
            esys.unregister_thread(ThreadId(tid));
        }
    }

    /// The epoch system backing a [`KvBackend::Montage`] store, if any —
    /// where a serving layer reaches `sync()` for client-visible durability.
    pub fn esys(&self) -> Option<&Arc<EpochSys>> {
        match &self.backend {
            KvBackend::Montage(esys) => Some(esys),
            _ => None,
        }
    }

    /// Reports an injected crash on the backing pool, if any — serving
    /// layers use this to refuse mutations instead of panicking once a
    /// fault plan has tripped. Transient backends never fault.
    pub fn fault(&self) -> Option<pmem::PmemFault> {
        match &self.backend {
            KvBackend::Montage(esys) => esys.fault(),
            KvBackend::Nvm(r) => r.pool().fault(),
            KvBackend::Dram => None,
        }
    }

    /// Persistence counters of the backing pool (`None` for DRAM stores) —
    /// the server's `stats` command reports these over the wire.
    pub fn pool_stats(&self) -> Option<pmem::StatsSnapshot> {
        match &self.backend {
            KvBackend::Montage(esys) => Some(esys.pool().stats().snapshot()),
            KvBackend::Nvm(r) => Some(r.pool().stats().snapshot()),
            KvBackend::Dram => None,
        }
    }

    fn index(&self, key: &Key) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.stripes.len()
    }

    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// DRAM held by the per-stripe ordered mirrors (ROADMAP item 3's
    /// accounting fragment): every key the `BTreeSet`s index, costed at the
    /// key bytes plus two words of amortized B-tree node bookkeeping
    /// (leaves hold 5..=11 keys, so edge pointers and lengths stay under
    /// 16 bytes per key even at worst-case fill). An estimate by design —
    /// the 32-byte keys dominate — but it moves with occupancy, which is
    /// what capacity planning needs.
    pub fn ordered_mirror_bytes(&self) -> usize {
        const PER_KEY: usize = std::mem::size_of::<Key>() + 2 * std::mem::size_of::<usize>();
        self.stripes
            .iter()
            .map(|s| s.lock().ordered.len() * PER_KEY)
            .sum()
    }

    // ---- items ----------------------------------------------------------
    //
    // Four per-backend primitives: read, create, overwrite, free. The write
    // path below them is backend-blind. Montage primitives run inside the
    // caller's operation window `g`; transient backends get `None`.

    /// Applies `f` to the key's value bytes, if present, under an
    /// already-held stripe lock.
    fn with_value<R>(&self, stripe: &Stripe, key: &Key, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let (item, _) = stripe.map.get(key)?;
        Some(match (&self.backend, item) {
            (_, ItemRef::Dram(b)) => f(b),
            (KvBackend::Nvm(r), ItemRef::Nvm(off, len)) => {
                r.pool().media_read(*len as usize);
                // SAFETY: (both lines) the ItemRef was produced by this
                // arena's own append, so `off..off+len` is in bounds and the
                // bytes are initialized.
                let ptr = unsafe { r.pool().at::<u8>(*off) };
                f(unsafe { std::slice::from_raw_parts(ptr, *len as usize) })
            }
            (KvBackend::Montage(esys), ItemRef::Montage(h)) => esys.peek_bytes_unsafe(*h, |b| {
                esys.pool().media_read(b.len());
                f(&b[KEY_BYTES..])
            }),
            _ => unreachable!("item/backend mismatch"),
        })
    }

    fn new_item(&self, g: Option<&OpGuard<'_>>, key: &Key, value: &[u8]) -> ItemRef {
        match &self.backend {
            KvBackend::Dram => ItemRef::Dram(value.into()),
            KvBackend::Nvm(r) => {
                let off = r.alloc(value.len().max(1));
                r.pool().write_bytes(off, value);
                ItemRef::Nvm(off, value.len() as u32)
            }
            KvBackend::Montage(esys) => {
                ItemRef::Montage(esys.pnew_bytes(op(g), KV_TAG, &item_bytes(key, value)))
            }
        }
    }

    /// Overwrites an item's value: in place when the length matches,
    /// otherwise resized. A Montage resize goes through `replace_bytes`,
    /// which keeps the payload's uid, so no crash cut recovers both the old
    /// and the new version of one key.
    fn overwrite_item(&self, g: Option<&OpGuard<'_>>, item: &mut ItemRef, key: &Key, value: &[u8]) {
        match (&self.backend, item) {
            (_, ItemRef::Dram(b)) if b.len() == value.len() => b.copy_from_slice(value),
            (_, ItemRef::Dram(b)) => *b = value.into(),
            (KvBackend::Nvm(r), ItemRef::Nvm(off, len)) => {
                if *len as usize != value.len() {
                    r.dealloc(*off);
                    *off = r.alloc(value.len().max(1));
                    *len = value.len() as u32;
                }
                r.pool().write_bytes(*off, value);
            }
            (KvBackend::Montage(esys), ItemRef::Montage(h)) => {
                let g = op(g);
                let same_len = esys.peek_bytes_unsafe(*h, |b| b.len() == KEY_BYTES + value.len());
                *h = if same_len {
                    esys.set_bytes(g, *h, |b| b[KEY_BYTES..].copy_from_slice(value))
                } else {
                    esys.replace_bytes(g, *h, &item_bytes(key, value))
                }
                .expect("stripe lock orders epochs");
            }
            _ => unreachable!("item/backend mismatch"),
        }
    }

    fn free_item(&self, g: Option<&OpGuard<'_>>, item: ItemRef) {
        match (&self.backend, item) {
            (_, ItemRef::Dram(_)) => {}
            (KvBackend::Nvm(r), ItemRef::Nvm(off, _)) => r.dealloc(off),
            (KvBackend::Montage(esys), ItemRef::Montage(h)) => {
                esys.pdelete(op(g), h).expect("stripe lock orders epochs");
            }
            _ => unreachable!("item/backend mismatch"),
        }
    }

    // ---- the write path -------------------------------------------------

    /// Runs `f` under `key`'s stripe lock and the one operation window each
    /// public write opens: a single `BEGIN_OP` on Montage, which the
    /// mutation, any eviction it makes room with and the session descriptor
    /// all share; nothing on transient backends. The window opens after the
    /// lock, so every payload the stripe holds is at most the window's epoch.
    fn write<R>(
        &self,
        tid: usize,
        key: &Key,
        f: impl FnOnce(Option<&OpGuard<'_>>, &mut Stripe) -> R,
    ) -> R {
        let mut stripe = self.stripes[self.index(key)].lock();
        let g = self.esys().map(|esys| esys.begin_op(ThreadId(tid)));
        f(g.as_ref(), &mut stripe)
    }

    /// Files `item` under `key` with a fresh LRU stamp: the one insert into
    /// the map, the LRU, the ordered mirror and `len`, for writes and
    /// recovery alike. `key` must be absent.
    fn insert_locked(&self, stripe: &mut Stripe, key: Key, item: ItemRef) {
        let stamp = stripe.next_stamp;
        stripe.next_stamp += 1;
        stripe.map.insert(key, (item, stamp));
        stripe.lru.insert(stamp, key);
        stripe.ordered.insert(key);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert or overwrite; an insert at capacity first evicts the stripe's
    /// least recently used key.
    fn upsert_locked(&self, g: Option<&OpGuard<'_>>, stripe: &mut Stripe, key: Key, value: &[u8]) {
        if let Some((item, _)) = stripe.map.get_mut(&key) {
            self.overwrite_item(g, item, &key, value);
            stripe.touch(&key);
            return;
        }
        if stripe.map.len() >= self.capacity_per_stripe {
            if let Some(victim) = stripe.lru.values().next().copied() {
                self.remove_locked(g, stripe, &victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let item = self.new_item(g, &key, value);
        self.insert_locked(stripe, key, item);
    }

    fn remove_locked(&self, g: Option<&OpGuard<'_>>, stripe: &mut Stripe, key: &Key) -> bool {
        let Some((item, stamp)) = stripe.map.remove(key) else {
            return false;
        };
        stripe.lru.remove(&stamp);
        stripe.ordered.remove(key);
        self.free_item(g, item);
        self.len.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Runs `decide` on the key's current value and applies its verdict;
    /// returns `decide`'s reply bytes.
    fn update_locked(
        &self,
        g: Option<&OpGuard<'_>>,
        stripe: &mut Stripe,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> Vec<u8> {
        let current = self.with_value(stripe, key, <[u8]>::to_vec);
        let (write, reply) = decide(current.as_deref());
        match write {
            DetectedWrite::Keep => {}
            DetectedWrite::Delete => {
                self.remove_locked(g, stripe, key);
            }
            DetectedWrite::Upsert(value) => self.upsert_locked(g, stripe, *key, &value),
        }
        reply
    }

    // ---- public operations ----------------------------------------------

    /// memcached `get`: applies `f` to the value bytes on hit.
    pub fn get<R>(&self, _tid: usize, key: &Key, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let mut stripe = self.stripes[self.index(key)].lock();
        stripe.touch(key);
        self.with_value(&stripe, key, f)
    }

    /// memcached `set`: insert or overwrite.
    pub fn set(&self, tid: usize, key: Key, value: &[u8]) {
        self.write(tid, &key, |g, stripe| {
            self.upsert_locked(g, stripe, key, value)
        });
    }

    /// memcached `delete`.
    pub fn delete(&self, tid: usize, key: &Key) -> bool {
        self.write(tid, key, |g, stripe| self.remove_locked(g, stripe, key))
    }

    /// Ordered inclusive range scan: every stripe is walked under its lock
    /// (a per-stripe atomic snapshot — no torn view of any single stripe),
    /// then the per-stripe runs are merged into one sorted result capped at
    /// `limit`. Scans are reads: they do not touch the LRU and never
    /// persist anything.
    pub fn scan(&self, lo: &Key, hi: &Key, limit: usize) -> Vec<(Key, Vec<u8>)> {
        if lo > hi || limit == 0 {
            return Vec::new();
        }
        let mut out: Vec<(Key, Vec<u8>)> = Vec::new();
        for stripe in self.stripes.iter() {
            let stripe = stripe.lock();
            for key in stripe.ordered.range(*lo..=*hi) {
                let value = self
                    .with_value(&stripe, key, <[u8]>::to_vec)
                    .expect("ordered mirrors map");
                out.push((*key, value));
            }
        }
        out.sort_by_key(|e| e.0);
        out.truncate(limit);
        out
    }

    /// An atomic read-modify-write: runs `decide` on the key's current
    /// value and applies its verdict while **holding the stripe lock across
    /// both**, so two racing mutations of one key serialize — the second
    /// decides against the first's result. This is what makes the
    /// sessionless protocol path's conditional ops (`cas`/`add`/`incr`)
    /// atomic: without the held lock, two connections on different workers
    /// interleave get→decide→set and lose updates. Returns `decide`'s
    /// reply bytes.
    pub fn update(
        &self,
        tid: usize,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> Vec<u8> {
        self.write(tid, key, |g, stripe| {
            self.update_locked(g, stripe, key, decide)
        })
    }

    // ---- detectable operations ------------------------------------------

    /// A detectable mutation: routes `(sid, rid)` through the session table,
    /// and if the request id is new, runs `decide` on the key's current
    /// value and applies its verdict **and** the session's descriptor update
    /// inside a single `BEGIN_OP` window.
    ///
    /// That single window is the whole correctness argument: the epoch clock
    /// cannot advance past an open operation, so the mutation and the
    /// descriptor recording its result are labelled with the same epoch and
    /// reach the persistence domain under the same boundary fence — a
    /// recovered image either has both (replay answers from the descriptor)
    /// or neither (the retry re-applies). No extra fence is issued: the
    /// descriptor rides whatever sync policy the caller already runs.
    ///
    /// If `rid` matches the session's last recorded request, `decide` is
    /// **not** run; the recorded result is returned as
    /// [`DetectOutcome::Replayed`]. A `rid` below the recorded one is
    /// refused as [`DetectOutcome::Stale`] — its result was already
    /// consumed and then overwritten.
    ///
    /// Transient backends (DRAM/NVM) run the same dedupe protocol in DRAM
    /// only: there is no crash to survive, so nothing is persisted.
    pub fn detected_update(
        &self,
        tid: usize,
        sid: u64,
        rid: u64,
        op_kind: u8,
        key: &Key,
        decide: impl FnOnce(Option<&[u8]>) -> (DetectedWrite, Vec<u8>),
    ) -> DetectOutcome {
        // Serialization is per session, not per store: the table-wide lock
        // is held only long enough to fetch the session's slot, then two
        // racing retries of the same request serialize on the slot (the
        // loser answered from the winner's descriptor) while unrelated
        // sessions run concurrently — contending, at most, on the mutated
        // key's stripe lock like any other mutation.
        let slot = self.sessions.slot(sid);
        let mut entry = slot.lock();
        if let Some(rec) = entry.as_ref() {
            if rid == rec.rid {
                self.sessions.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                if rec.recovered {
                    self.sessions.replayed_acks.fetch_add(1, Ordering::Relaxed);
                }
                return DetectOutcome::Replayed(rec.result.clone());
            }
            if rid < rec.rid {
                return DetectOutcome::Stale { last_rid: rec.rid };
            }
        }
        let (result, handle) = self.write(tid, key, |g, stripe| {
            let result = self.update_locked(g, stripe, key, decide);
            // The one Montage-only step: the descriptor joins the
            // mutation's window. Transient backends dedupe in DRAM only.
            let handle = self.esys().zip(g).map(|(esys, g)| {
                let desc = session_table::encode_descriptor(sid, rid, op_kind, &result);
                match entry.as_ref().and_then(|r| r.handle) {
                    // Fixed-size descriptor: always a same-length overwrite,
                    // so uid cancellation keeps exactly one durable version.
                    Some(h) => esys
                        .set_bytes(g, h, |b| b.copy_from_slice(&desc))
                        .expect("session slot lock orders epochs"),
                    None => esys.pnew_bytes(g, SESSION_TAG, &desc),
                }
            });
            (result, handle)
        });
        *entry = Some(SessionRecord {
            rid,
            op_kind,
            result: result.clone(),
            handle,
            recovered: false,
        });
        DetectOutcome::Applied(result)
    }

    /// Exactly-once counters and table occupancy for this store.
    pub fn detect_stats(&self) -> DetectStats {
        self.sessions.stats()
    }

    /// The session's recorded `(rid, op_kind, result)`, if it has a
    /// descriptor here — what a recovery test compares against the
    /// recovered key state.
    pub fn session_descriptor(&self, sid: u64) -> Option<(u64, u8, Vec<u8>)> {
        let slot = self.sessions.entries.lock().get(&sid).cloned()?;
        let entry = slot.lock();
        entry.as_ref().map(|r| (r.rid, r.op_kind, r.result.clone()))
    }
}

/// The operation window a Montage item primitive runs in; only transient
/// backends are handed `None`.
fn op<'g, 'e>(g: Option<&'g OpGuard<'e>>) -> &'g OpGuard<'e> {
    g.expect("Montage writes run inside an operation window")
}

/// A Montage item's payload bytes: the key, then the value.
fn item_bytes(key: &Key, value: &[u8]) -> Vec<u8> {
    [key.as_slice(), value].concat()
}

/// Builds the padded key for record `i` (as in the paper's workloads).
pub fn make_key(i: u64) -> Key {
    let mut k = [0u8; 32];
    let s = i.to_string();
    k[..s.len()].copy_from_slice(s.as_bytes());
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use montage::EsysConfig;
    use pmem::{PmemConfig, PmemPool};

    fn backends() -> Vec<KvBackend> {
        let pool = PmemPool::new(PmemConfig::default());
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        vec![
            KvBackend::Dram,
            KvBackend::Nvm(Ralloc::format(pool)),
            KvBackend::Montage(esys),
        ]
    }

    #[test]
    fn get_set_delete_all_backends() {
        for backend in backends() {
            let kv = KvStore::new(backend, 4, 1000);
            let tid = kv.register_thread();
            kv.set(tid, make_key(1), b"hello");
            assert_eq!(kv.get(tid, &make_key(1), |v| v.to_vec()).unwrap(), b"hello");
            kv.set(tid, make_key(1), b"world");
            assert_eq!(kv.get(tid, &make_key(1), |v| v.to_vec()).unwrap(), b"world");
            assert!(kv.delete(tid, &make_key(1)));
            assert!(kv.get(tid, &make_key(1), |_| ()).is_none());
            assert!(!kv.delete(tid, &make_key(1)));
        }
    }

    #[test]
    fn value_resize_works_all_backends() {
        for backend in backends() {
            let kv = KvStore::new(backend, 2, 100);
            let tid = kv.register_thread();
            kv.set(tid, make_key(9), b"short");
            kv.set(tid, make_key(9), &vec![7u8; 500]);
            assert_eq!(kv.get(tid, &make_key(9), |v| v.len()).unwrap(), 500);
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        for backend in backends() {
            let kv = KvStore::new(backend, 1, 3);
            let tid = kv.register_thread();
            kv.set(tid, make_key(1), b"a");
            kv.set(tid, make_key(2), b"b");
            kv.set(tid, make_key(3), b"c");
            kv.get(tid, &make_key(1), |_| ()); // touch 1 → 2 is now LRU
            kv.set(tid, make_key(4), b"d");
            assert_eq!(kv.evictions(), 1);
            assert!(
                kv.get(tid, &make_key(2), |_| ()).is_none(),
                "LRU victim is 2"
            );
            assert!(kv.get(tid, &make_key(1), |_| ()).is_some());
            assert_eq!(kv.len(), 3);
        }
    }

    /// The store's expected contents: live values, LRU order (least
    /// recently used first) and the keys evicted or deleted since.
    struct Model {
        cap: usize,
        version: u8,
        live: BTreeMap<u64, Vec<u8>>,
        lru: Vec<u64>,
        gone: BTreeSet<u64>,
    }

    impl Model {
        fn set(&mut self, kv: &KvStore, tid: usize, i: u64, len: usize) {
            self.version += 1;
            let value = vec![self.version; len];
            kv.set(tid, make_key(i), &value);
            self.lru.retain(|&k| k != i);
            if !self.live.contains_key(&i) && self.live.len() == self.cap {
                let victim = self.lru.remove(0);
                self.live.remove(&victim);
                self.gone.insert(victim);
            }
            self.lru.push(i);
            self.gone.remove(&i);
            self.live.insert(i, value);
        }

        fn delete(&mut self, kv: &KvStore, tid: usize, i: u64) {
            assert_eq!(kv.delete(tid, &make_key(i)), self.live.remove(&i).is_some());
            self.lru.retain(|&k| k != i);
            self.gone.insert(i);
        }
    }

    #[test]
    fn montage_resizes_and_evictions_recover_each_key_once() {
        // One stripe, so the model's LRU order is the store's.
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        let kv = KvStore::new(KvBackend::Montage(esys.clone()), 1, 6);
        let tid = kv.register_thread();
        let mut m = Model {
            cap: 6,
            version: 0,
            live: BTreeMap::new(),
            lru: Vec::new(),
            gone: BTreeSet::new(),
        };
        for i in 0..6 {
            m.set(&kv, tid, i, 8);
        }
        // Different-length overwrites in the epoch that created the items.
        let e0 = esys.curr_epoch();
        m.set(&kv, tid, 1, 40);
        m.set(&kv, tid, 1, 3);
        m.set(&kv, tid, 2, 100);
        assert_eq!(esys.curr_epoch(), e0);
        // Resizes of older payloads, then a second resize in the new epoch.
        esys.advance_epoch();
        m.set(&kv, tid, 3, 50);
        m.set(&kv, tid, 3, 9);
        m.set(&kv, tid, 2, 8);
        // Inserts at capacity evict 0, 4 and 5; then 1 is resized and 3, a
        // key resized across the boundary, is evicted.
        for i in 6..9 {
            m.set(&kv, tid, i, 8);
        }
        m.set(&kv, tid, 1, 64);
        m.set(&kv, tid, 9, 8);
        m.delete(&kv, tid, 6);
        m.delete(&kv, tid, 42);
        esys.advance_epoch();
        m.set(&kv, tid, 2, 20);
        m.set(&kv, tid, 10, 8);
        m.set(&kv, tid, 11, 8);
        assert_eq!(kv.len(), m.live.len());
        assert_eq!(kv.evictions(), 5);
        esys.sync();

        let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 2);
        let mut recovered: Vec<Key> = rec
            .shards
            .iter()
            .flatten()
            .filter(|item| item.tag == KV_TAG)
            .map(|item| rec.with_bytes(item, |b| b[..KEY_BYTES].try_into().unwrap()))
            .collect();
        recovered.sort();
        let mut expected: Vec<Key> = m.live.keys().map(|&i| make_key(i)).collect();
        expected.sort();
        assert_eq!(recovered, expected, "each live key recovers exactly once");
        let kv2 = KvStore::recover(rec.esys.clone(), 1, 6, &rec);
        let tid2 = kv2.register_thread();
        assert_eq!(kv2.len(), m.live.len());
        for (i, value) in &m.live {
            assert_eq!(
                kv2.get(tid2, &make_key(*i), |v| v.to_vec()).as_ref(),
                Some(value),
                "key {i}"
            );
        }
        for i in &m.gone {
            assert!(kv2.get(tid2, &make_key(*i), |_| ()).is_none(), "key {i}");
        }
    }

    #[test]
    fn update_applies_decision_atomically_all_backends() {
        for backend in backends() {
            let kv = Arc::new(KvStore::new(backend, 4, 1000));
            let tid = kv.register_thread();
            kv.set(tid, make_key(1), b"0");
            let mut handles = vec![];
            for _ in 0..4 {
                let kv = kv.clone();
                handles.push(std::thread::spawn(move || {
                    let tid = kv.register_thread();
                    for _ in 0..100 {
                        let reply = kv.update(tid, &make_key(1), |cur| {
                            let v: u64 =
                                std::str::from_utf8(cur.unwrap()).unwrap().parse().unwrap();
                            let next = (v + 1).to_string();
                            (
                                DetectedWrite::Upsert(next.clone().into_bytes()),
                                next.into_bytes(),
                            )
                        });
                        assert!(!reply.is_empty());
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                kv.get(tid, &make_key(1), |v| v.to_vec()).unwrap(),
                b"400",
                "racing read-modify-writes must not lose updates"
            );
            // Keep leaves the value alone, Delete removes it.
            let r = kv.update(tid, &make_key(1), |_| {
                (DetectedWrite::Keep, b"kept".to_vec())
            });
            assert_eq!(r, b"kept");
            kv.update(tid, &make_key(1), |_| (DetectedWrite::Delete, vec![]));
            assert!(kv.get(tid, &make_key(1), |_| ()).is_none());
        }
    }

    #[test]
    fn detected_sessions_race_without_store_wide_serialization() {
        // Distinct sessions mutating distinct keys only contend on stripe
        // locks; racing them end-to-end still yields per-session exactly-once
        // counts and one descriptor each.
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        let kv = Arc::new(KvStore::new(KvBackend::Montage(esys), 4, 1000));
        let mut handles = vec![];
        for sid in 0..4u64 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let tid = kv.register_thread();
                let key = make_key(sid);
                for rid in 1..=50u64 {
                    let out = kv.detected_update(tid, sid, rid, 7, &key, |cur| {
                        let v: u64 = cur
                            .map(|b| std::str::from_utf8(b).unwrap().parse().unwrap())
                            .unwrap_or(0);
                        let next = (v + 1).to_string().into_bytes();
                        (DetectedWrite::Upsert(next.clone()), next)
                    });
                    // A fresh rid always applies; a blind retry replays.
                    assert!(matches!(out, DetectOutcome::Applied(_)));
                    let retry = kv.detected_update(tid, sid, rid, 7, &key, |_| {
                        panic!("retry must not re-run the decision")
                    });
                    assert!(matches!(retry, DetectOutcome::Replayed(_)));
                }
                kv.unregister_thread(tid);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let tid = kv.register_thread();
        for sid in 0..4u64 {
            assert_eq!(
                kv.get(tid, &make_key(sid), |v| v.to_vec()).unwrap(),
                b"50",
                "session {sid} lost updates"
            );
            assert_eq!(kv.session_descriptor(sid).unwrap().0, 50);
        }
        let stats = kv.detect_stats();
        assert_eq!(stats.descriptors, 4);
        assert_eq!(stats.dedupe_hits, 200);
    }

    #[test]
    fn montage_backend_recovers_after_crash() {
        let esys = EpochSys::format(
            PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
            EsysConfig::default(),
        );
        let kv = KvStore::new(KvBackend::Montage(esys.clone()), 4, 1000);
        let tid = kv.register_thread();
        for i in 0..50 {
            kv.set(tid, make_key(i), format!("v{i}").as_bytes());
        }
        kv.delete(tid, &make_key(7));
        kv.set(tid, make_key(8), b"updated");
        esys.sync();
        let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 2);
        let kv2 = KvStore::recover(rec.esys.clone(), 4, 1000, &rec);
        let tid2 = kv2.register_thread();
        assert_eq!(kv2.len(), 49);
        assert!(kv2.get(tid2, &make_key(7), |_| ()).is_none());
        assert_eq!(
            kv2.get(tid2, &make_key(8), |v| v.to_vec()).unwrap(),
            b"updated"
        );
        assert_eq!(
            kv2.get(tid2, &make_key(33), |v| v.to_vec()).unwrap(),
            b"v33"
        );
    }

    #[test]
    fn concurrent_ycsb_like_traffic() {
        let kv = Arc::new(KvStore::new(KvBackend::Dram, 8, 100_000));
        for i in 0..1000 {
            kv.set(0, make_key(i), &[0u8; 64]);
        }
        let mut handles = vec![];
        for t in 0..4u64 {
            let kv = kv.clone();
            handles.push(std::thread::spawn(move || {
                let mut hits = 0;
                for i in 0..5000u64 {
                    let k = make_key((i * 7 + t * 13) % 1000);
                    if i % 2 == 0 {
                        if kv.get(0, &k, |_| ()).is_some() {
                            hits += 1;
                        }
                    } else {
                        kv.set(0, k, &[1u8; 64]);
                    }
                }
                hits
            }));
        }
        let hits: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(hits > 0);
        assert_eq!(kv.len(), 1000);
    }
}
