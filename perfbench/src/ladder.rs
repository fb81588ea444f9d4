//! The traced ladder: a prefix of the workload's op stream replayed on one
//! thread through each layer's public entry point in turn, from the epoch
//! system up to the socket. Each rung runs on fresh pools holding the keys
//! the prefix touches, with no background advancer, so epochs advance only
//! through the replay's own syncs and its counts repeat exactly. A layer's
//! self time is the difference between its rung and the one below.
//!
//! The rungs below the wire replay the stream in windows of [`WINDOW`]
//! requests, as one connection's window reaches the server. Where the
//! workload fences each set (`sync_every`), they sync the shards a window
//! wrote after the window, as the server's group commit does. Every rung
//! ends with one sync of every shard.

use std::io::{Read, Write};
use std::sync::Arc;

use kvserver::{Request, RequestReader};
use kvstore::protocol::Session;
use kvstore::{DetectedWrite, ShardRouter, ShardedKvStore};
use montage::{EpochSys, PHandle};
use pmem::LatencyModel;

use crate::codec::Codec;
use crate::deploy::{self, SHARDS};
use crate::oracle::{check_scan, expected_scan, key_text, parse_key, store_key};
use crate::reply::{parse, Expect, Reply};
use crate::trace::Tracer;
use crate::workload::{Op, Spec, CONNS, WINDOW};

/// Rungs from the bottom up.
pub const RUNGS: [&str; 6] = [
    "montage.esys",
    "kvstore.store",
    "kvstore.sharded",
    "kvstore.protocol",
    "kvserver.frame",
    "kvserver.wire",
];
/// The wire rung again, with one span for the whole replay and none per
/// request: the traced wire rung minus this one is what tracing costs.
pub const UNTRACED_WIRE: &str = "kvserver.wire.untraced";

/// Requests the wire rung keeps in flight: as many as the timed phase's
/// connections together. With only one window in flight the server
/// answers all of it in one batch and then waits for the client; on some
/// runs that wait outlasted the worker's idle spins and it slept 1 ms per
/// window, making the rung's cost bimodal.
const IN_FLIGHT: usize = CONNS * WINDOW;
/// The session id the ladder's single client writes under.
const SID: u64 = 1;
/// `op_kind` the protocol records for a `set`.
const OP_SET: u8 = 1;
const MAX_VALUE: usize = 1 << 20;

/// Counts of persistence work that a single-threaded replay repeats exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub clwbs: u64,
    pub sfences: u64,
    pub pnews: u64,
    pub allocs: u64,
}

impl Counts {
    fn read(store: &ShardedKvStore) -> Counts {
        let c = deploy::store_counters(store);
        Counts {
            clwbs: c["pmem_clwbs"],
            sfences: c["pmem_sfences"],
            pnews: c["esys_pnews"],
            allocs: c["ralloc_allocs"],
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            clwbs: self.clwbs - before.clwbs,
            sfences: self.sfences - before.sfences,
            pnews: self.pnews - before.pnews,
            allocs: self.allocs - before.allocs,
        }
    }
}

/// What a rung did besides its spans.
#[derive(Default)]
pub struct RungStats {
    /// Rows handed back by the rung's read calls.
    pub rows: u64,
    /// Windows that pinned at least one shard, and the shards they pinned.
    pub pinned_windows: u64,
    pub pinned_shards: u64,
    /// Request bytes framed, and requests they held.
    pub frame_bytes: u64,
    pub frame_requests: u64,
    /// Persistence counts over the replay (the sharded rung only).
    pub counts: Option<Counts>,
}

pub struct Ladder<'a> {
    pub spec: &'a Spec,
    pub ops: &'a [Op],
    pub keys: &'a [u32],
    pub codec: &'a Codec,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Per-key versions and request ids as the replay assigns them; every rung
/// starts again from the preloaded version 0.
struct Writer {
    versions: Vec<u32>,
    rid: u64,
    value: Vec<u8>,
}

impl Writer {
    fn new(records: u32) -> Writer {
        Writer {
            versions: vec![0; records as usize + 1],
            rid: 0,
            value: Vec::new(),
        }
    }

    /// Bumps `k`'s version and encodes the value a set of it writes.
    fn next(&mut self, k: u32, codec: &Codec) -> (u32, u64) {
        self.versions[k as usize] += 1;
        self.rid += 1;
        let v = self.versions[k as usize];
        self.value.clear();
        codec.encode_into(k, v, &mut self.value);
        (v, self.rid)
    }
}

impl Ladder<'_> {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    fn durable(&self) -> bool {
        self.spec.sync_every.is_some()
    }

    fn rid(&self, rid: u64) -> Option<u64> {
        self.spec.sessions.then_some(rid)
    }

    /// Checks a value read for key `k`.
    fn check_value(&mut self, k: u32, value: Option<&[u8]>) {
        match value.map(|v| self.codec.decode(v)) {
            Some(Ok((id, _))) if id == k => {}
            Some(Ok((id, _))) => self.fail(format!("ladder get {}: value of {id}", key_text(k))),
            Some(Err(e)) => self.fail(format!("ladder get {}: {e}", key_text(k))),
            None => self.fail(format!("ladder get {}: missing", key_text(k))),
        }
    }

    /// Checks a scan's `(key text, value)` rows against the oracle.
    fn check_scan_rows(&mut self, lo: u32, rows: &[(&[u8], &[u8])]) {
        let spec = self.spec;
        let limit = spec.scan_limit();
        if let Err(e) = check_scan(rows, lo, spec.scan_hi(lo), limit, spec.records, self.codec) {
            self.fail(format!("ladder {e}"));
        }
    }

    /// Checks a scan's rows as the store returns them: padded keys.
    fn check_rows(&mut self, lo: u32, rows: &[(kvstore::Key, Vec<u8>)]) {
        let pairs: Vec<(&[u8], &[u8])> = rows
            .iter()
            .map(|(k, v)| {
                let end = k.iter().position(|&b| b == 0).unwrap_or(k.len());
                (&k[..end], v.as_slice())
            })
            .collect();
        self.check_scan_rows(lo, &pairs);
    }

    /// Checks a protocol reply (without its final line ending).
    fn check_reply(&mut self, op: Op, reply: &[u8]) {
        let expect = match op {
            Op::Set(_) => Expect::Stored,
            _ => Expect::Values,
        };
        let mut framed = reply.to_vec();
        framed.extend_from_slice(b"\r\n");
        match parse(&framed, expect) {
            Ok(Some((Reply::Stored, _))) => {}
            Ok(Some((Reply::Values(rows), _))) => match op {
                Op::Get(k) => {
                    let value = match rows[..] {
                        [(key, value)] if parse_key(key) == Some(k) => Some(value.to_vec()),
                        _ => None,
                    };
                    self.check_value(k, value.as_deref());
                }
                Op::Scan(lo) => self.check_scan_rows(lo, &rows),
                Op::Set(_) => unreachable!("sets expect STORED"),
            },
            Ok(Some((Reply::Error(line), _))) => {
                self.fail(format!("ladder {op:?}: {}", String::from_utf8_lossy(line)))
            }
            Ok(None) | Err(_) => self.fail(format!(
                "ladder {op:?}: bad reply {:?}",
                String::from_utf8_lossy(reply)
            )),
        }
    }

    /// Replays through every rung under `latency`, recording spans under
    /// `model`. `untraced_wire` adds the window-timed wire replay.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        model: &'static str,
        latency: LatencyModel,
        untraced_wire: bool,
    ) -> Vec<(&'static str, RungStats)> {
        let mut out = Vec::new();
        for rung in RUNGS {
            tr.enter(rung, model);
            let stats = match rung {
                "montage.esys" => self.esys(tr, latency),
                "kvstore.store" => self.store(tr, latency),
                "kvstore.sharded" => self.sharded(tr, latency),
                "kvstore.protocol" => self.protocol(tr, latency, false),
                "kvserver.frame" => self.protocol(tr, latency, true),
                _ => self.wire(tr, latency, true),
            };
            out.push((rung, stats));
        }
        if untraced_wire {
            tr.enter(UNTRACED_WIRE, model);
            out.push((UNTRACED_WIRE, self.wire(tr, latency, false)));
        }
        out
    }

    /// Rung 0: payloads written and read through `EpochSys` directly, one
    /// epoch system per shard, items laid out as the store lays them out.
    fn esys(&mut self, tr: &mut Tracer, latency: LatencyModel) -> RungStats {
        let pools = deploy::pools(self.spec, self.keys.len(), latency);
        let esyses: Vec<Arc<EpochSys>> = pools
            .iter()
            .map(|p| EpochSys::format(p.clone(), deploy::esys_config()))
            .collect();
        let tids: Vec<_> = esyses.iter().map(|e| e.register_thread()).collect();
        let router = ShardRouter::new(SHARDS);
        let mut handles: Vec<Option<PHandle<[u8]>>> = vec![None; self.spec.records as usize + 1];
        for &k in self.keys {
            let s = router.route(&store_key(k));
            let g = esyses[s].begin_op(tids[s]);
            let mut item = store_key(k).to_vec();
            self.codec.encode_into(k, 0, &mut item);
            handles[k as usize] = Some(esyses[s].pnew_bytes(&g, kvstore::KV_TAG, &item));
        }
        esyses.iter().for_each(|e| e.sync());

        let mut stats = RungStats::default();
        let mut w = Writer::new(self.spec.records);
        let mut descriptors: Vec<Option<PHandle<[u8]>>> = vec![None; SHARDS];
        let mut buf: Vec<u8> = Vec::new();
        for (wi, window) in self.ops.chunks(WINDOW).enumerate() {
            let mut touched = [false; SHARDS];
            for (j, &op) in window.iter().enumerate() {
                let i = (wi * WINDOW + j) as u32;
                match op {
                    Op::Get(k) => {
                        let s = router.route(&store_key(k));
                        let (e, h) = (&esyses[s], handles[k as usize].expect("preloaded"));
                        buf.clear();
                        tr.time("montage.esys.read", i, || {
                            e.peek_bytes_unsafe(h, |b| {
                                e.pool().media_read(b.len());
                                buf.extend_from_slice(&b[32..]);
                            })
                        });
                        stats.rows += 1;
                        self.check_value(k, Some(&buf));
                    }
                    Op::Set(k) => {
                        let s = router.route(&store_key(k));
                        let (_, rid) = w.next(k, self.codec);
                        let desc = self.spec.sessions.then(|| {
                            kvstore::session_table::encode_descriptor(SID, rid, OP_SET, b"STORED")
                        });
                        let (e, tid) = (&esyses[s], tids[s]);
                        let slot = &mut handles[k as usize];
                        let d = &mut descriptors[s];
                        let value = &w.value;
                        tr.time("montage.esys.write", i, || {
                            let g = e.begin_op(tid);
                            let h = slot.expect("preloaded");
                            *slot = Some(
                                e.set_bytes(&g, h, |b| b[32..].copy_from_slice(value))
                                    .expect("single writer"),
                            );
                            if let Some(desc) = desc {
                                *d = Some(match *d {
                                    Some(h) => e
                                        .set_bytes(&g, h, |b| b.copy_from_slice(&desc))
                                        .expect("single writer"),
                                    None => e.pnew_bytes(&g, kvstore::SESSION_TAG, &desc),
                                });
                            }
                        });
                        touched[s] = true;
                    }
                    Op::Scan(lo) => {
                        let hi = self.spec.scan_hi(lo);
                        let range =
                            expected_scan(lo, hi, self.spec.scan_limit(), self.spec.records);
                        let rows = tr.time("montage.esys.read", i, || {
                            range
                                .map(|k| {
                                    let s = router.route(&store_key(k));
                                    let h = handles[k as usize].expect("preloaded");
                                    let e = &esyses[s];
                                    let v = e.peek_bytes_unsafe(h, |b| {
                                        e.pool().media_read(b.len());
                                        b[32..].to_vec()
                                    });
                                    (store_key(k), v)
                                })
                                .collect::<Vec<_>>()
                        });
                        stats.rows += rows.len() as u64;
                        self.check_rows(lo, &rows);
                    }
                }
            }
            if self.durable() {
                let last = (wi * WINDOW + window.len() - 1) as u32;
                for s in (0..SHARDS).filter(|&s| touched[s]) {
                    tr.time("montage.esys.sync", last, || esyses[s].sync());
                }
            }
        }
        for e in &esyses {
            tr.time("montage.esys.sync", self.ops.len() as u32, || e.sync());
        }
        for (e, tid) in esyses.iter().zip(tids) {
            e.unregister_thread(tid);
        }
        stats
    }

    /// Rung 1: each shard's `KvStore` called directly. Scans call every
    /// shard's store and leave the merge to the rung above.
    fn store(&mut self, tr: &mut Tracer, latency: LatencyModel) -> RungStats {
        let pools = deploy::pools(self.spec, self.keys.len(), latency);
        let sharded = deploy::format(&pools);
        deploy::preload_raw(&sharded, self.keys, self.codec);
        let shards = sharded.shards();
        let tids: Vec<usize> = shards.iter().map(|s| s.register_thread()).collect();

        let mut stats = RungStats::default();
        let mut w = Writer::new(self.spec.records);
        let mut buf: Vec<u8> = Vec::new();
        for (wi, window) in self.ops.chunks(WINDOW).enumerate() {
            let mut touched = [false; SHARDS];
            for (j, &op) in window.iter().enumerate() {
                let i = (wi * WINDOW + j) as u32;
                match op {
                    Op::Get(k) => {
                        let key = store_key(k);
                        let s = sharded.shard_of(&key);
                        buf.clear();
                        let hit = tr.time("kvstore.store.get", i, || {
                            shards[s].get(tids[s], &key, |v| buf.extend_from_slice(v))
                        });
                        stats.rows += u64::from(hit.is_some());
                        self.check_value(k, hit.map(|_| &buf[..]));
                    }
                    Op::Set(k) => {
                        let key = store_key(k);
                        let s = sharded.shard_of(&key);
                        let (_, rid) = w.next(k, self.codec);
                        let value = &w.value;
                        if self.spec.sessions {
                            tr.time("kvstore.store.set", i, || {
                                shards[s].detected_update(tids[s], SID, rid, OP_SET, &key, |_| {
                                    (DetectedWrite::Upsert(value.clone()), b"STORED".to_vec())
                                })
                            });
                        } else {
                            tr.time("kvstore.store.set", i, || {
                                shards[s].set(tids[s], key, value)
                            });
                        }
                        touched[s] = true;
                    }
                    Op::Scan(lo) => {
                        let (lo_key, hi_key) = (store_key(lo), store_key(self.spec.scan_hi(lo)));
                        let limit = self.spec.scan_limit();
                        let mut rows = Vec::new();
                        for shard in shards {
                            rows.extend(tr.time("kvstore.store.scan", i, || {
                                shard.scan(&lo_key, &hi_key, limit)
                            }));
                        }
                        stats.rows += rows.len() as u64;
                        rows.sort_by_key(|r| r.0);
                        rows.truncate(limit);
                        self.check_rows(lo, &rows);
                    }
                }
            }
            if self.durable() {
                let last = (wi * WINDOW + window.len() - 1) as u32;
                for s in (0..SHARDS).filter(|&s| touched[s]) {
                    let esys = shards[s].esys().expect("Montage shard");
                    tr.time("montage.esys.sync", last, || esys.sync());
                }
            }
        }
        for shard in shards {
            let esys = shard.esys().expect("Montage shard");
            tr.time("montage.esys.sync", self.ops.len() as u32, || esys.sync());
        }
        for (shard, tid) in shards.iter().zip(tids) {
            shard.unregister_thread(tid);
        }
        stats
    }

    /// Rung 2: `ShardedKvStore`, with each window's mutations pinned in
    /// one `StoreBatch` and the touched shards fenced after `finish`.
    fn sharded(&mut self, tr: &mut Tracer, latency: LatencyModel) -> RungStats {
        let pools = deploy::pools(self.spec, self.keys.len(), latency);
        let store = deploy::format(&pools);
        deploy::preload_raw(&store, self.keys, self.codec);
        let lease = store.lease();
        let before = Counts::read(&store);

        let mut stats = RungStats::default();
        let mut w = Writer::new(self.spec.records);
        let mut buf: Vec<u8> = Vec::new();
        for (wi, window) in self.ops.chunks(WINDOW).enumerate() {
            let mut sb = store.batch(&lease);
            for (j, &op) in window.iter().enumerate() {
                let i = (wi * WINDOW + j) as u32;
                match op {
                    Op::Get(k) => {
                        buf.clear();
                        let key = store_key(k);
                        let hit = tr.time("kvstore.sharded.get", i, || {
                            store.get(&key, |v| buf.extend_from_slice(v))
                        });
                        stats.rows += u64::from(hit.is_some());
                        self.check_value(k, hit.map(|_| &buf[..]));
                    }
                    Op::Set(k) => {
                        let key = store_key(k);
                        let text = key_text(k);
                        let (_, rid) = w.next(k, self.codec);
                        let value = &w.value;
                        let sessions = self.spec.sessions;
                        let lease = &lease;
                        let store = &store;
                        let sb = &mut sb;
                        let r = tr.time("kvstore.sharded.set", i, || {
                            sb.pin_key(text.as_bytes())?;
                            if sessions {
                                store
                                    .detected(lease, SID, rid, OP_SET, &key, |_| {
                                        (DetectedWrite::Upsert(value.clone()), b"STORED".to_vec())
                                    })
                                    .map(drop)
                            } else {
                                store.set(lease, key, value)
                            }
                        });
                        if let Err(e) = r {
                            self.fail(format!("ladder set {text}: {e}"));
                        }
                    }
                    Op::Scan(lo) => {
                        let (lo_key, hi_key) = (store_key(lo), store_key(self.spec.scan_hi(lo)));
                        let limit = self.spec.scan_limit();
                        let rows = tr.time("kvstore.sharded.scan", i, || {
                            store.scan(&lo_key, &hi_key, limit)
                        });
                        stats.rows += rows.len() as u64;
                        self.check_rows(lo, &rows);
                    }
                }
            }
            let last = (wi * WINDOW + window.len() - 1) as u32;
            self.finish_window(tr, &store, &mut sb, last, &mut stats);
        }
        self.close_store(tr, &store);
        stats.counts = Some(Counts::read(&store).since(before));
        stats
    }

    /// Ends a window as the server's group commit does: drop the pins,
    /// then fence the shards they covered when the workload fences.
    fn finish_window(
        &mut self,
        tr: &mut Tracer,
        store: &ShardedKvStore,
        sb: &mut kvstore::StoreBatch<'_>,
        last: u32,
        stats: &mut RungStats,
    ) {
        let touched = tr.time("kvstore.sharded.finish", last, || sb.finish());
        if !touched.is_empty() {
            stats.pinned_windows += 1;
            stats.pinned_shards += touched.len() as u64;
        }
        if self.durable() {
            for s in touched {
                if let Err(e) = tr.time("kvstore.sharded.sync_shard", last, || store.sync_shard(s))
                {
                    self.fail(format!("ladder sync of shard {s}: {e}"));
                }
            }
        }
    }

    fn close_store(&mut self, tr: &mut Tracer, store: &ShardedKvStore) {
        for s in 0..store.n_shards() {
            let r = tr.time("kvstore.sharded.sync_shard", self.ops.len() as u32, || {
                store.sync_shard(s)
            });
            if let Err(e) = r {
                self.fail(format!("ladder sync of shard {s}: {e}"));
            }
        }
    }

    /// Rungs 3 and 4: `Session::execute_with` under the sharded rung's
    /// window discipline; with `framed`, each window's request bytes first
    /// pass through `RequestReader::feed` / `next_request`.
    fn protocol(&mut self, tr: &mut Tracer, latency: LatencyModel, framed: bool) -> RungStats {
        let pools = deploy::pools(self.spec, self.keys.len(), latency);
        let store = deploy::format(&pools);
        deploy::preload_protocol(&store, self.keys, self.codec);
        let lease = Arc::new(store.lease());
        let session = Session::sharded(store.clone(), lease.clone());
        let sid = self.spec.sessions.then_some(SID);
        let mut reader = RequestReader::new(MAX_VALUE);

        let mut stats = RungStats::default();
        let mut w = Writer::new(self.spec.records);
        for (wi, window) in self.ops.chunks(WINDOW).enumerate() {
            let first = (wi * WINDOW) as u32;
            // The requests as a client would send them; building them is
            // the client's work, outside every span.
            let mut requests: Vec<(String, Vec<u8>)> = window
                .iter()
                .map(|&op| {
                    let rid = match op {
                        Op::Set(k) => Some(w.next(k, self.codec).1),
                        _ => None,
                    };
                    let line =
                        self.spec
                            .request_line(op, rid.and_then(|r| self.rid(r)), self.codec.len());
                    let data = if matches!(op, Op::Set(_)) {
                        w.value.clone()
                    } else {
                        Vec::new()
                    };
                    (line, data)
                })
                .collect();
            if framed {
                let mut bytes = Vec::new();
                for (line, data) in &requests {
                    bytes.extend_from_slice(line.as_bytes());
                    bytes.extend_from_slice(b"\r\n");
                    if !data.is_empty() {
                        bytes.extend_from_slice(data);
                        bytes.extend_from_slice(b"\r\n");
                    }
                }
                let framed_reqs = tr.time("kvserver.frame", first, || {
                    reader.feed(&bytes);
                    std::iter::from_fn(|| reader.next_request()).collect::<Vec<_>>()
                });
                stats.frame_bytes += bytes.len() as u64;
                stats.frame_requests += framed_reqs.len() as u64;
                let parsed: Vec<(String, Vec<u8>)> = framed_reqs
                    .into_iter()
                    .filter_map(|r| match r {
                        Request::Cmd { line, data, .. } => Some((line, data)),
                        _ => None,
                    })
                    .collect();
                if parsed.len() != requests.len() {
                    self.fail(format!(
                        "ladder framing: {} requests from a window of {}",
                        parsed.len(),
                        requests.len()
                    ));
                }
                requests = parsed;
            }
            let mut sb = store.batch(&lease);
            for (j, ((line, data), &op)) in requests.iter().zip(window).enumerate() {
                let i = first + j as u32;
                let sb = &mut sb;
                let session = &session;
                let reply = tr.time("kvstore.protocol", i, || {
                    if let Op::Set(_) = op {
                        let key = line.split_whitespace().nth(1).unwrap_or("");
                        let _ = sb.pin_key(key.as_bytes());
                    }
                    session.execute_with(line, data, sid)
                });
                self.check_reply(op, reply.as_bytes());
            }
            let last = first + window.len() as u32 - 1;
            self.finish_window(tr, &store, &mut sb, last, &mut stats);
        }
        self.close_store(tr, &store);
        stats
    }

    /// Rung 5: a server on loopback and one connection that keeps
    /// [`IN_FLIGHT`] requests in flight, sending the next as each reply
    /// arrives. The server batches whatever has arrived, so this rung's
    /// fences need not match the windows of the rungs below; that
    /// difference is part of `kvserver.io`. `traced` adds one span per
    /// request, from its write to the parse of its reply.
    fn wire(&mut self, tr: &mut Tracer, latency: LatencyModel, traced: bool) -> RungStats {
        let pools = deploy::pools(self.spec, self.keys.len(), latency);
        let store = deploy::format(&pools);
        deploy::preload_protocol(&store, self.keys, self.codec);
        let server = deploy::start_server(self.spec, &store);
        let sid = self.spec.sessions.then_some(SID);
        let mut stream = match deploy::connect(&server, sid) {
            Ok(s) => s,
            Err(e) => {
                self.fail(format!("ladder connect: {e}"));
                server.shutdown();
                return RungStats::default();
            }
        };

        // Every request is encoded before the replay and every reply checked
        // after it, so the client between two requests only parses and
        // writes.
        let mut w = Writer::new(self.spec.records);
        let requests: Vec<Vec<u8>> = self
            .ops
            .iter()
            .map(|&op| {
                let (version, rid) = match op {
                    Op::Set(k) => {
                        let (v, r) = w.next(k, self.codec);
                        (v, self.rid(r))
                    }
                    _ => (0, None),
                };
                let mut bytes = Vec::new();
                self.spec
                    .encode_request(op, version, rid, self.codec, &mut bytes);
                bytes
            })
            .collect();
        let mut chunk = vec![0u8; 128 << 10];
        // Every reply of the replay, and where each one ends.
        let mut replies: Vec<u8> = Vec::new();
        let mut ends: Vec<usize> = Vec::with_capacity(self.ops.len());
        // Send times of the requests in flight, oldest first.
        let mut sent: std::collections::VecDeque<u64> = Default::default();
        let mut out = Vec::new();
        let replay = tr.open("kvserver.wire.replay", 0);
        'replay: while ends.len() < self.ops.len() {
            let next = ends.len() + sent.len();
            let refill = (IN_FLIGHT - sent.len()).min(self.ops.len() - next);
            if refill > 0 {
                out.clear();
                requests[next..next + refill]
                    .iter()
                    .for_each(|r| out.extend_from_slice(r));
                let now = tr.now_ns();
                sent.extend(std::iter::repeat_n(now, refill));
                if let Err(e) = stream.write_all(&out) {
                    self.fail(format!("ladder write: {e}"));
                    break;
                }
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => {
                    self.fail("ladder: server closed".into());
                    break;
                }
                Ok(n) => n,
                Err(e) => {
                    self.fail(format!("ladder read: {e}"));
                    break;
                }
            };
            replies.extend_from_slice(&chunk[..n]);
            while let Some(&start) = sent.front() {
                let used = ends.last().copied().unwrap_or(0);
                let expect = match self.ops[ends.len()] {
                    Op::Set(_) => Expect::Stored,
                    _ => Expect::Values,
                };
                match parse(&replies[used..], expect) {
                    Ok(Some((_, n))) => {
                        ends.push(used + n);
                        sent.pop_front();
                        if traced {
                            let op = (ends.len() - 1) as u32;
                            tr.record("kvserver.wire.request", op, replay, start);
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        self.fail(format!("ladder reply: {e}"));
                        break 'replay;
                    }
                }
            }
        }
        tr.close(replay);
        let mut from = 0;
        for (&op, &end) in self.ops.iter().zip(&ends) {
            // Without the reply's final line ending, as the protocol
            // returns it.
            let reply = replies[from..end - 2].to_vec();
            from = end;
            self.check_reply(op, &reply);
        }
        let sync = tr.time("kvserver.wire.sync", self.ops.len() as u32, || {
            stream.write_all(b"sync\r\n")?;
            let mut got = [0u8; 8];
            stream.read_exact(&mut got)?;
            Ok::<_, std::io::Error>(got)
        });
        match sync {
            Ok(got) if &got == b"SYNCED\r\n" => {}
            other => self.fail(format!("ladder sync: {other:?}")),
        }
        drop(stream);
        server.shutdown();
        RungStats::default()
    }
}
