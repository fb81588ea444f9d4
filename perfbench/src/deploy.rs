//! Standing a store up: pools, format, preload, server start; and the
//! counters read from outside it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use kvserver::{KvServer, ServerConfig, ServerHandle};
use kvstore::protocol::Session;
use kvstore::ShardedKvStore;
use montage::{Advancer, EsysConfig};
use pmem::{LatencyModel, PmemConfig, PmemMode, PmemPool};

use crate::codec::Codec;
use crate::oracle::{key_text, store_key};
use crate::stats::Counters;
use crate::workload::Spec;

pub const SHARDS: usize = 4;
pub const STRIPES: usize = 64;
/// Item capacity: never evict, so every preloaded key stays readable.
pub const CAPACITY: usize = usize::MAX / 2;

pub fn esys_config() -> EsysConfig {
    EsysConfig {
        max_threads: 16,
        ..Default::default()
    }
}

/// Pools sized for `keys` items of the workload's values. The pool image
/// is zeroed up front, so the size is what the process pays in memory:
/// room for every item's allocator block plus headroom for the copies
/// epoch-crossing sets make and the allocator's per-thread caches.
pub fn pools(spec: &Spec, keys: usize, latency: LatencyModel) -> Vec<PmemPool> {
    // Payload header + padded key + protocol metadata + value.
    let item = 32 + 32 + 20 + spec.value_len;
    let block = ralloc::class_size(ralloc::class_for_size(item));
    let per_shard = keys.div_ceil(SHARDS) * block * 5 / 4 + (32 << 20);
    let size = per_shard.next_multiple_of(1 << 20);
    (0..SHARDS)
        .map(|_| {
            PmemPool::new(PmemConfig {
                size,
                mode: PmemMode::Fast,
                latency,
                chaos: Default::default(),
            })
        })
        .collect()
}

pub fn format(pools: &[PmemPool]) -> Arc<ShardedKvStore> {
    ShardedKvStore::format_pools(pools.to_vec(), esys_config(), STRIPES, CAPACITY)
}

pub fn advancer(store: &ShardedKvStore) -> Advancer {
    Advancer::start_group(
        store
            .shards()
            .iter()
            .map(|s| s.esys().expect("Montage shard").clone())
            .collect(),
    )
}

/// Syncs every shard from the calling thread, one after another.
pub fn sync_all(store: &ShardedKvStore) {
    for shard in 0..store.n_shards() {
        store.sync_shard(shard).expect("preload sync");
    }
}

/// Writes version 0 of every key through the protocol layer, so items
/// carry the metadata the server serves them with.
pub fn preload_protocol(store: &Arc<ShardedKvStore>, keys: &[u32], codec: &Codec) {
    let session = Session::sharded(store.clone(), Arc::new(store.lease()));
    let mut value = Vec::with_capacity(codec.len());
    for &k in keys {
        value.clear();
        codec.encode_into(k, 0, &mut value);
        let line = format!("set {} 0 0 {}", key_text(k), codec.len());
        let reply = session.execute(&line, &value);
        assert_eq!(reply, "STORED", "preload of {}", key_text(k));
    }
    drop(session);
    sync_all(store);
}

/// Writes version 0 of every key as raw store values (no protocol
/// metadata), for the rungs below the protocol.
pub fn preload_raw(store: &Arc<ShardedKvStore>, keys: &[u32], codec: &Codec) {
    let lease = store.lease();
    for &k in keys {
        store
            .set(&lease, store_key(k), &codec.encode(k, 0))
            .expect("preload set");
    }
    drop(lease);
    sync_all(store);
}

pub fn start_server(spec: &Spec, store: &Arc<ShardedKvStore>) -> ServerHandle {
    KvServer::start_sharded(
        ServerConfig {
            max_conns: 8,
            sync_every: spec.sync_every,
            ..Default::default()
        },
        store.clone(),
    )
    .expect("bind loopback")
}

/// A client connection; with `sid`, attached to that durable session.
pub fn connect(server: &ServerHandle, sid: Option<u64>) -> std::io::Result<TcpStream> {
    let mut s = TcpStream::connect(server.addr())?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.set_write_timeout(Some(Duration::from_secs(10)))?;
    if let Some(sid) = sid {
        s.write_all(format!("session {sid}\r\n").as_bytes())?;
        let want = format!("SESSION {sid}\r\n");
        let mut got = vec![0u8; want.len()];
        s.read_exact(&mut got)?;
        if got != want.as_bytes() {
            return Err(std::io::Error::other(format!(
                "session attach answered {:?}",
                String::from_utf8_lossy(&got)
            )));
        }
    }
    Ok(s)
}

/// The `stats` verb over its own connection.
pub fn server_stats(server: &ServerHandle) -> std::io::Result<Counters> {
    let mut c = kvserver::WireClient::connect(server.addr())?;
    let lines = c.stats()?;
    c.quit()?;
    Ok(lines.into_iter().collect())
}

/// Counters read in process: pool, epoch system, allocator and session
/// table, summed over shards. Names follow the `stats` convention that
/// `crate::stats::diff` relies on (levels end in `_bytes`, `_epoch`, …).
pub fn store_counters(store: &ShardedKvStore) -> Counters {
    let mut c = Counters::new();
    let mut add = |name: &str, v: u64| *c.entry(name.to_string()).or_default() += v;
    for snap in store.pool_stats_per_shard().into_iter().flatten() {
        add("pmem_clwbs", snap.clwbs);
        add("pmem_sfences", snap.sfences);
        add("pmem_lines_drained", snap.lines_drained);
    }
    for shard in store.shards() {
        let esys = shard.esys().expect("Montage shard");
        let s = esys.stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        add("esys_pnews", load(&s.pnews));
        add("esys_sets_in_place", load(&s.sets_in_place));
        add("esys_sets_copied", load(&s.sets_copied));
        add("esys_advances", load(&s.advances));
        add("esys_flushes_coalesced", load(&s.flushes_coalesced));
        add(
            "esys_durable_lag_epoch",
            esys.curr_epoch().saturating_sub(esys.durable_epoch()),
        );
        let r = esys.allocator().stats();
        add("ralloc_allocs", load(&r.allocs));
        add("ralloc_deallocs", load(&r.deallocs));
        add("ralloc_sbs_carved", load(&r.sbs_carved));
    }
    let d = store.detect_stats_merged();
    add("detect_dedupe_hits", d.dedupe_hits);
    add("detect_descriptors", d.descriptors);
    add("detect_table_bytes", d.table_bytes);
    add(
        "store_ordered_mirror_bytes",
        store.ordered_mirror_bytes() as u64,
    );
    c
}

/// Resident memory of this process, in MiB.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
