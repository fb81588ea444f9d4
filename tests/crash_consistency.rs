//! End-to-end crash-consistency tests: run real workloads on the strict
//! (shadow-image) pool, kill the machine at adversarial points, recover, and
//! check that the recovered abstract state is a **consistent prefix** of the
//! pre-crash history — the definition of buffered durable linearizability.

use std::collections::HashMap;

use montage::{EpochSys, EsysConfig};
use montage_ds::{tags, MontageHashMap, MontageQueue};
use pmem::{ChaosConfig, LatencyModel, PmemConfig, PmemMode, PmemPool};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Key = [u8; 32];

fn key(i: u64) -> Key {
    let mut k = [0u8; 32];
    k[..8].copy_from_slice(&i.to_le_bytes());
    k
}

fn strict_sys() -> std::sync::Arc<EpochSys> {
    EpochSys::format(
        PmemPool::new(PmemConfig::strict_for_test(64 << 20)),
        EsysConfig::default(),
    )
}

/// Oracle model of the map.
#[derive(Clone, PartialEq, Debug, Default)]
struct Model(HashMap<u64, Vec<u8>>);

#[derive(Clone, Copy, Debug)]
enum Op {
    Put(u64, u8),
    Remove(u64),
}

fn apply(model: &mut Model, op: Op) {
    match op {
        Op::Put(k, v) => {
            model.0.insert(k, vec![v; 16]);
        }
        Op::Remove(k) => {
            model.0.remove(&k);
        }
    }
}

fn dump(map: &MontageHashMap<Key>, esys: &EpochSys, keys: u64) -> Model {
    let tid = esys.register_thread();
    let mut m = Model::default();
    for k in 0..keys {
        if let Some(v) = map.get_owned(tid, &key(k)) {
            m.0.insert(k, v);
        }
    }
    m
}

/// Single-threaded: after a crash, the recovered map must equal the model
/// after the first K operations for some K at least as large as the last
/// synced operation.
#[test]
fn map_recovers_a_consistent_prefix() {
    const KEYS: u64 = 40;
    const OPS: usize = 300;
    const SYNC_AT: usize = 150;

    let s = strict_sys();
    let map = MontageHashMap::<Key>::new(s.clone(), tags::HASHMAP, 64);
    let tid = s.register_thread();

    let mut rng = SmallRng::seed_from_u64(42);
    let mut states: Vec<Model> = Vec::with_capacity(OPS + 1);
    let mut model = Model::default();
    states.push(model.clone());
    for i in 0..OPS {
        let op = if rng.gen_bool(0.7) {
            Op::Put(rng.gen_range(0..KEYS), i as u8)
        } else {
            Op::Remove(rng.gen_range(0..KEYS))
        };
        match op {
            Op::Put(k, v) => {
                map.put(tid, key(k), &[v; 16]);
            }
            Op::Remove(k) => {
                map.remove(tid, &key(k));
            }
        }
        apply(&mut model, op);
        states.push(model.clone());
        if i + 1 == SYNC_AT {
            s.sync();
        }
        if i % 37 == 0 {
            s.advance_epoch(); // some background clock movement
        }
    }

    let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
    let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 64, &rec);
    let recovered = dump(&map2, &rec.esys, KEYS);

    let matching: Vec<usize> = (0..=OPS).filter(|&k| states[k] == recovered).collect();
    assert!(
        !matching.is_empty(),
        "recovered state is not any prefix of the history"
    );
    assert!(
        matching.iter().any(|&k| k >= SYNC_AT),
        "recovered state lost synced operations (prefixes matching: {matching:?})"
    );
}

/// Multi-threaded: each thread inserts its own keys in increasing order;
/// recovery must yield a per-thread *prefix* (epochs respect per-thread
/// program order), and everything inserted before the sync must survive.
#[test]
fn multithreaded_inserts_recover_per_thread_prefixes() {
    const PER: u64 = 300;
    const THREADS: u64 = 4;

    let s = strict_sys();
    let map = std::sync::Arc::new(MontageHashMap::<Key>::new(s.clone(), tags::HASHMAP, 512));

    // Phase 1 (synced): first half of each thread's keys.
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            let map = map.clone();
            let s = s.clone();
            sc.spawn(move || {
                let tid = s.register_thread();
                for i in 0..PER / 2 {
                    map.put(tid, key(t * 10_000 + i), &t.to_le_bytes());
                }
            });
        }
    });
    s.sync();
    // Phase 2 (unsynced): the rest, racing with epoch advances.
    std::thread::scope(|sc| {
        for t in 0..THREADS {
            let map = map.clone();
            let s = s.clone();
            sc.spawn(move || {
                let tid = s.register_thread();
                for i in PER / 2..PER {
                    map.put(tid, key(t * 10_000 + i), &t.to_le_bytes());
                }
            });
        }
        for _ in 0..5 {
            s.advance_epoch();
        }
    });

    let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 4);
    let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 512, &rec);
    let tid = rec.esys.register_thread();

    for t in 0..THREADS {
        // Find this thread's recovered prefix length.
        let mut len = 0;
        while len < PER && map2.get_owned(tid, &key(t * 10_000 + len)).is_some() {
            len += 1;
        }
        assert!(
            len >= PER / 2,
            "thread {t}: synced prefix lost (only {len} of {} survived)",
            PER / 2
        );
        // No holes beyond the prefix.
        for i in len..PER {
            assert!(
                map2.get_owned(tid, &key(t * 10_000 + i)).is_none(),
                "thread {t}: key {i} survived beyond a gap at {len} — not a prefix"
            );
        }
    }
}

/// Queue under concurrent producers/consumers + crash: the recovered queue
/// is a contiguous window of sequence numbers with FIFO order.
#[test]
fn queue_recovers_contiguous_window() {
    let s = strict_sys();
    let q = std::sync::Arc::new(MontageQueue::new(s.clone(), tags::QUEUE));

    std::thread::scope(|sc| {
        for t in 0..3u64 {
            let q = q.clone();
            let s = s.clone();
            sc.spawn(move || {
                let tid = s.register_thread();
                for i in 0..200u64 {
                    q.enqueue(tid, &(t * 1000 + i).to_le_bytes());
                    if i % 3 == 0 {
                        q.dequeue(tid);
                    }
                }
            });
        }
        for _ in 0..6 {
            s.advance_epoch();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    });
    s.sync();

    let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 2);
    // `recover` debug-asserts contiguity internally; verify bounds too.
    let q2 = MontageQueue::recover(rec.esys.clone(), tags::QUEUE, &rec);
    let (head, next) = q2.seq_bounds();
    assert_eq!((next - head) as usize, q2.len());
    // Drain in order.
    let tid = rec.esys.register_thread();
    let mut n = 0;
    while q2.dequeue(tid).is_some() {
        n += 1;
    }
    assert_eq!(n, (next - head) as usize);
}

/// With chaos mode, arbitrary unflushed cache lines may ALSO persist (as on
/// real hardware, where dirty lines can be evicted at any time). Recovery
/// must still produce a consistent prefix.
#[test]
fn chaos_evictions_do_not_break_recovery() {
    for permille in [100u16, 500, 900] {
        let pool = PmemPool::new(PmemConfig {
            size: 64 << 20,
            mode: PmemMode::Strict,
            latency: LatencyModel::DRAM,
            chaos: ChaosConfig {
                spontaneous_evict_permille: permille,
                seed: permille as u64,
                ..ChaosConfig::default()
            },
        });
        let s = EpochSys::format(pool, EsysConfig::default());
        let map = MontageHashMap::<Key>::new(s.clone(), tags::HASHMAP, 64);
        let tid = s.register_thread();
        for i in 0..100 {
            map.put(tid, key(i % 20), &[i as u8; 32]);
            if i % 10 == 0 {
                map.remove(tid, &key(i % 20));
            }
        }
        s.sync();
        for i in 0..50 {
            map.put(tid, key(i % 20), &[0xFF; 32]); // unsynced tail
        }
        let rec = montage::recovery::recover(s.pool().crash(), EsysConfig::default(), 1);
        let map2 = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 64, &rec);
        // Structure must be internally consistent and usable.
        let tid2 = rec.esys.register_thread();
        for i in 0..20 {
            let _ = map2.get_owned(tid2, &key(i));
        }
        map2.put(tid2, key(999), b"usable after chaos recovery");
        assert_eq!(
            map2.get_owned(tid2, &key(999)).unwrap(),
            b"usable after chaos recovery"
        );
    }
}

/// Repeated crash/recover cycles (generational survival): each generation
/// adds one synced entry, crashes, and recovers everything so far.
#[test]
fn multiple_crash_generations() {
    let esys = strict_sys();
    let map = MontageHashMap::<Key>::new(esys.clone(), tags::HASHMAP, 64);
    let tid = esys.register_thread();
    map.put(tid, key(0), &0u64.to_le_bytes());
    esys.sync();
    let mut esys = esys;
    for generation in 1..=5u64 {
        let expected = generation;
        let rec = montage::recovery::recover(esys.pool().crash(), EsysConfig::default(), 1);
        let map = MontageHashMap::<Key>::recover(rec.esys.clone(), tags::HASHMAP, 64, &rec);
        assert_eq!(map.len() as u64, expected, "generation {generation}");
        for g in 0..expected {
            assert_eq!(
                map.get_owned(rec.esys.register_thread(), &key(g)).unwrap(),
                g.to_le_bytes()
            );
        }
        let tid = rec.esys.register_thread();
        map.put(tid, key(generation), &generation.to_le_bytes());
        rec.esys.sync();
        esys = rec.esys;
    }
}
