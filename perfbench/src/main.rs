//! `perfbench`: the repository's benchmark.
//!
//! Drives the memcached wire protocol over loopback against a 4-shard
//! Montage `ShardedKvStore` served by `kvserver`, from two closed-loop
//! connections in this process, each keeping a window of 16 requests
//! outstanding. Every reply is checked; after the timed phase the server is
//! stopped, the store dropped and recovered from its pools, and every key
//! must hold its last acked version.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload durable-write --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! wire phase once for its counters, then the traced ladder (see
//! [`ladder`]), and prints the per-layer metrics. The last line of
//! standard output is one JSON object; the exit code is 0 only when every
//! check passed. See `perfbench/README.md` for what each metric measures.

mod codec;
mod deploy;
mod ladder;
mod oracle;
mod reply;
mod stats;
mod trace;
mod wire;
mod workload;

use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvstore::protocol::Session;
use kvstore::{KvStore, ShardedKvStore};
use pmem::{LatencyModel, PmemPool};

use codec::Codec;
use deploy::{CAPACITY, SHARDS, STRIPES};
use oracle::{key_text, parse_key, Issued};
use reply::{parse, Expect, Reply};
use stats::{Counters, Histogram};
use workload::{Op, Spec, CONNS, OPS_PER_CONN};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Recoveries per timed run; `recover_s` is their median.
const RECOVERIES: usize = 9;
/// Load before the timed phase starts, not measured.
const WARMUP: Duration = Duration::from_millis(1000);
/// Threads sweeping each pool during recovery.
const SWEEP_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports: its metrics, its request accounting and anything
/// that made it incorrect.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    problems: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.problems.push(format!("{name} is {value}"));
        }
    }

    /// A latency percentile in µs, reported with its sample count. Too few
    /// samples beyond it makes the run incorrect: the metric is missing.
    fn percentile(&mut self, name: &str, latency_ns: &Histogram, q: f64) {
        match latency_ns.percentile(q) {
            Some(ns) => {
                println!("{name}_samples {}", latency_ns.len());
                self.metric(name, ns as f64 / 1000.0, "us");
            }
            None => self.problems.push(format!(
                "{name}: {} samples leave fewer than {} beyond it",
                latency_ns.len(),
                stats::MIN_TAIL
            )),
        }
    }

    fn absorb(&mut self, failed: u64, errors: Vec<String>) {
        self.failed += failed;
        self.errors.extend(errors);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A store served on loopback with clients connected: everything set-up
/// builds.
struct Live {
    pools: Vec<PmemPool>,
    store: Arc<ShardedKvStore>,
    advancer: montage::Advancer,
    server: kvserver::ServerHandle,
    conns: Vec<TcpStream>,
}

impl Live {
    /// Pool format, preload through the store, advancer and server start,
    /// client connects and session attaches.
    fn start(spec: &Spec, codec: &Codec) -> std::io::Result<Live> {
        let pools = deploy::pools(spec, spec.records as usize, LatencyModel::OPTANE);
        let store = deploy::format(&pools);
        let advancer = deploy::advancer(&store);
        let keys: Vec<u32> = (1..=spec.records).collect();
        deploy::preload_protocol(&store, &keys, codec);
        let server = deploy::start_server(spec, &store);
        let conns = (0..CONNS)
            .map(|c| deploy::connect(&server, spec.sessions.then_some(c as u64 + 1)))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Live {
            pools,
            store,
            advancer,
            server,
            conns,
        })
    }

    /// Stops the server (its shutdown syncs every shard) and the advancer,
    /// syncs once more and drops the store, leaving only its pools.
    fn stop(self) -> Vec<PmemPool> {
        drop(self.conns);
        self.server.shutdown();
        self.advancer.stop();
        deploy::sync_all(&self.store);
        drop(self.store);
        self.pools
    }
}

/// The wire phase and what was read around it.
struct Served {
    setup_s: Vec<f64>,
    timed_s: f64,
    completed: u64,
    /// Latency in ns per verb class.
    latency_ns: [Histogram; 3],
    server_before: Counters,
    server_after: Counters,
    store_before: Counters,
    store_after: Counters,
    rss_mb: f64,
    acked: Vec<u32>,
    pools: Vec<PmemPool>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Sets up `setups` times (keeping the last), then runs the timed phase.
fn serve(
    spec: &Spec,
    codec: &Codec,
    streams: &[Vec<Op>],
    seconds: u64,
    setups: usize,
    report: &mut Report,
) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..setups {
        if let Some(old) = live.take() {
            old.stop();
        }
        let t = Instant::now();
        live = Some(Live::start(spec, codec).map_err(|e| format!("set-up: {e}"))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    let issued = Issued::new(spec.records);
    let timed_start = Instant::now() + WARMUP;
    let phase = wire::Phase {
        timed_start,
        end: timed_start + Duration::from_secs(seconds),
    };
    let conns = std::mem::take(&mut live.conns);
    let (outcomes, reads) = std::thread::scope(|s| {
        let conns: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(index, stream)| {
                let conn = wire::Conn {
                    index,
                    spec,
                    ops: &streams[index],
                    codec,
                    issued: &issued,
                    with_rids: spec.sessions,
                };
                (conn, stream)
            })
            .collect();
        let client = s.spawn(move || wire::run(conns, phase));
        sleep_until(phase.timed_start);
        let before = (
            deploy::server_stats(&live.server),
            deploy::store_counters(&live.store),
        );
        sleep_until(phase.end);
        let after = (
            deploy::server_stats(&live.server),
            deploy::store_counters(&live.store),
        );
        let rss = deploy::rss_mb();
        let outcomes = client.join().expect("client thread panicked");
        (outcomes, (before, after, rss))
    });
    let ((server_before, store_before), (server_after, store_after), rss_mb) = reads;
    let server_before = server_before.map_err(|e| format!("stats: {e}"))?;
    let server_after = server_after.map_err(|e| format!("stats: {e}"))?;

    let mut acked = vec![0u32; spec.records as usize + 1];
    let mut latency_ns: [Histogram; 3] = Default::default();
    let mut completed = 0;
    for o in outcomes {
        report.attempted += o.attempted;
        report.absorb(o.failed, o.errors);
        completed += o.completed;
        for (all, mine) in latency_ns.iter_mut().zip(&o.latency_ns) {
            all.merge(mine);
        }
        for (k, v) in o.acked {
            acked[k as usize] = v;
        }
    }
    Ok(Served {
        setup_s,
        timed_s: seconds as f64,
        completed,
        latency_ns,
        server_before,
        server_after,
        store_before,
        store_after,
        rss_mb,
        acked,
        pools: live.stop(),
    })
}

/// After the restart every key must hold its last acked version.
fn restart_check(
    store: &Arc<ShardedKvStore>,
    spec: &Spec,
    codec: &Codec,
    acked: &[u32],
    report: &mut Report,
) {
    let session = Session::sharded(store.clone(), Arc::new(store.lease()));
    let mut failed = 0;
    let mut errors = Vec::new();
    for k in 1..=spec.records {
        let mut reply = session
            .execute(&format!("get {}", key_text(k)), b"")
            .into_bytes();
        reply.extend_from_slice(b"\r\n");
        let got = match parse(&reply, Expect::Values) {
            Ok(Some((Reply::Values(rows), _))) => match rows[..] {
                [(key, value)] if parse_key(key) == Some(k) => codec
                    .decode(value)
                    .map_err(|e| e.to_string())
                    .and_then(|(id, v)| {
                        if id == k {
                            Ok(v)
                        } else {
                            Err(format!("value of {id}"))
                        }
                    }),
                _ => Err(format!("{} rows", rows.len())),
            },
            _ => Err(String::from_utf8_lossy(&reply).into_owned()),
        };
        match got {
            Ok(v) if v == acked[k as usize] => {}
            other => {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(format!(
                        "after restart {}: {other:?}, last acked version {}",
                        key_text(k),
                        acked[k as usize]
                    ));
                }
            }
        }
    }
    report.attempted += u64::from(spec.records);
    report.absorb(failed, errors);
}

/// The end-to-end metrics of one timed run.
fn timed(
    spec: &Spec,
    codec: &Codec,
    streams: &[Vec<Op>],
    seconds: u64,
    report: &mut Report,
) -> Result<(), String> {
    let served = serve(spec, codec, streams, seconds, SETUPS, report)?;

    let mut recover_s = Vec::new();
    for round in 0..RECOVERIES {
        let t = Instant::now();
        let (store, rec) = ShardedKvStore::recover(
            served.pools.clone(),
            deploy::esys_config(),
            STRIPES,
            CAPACITY,
            SWEEP_THREADS,
        );
        recover_s.push(t.elapsed().as_secs_f64());
        if rec.fatal_shards() > 0 || rec.quarantined() > 0 {
            report.problems.push(format!(
                "recovery: {} fatal shards, {} quarantined payloads",
                rec.fatal_shards(),
                rec.quarantined()
            ));
        }
        if round == 0 {
            restart_check(&store, spec, codec, &served.acked, report);
        }
    }

    report.metric(
        "throughput_ops_s",
        served.completed as f64 / served.timed_s,
        "1/s",
    );
    let [get, set, scan] = &served.latency_ns;
    let read = if scan.len() == 0 { get } else { scan };
    report.percentile("read_p50_us", read, 0.50);
    report.percentile("set_p50_us", set, 0.50);
    // Every verb's tail, where the workload issues the verb: printed with
    // its sample count, not gated (see README.md).
    for (verb, samples) in [("get", get), ("set", set), ("scan", scan)] {
        for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            if let Some(ns) = samples.percentile(q) {
                println!(
                    "{verb}_{tag}_us {} us (n={})",
                    ns as f64 / 1000.0,
                    samples.len()
                );
            }
        }
    }
    println!(
        "error_rate {} (failed {} of {} attempted)",
        ratio(report.failed, report.attempted),
        report.failed,
        report.attempted
    );
    report.metric("setup_s", median(served.setup_s.clone()), "s");
    report.metric("recover_s", median(recover_s), "s");
    let user_bytes = u64::from(spec.records) * (key_text(1).len() + spec.value_len) as u64;
    report.metric(
        "nvm_bytes_per_user_byte",
        ratio(
            served.store_after["ralloc_sbs_carved"] * ralloc::SB_SIZE as u64,
            user_bytes,
        ),
        "B/B",
    );
    report.metric("rss_mb", served.rss_mb, "MiB");
    Ok(())
}

/// The per-layer metrics: counters around one wire phase, the recovery
/// split by layer, and the traced ladder.
fn traced(
    spec: &Spec,
    codec: &Codec,
    streams: &[Vec<Op>],
    args: &Args,
    report: &mut Report,
) -> Result<(), String> {
    let served = serve(spec, codec, streams, args.seconds, 1, report)?;
    let d = stats::diff(&served.server_before, &served.server_after)?;
    let sd = stats::diff(&served.store_before, &served.store_after)?;
    let after = &served.store_after;
    let requests = d["gc_batched_requests"];
    report.metric(
        "kvserver.batch.requests_per_batch",
        ratio(requests, d["gc_batches"]),
        "req",
    );
    report.metric(
        "kvserver.batch.fences_per_op",
        ratio(d["gc_fences"], requests),
        "ratio",
    );
    report.metric(
        "kvserver.batch.acks_per_fence",
        ratio(d["gc_acks"], d["gc_fences"]),
        "ratio",
    );
    report.metric(
        "kvserver.batch.fence_timeouts",
        d["gc_fence_timeouts"] as f64,
        "count",
    );
    for q in ["fence_p50_us", "fence_p99_us"] {
        let v = stats::fence_quantile(&served.server_before, &served.server_after, q);
        report.metric(&format!("kvserver.batch.{q}"), v.unwrap_or(0) as f64, "us");
    }
    let per_op = |name: &str| ratio(sd[name], requests);
    report.metric(
        "montage.esys.sets_in_place_per_op",
        per_op("esys_sets_in_place"),
        "ratio",
    );
    report.metric(
        "montage.esys.sets_copied_per_op",
        per_op("esys_sets_copied"),
        "ratio",
    );
    report.metric(
        "montage.esys.advances_per_s",
        sd["esys_advances"] as f64 / served.timed_s,
        "1/s",
    );
    report.metric(
        "montage.esys.coalesce_ratio",
        ratio(
            sd["esys_flushes_coalesced"],
            sd["esys_flushes_coalesced"] + sd["pmem_clwbs"],
        ),
        "ratio",
    );
    report.metric(
        "montage.esys.durable_lag_epochs",
        after["esys_durable_lag_epoch"] as f64 / SHARDS as f64,
        "epochs",
    );
    report.metric("ralloc.deallocs_per_op", per_op("ralloc_deallocs"), "ratio");
    report.metric(
        "ralloc.superblocks",
        after["ralloc_sbs_carved"] as f64,
        "count",
    );
    report.metric(
        "pmem.lines_per_fence",
        ratio(sd["pmem_lines_drained"], sd["pmem_sfences"]),
        "lines",
    );
    report.metric(
        "kvstore.session_table.descriptors",
        after["detect_descriptors"] as f64,
        "count",
    );
    report.metric(
        "kvstore.session_table.bytes",
        after["detect_table_bytes"] as f64,
        "bytes",
    );
    report.metric(
        "kvstore.session_table.dedupe_hits",
        sd["detect_dedupe_hits"] as f64,
        "count",
    );
    report.metric(
        "kvstore.store.ordered_mirror_bytes",
        after["store_ordered_mirror_bytes"] as f64,
        "bytes",
    );

    // Recovery, split into the epoch system's sweep and the index rebuild.
    let (mut sweep_s, mut index_s, mut survivors, mut quarantined) = (0.0, 0.0, 0, 0);
    let mut shards = Vec::new();
    for pool in served.pools {
        let cap = CAPACITY / SHARDS;
        let t = Instant::now();
        let rec = montage::try_recover(pool, deploy::esys_config(), SWEEP_THREADS)
            .map_err(|e| format!("recovery: {e}"))?;
        sweep_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let store = KvStore::recover(rec.esys.clone(), STRIPES, cap, &rec);
        index_s += t.elapsed().as_secs_f64();
        survivors += rec.report.survivors;
        quarantined += rec.report.quarantined.len();
        shards.push(Arc::new(store));
    }
    restart_check(
        &ShardedKvStore::from_shards(shards),
        spec,
        codec,
        &served.acked,
        report,
    );
    report.metric("montage.recovery.sweep_s", sweep_s, "s");
    report.metric("kvstore.recover.index_s", index_s, "s");
    report.metric("montage.recovery.survivors", survivors as f64, "count");
    report.metric("montage.recovery.quarantined", quarantined as f64, "count");
    if quarantined > 0 {
        report
            .problems
            .push(format!("recovery quarantined {quarantined} payloads"));
    }

    ladder_metrics(
        spec,
        codec,
        streams,
        args,
        ratio(d["gc_fences"], requests),
        report,
    )
}

fn ladder_metrics(
    spec: &Spec,
    codec: &Codec,
    streams: &[Vec<Op>],
    args: &Args,
    wire_fences_per_op: f64,
    report: &mut Report,
) -> Result<(), String> {
    // The two connections' streams interleaved, as the server sees them.
    let ops: Vec<Op> = (0..spec.ladder_ops)
        .map(|i| streams[i % CONNS][i / CONNS])
        .collect();
    let keys = spec.keys_touched(&ops);
    let mut tracer = trace::Tracer::new();
    let mut ladder = ladder::Ladder {
        spec,
        ops: &ops,
        keys: &keys,
        codec,
        failed: 0,
        errors: Vec::new(),
    };
    let optane = ladder.run(&mut tracer, "optane", LatencyModel::OPTANE, true);
    let dram = ladder.run(&mut tracer, "dram", LatencyModel::DRAM, false);
    report.attempted += (ops.len() * (optane.len() + dram.len())) as u64;
    report.absorb(ladder.failed, std::mem::take(&mut ladder.errors));

    let n = ops.len() as f64;
    let us_per_op =
        |rung: &str, model: &str| tracer.summary(rung, model).top_ns as f64 / n / 1000.0;
    let layers = [
        "montage.esys",
        "kvstore.store",
        "kvstore.sharded",
        "kvstore.protocol",
        "kvserver.frame",
    ];
    for (model, suffix) in [("optane", ""), ("dram", "cpu_")] {
        let rungs: Vec<f64> = ladder::RUNGS.iter().map(|r| us_per_op(r, model)).collect();
        let mut below = 0.0;
        let mut sum = 0.0;
        for (layer, &cost) in layers.iter().zip(&rungs) {
            report.metric(
                &format!("{layer}.self_{suffix}us_per_op"),
                cost - below,
                "us",
            );
            sum += cost - below;
            below = cost;
        }
        let wire = rungs[5];
        report.metric(
            &format!("kvserver.io.{suffix}us_per_op"),
            wire - below,
            "us",
        );
        report.metric(&format!("ladder.wire_{suffix}us_per_op"), wire, "us");
        println!(
            "ladder {model}: self times {:.3} + io {:.3} = {:.3} us/op; wire rung {wire:.3} us/op",
            sum,
            wire - below,
            sum + wire - below
        );
    }
    // Device time is taken on the frame rung, the top rung in process:
    // the sockets add no device time, only noise to the difference.
    let wire = us_per_op("kvserver.wire", "optane");
    let device = us_per_op("kvserver.frame", "optane") - us_per_op("kvserver.frame", "dram");
    report.metric("pmem.device_us_per_op", device, "us");
    report.metric(
        "trace.overhead_us_per_op",
        wire - us_per_op(ladder::UNTRACED_WIRE, "optane"),
        "us",
    );

    let rung = |name: &str| {
        optane
            .iter()
            .find(|(r, _)| *r == name)
            .map(|(_, s)| s)
            .expect("every rung runs")
    };
    let reads = ops.iter().filter(|op| !matches!(op, Op::Set(_))).count() as u64;
    let esys = tracer.summary("montage.esys", "optane");
    report.metric(
        "montage.esys.write_ns",
        esys.mean_ns("montage.esys.write"),
        "ns",
    );
    report.metric(
        "montage.esys.sync_us",
        esys.mean_ns("montage.esys.sync") / 1000.0,
        "us",
    );
    let store = tracer.summary("kvstore.store", "optane");
    let store_read_ns = store.total_ns("kvstore.store.get") + store.total_ns("kvstore.store.scan");
    report.metric("kvstore.store.read_ns", ratio(store_read_ns, reads), "ns");
    report.metric(
        "kvstore.store.set_ns",
        store.mean_ns("kvstore.store.set"),
        "ns",
    );
    report.metric(
        "kvstore.store.read_ns_per_row_returned",
        ratio(store_read_ns, rung("kvstore.store").rows),
        "ns",
    );
    let sharded = tracer.summary("kvstore.sharded", "optane");
    let sharded_read_ns =
        sharded.total_ns("kvstore.sharded.get") + sharded.total_ns("kvstore.sharded.scan");
    report.metric(
        "kvstore.sharded.read_ns",
        ratio(sharded_read_ns, reads),
        "ns",
    );
    report.metric(
        "kvstore.sharded.set_ns",
        sharded.mean_ns("kvstore.sharded.set"),
        "ns",
    );
    report.metric(
        "kvstore.sharded.sync_shard_us",
        sharded.mean_ns("kvstore.sharded.sync_shard") / 1000.0,
        "us",
    );
    let s = rung("kvstore.sharded");
    report.metric(
        "kvstore.sharded.shards_per_group_fence",
        ratio(s.pinned_shards, s.pinned_windows),
        "shards",
    );
    let protocol = tracer.summary("kvstore.protocol", "optane");
    report.metric(
        "kvstore.protocol.ns_per_op",
        protocol.mean_ns("kvstore.protocol"),
        "ns",
    );
    let f = rung("kvserver.frame");
    let frame = tracer.summary("kvserver.frame", "optane");
    report.metric(
        "kvserver.frame.ns_per_req",
        ratio(frame.total_ns("kvserver.frame"), f.frame_requests),
        "ns",
    );
    report.metric(
        "kvserver.frame.bytes_per_req",
        ratio(f.frame_bytes, f.frame_requests),
        "bytes",
    );

    // Single-client counts: the same op stream under either latency model
    // must do exactly the same persistence work.
    let counts = s.counts.expect("the sharded rung counts");
    let dram_counts = dram
        .iter()
        .find(|(r, _)| *r == "kvstore.sharded")
        .and_then(|(_, s)| s.counts);
    println!("ladder counts {counts:?}");
    if dram_counts != Some(counts) {
        report.problems.push(format!(
            "ladder counts differ between two replays of one stream: {counts:?} vs {dram_counts:?}"
        ));
    }
    let ops_n = ops.len() as u64;
    report.metric("pmem.clwbs_per_op", ratio(counts.clwbs, ops_n), "ratio");
    report.metric("pmem.sfences_per_op", ratio(counts.sfences, ops_n), "ratio");
    report.metric(
        "montage.esys.pnews_per_op",
        ratio(counts.pnews, ops_n),
        "ratio",
    );
    report.metric("ralloc.allocs_per_op", ratio(counts.allocs, ops_n), "ratio");

    // What each workload was built to show, reported rather than enforced:
    // durable-write is device-bound, read-mostly never fences.
    match spec.name {
        "durable-write" => println!(
            "prediction: device time {:.1}% of the wire per-op cost (expected >= 25%)",
            100.0 * device / wire
        ),
        "read-mostly" => {
            println!("prediction: {wire_fences_per_op} group fences per op (expected < 0.01)")
        }
        _ => {}
    }

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    let path = dir
        .join("perfbench-traces")
        .join(format!("{}-seed{}.tsv", spec.name, args.seed));
    match tracer.write(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workload::WORKLOADS.map(|s| s.name)
        );
        return ExitCode::from(2);
    };
    let codec = Codec::new(spec.value_len);
    let streams: Vec<Vec<Op>> = (0..CONNS)
        .map(|c| spec.ops(args.seed, c, OPS_PER_CONN))
        .collect();
    println!(
        "workload {} seed {} op_stream_digest {:016x} ({} ops per connection)",
        spec.name,
        args.seed,
        workload::digest(&streams),
        OPS_PER_CONN
    );

    let mut report = Report::default();
    let run = if args.trace {
        traced(&spec, &codec, &streams, &args, &mut report)
    } else {
        timed(&spec, &codec, &streams, args.seconds, &mut report)
    };
    if let Err(e) = run {
        report.problems.push(e);
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for e in report.errors.iter().chain(&report.problems) {
        eprintln!("perfbench: {e}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
