//! The three workloads and their seeded op streams.

use workloads::ycsb::{YcsbOp, YcsbWorkload};

use crate::codec::{fnv1a, splitmix64};
use crate::oracle::key_text;

/// Client connections of the timed phase; also the number of key owners.
pub const CONNS: usize = 2;
/// Requests each connection keeps outstanding.
pub const WINDOW: usize = 16;
/// Ops generated per connection before timing starts; a connection that
/// runs through its stream starts it again.
pub const OPS_PER_CONN: usize = 1 << 19;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u32),
    Set(u32),
    /// `scan k<lo> k<lo+span-1> <limit>`.
    Scan(u32),
}

#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// YCSB over zipfian keys, reading with probability `read_permille`.
    Ycsb { read_permille: u32 },
    /// First-page scans over uniformly placed ranges, plus uniform sets.
    ScanPage {
        scan_permille: u32,
        span: u32,
        limit: usize,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub records: u32,
    pub value_len: usize,
    pub mix: Mix,
    /// The server's `sync_every`: `Some(1)` makes every set's reply its
    /// durable ack.
    pub sync_every: Option<u64>,
    /// Whether connections attach durable sessions and stamp sets with
    /// request ids.
    pub sessions: bool,
    /// Ops the traced ladder replays through each rung.
    pub ladder_ops: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "durable-write",
        records: 100_000,
        value_len: 4096,
        mix: Mix::Ycsb { read_permille: 500 },
        sync_every: Some(1),
        sessions: true,
        ladder_ops: 12_000,
    },
    Spec {
        name: "read-mostly",
        records: 100_000,
        value_len: 64,
        mix: Mix::Ycsb { read_permille: 950 },
        sync_every: None,
        sessions: false,
        ladder_ops: 60_000,
    },
    Spec {
        name: "scan-page",
        records: 100_000,
        value_len: 64,
        mix: Mix::ScanPage {
            scan_permille: 900,
            span: 1000,
            limit: 100,
        },
        sync_every: None,
        sessions: false,
        ladder_ops: 1_500,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// The connection that writes `key`.
    pub fn owner(key: u32) -> usize {
        (key as usize - 1) % CONNS
    }

    /// `key` moved to the nearest key `conn` owns, so that every key has
    /// exactly one writer.
    fn owned(key: u32, conn: usize) -> u32 {
        key - Self::owner(key) as u32 + conn as u32
    }

    pub fn scan_hi(&self, lo: u32) -> u32 {
        match self.mix {
            Mix::ScanPage { span, .. } => lo + span - 1,
            Mix::Ycsb { .. } => lo,
        }
    }

    pub fn scan_limit(&self) -> usize {
        match self.mix {
            Mix::ScanPage { limit, .. } => limit,
            Mix::Ycsb { .. } => 0,
        }
    }

    /// Connection `conn`'s op stream for `seed`: `n` ops, a pure function
    /// of its arguments.
    pub fn ops(&self, seed: u64, conn: usize, n: usize) -> Vec<Op> {
        assert_eq!(self.records as usize % CONNS, 0);
        let mut state = seed ^ (conn as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
        let stream_seed = splitmix64(&mut state);
        match self.mix {
            Mix::Ycsb { read_permille } => {
                YcsbWorkload::with_mix(self.records as u64, n as u64, stream_seed, read_permille)
                    .map(|op| match op {
                        YcsbOp::Read(k) => Op::Get(k as u32),
                        YcsbOp::Update(k) => Op::Set(Self::owned(k as u32, conn)),
                    })
                    .collect()
            }
            Mix::ScanPage {
                scan_permille,
                span,
                ..
            } => (0..n)
                .map(|_| {
                    let roll = splitmix64(&mut state) % 1000;
                    if roll < u64::from(scan_permille) {
                        let starts = u64::from(self.records - span + 1);
                        Op::Scan(1 + (splitmix64(&mut state) % starts) as u32)
                    } else {
                        let key = 1 + (splitmix64(&mut state) % u64::from(self.records)) as u32;
                        Op::Set(Self::owned(key, conn))
                    }
                })
                .collect(),
        }
    }

    /// The keys a stream reads or writes, scanned ranges included, sorted.
    pub fn keys_touched(&self, ops: &[Op]) -> Vec<u32> {
        let mut keys: Vec<u32> = Vec::new();
        for op in ops {
            match *op {
                Op::Get(k) | Op::Set(k) => keys.push(k),
                Op::Scan(lo) => keys.extend(lo..=self.scan_hi(lo).min(self.records)),
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The command line of `op`'s request, without its line ending. `rid`
    /// is a set's request id, when the connection has a session.
    pub fn request_line(&self, op: Op, rid: Option<u64>, value_len: usize) -> String {
        match op {
            Op::Get(k) => format!("get {}", key_text(k)),
            Op::Set(k) => match rid {
                Some(rid) => format!("set {} 0 0 {value_len} rid={rid}", key_text(k)),
                None => format!("set {} 0 0 {value_len}", key_text(k)),
            },
            Op::Scan(lo) => format!(
                "scan {} {} {}",
                key_text(lo),
                key_text(self.scan_hi(lo)),
                self.scan_limit()
            ),
        }
    }

    /// Appends the wire request for `op` to `out`; a set writes `version`.
    pub fn encode_request(
        &self,
        op: Op,
        version: u32,
        rid: Option<u64>,
        codec: &crate::codec::Codec,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(self.request_line(op, rid, codec.len()).as_bytes());
        out.extend_from_slice(b"\r\n");
        if let Op::Set(k) = op {
            codec.encode_into(k, version, out);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// A digest of op streams, printed so that two runs can show they replayed
/// the same inputs.
pub fn digest(streams: &[Vec<Op>]) -> u64 {
    let mut bytes = Vec::with_capacity(streams.iter().map(Vec::len).sum::<usize>() * 5);
    for ops in streams {
        for op in ops {
            let (tag, key) = match *op {
                Op::Get(k) => (b'g', k),
                Op::Set(k) => (b's', k),
                Op::Scan(k) => (b'r', k),
            };
            bytes.push(tag);
            bytes.extend_from_slice(&key.to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_respect_ownership() {
        for spec in WORKLOADS {
            let a = spec.ops(7, 0, 4000);
            assert_eq!(a, spec.ops(7, 0, 4000));
            assert_ne!(
                digest(std::slice::from_ref(&a)),
                digest(&[spec.ops(8, 0, 4000)])
            );
            for conn in 0..CONNS {
                for op in spec.ops(7, conn, 4000) {
                    match op {
                        Op::Set(k) => {
                            assert_eq!(Spec::owner(k), conn);
                            assert!((1..=spec.records).contains(&k));
                        }
                        Op::Get(k) => assert!((1..=spec.records).contains(&k)),
                        Op::Scan(lo) => assert!(spec.scan_hi(lo) <= spec.records),
                    }
                }
            }
        }
    }
}
