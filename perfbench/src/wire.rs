//! The timed load: closed-loop connections, each keeping a window of
//! requests outstanding, all driven from one thread, with every reply
//! checked against the oracle.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::codec::Codec;
use crate::oracle::{check_scan, key_text, parse_key, Issued, Seen};
use crate::reply::{parse, Expect, Reply};
use crate::stats::Histogram;
use crate::workload::{Op, Spec, WINDOW};

/// Failure messages kept for the report; the rest are only counted.
const KEEP_ERRORS: usize = 5;

/// Verb classes latency is kept for.
pub const GET: usize = 0;
pub const SET: usize = 1;
pub const SCAN: usize = 2;

pub fn verb(op: Op) -> usize {
    match op {
        Op::Get(_) => GET,
        Op::Set(_) => SET,
        Op::Scan(_) => SCAN,
    }
}

/// When the connection starts warming up, when timing starts, when it ends.
#[derive(Clone, Copy)]
pub struct Phase {
    pub timed_start: Instant,
    pub end: Instant,
}

#[derive(Default)]
pub struct Outcome {
    /// Latency in ns per verb class, for requests sent and answered inside
    /// the timed phase.
    pub latency_ns: [Histogram; 3],
    /// Replies parsed inside the timed phase.
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The last acked version of every key this connection owns.
    pub acked: Vec<(u32, u32)>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(msg);
        }
    }
}

struct Pending {
    op: Op,
    version: u32,
    sent: Instant,
}

pub struct Conn<'a> {
    pub index: usize,
    pub spec: &'a Spec,
    pub ops: &'a [Op],
    pub codec: &'a Codec,
    pub issued: &'a Issued,
    pub with_rids: bool,
}

/// A connection's side of the closed loop.
struct Loop<'a> {
    conn: Conn<'a>,
    stream: TcpStream,
    out: Outcome,
    seen: Seen,
    versions: Vec<u32>,
    pending: VecDeque<Pending>,
    /// Request bytes not yet accepted by the socket, from `wpos`.
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    cursor: usize,
    rid: u64,
    last_progress: Instant,
    dead: bool,
}

/// A connection with requests outstanding and no byte moved for this long
/// has timed out.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Drives every connection from the calling thread until `phase.end`, then
/// drains what is in flight. The thread polls nonblocking sockets and spins
/// between polls, so the load generator holds one core and the server's
/// threads the other; with a blocking thread per connection the scheduler
/// placed the threads differently from run to run, and read-mostly
/// throughput spread twice as wide.
pub fn run(conns: Vec<(Conn<'_>, TcpStream)>, phase: Phase) -> Vec<Outcome> {
    let mut loops: Vec<Loop<'_>> = conns
        .into_iter()
        .map(|(conn, stream)| {
            let records = conn.spec.records;
            let dead = stream.set_nonblocking(true).is_err();
            Loop {
                stream,
                out: Outcome::default(),
                seen: Seen::new(records),
                versions: vec![0; records as usize + 1],
                pending: VecDeque::with_capacity(WINDOW),
                wbuf: Vec::with_capacity(WINDOW * (conn.codec.len() + 64)),
                wpos: 0,
                rbuf: Vec::with_capacity(256 << 10),
                cursor: 0,
                rid: 0,
                last_progress: Instant::now(),
                dead,
                conn,
            }
        })
        .collect();
    for l in loops.iter_mut().filter(|l| l.dead) {
        l.abandon("socket cannot be made nonblocking".into());
    }
    let mut chunk = vec![0u8; 128 << 10];
    loop {
        let mut progressed = false;
        let mut busy = false;
        for l in loops.iter_mut().filter(|l| !l.dead) {
            progressed |= l.step(phase, &mut chunk);
            busy |= !l.pending.is_empty();
        }
        if !busy && Instant::now() >= phase.end {
            break;
        }
        if !progressed {
            std::hint::spin_loop();
        }
    }
    loops
        .into_iter()
        .map(|mut l| {
            if l.out.acked.is_empty() {
                l.out.acked = l.acked();
            }
            l.out
        })
        .collect()
}

impl Loop<'_> {
    /// Refills the window, writes, reads and checks what arrived. Returns
    /// whether anything moved.
    fn step(&mut self, phase: Phase, chunk: &mut [u8]) -> bool {
        let mut progressed = false;
        let now = Instant::now();
        if now < phase.end && self.pending.len() < WINDOW {
            self.fill(now);
            progressed = true;
        }
        if self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(n) => {
                    self.wpos += n;
                    progressed |= n > 0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return self.abandon(format!("write: {e}")),
            }
            if self.wpos == self.wbuf.len() {
                self.wbuf.clear();
                self.wpos = 0;
            }
        }
        match self.stream.read(chunk) {
            Ok(0) => return self.abandon("server closed".into()),
            Ok(n) => {
                self.rbuf.extend_from_slice(&chunk[..n]);
                progressed = true;
                if let Err(e) = self.take_replies(phase) {
                    return self.abandon(e);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) => return self.abandon(format!("read: {e}")),
        }
        if progressed || self.pending.is_empty() {
            self.last_progress = now;
        } else if now - self.last_progress > TIMEOUT {
            return self.abandon(format!("no reply for {TIMEOUT:?}"));
        }
        progressed
    }

    /// Tops the window up with the next ops of the stream.
    fn fill(&mut self, now: Instant) {
        let first = self.pending.len();
        while self.pending.len() < WINDOW {
            let ops = self.conn.ops;
            let op = ops[self.cursor % ops.len()];
            self.cursor += 1;
            let mut version = 0;
            let mut rid = None;
            if let Op::Set(k) = op {
                self.versions[k as usize] += 1;
                version = self.versions[k as usize];
                self.conn.issued.publish(k, version);
                if self.conn.with_rids {
                    self.rid += 1;
                    rid = Some(self.rid);
                }
            }
            self.conn
                .spec
                .encode_request(op, version, rid, self.conn.codec, &mut self.wbuf);
            self.pending.push_back(Pending {
                op,
                version,
                sent: now,
            });
        }
        self.out.attempted += (self.pending.len() - first) as u64;
    }

    /// Parses and checks every complete reply in the read buffer.
    fn take_replies(&mut self, phase: Phase) -> Result<(), String> {
        let mut used = 0;
        while let Some(p) = self.pending.front() {
            let expect = if matches!(p.op, Op::Set(_)) {
                Expect::Stored
            } else {
                Expect::Values
            };
            let Some((reply, n)) = parse(&self.rbuf[used..], expect)? else {
                break;
            };
            let done = Instant::now();
            let p = self.pending.pop_front().expect("front checked");
            used += n;
            if done >= phase.timed_start && done <= phase.end {
                self.out.completed += 1;
                if p.sent >= phase.timed_start {
                    self.out.latency_ns[verb(p.op)].record((done - p.sent).as_nanos() as u64);
                }
            }
            if let Err(e) = self.conn.check(&p, reply, &mut self.seen) {
                self.out.fail(e);
            }
        }
        self.rbuf.drain(..used);
        Ok(())
    }

    /// The connection is unusable: everything in flight failed. Sets that
    /// were never acked may or may not have landed, so the restart check
    /// holds this connection only to its acked ones.
    fn abandon(&mut self, why: String) -> bool {
        self.out
            .fail(format!("connection {}: {why}", self.conn.index));
        self.out.failed += self.pending.len().saturating_sub(1) as u64;
        let mut acked = self.acked();
        for p in &self.pending {
            if let Op::Set(k) = p.op {
                if let Some(a) = acked.iter_mut().find(|a| a.0 == k) {
                    a.1 = a.1.min(p.version - 1);
                }
            }
        }
        self.out.acked = acked;
        self.pending.clear();
        self.dead = true;
        true
    }

    /// The last version of every key this connection owns.
    fn acked(&self) -> Vec<(u32, u32)> {
        (1..=self.conn.spec.records)
            .filter(|&k| Spec::owner(k) == self.conn.index)
            .map(|k| (k, self.versions[k as usize]))
            .collect()
    }
}

impl Conn<'_> {
    /// Checks one reply against the oracle.
    fn check(&self, p: &Pending, reply: Reply<'_>, seen: &mut Seen) -> Result<(), String> {
        let rows = match reply {
            Reply::Error(line) => {
                return Err(format!("{:?}: {}", p.op, String::from_utf8_lossy(line)))
            }
            Reply::Stored => {
                let Op::Set(k) = p.op else {
                    return Err(format!("{:?}: STORED", p.op));
                };
                return seen.observe(k, p.version, self.issued);
            }
            Reply::Values(rows) => rows,
        };
        match p.op {
            Op::Get(k) => {
                let [(key, value)] = rows[..] else {
                    return Err(format!("get {}: {} rows", key_text(k), rows.len()));
                };
                if parse_key(key) != Some(k) {
                    return Err(format!("get {}: answered for {:?}", key_text(k), key));
                }
                match self.codec.decode(value) {
                    Ok((id, v)) if id == k => seen.observe(k, v, self.issued),
                    Ok((id, _)) => Err(format!("get {}: value of {}", key_text(k), key_text(id))),
                    Err(e) => Err(format!("get {}: {e}", key_text(k))),
                }
            }
            Op::Scan(lo) => {
                let hi = self.spec.scan_hi(lo);
                let got = check_scan(
                    &rows,
                    lo,
                    hi,
                    self.spec.scan_limit(),
                    self.spec.records,
                    self.codec,
                )?;
                got.into_iter()
                    .try_for_each(|(k, v)| seen.observe(k, v, self.issued))
            }
            Op::Set(_) => Err(format!("{:?}: value rows", p.op)),
        }
    }
}
