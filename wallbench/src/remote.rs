//! The `rnram` layer probe: a [`RemoteMemory`] decorator that forwards
//! every trait method — the defaulted ones too, so a traced run makes
//! exactly the calls an untraced run makes — and counts, sizes and times
//! each call.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use perseas_rnram::{FlushStats, RemoteMemory, RemoteSegment, RnError, SegmentId};
use perseas_simtime::SimClock;

/// The trait methods the decorator observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Malloc,
    Free,
    Write,
    WriteV,
    Read,
    ReadV,
    Connect,
    Info,
    Flush,
    InFlight,
    VirtualClock,
    NodeName,
}

pub const OPS: [Op; 12] = [
    Op::Malloc,
    Op::Free,
    Op::Write,
    Op::WriteV,
    Op::Read,
    Op::ReadV,
    Op::Connect,
    Op::Info,
    Op::Flush,
    Op::InFlight,
    Op::VirtualClock,
    Op::NodeName,
];

impl Op {
    /// The server's `op` label for the request this call sends over a
    /// synchronous `TcpRemote`, or `None` when the client answers it
    /// locally.
    pub fn server_label(self) -> Option<&'static str> {
        match self {
            Op::Malloc => Some("malloc"),
            Op::Free => Some("free"),
            Op::Write => Some("write"),
            Op::WriteV => Some("write_v"),
            Op::Read => Some("read"),
            Op::ReadV => Some("read_v"),
            Op::Connect => Some("connect"),
            Op::Info => Some("info"),
            Op::Flush | Op::InFlight | Op::VirtualClock | Op::NodeName => None,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Per-op call counts, payload bytes and nanoseconds spent inside the
/// wrapped backend. Shared by every connection of one traced instance,
/// including the ones opened to recover.
#[derive(Debug, Default)]
pub struct OpStats {
    calls: [AtomicU64; 12],
    bytes: [AtomicU64; 12],
    nanos: [AtomicU64; 12],
    /// Sum of `nanos`, kept apart so the engine probe reads it in one load.
    wait_ns: AtomicU64,
}

impl OpStats {
    fn record(&self, op: Op, bytes: usize, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let i = op.index();
        self.calls[i].fetch_add(1, Relaxed);
        self.bytes[i].fetch_add(bytes as u64, Relaxed);
        self.nanos[i].fetch_add(ns, Relaxed);
        self.wait_ns.fetch_add(ns, Relaxed);
    }

    /// Nanoseconds spent inside the backend so far, over all ops.
    pub fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Relaxed)
    }

    pub fn snapshot(&self) -> OpSnapshot {
        let load = |a: &[AtomicU64; 12]| std::array::from_fn(|i| a[i].load(Relaxed));
        OpSnapshot {
            calls: load(&self.calls),
            bytes: load(&self.bytes),
            nanos: load(&self.nanos),
        }
    }
}

/// A point-in-time copy of [`OpStats`]; subtract two to get a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    calls: [u64; 12],
    bytes: [u64; 12],
    nanos: [u64; 12],
}

impl OpSnapshot {
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            calls: std::array::from_fn(|i| self.calls[i] - earlier.calls[i]),
            bytes: std::array::from_fn(|i| self.bytes[i] - earlier.bytes[i]),
            nanos: std::array::from_fn(|i| self.nanos[i] - earlier.nanos[i]),
        }
    }

    pub fn add(&mut self, other: &OpSnapshot) {
        for i in 0..12 {
            self.calls[i] += other.calls[i];
            self.bytes[i] += other.bytes[i];
            self.nanos[i] += other.nanos[i];
        }
    }

    pub fn calls(&self, op: Op) -> u64 {
        self.calls[op.index()]
    }

    pub fn bytes(&self, op: Op) -> u64 {
        self.bytes[op.index()]
    }

    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// Wraps a backend and records every call in a shared [`OpStats`].
pub struct Counting<M> {
    inner: M,
    stats: Arc<OpStats>,
}

impl<M> Counting<M> {
    pub fn new(inner: M, stats: Arc<OpStats>) -> Self {
        Counting { inner, stats }
    }
}

impl<M: RemoteMemory> RemoteMemory for Counting<M> {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        let t = Instant::now();
        let r = self.inner.remote_malloc(len, tag);
        self.stats.record(Op::Malloc, 0, t);
        r
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        let t = Instant::now();
        let r = self.inner.remote_free(seg);
        self.stats.record(Op::Free, 0, t);
        r
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        let t = Instant::now();
        let r = self.inner.remote_write(seg, offset, data);
        self.stats.record(Op::Write, data.len(), t);
        r
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        let bytes = writes.iter().map(|(_, _, d)| d.len()).sum();
        let t = Instant::now();
        let r = self.inner.remote_write_v(writes);
        self.stats.record(Op::WriteV, bytes, t);
        r
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.stats.record(Op::Flush, 0, t);
        r
    }

    fn in_flight(&self) -> usize {
        let t = Instant::now();
        let r = self.inner.in_flight();
        self.stats.record(Op::InFlight, 0, t);
        r
    }

    fn virtual_clock(&self) -> Option<SimClock> {
        let t = Instant::now();
        let r = self.inner.virtual_clock();
        self.stats.record(Op::VirtualClock, 0, t);
        r
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        let t = Instant::now();
        let r = self.inner.remote_read(seg, offset, buf);
        self.stats.record(Op::Read, buf.len(), t);
        r
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        let bytes = reads.iter().map(|&(_, _, len)| len).sum();
        let t = Instant::now();
        let r = self.inner.remote_read_v(reads);
        self.stats.record(Op::ReadV, bytes, t);
        r
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        let t = Instant::now();
        let r = self.inner.connect_segment(tag);
        self.stats.record(Op::Connect, 0, t);
        r
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        let t = Instant::now();
        let r = self.inner.segment_info(seg);
        self.stats.record(Op::Info, 0, t);
        r
    }

    fn node_name(&self) -> String {
        let t = Instant::now();
        let r = self.inner.node_name();
        self.stats.record(Op::NodeName, 0, t);
        r
    }
}
