//! The `core` layer probe: a [`TransactionalMemory`] decorator that times
//! every transaction call the workload makes into the engine, and how much
//! of that time the engine spent waiting inside `RemoteMemory` calls.

use std::cell::Cell;
use std::time::Instant;

use perseas_core::{RegionId, SnapshotToken, TransactionalMemory, TxnError, TxnStats};
use perseas_simtime::SimClock;

use crate::remote::OpStats;

/// Time spent in one kind of engine call.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CallTime {
    pub calls: u64,
    pub ns: u64,
}

/// Totals over every timed call; `wait_ns` is the part of `ns` spent
/// inside the wrapped instance's `RemoteMemory` backend.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LibTotals {
    pub ns: u64,
    pub wait_ns: u64,
    pub set_range: CallTime,
    pub commit: CallTime,
    /// Bytes the workload handed to `write`: the user bytes.
    pub user_bytes: u64,
}

impl LibTotals {
    pub fn since(&self, e: &LibTotals) -> LibTotals {
        LibTotals {
            ns: self.ns - e.ns,
            wait_ns: self.wait_ns - e.wait_ns,
            set_range: CallTime {
                calls: self.set_range.calls - e.set_range.calls,
                ns: self.set_range.ns - e.set_range.ns,
            },
            commit: CallTime {
                calls: self.commit.calls - e.commit.calls,
                ns: self.commit.ns - e.commit.ns,
            },
            user_bytes: self.user_bytes - e.user_bytes,
        }
    }

    pub fn add(&mut self, o: &LibTotals) {
        self.ns += o.ns;
        self.wait_ns += o.wait_ns;
        self.set_range.calls += o.set_range.calls;
        self.set_range.ns += o.set_range.ns;
        self.commit.calls += o.commit.calls;
        self.commit.ns += o.commit.ns;
        self.user_bytes += o.user_bytes;
    }
}

/// Accumulates [`LibTotals`] across the short-lived [`Timed`] wrappers of
/// one run (`read` takes `&self`, hence the cell).
#[derive(Debug, Default)]
pub struct LibStats(Cell<LibTotals>);

impl LibStats {
    pub fn totals(&self) -> LibTotals {
        self.0.get()
    }
}

/// Which running total a call adds to besides the overall one.
#[derive(Clone, Copy)]
enum Kind {
    Other,
    SetRange,
    Commit,
}

pub struct Timed<'a> {
    inner: &'a mut dyn TransactionalMemory,
    stats: &'a LibStats,
    remote: &'a OpStats,
}

impl<'a> Timed<'a> {
    pub fn new(
        inner: &'a mut dyn TransactionalMemory,
        stats: &'a LibStats,
        remote: &'a OpStats,
    ) -> Self {
        Timed {
            inner,
            stats,
            remote,
        }
    }

    fn record(&self, kind: Kind, since: Instant, wait0: u64, user_bytes: usize) {
        let ns = since.elapsed().as_nanos() as u64;
        let mut t = self.stats.0.get();
        t.ns += ns;
        t.wait_ns += self.remote.wait_ns() - wait0;
        t.user_bytes += user_bytes as u64;
        let slot = match kind {
            Kind::Other => None,
            Kind::SetRange => Some(&mut t.set_range),
            Kind::Commit => Some(&mut t.commit),
        };
        if let Some(c) = slot {
            c.calls += 1;
            c.ns += ns;
        }
        self.stats.0.set(t);
    }
}

/// Times `$call` on `self.inner`, charging it to `$kind`.
macro_rules! timed {
    ($self:ident, $kind:expr, $bytes:expr, $call:expr) => {{
        let wait0 = $self.remote.wait_ns();
        let t = Instant::now();
        let r = $call;
        $self.record($kind, t, wait0, $bytes);
        r
    }};
}

impl TransactionalMemory for Timed<'_> {
    fn system_name(&self) -> &'static str {
        self.inner.system_name()
    }

    fn alloc_region(&mut self, len: usize) -> Result<RegionId, TxnError> {
        self.inner.alloc_region(len)
    }

    fn publish(&mut self) -> Result<(), TxnError> {
        self.inner.publish()
    }

    fn begin_transaction(&mut self) -> Result<(), TxnError> {
        timed!(self, Kind::Other, 0, self.inner.begin_transaction())
    }

    fn set_range(&mut self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError> {
        timed!(
            self,
            Kind::SetRange,
            0,
            self.inner.set_range(region, offset, len)
        )
    }

    fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        timed!(
            self,
            Kind::Other,
            data.len(),
            self.inner.write(region, offset, data)
        )
    }

    fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        timed!(self, Kind::Other, 0, self.inner.read(region, offset, buf))
    }

    fn commit_transaction(&mut self) -> Result<(), TxnError> {
        timed!(self, Kind::Commit, 0, self.inner.commit_transaction())
    }

    fn abort_transaction(&mut self) -> Result<(), TxnError> {
        timed!(self, Kind::Other, 0, self.inner.abort_transaction())
    }

    fn in_transaction(&self) -> bool {
        self.inner.in_transaction()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn stats(&self) -> TxnStats {
        self.inner.stats()
    }

    fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        self.inner.region_len(region)
    }

    fn begin_snapshot(&mut self) -> Result<SnapshotToken, TxnError> {
        self.inner.begin_snapshot()
    }

    fn read_snapshot(
        &self,
        snap: SnapshotToken,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), TxnError> {
        self.inner.read_snapshot(snap, region, offset, buf)
    }

    fn end_snapshot(&mut self, snap: SnapshotToken) {
        self.inner.end_snapshot(snap)
    }
}
