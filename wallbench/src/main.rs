//! Wall-clock benchmark of PERSEAS, end to end over loopback TCP.
//!
//! One process runs the real network-RAM server (`Server::start`: one
//! event-loop thread) on 127.0.0.1 as the single mirror, and one
//! closed-loop client thread drives the default `PerseasConfig` through the
//! `TransactionalMemory` facade over a synchronous `TcpRemote::connect`
//! connection. Two threads in all.
//!
//! ```text
//! perseas-wallbench --workload <debit-credit|bulk-64k|restart>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an uninstrumented run;
//! `--trace 1` runs an uninstrumented and an instrumented instance side by
//! side — the latter with the layer probes and the server's metrics
//! registry attached — and prints the per-layer breakdown. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Any violated
//! correctness check makes the exit code non-zero.

mod oracle;
mod remote;
mod timed;

use std::fmt::Display;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use perseas_core::{Perseas, PerseasConfig, RegionId};
use perseas_obs::Registry;
use perseas_rnram::server::{Server, ServerHandle};
use perseas_rnram::{RemoteMemory, RnError, TcpRemote};
use perseas_simtime::{det_rng, DetRng};
use perseas_workloads::{DebitCredit, DebitCreditScale, Synthetic, Workload};

use oracle::Model;
use remote::{Counting, Op, OpSnapshot, OpStats, OPS};
use timed::{LibStats, LibTotals, Timed};

/// TPC-B at scale 1: 1 branch, 10 tellers, 100 000 accounts, and a
/// 16 384-slot history file — 10.8 MB of 100-byte records.
const TPCB: DebitCreditScale = DebitCreditScale {
    branches: 1,
    tellers_per_branch: 10,
    accounts: 100_000,
    history_slots: 16_384,
};
/// TPC-B record sizes (the debit-credit generator's layout).
const RECORD: usize = 100;
const HISTORY_RECORD: usize = 50;
/// Figure 6's 64 KiB sweep point on its 8 MiB database.
const BULK_DB: usize = 8 << 20;
const BULK_TXN: usize = 64 << 10;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Recoveries per untraced run — the clean restarts of `debit-credit` and
/// `bulk-64k`, and the fewest crash cycles of `restart` — so that ten
/// samples lie beyond p75.
const MIN_RECOVERIES: usize = 40;
/// Recoveries the traced run measures (its numbers are means).
const TRACED_RECOVERIES: usize = 10;
/// How long each of the traced run's two instances runs before the other
/// takes over.
const TRACED_SLICE: Duration = Duration::from_millis(250);
/// The untraced run is cut into slices, each summarised on its own:
/// `debit-credit` and `bulk-64k` run `--seconds` of transactions as
/// `TXN_SLICES` equal slices with two clean restarts after each, which
/// spreads the recoveries over the whole run; a `restart` slice is
/// `RESTART_SLICE_CYCLES` crash cycles.
const TXN_SLICES: usize = 20;
const RESTARTS_PER_SLICE: usize = MIN_RECOVERIES / TXN_SLICES;
const RESTART_SLICE_CYCLES: usize = 5;
/// Committed transactions per `restart` cycle before the crashed one.
const CYCLE_TXNS: u64 = 50;
/// The most by which the traced layers may fail to add up to the traced
/// wall time per transaction, in percent of that wall time. The gap is
/// the load loop's own bookkeeping between transactions.
const RECONCILE_TOLERANCE_PCT: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    DebitCredit,
    Bulk64k,
    Restart,
}

impl Kind {
    fn parse(s: &str) -> Option<Kind> {
        match s {
            "debit-credit" => Some(Kind::DebitCredit),
            "bulk-64k" => Some(Kind::Bulk64k),
            "restart" => Some(Kind::Restart),
            _ => None,
        }
    }

    fn generator(self, seed: u64) -> Box<dyn Workload> {
        match self {
            Kind::DebitCredit | Kind::Restart => Box::new(DebitCredit::new(TPCB, seed)),
            Kind::Bulk64k => Box::new(Synthetic::new(BULK_DB, BULK_TXN, seed)),
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or("unknown --workload")?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(err("--seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(err("--seconds"))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `map_err` helper that prefixes an error with what failed.
fn err<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The layer probes of a traced run.
struct Probes {
    remote: Arc<OpStats>,
    lib: LibStats,
    registry: Registry,
}

/// How an instance reaches its mirror: plain, or through the probes.
trait Link {
    type M: RemoteMemory + 'static;
    fn connect(&self, addr: SocketAddr) -> Result<Self::M, RnError>;
    fn probes(&self) -> Option<&Probes>;
}

struct Plain;

impl Link for Plain {
    type M = TcpRemote;
    fn connect(&self, addr: SocketAddr) -> Result<TcpRemote, RnError> {
        TcpRemote::connect(addr)
    }
    fn probes(&self) -> Option<&Probes> {
        None
    }
}

struct Traced(Probes);

impl Link for Traced {
    type M = Counting<TcpRemote>;
    fn connect(&self, addr: SocketAddr) -> Result<Counting<TcpRemote>, RnError> {
        Ok(Counting::new(
            TcpRemote::connect(addr)?,
            self.0.remote.clone(),
        ))
    }
    fn probes(&self) -> Option<&Probes> {
        Some(&self.0)
    }
}

/// The server's per-opcode request counters and service-time sums.
const SERVER_LABELS: [&str; 12] = [
    "malloc",
    "free",
    "write",
    "read",
    "write_v",
    "connect",
    "info",
    "name",
    "ping",
    "shutdown",
    "sess_close",
    "decode_error",
];

#[derive(Debug, Clone, Copy, Default)]
struct ServerSnap {
    requests: [u64; 12],
    busy_ns: u64,
}

impl ServerSnap {
    fn read(reg: &Registry) -> ServerSnap {
        let mut s = ServerSnap::default();
        for (i, label) in SERVER_LABELS.iter().enumerate() {
            let labels = [("op", *label)];
            s.requests[i] = reg
                .counter_with("perseas_server_requests_total", "", &labels)
                .get();
            s.busy_ns += reg
                .histogram_with("perseas_server_request_seconds", "", &labels)
                .snapshot()
                .total_ns() as u64;
        }
        s
    }

    fn since(&self, e: &ServerSnap) -> ServerSnap {
        ServerSnap {
            requests: std::array::from_fn(|i| self.requests[i] - e.requests[i]),
            busy_ns: self.busy_ns - e.busy_ns,
        }
    }

    fn add(&mut self, o: &ServerSnap) {
        for i in 0..12 {
            self.requests[i] += o.requests[i];
        }
        self.busy_ns += o.busy_ns;
    }

    fn total(&self) -> u64 {
        self.requests.iter().sum()
    }

    fn count(&self, label: &str) -> u64 {
        SERVER_LABELS
            .iter()
            .position(|l| *l == label)
            .map_or(0, |i| self.requests[i])
    }
}

/// Everything the probes saw, taken at one instant.
#[derive(Clone, Copy)]
struct Mark {
    remote: OpSnapshot,
    lib: LibTotals,
    server: ServerSnap,
}

impl Mark {
    fn take(p: &Probes) -> Mark {
        Mark {
            remote: p.remote.snapshot(),
            lib: p.lib.totals(),
            server: ServerSnap::read(&p.registry),
        }
    }
}

/// Probe totals over the parts of a run that ran transactions.
#[derive(Default)]
struct TxnLayers {
    remote: OpSnapshot,
    lib: LibTotals,
    server: ServerSnap,
    /// Time inside `run_txn` not spent in engine calls.
    harness_ns: u64,
}

/// Probe totals over the recoveries of a run.
#[derive(Default)]
struct RecLayers {
    remote: OpSnapshot,
    server: ServerSnap,
    connect_ns: u64,
    recover_ns: u64,
}

/// What one measured phase produced.
#[derive(Default)]
struct Measured {
    txn_lat_ns: Vec<u64>,
    txn_attempts: u64,
    txn_failed: u64,
    /// Wall time of the transaction loops, bookkeeping included.
    txn_wall_ns: u64,
    recovery_ns: Vec<u64>,
    recovery_attempts: u64,
    recovery_ok: u64,
    violations: Vec<String>,
    txn_layers: TxnLayers,
    rec_layers: RecLayers,
    /// Ends of the slices the untraced run is summarised over:
    /// (transactions committed, `txn_wall_ns`) at each slice's end.
    slice_ends: Vec<(usize, u64)>,
}

impl Measured {
    fn end_slice(&mut self) {
        let end = (self.txn_lat_ns.len(), self.txn_wall_ns);
        if self.slice_ends.last() != Some(&end) {
            self.slice_ends.push(end);
        }
    }

    /// Throughput, p50 and p95 of each slice.
    fn slices(&self) -> Vec<(f64, f64, f64)> {
        let mut from = (0, 0);
        let mut out = Vec::new();
        for &(n, wall) in &self.slice_ends {
            let lat = &self.txn_lat_ns[from.0..n];
            out.push((
                lat.len() as f64 / ((wall - from.1) as f64 / 1e9),
                percentile(lat, 0.50) / 1e3,
                percentile(lat, 0.95) / 1e3,
            ));
            from = (n, wall);
        }
        out
    }

    fn violate(&mut self, what: String) {
        eprintln!("correctness violation: {what}");
        self.violations.push(what);
    }
}

/// One mirror server, the engine instance mirroring into it, the
/// workload generator, and the reference model replaying the same
/// generator.
struct Instance<M: RemoteMemory> {
    server: ServerHandle,
    db: Option<Perseas<M>>,
    wl: Box<dyn Workload>,
    model_wl: Box<dyn Workload>,
    model: Model,
    model_txns: u64,
    /// Commits the engine acknowledged since publication.
    committed: u64,
    /// In-flight transactions recovery rolled back. Recovery consumes
    /// each one's id, so the commit record counts them too.
    rolled_back: u64,
}

/// Set-up cost of one instance, as the probes saw it.
struct SetupCost {
    wall: Duration,
    connect_ns: u64,
}

impl<M: RemoteMemory + 'static> Instance<M> {
    /// Starts a fresh mirror server and times connect, init, populate and
    /// publish against it.
    fn setup<L: Link<M = M>>(
        kind: Kind,
        seed: u64,
        link: &L,
    ) -> Result<(Instance<M>, SetupCost), String> {
        let mut server = Server::bind("mirror", "127.0.0.1:0").map_err(err("bind"))?;
        if let Some(p) = link.probes() {
            server = server.with_metrics(&p.registry);
        }
        let server = server.start();
        let mut wl = kind.generator(seed);
        let t0 = Instant::now();
        let remote = link.connect(server.addr()).map_err(err("connect"))?;
        let connect_ns = t0.elapsed().as_nanos() as u64;
        let mut db = Perseas::init(vec![remote], PerseasConfig::default()).map_err(err("init"))?;
        wl.setup(&mut db).map_err(err("populate"))?;
        let wall = t0.elapsed();
        let mut model_wl = kind.generator(seed);
        let mut model = Model::default();
        model_wl.setup(&mut model).map_err(err("model setup"))?;
        let inst = Instance {
            server,
            db: Some(db),
            wl,
            model_wl,
            model,
            model_txns: 0,
            committed: 0,
            rolled_back: 0,
        };
        Ok((inst, SetupCost { wall, connect_ns }))
    }

    fn db(&mut self) -> &mut Perseas<M> {
        self.db.as_mut().expect("instance is live")
    }

    /// Closes the client connection, then stops the server.
    fn close(mut self) {
        self.db = None;
        self.server.shutdown();
    }

    /// Runs closed-loop transactions until `deadline` or until `count`
    /// have been attempted, whichever comes first.
    fn run_txns(
        &mut self,
        deadline: Option<Instant>,
        count: Option<u64>,
        probes: Option<&Probes>,
        out: &mut Measured,
    ) {
        let before = probes.map(Mark::take);
        let start = Instant::now();
        let mut attempts = 0u64;
        loop {
            if count.is_some_and(|c| attempts >= c) {
                break;
            }
            let t0 = Instant::now();
            if deadline.is_some_and(|d| t0 >= d) {
                break;
            }
            attempts += 1;
            let db = self.db.as_mut().expect("instance is live");
            let (r, dt) = match probes {
                Some(p) => {
                    let lib0 = p.lib.totals().ns;
                    let r = self.wl.run_txn(&mut Timed::new(db, &p.lib, &p.remote));
                    let dt = t0.elapsed().as_nanos() as u64;
                    out.txn_layers.harness_ns += dt - (p.lib.totals().ns - lib0);
                    (r, dt)
                }
                None => {
                    let r = self.wl.run_txn(db);
                    (r, t0.elapsed().as_nanos() as u64)
                }
            };
            match r {
                Ok(()) => {
                    self.committed += 1;
                    out.txn_lat_ns.push(dt);
                }
                Err(e) => {
                    out.txn_failed += 1;
                    eprintln!("transaction failed: {e}");
                    let db = self.db();
                    if db.in_transaction() {
                        let _ = db.abort_transaction();
                    }
                }
            }
        }
        let now = Instant::now();
        out.txn_attempts += attempts;
        out.txn_wall_ns += (now - start).as_nanos() as u64;
        if let (Some(p), Some(b)) = (probes, before) {
            let a = Mark::take(p);
            out.txn_layers.remote.add(&a.remote.since(&b.remote));
            out.txn_layers.lib.add(&a.lib.since(&b.lib));
            out.txn_layers.server.add(&a.server.since(&b.server));
        }
    }

    /// Opens a debit-credit-shaped transaction that declares four ranges
    /// (pushing their undo records), overwrites each with the complement
    /// of its committed bytes, and never commits. Returns the ranges with
    /// their committed bytes.
    fn open_doomed_txn(
        &mut self,
        rng: &mut DetRng,
    ) -> Result<Vec<(RegionId, usize, Vec<u8>)>, String> {
        let ranges = [
            (0, rng.gen_index(TPCB.accounts) * RECORD, 8),
            (1, rng.gen_index(TPCB.tellers()) * RECORD, 8),
            (2, rng.gen_index(TPCB.branches) * RECORD, 8),
            (
                3,
                rng.gen_index(TPCB.history_slots) * HISTORY_RECORD,
                HISTORY_RECORD,
            ),
        ];
        let db = self.db();
        db.begin_transaction().map_err(err("doomed begin"))?;
        let mut saved = Vec::new();
        for (r, off, len) in ranges {
            let region = RegionId::from_raw(r);
            let mut committed = vec![0u8; len];
            db.read(region, off, &mut committed)
                .map_err(err("doomed read"))?;
            db.set_range(region, off, len)
                .map_err(err("doomed set_range"))?;
            let garbage: Vec<u8> = committed.iter().map(|b| !b).collect();
            db.write(region, off, &garbage)
                .map_err(err("doomed write"))?;
            saved.push((region, off, committed));
        }
        Ok(saved)
    }

    /// Crashes the primary and times reconnect plus `Perseas::recover`
    /// until the recovered instance is ready. An error leaves no instance.
    fn crash_and_recover<L: Link<M = M>>(
        &mut self,
        link: &L,
        out: &mut Measured,
    ) -> Result<perseas_core::RecoveryReport, String> {
        out.recovery_attempts += 1;
        let before = link.probes().map(Mark::take);
        let t0 = Instant::now();
        let mut old = self.db.take().expect("instance is live");
        old.crash();
        drop(old);
        let remote = link.connect(self.server.addr()).map_err(err("reconnect"))?;
        let t1 = Instant::now();
        let (db, report) =
            Perseas::recover(remote, PerseasConfig::default()).map_err(err("recover"))?;
        let t2 = Instant::now();
        self.db = Some(db);
        out.recovery_ns.push((t2 - t0).as_nanos() as u64);
        if let (Some(p), Some(b)) = (link.probes(), before) {
            let a = Mark::take(p);
            let l = &mut out.rec_layers;
            l.remote.add(&a.remote.since(&b.remote));
            l.server.add(&a.server.since(&b.server));
            l.connect_ns += (t1 - t0).as_nanos() as u64;
            l.recover_ns += (t2 - t1).as_nanos() as u64;
        }
        Ok(report)
    }

    /// The workload's own invariants, the commit count, and every region
    /// byte against the reference model.
    fn verify(&mut self) -> Result<(), String> {
        while self.model_txns < self.committed {
            self.model_wl
                .run_txn(&mut self.model)
                .map_err(err("model transaction"))?;
            self.model_txns += 1;
        }
        let (committed, rolled_back) = (self.committed, self.rolled_back);
        let db = self.db.as_ref().expect("instance is live");
        self.wl.check(db).map_err(err("workload check"))?;
        if db.last_committed() != committed + rolled_back {
            return Err(format!(
                "last_committed is {} after {committed} acknowledged commits \
                 and {rolled_back} rolled-back transactions",
                db.last_committed()
            ));
        }
        for (i, want) in self.model.regions().iter().enumerate() {
            let got = db
                .region_snapshot(RegionId::from_raw(i as u32))
                .map_err(err("region snapshot"))?;
            if let Some(at) = got.iter().zip(want).position(|(g, w)| g != w) {
                return Err(format!("region {i} differs from the model at byte {at}"));
            }
            if got.len() != want.len() {
                return Err(format!(
                    "region {i} has {} bytes, want {}",
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}

/// One instance being measured, the link it reaches its mirror through,
/// and what it measured so far.
struct Lane<'a, L: Link> {
    kind: Kind,
    inst: Instance<L::M>,
    link: &'a L,
    /// Picks the crashed transaction's ranges in `restart`.
    rng: DetRng,
    cycles: usize,
    /// False once a recovery failed and left no instance to go on with.
    live: bool,
    out: Measured,
}

impl<'a, L: Link> Lane<'a, L> {
    fn new(kind: Kind, seed: u64, inst: Instance<L::M>, link: &'a L) -> Self {
        Lane {
            kind,
            inst,
            link,
            rng: det_rng(seed ^ 0xC0FFEE),
            cycles: 0,
            live: true,
            out: Measured::default(),
        }
    }

    /// One slice of the measured phase: closed-loop transactions until
    /// `until`, or for `restart` one crash cycle — 50 commits, a crashed
    /// in-flight transaction, reconnect and recovery, and its checks.
    fn step(&mut self, until: Instant) {
        let probes = self.link.probes();
        if self.kind != Kind::Restart {
            self.inst.run_txns(Some(until), None, probes, &mut self.out);
            return;
        }
        self.cycles += 1;
        self.inst
            .run_txns(None, Some(CYCLE_TXNS), probes, &mut self.out);
        let doomed = match self.inst.open_doomed_txn(&mut self.rng) {
            Ok(d) => d,
            Err(e) => return self.fail(e),
        };
        let report = match self.inst.crash_and_recover(self.link, &mut self.out) {
            Ok(r) => r,
            Err(e) => return self.fail(e),
        };
        let inst = &mut self.inst;
        let mut bad = Vec::new();
        let doomed_id = inst.committed + inst.rolled_back + 1;
        if report.rolled_back_txns != [doomed_id] {
            bad.push(format!(
                "recovery rolled back {:?}, not the in-flight transaction {doomed_id}",
                report.rolled_back_txns
            ));
        }
        inst.rolled_back += 1;
        let db = inst.db();
        for (region, off, committed) in &doomed {
            let mut now = vec![0u8; committed.len()];
            if db.read(*region, *off, &mut now).is_err() || now != *committed {
                bad.push(format!(
                    "crashed write to {region}+{off} was not rolled back"
                ));
            }
        }
        if let Err(e) = inst.verify() {
            bad.push(format!("after recovery: {e}"));
        }
        if bad.is_empty() {
            self.out.recovery_ok += 1;
        }
        for e in bad {
            self.out.violate(e);
        }
    }

    /// For `debit-credit` and `bulk-64k`: checks the image after a timed
    /// phase, then restarts cleanly `recoveries` times, checked after each.
    fn restart_cleanly(&mut self, recoveries: usize) {
        if self.kind == Kind::Restart || !self.live {
            return;
        }
        if let Err(e) = self.inst.verify() {
            self.out.violate(format!("after timed transactions: {e}"));
        }
        for _ in 0..recoveries {
            let report = match self.inst.crash_and_recover(self.link, &mut self.out) {
                Ok(r) => r,
                Err(e) => return self.fail(e),
            };
            let checked = if report.rolled_back_txns.is_empty() {
                self.inst.verify()
            } else {
                Err(format!("rolled back {:?}", report.rolled_back_txns))
            };
            match checked {
                Ok(()) => self.out.recovery_ok += 1,
                Err(e) => self.out.violate(format!("after a clean restart: {e}")),
            }
        }
    }

    /// Whether the phase goes on: until the deadline, and for `restart`
    /// until at least `min_cycles` crash cycles ran.
    fn more(&self, deadline: Instant, min_cycles: usize) -> bool {
        self.live
            && (Instant::now() < deadline
                || (self.kind == Kind::Restart && self.cycles < min_cycles))
    }

    fn fail(&mut self, e: String) {
        self.out.violate(e);
        self.live = false;
    }

    /// Stops the server and hands back the measurements.
    fn close(self) -> Measured {
        if self.live {
            self.inst.close();
        }
        self.out
    }
}

/// Nearest-rank percentile `p` (0–1) of `v`.
fn percentile(v: &[u64], p: f64) -> f64 {
    quantile(&v.iter().map(|&x| x as f64).collect::<Vec<_>>(), p)
}

/// Nearest-rank quantile `p` (0–1) of `v`; NaN when `v` is empty.
fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// `VmHWM` of this process in MB (server and client memory together).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One result line's metrics, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, m: &Metrics) {
    for (name, value, unit) in &m.0 {
        println!("{name:<28} {value:>14.4} {unit}");
    }
    let body: Vec<String> =
        m.0.iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Prints a measured phase's transaction counts and whole-phase
/// percentiles, and returns its p50 in microseconds.
fn txn_summary(label: &str, m: &Measured) -> f64 {
    let p50 = percentile(&m.txn_lat_ns, 0.50) / 1e3;
    let p95 = percentile(&m.txn_lat_ns, 0.95) / 1e3;
    println!(
        "{label}: {} committed of {} attempted in {:.3} s; p50 {p50:.1} us, \
         p95 {p95:.1} us over {} samples",
        m.txn_lat_ns.len(),
        m.txn_attempts,
        m.txn_wall_ns as f64 / 1e9,
        m.txn_lat_ns.len()
    );
    p50
}

fn end_to_end(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (inst, cost) = Instance::setup(args.kind, args.seed, &Plain)?;
        setups.push(cost.wall.as_secs_f64());
        if rep + 1 == SETUP_REPS {
            kept = Some(inst);
        } else {
            inst.close();
        }
    }
    let inst = kept.expect("at least one set-up");
    let mut lane = Lane::new(args.kind, args.seed, inst, &Plain);
    if args.kind == Kind::Restart {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        while lane.more(deadline, MIN_RECOVERIES) {
            lane.step(deadline);
            if lane.cycles.is_multiple_of(RESTART_SLICE_CYCLES) {
                lane.out.end_slice();
            }
        }
        lane.out.end_slice();
    } else {
        let slice = Duration::from_secs_f64(args.seconds / TXN_SLICES as f64);
        for _ in 0..TXN_SLICES {
            if !lane.live {
                break;
            }
            lane.step(Instant::now() + slice);
            lane.out.end_slice();
            lane.restart_cleanly(RESTARTS_PER_SLICE);
        }
    }
    let m = lane.close();
    txn_summary("transactions", &m);
    // Neighbours on a shared host slow whole seconds at a time, while the
    // code's own costs recur in every slice; the best quartile of slices
    // keeps the latter and sheds most of the former.
    let slices = m.slices();
    let best = |f: fn(&(f64, f64, f64)) -> f64, p: f64| {
        quantile(&slices.iter().map(f).collect::<Vec<_>>(), p)
    };
    let (per_s, p50, p95) = (
        best(|s| s.0, 0.75),
        best(|s| s.1, 0.25),
        best(|s| s.2, 0.25),
    );
    println!(
        "per slice over {} slices: {:.0?} txn/s, p50 {:.1?} us, p95 {:.1?} us",
        slices.len(),
        slices.iter().map(|s| s.0).collect::<Vec<_>>(),
        slices.iter().map(|s| s.1).collect::<Vec<_>>(),
        slices.iter().map(|s| s.2).collect::<Vec<_>>(),
    );
    println!(
        "recoveries: {} ok of {}; {} timed samples (ms): {:.1?}",
        m.recovery_ok,
        m.recovery_attempts,
        m.recovery_ns.len(),
        m.recovery_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect::<Vec<_>>()
    );
    println!("set-ups (s): {setups:.4?}");
    let mut out = Metrics::default();
    out.put("setup_s", quantile(&setups, 0.5), "s");
    out.put("txn_per_s", per_s, "1/s");
    out.put("txn_p50_us", p50, "us");
    out.put("txn_p95_us", p95, "us");
    out.put(
        "txn_ok_ratio",
        m.txn_lat_ns.len() as f64 / m.txn_attempts.max(1) as f64,
        "ratio",
    );
    out.put(
        "recovery_p50_ms",
        percentile(&m.recovery_ns, 0.50) / 1e6,
        "ms",
    );
    out.put(
        "recovery_p75_ms",
        percentile(&m.recovery_ns, 0.75) / 1e6,
        "ms",
    );
    out.put(
        "recovery_ok_ratio",
        m.recovery_ok as f64 / m.recovery_attempts.max(1) as f64,
        "ratio",
    );
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    let attempted = m.txn_attempts + m.recovery_attempts;
    let failed = m.txn_failed + (m.recovery_attempts - m.recovery_ok);
    Ok((
        m.violations.is_empty() && failed == 0,
        attempted,
        failed,
        out,
    ))
}

/// Checks that the decorator saw exactly the requests the server served.
fn reconcile_counts(remote: &OpSnapshot, server: &ServerSnap) -> Result<(), String> {
    let mut bad = Vec::new();
    for op in OPS {
        if let Some(label) = op.server_label() {
            let (c, s) = (remote.calls(op), server.count(label));
            if c != s {
                bad.push(format!("{label}: client {c}, server {s}"));
            }
        }
    }
    for label in ["name", "ping", "shutdown", "sess_close", "decode_error"] {
        if server.count(label) != 0 {
            bad.push(format!("{label}: client 0, server {}", server.count(label)));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!("op counts disagree: {}", bad.join("; ")))
    }
}

fn per_layer(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    // An untraced instance runs beside the traced one, in alternating
    // slices, as the reference for the tracing overhead.
    let (base, _) = Instance::setup(args.kind, args.seed, &Plain)?;
    let link = Traced(Probes {
        remote: Arc::new(OpStats::default()),
        lib: LibStats::default(),
        registry: Registry::new(),
    });
    let (inst, setup) = Instance::setup(args.kind, args.seed, &link)?;
    let at_setup = link.0.remote.snapshot();
    let mut plain = Lane::new(args.kind, args.seed, base, &Plain);
    let mut traced = Lane::new(args.kind, args.seed, inst, &link);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while plain.live && traced.more(deadline, TRACED_RECOVERIES) {
        plain.step((Instant::now() + TRACED_SLICE).min(deadline));
        traced.step((Instant::now() + TRACED_SLICE).min(deadline));
    }
    plain.restart_cleanly(0);
    traced.restart_cleanly(TRACED_RECOVERIES);
    let (plain, m) = (plain.close(), traced.close());
    let plain_p50 = txn_summary("untraced transactions", &plain);
    let traced_p50 = txn_summary("traced transactions", &m);

    let mut violations: Vec<String> = plain
        .violations
        .iter()
        .chain(&m.violations)
        .cloned()
        .collect();
    if let Err(e) = reconcile_counts(
        &link.0.remote.snapshot(),
        &ServerSnap::read(&link.0.registry),
    ) {
        eprintln!("correctness violation: {e}");
        violations.push(e);
    }

    let t = &m.txn_layers;
    let txns = m.txn_lat_ns.len().max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3 / txns;
    let wall_us = m.txn_wall_ns as f64 / 1e3 / txns;
    let core_self = us(t.lib.ns) - us(t.lib.wait_ns);
    let wait = us(t.remote.total_ns());
    let harness = us(t.harness_ns);
    let server_busy = us(t.server.busy_ns);
    let wire = wait - server_busy;
    let r = &m.rec_layers;
    let n = m.recovery_ns.len().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let recover_self = ms(r.recover_ns) - ms(r.remote.total_ns());
    let gap_pct = (wall_us - (core_self + wait + harness)) / wall_us * 100.0;
    for (name, v) in [
        ("core.self_us_per_txn", core_self),
        ("rnram.wait_us_per_txn", wait),
        ("harness.self_us_per_txn", harness),
        ("wire.us_per_txn", wire),
        ("core.recover_self_ms", recover_self),
    ] {
        if v < 0.0 {
            violations.push(format!("layer {name} came out negative: {v}"));
        }
    }
    if gap_pct.abs() > RECONCILE_TOLERANCE_PCT {
        violations.push(format!(
            "layers sum to {:.3} us against {wall_us:.3} us of wall time per transaction \
             ({gap_pct:.3}% apart, tolerance {RECONCILE_TOLERANCE_PCT}%)",
            core_self + wait + harness
        ));
    }
    println!(
        "reconcile: core {core_self:.2} + rnram {wait:.2} + harness {harness:.2} = {:.2} us \
         of {wall_us:.2} us per transaction ({gap_pct:.3}% unaccounted)",
        core_self + wait + harness
    );

    let per_txn = |c: u64| c as f64 / txns;
    let write_bytes = t.remote.bytes(Op::Write) + t.remote.bytes(Op::WriteV);
    let mut out = Metrics::default();
    out.put("core.self_us_per_txn", core_self, "us");
    out.put(
        "core.set_range_us",
        t.lib.set_range.ns as f64 / 1e3 / t.lib.set_range.calls.max(1) as f64,
        "us",
    );
    out.put(
        "core.commit_us",
        t.lib.commit.ns as f64 / 1e3 / t.lib.commit.calls.max(1) as f64,
        "us",
    );
    out.put("core.recover_self_ms", recover_self, "ms");
    out.put(
        "rnram.writes_per_txn",
        per_txn(t.remote.calls(Op::Write)),
        "count",
    );
    out.put(
        "rnram.write_v_per_txn",
        per_txn(t.remote.calls(Op::WriteV)),
        "count",
    );
    out.put(
        "rnram.flushes_per_txn",
        per_txn(t.remote.calls(Op::Flush)),
        "count",
    );
    out.put("rnram.wait_us_per_txn", wait, "us");
    out.put(
        "rnram.bytes_per_user_byte",
        write_bytes as f64 / t.lib.user_bytes.max(1) as f64,
        "B/B",
    );
    out.put(
        "rnram.reads_per_recovery",
        r.remote.calls(Op::Read) as f64 / n,
        "count",
    );
    out.put(
        "rnram.read_mb_per_recovery",
        r.remote.bytes(Op::Read) as f64 / 1e6 / n,
        "MB",
    );
    out.put(
        "rnram.wait_ms_per_recovery",
        ms(r.remote.total_ns() + r.connect_ns),
        "ms",
    );
    out.put(
        "rnram.setup_mb",
        (at_setup.bytes(Op::Write) + at_setup.bytes(Op::WriteV)) as f64 / 1e6,
        "MB",
    );
    out.put(
        "rnram.setup_wait_s",
        (at_setup.total_ns() + setup.connect_ns) as f64 / 1e9,
        "s",
    );
    out.put(
        "server.requests_per_txn",
        per_txn(t.server.total()),
        "count",
    );
    out.put("server.busy_us_per_txn", server_busy, "us");
    out.put("server.busy_ms_per_recovery", ms(r.server.busy_ns), "ms");
    out.put("wire.us_per_txn", wire, "us");
    out.put("harness.self_us_per_txn", harness, "us");
    out.put("trace.wall_us_per_txn", wall_us, "us");
    out.put("trace.unaccounted_pct", gap_pct, "%");
    out.put("trace.overhead_us", traced_p50 - plain_p50, "us");

    let attempted =
        plain.txn_attempts + plain.recovery_attempts + m.txn_attempts + m.recovery_attempts;
    let failed = plain.txn_failed
        + (plain.recovery_attempts - plain.recovery_ok)
        + m.txn_failed
        + (m.recovery_attempts - m.recovery_ok);
    Ok((violations.is_empty() && failed == 0, attempted, failed, out))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perseas-wallbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            print_result(correct, attempted, failed, &metrics);
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perseas-wallbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_link() -> Traced {
        Traced(Probes {
            remote: Arc::new(OpStats::default()),
            lib: LibStats::default(),
            registry: Registry::new(),
        })
    }

    /// The decorator sees every request the server serves, op by op, across
    /// set-up, transactions, crashed transactions and recoveries.
    #[test]
    fn decorator_counts_equal_server_request_counts() {
        for kind in [Kind::Restart, Kind::Bulk64k] {
            let link = traced_link();
            let (inst, _) = Instance::setup(kind, 7, &link).unwrap();
            let mut lane = Lane::new(kind, 7, inst, &link);
            lane.step(Instant::now() + Duration::from_millis(200));
            lane.step(Instant::now() + Duration::from_millis(200));
            lane.restart_cleanly(1);
            let m = lane.close();
            assert!(m.violations.is_empty(), "{:?}", m.violations);
            assert!(m.txn_lat_ns.len() >= 2 && m.recovery_ok >= 1);
            let remote = link.0.remote.snapshot();
            let server = ServerSnap::read(&link.0.registry);
            reconcile_counts(&remote, &server).unwrap();
            for op in [Op::Malloc, Op::Write, Op::Read, Op::Connect] {
                assert!(remote.calls(op) > 0, "{op:?} never exercised");
            }
            assert_eq!(
                server.total(),
                OPS.iter()
                    .filter_map(|&op| op.server_label().map(|_| remote.calls(op)))
                    .sum::<u64>()
            );
        }
    }

    /// A commit that the mirror lost is caught after recovery.
    #[test]
    fn verify_catches_a_corrupted_mirror() {
        let (mut inst, _) = Instance::setup(Kind::DebitCredit, 3, &Plain).unwrap();
        let mut out = Measured::default();
        inst.run_txns(None, Some(20), None, &mut out);
        inst.verify().unwrap();
        let accounts = inst
            .server
            .node()
            .list_segments()
            .unwrap()
            .into_iter()
            .max_by_key(|s| s.len)
            .unwrap();
        let mut byte = [0u8];
        inst.server
            .node()
            .read(accounts.id, 4242, &mut byte)
            .unwrap();
        inst.server
            .node()
            .write(accounts.id, 4242, &[!byte[0]])
            .unwrap();
        inst.crash_and_recover(&Plain, &mut out).unwrap();
        let e = inst.verify().unwrap_err();
        assert!(e.contains("differs from the model"), "{e}");
        inst.close();
    }

    /// An acknowledged commit the engine does not account for is caught.
    #[test]
    fn verify_catches_a_miscounted_commit() {
        let (mut inst, _) = Instance::setup(Kind::Bulk64k, 5, &Plain).unwrap();
        let mut out = Measured::default();
        inst.run_txns(None, Some(3), None, &mut out);
        inst.verify().unwrap();
        inst.committed += 1;
        assert!(inst.verify().unwrap_err().contains("last_committed"));
        inst.close();
    }
}
