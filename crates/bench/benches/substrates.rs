//! Wall-clock micro-benchmarks of the substrates: SCI packetisation and
//! latency model, node memory, disk simulator, undo-record codec, the
//! typed record containers, and the TCP wire protocol.
//!
//! With `--json` it writes `results/BENCH_substrates.json`: the measured
//! CRC-32 cost at 256 B and 64 KiB, gated as durations against
//! `results/baselines/BENCH_substrates.json` so a slow CRC (the old
//! bit-at-a-time loop was ~11x slower) fails CI.

use std::time::Instant;

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};

use perseas_bench::BenchReport;
use perseas_core::{crc32, UndoRecord};
use perseas_disk::{DiskParams, SimDisk, WriteMode};
use perseas_rnram::plan_transfer;
use perseas_sci::{packetize, remote_write_latency, NodeMemory, SciLink, SciParams};
use perseas_simtime::SimClock;

fn bench_sci(c: &mut Criterion) {
    let mut g = c.benchmark_group("sci");
    for size in [4usize, 64, 200, 4096] {
        g.bench_with_input(BenchmarkId::new("packetize", size), &size, |b, &size| {
            b.iter(|| packetize(std::hint::black_box(12), size));
        });
        g.bench_with_input(
            BenchmarkId::new("latency_model", size),
            &size,
            |b, &size| {
                let p = SciParams::dolphin_1998();
                b.iter(|| remote_write_latency(&p, std::hint::black_box(12), size));
            },
        );
    }
    g.bench_function("plan_transfer", |b| {
        b.iter(|| plan_transfer(0, std::hint::black_box(70), 100, 4096));
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("remote_write_4k", |b| {
        let clock = SimClock::new();
        let node = NodeMemory::new("bench");
        let link = SciLink::new(clock, node.clone(), SciParams::dolphin_1998());
        let seg = node.export_segment(1 << 20, 0).expect("export");
        let data = vec![7u8; 4096];
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 4096) % (1 << 19);
            link.remote_write(seg, off, &data).expect("write");
        });
    });
    g.finish();
}

fn bench_disk(c: &mut Criterion) {
    let mut g = c.benchmark_group("disk");
    g.bench_function("async_append_512", |b| {
        let disk = SimDisk::new(SimClock::new(), DiskParams::disk_1998());
        let f = disk.create_file("log", 0);
        let data = [1u8; 512];
        b.iter(|| f.append(&data, WriteMode::Async));
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    let payload = vec![3u8; 256];
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("crc32_256b", |b| {
        b.iter(|| crc32(&[std::hint::black_box(&payload)]));
    });
    let big = vec![3u8; 64 * 1024];
    g.throughput(Throughput::Bytes(big.len() as u64));
    g.bench_function("crc32_64k", |b| {
        b.iter(|| crc32(&[std::hint::black_box(&big)]));
    });
    g.throughput(Throughput::Bytes(payload.len() as u64));
    g.bench_function("undo_record_roundtrip", |b| {
        let rec = UndoRecord {
            txn_id: 9,
            region: 1,
            offset: 128,
            len: payload.len() as u64,
        };
        let mut buf = vec![0u8; 512];
        b.iter(|| {
            rec.encode_into(&mut buf, 0, &payload);
            UndoRecord::decode_at(&buf, 0).expect("valid")
        });
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    use perseas_baselines::VistaSystem;
    use perseas_store::{fixed_record, RingLog, Table};
    use perseas_txn::TransactionalMemory;

    fixed_record! {
        struct BenchRec {
            a: u64,
            b: i64,
        }
    }

    let mut g = c.benchmark_group("store");
    g.throughput(Throughput::Elements(1));
    g.bench_function("table_update_txn", |b| {
        let mut tm = VistaSystem::new(SimClock::new());
        let t = Table::<BenchRec>::create(&mut tm, 1_024).expect("table");
        tm.publish().expect("publish");
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7) % 1_024;
            tm.begin_transaction().expect("begin");
            t.update(&mut tm, i, |r| r.a += 1).expect("update");
            tm.commit_transaction().expect("commit");
        });
    });
    g.bench_function("ring_push_txn", |b| {
        let mut tm = VistaSystem::new(SimClock::new());
        let log = RingLog::<u64>::create(&mut tm, 256).expect("ring");
        tm.publish().expect("publish");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            tm.begin_transaction().expect("begin");
            log.push(&mut tm, &i).expect("push");
            tm.commit_transaction().expect("commit");
        });
    });
    g.finish();
}

fn bench_tcp(c: &mut Criterion) {
    use perseas_rnram::{server::Server, RemoteMemory, TcpRemote};

    let mut g = c.benchmark_group("tcp");
    g.sample_size(30);
    g.throughput(Throughput::Bytes(64));
    g.bench_function("roundtrip_write_64b", |b| {
        let server = Server::bind("bench", "127.0.0.1:0").expect("bind").start();
        let mut client = TcpRemote::connect(server.addr()).expect("connect");
        let seg = client.remote_malloc(4_096, 0).expect("malloc");
        let data = [7u8; 64];
        let mut off = 0usize;
        b.iter(|| {
            off = (off + 64) % 4_096;
            client.remote_write(seg.id, off, &data).expect("write");
        });
        server.shutdown();
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sci, bench_disk, bench_codec, bench_store, bench_tcp
}

/// Wall time of one `crc32` call over `len` bytes, in nanoseconds: the
/// median of 15 batches of about 16 MiB each, so one slow batch (host
/// noise) does not move the gated figure.
fn crc_ns(len: usize) -> f64 {
    let data = vec![3u8; len];
    let calls = ((16 << 20) / len).max(1);
    let mut batches: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(crc32(&[std::hint::black_box(&data)]));
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

fn main() {
    benches();
    let ns_256 = crc_ns(256);
    let ns_64k = crc_ns(64 * 1024);
    let mib_s = |len: usize, ns: f64| len as f64 / ns * 1e9 / (1 << 20) as f64;
    println!(
        "substrates: crc32 {ns_256:.0} ns per 256 B ({:.0} MiB/s), \
         {:.1} us per 64 KiB ({:.0} MiB/s)",
        mib_s(256, ns_256),
        ns_64k / 1e3,
        mib_s(64 * 1024, ns_64k)
    );
    // Wall clock on shared runners is noisy, so the gate is loose (75%),
    // but a 2x slower CRC — let alone the ~11x of a bitwise loop — fails.
    if let Some(json) = BenchReport::new("substrates")
        .measured("crc32_256b_ns", ns_256)
        .measured("crc32_64k_ns", ns_64k)
        .gate_duration_within("crc32_256b_ns", 75.0)
        .gate_duration_within("crc32_64k_ns", 75.0)
        .write_if_json_mode()
    {
        println!("substrates: wrote {json}");
    }
}
