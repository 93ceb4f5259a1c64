//! Per-access cost of the baseline ORAMs: Path ORAM (flat and recursive
//! position maps), Ring ORAM, and the Obladi proxy's per-request amortized
//! cost at its configured batch size.

use criterion::{criterion_group, criterion_main, Criterion};
use snoopy_baselines::obladi::{ObladiProxy, ProxyRequest};
use snoopy_baselines::pathoram::{PathOram, RecursivePathOram};
use snoopy_baselines::ringoram::RingOram;
use snoopy_baselines::{Op as POp, Op as ROp};

fn bench_pathoram(c: &mut Criterion) {
    let mut g = c.benchmark_group("pathoram_access");
    g.sample_size(20);
    let mut flat = PathOram::new(1 << 16, 160, 1);
    let mut addr = 0u64;
    g.bench_function("flat_2^16", |b| {
        b.iter(|| {
            addr = (addr + 7919) % (1 << 16);
            flat.access(POp::Read, addr, None)
        })
    });
    let mut rec = RecursivePathOram::new(1 << 16, 160, 64, 2);
    g.bench_function("recursive_2^16", |b| {
        b.iter(|| {
            addr = (addr + 7919) % (1 << 16);
            rec.access(POp::Read, addr, None)
        })
    });
    g.finish();
}

fn bench_ringoram(c: &mut Criterion) {
    let mut g = c.benchmark_group("ringoram_access");
    g.sample_size(20);
    let mut oram = RingOram::new(1 << 16, 160, 3);
    let mut addr = 0u64;
    g.bench_function("2^16", |b| {
        b.iter(|| {
            addr = (addr + 7919) % (1 << 16);
            oram.access(ROp::Read, addr, None)
        })
    });
    g.finish();
}

fn bench_obladi(c: &mut Criterion) {
    let mut g = c.benchmark_group("obladi_proxy");
    g.sample_size(10);
    let mut proxy = ObladiProxy::new(1 << 14, 160, 100, 4);
    let mut tag = 0u64;
    g.bench_function("batch100_per_batch", |b| {
        b.iter(|| {
            let mut out = None;
            for _ in 0..100 {
                tag += 1;
                out = proxy.submit(ProxyRequest {
                    addr: tag % (1 << 14),
                    op: ROp::Read,
                    data: None,
                    tag,
                });
            }
            out.unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pathoram, bench_ringoram, bench_obladi);
criterion_main!(benches);
