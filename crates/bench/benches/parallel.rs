//! Criterion microbench: the NUMA-aware thread pool (paper Section 4.1) —
//! domain-matched scheduling vs a flat parallel loop, work-stealing under
//! imbalance, and the serial prefix sum behind the commit's counters.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_util::prefix_sum_inclusive;

fn busy_work(iters: u64) -> u64 {
    let mut x = iters.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..iters {
        x ^= x >> 12;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

fn bench_scheduling(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let domains = 2.min(threads);
    let pool = NumaThreadPool::new(NumaTopology::new(domains, threads));
    let sizes = vec![40_000usize / domains; domains];
    let total: usize = sizes.iter().sum();
    let mut group = c.benchmark_group("pool_scheduling");
    group.sample_size(20);
    group.bench_function("numa_for_balanced", |b| {
        b.iter(|| {
            let acc = AtomicU64::new(0);
            pool.numa_for(&sizes, 1_000, &|_w, _domain, range| {
                let mut local = 0u64;
                for i in range {
                    local = local.wrapping_add(busy_work(i as u64 % 32));
                }
                acc.fetch_add(local, Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    group.bench_function("parallel_for_flat", |b| {
        b.iter(|| {
            let acc = AtomicU64::new(0);
            pool.parallel_for(total, 1_000, &|_w, range| {
                let mut local = 0u64;
                for i in range {
                    local = local.wrapping_add(busy_work(i as u64 % 32));
                }
                acc.fetch_add(local, Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    // Pathological imbalance: all agents in one domain. The two-level
    // work-stealing (Figure 2, arrows 4/5) keeps the other domain's threads
    // busy instead of idle.
    let skewed = {
        let mut s = vec![0usize; domains];
        s[0] = total;
        s
    };
    group.bench_function("numa_for_skewed_steal", |b| {
        b.iter(|| {
            let acc = AtomicU64::new(0);
            pool.numa_for(&skewed, 1_000, &|_w, _domain, range| {
                let mut local = 0u64;
                for i in range {
                    local = local.wrapping_add(busy_work(i as u64 % 32));
                }
                acc.fetch_add(local, Ordering::Relaxed);
            });
            black_box(acc.into_inner())
        })
    });
    group.finish();
}

fn bench_dispatch_overhead(c: &mut Criterion) {
    // Fixed engine overhead per iteration at tiny populations — the flat
    // region of Figure 6 (1.21 ms at 10³ agents in the paper).
    let pool = NumaThreadPool::new(NumaTopology::new(1, 2));
    c.bench_function("pool_dispatch_empty", |b| {
        b.iter(|| {
            pool.parallel_for(0, 1_000, &|_w, _range| {});
        })
    });
    c.bench_function("pool_dispatch_1k_noop", |b| {
        b.iter(|| {
            pool.parallel_for(1_000, 100, &|_w, range| {
                black_box(range.len());
            });
        })
    });
}

fn bench_prefix_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_sum");
    for &n in &[10_000usize, 1_000_000] {
        let base: Vec<usize> = (0..n).map(|i| i % 7).collect();
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, _| {
            b.iter(|| {
                let mut v = base.clone();
                black_box(prefix_sum_inclusive(&mut v))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheduling,
    bench_dispatch_overhead,
    bench_prefix_sum
);
criterion_main!(benches);
