//! Criterion microbench: the pool memory allocator (paper Section 4.3,
//! Figure 13's microscopic counterpart) against the system allocator, plus
//! an ablation of `PoolConfig::growth_rate`, the block growth factor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bdm_alloc::{MemoryManager, PoolBox, PoolConfig};

/// Agent-sized payload (a `Cell` is ~120 bytes).
struct Payload {
    _data: [u64; 16],
}

impl Payload {
    fn new(v: u64) -> Payload {
        Payload { _data: [v; 16] }
    }
}

fn bench_alloc_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("alloc_free_cycle");
    let n = 4_096;
    let pool_mm = MemoryManager::new(1, 1, PoolConfig::default());
    bdm_alloc::register_thread(0, 0);
    group.bench_function("pool", |b| {
        b.iter(|| {
            let boxes: Vec<PoolBox<Payload>> = (0..n)
                .map(|i| PoolBox::new_in(Payload::new(i), &pool_mm, 0))
                .collect();
            black_box(&boxes);
        })
    });
    group.bench_function("system", |b| {
        b.iter(|| {
            let boxes: Vec<Box<Payload>> = (0..n).map(|i| Box::new(Payload::new(i))).collect();
            black_box(&boxes);
        })
    });
    // LIFO reuse: the pool's thread-private free list should make
    // free-then-alloc cycles cheap (constant-time, cache-warm).
    group.bench_function("pool_churn", |b| {
        b.iter(|| {
            for i in 0..n {
                let p = PoolBox::new_in(Payload::new(i), &pool_mm, 0);
                black_box(&p);
            }
        })
    });
    group.bench_function("system_churn", |b| {
        b.iter(|| {
            for i in 0..n {
                let p = Box::new(Payload::new(i));
                black_box(&p);
            }
        })
    });
    group.finish();
    bdm_alloc::unregister_thread();
}

fn bench_growth_rate(c: &mut Criterion) {
    // Ablation of `PoolConfig::growth_rate`: slower growth means more block
    // allocations while the population ramps up; faster growth reserves
    // more memory up front.
    let mut group = c.benchmark_group("growth_rate_ramp");
    group.sample_size(10);
    let n = 50_000;
    for &rate in &[1.25f64, 2.0, 4.0] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &rate, |b, &rate| {
            b.iter(|| {
                let mm = MemoryManager::new(
                    1,
                    1,
                    PoolConfig {
                        growth_rate: rate,
                        ..PoolConfig::default()
                    },
                );
                let boxes: Vec<PoolBox<Payload>> = (0..n)
                    .map(|i| PoolBox::new_in(Payload::new(i), &mm, 0))
                    .collect();
                black_box(&boxes);
                drop(boxes);
                black_box(mm.stats().reserved_bytes)
            })
        });
    }
    group.finish();
}

fn bench_size_classes(c: &mut Criterion) {
    // Mixed-size allocation exercises the per-size-class allocator lookup
    // (agents and behaviors have distinct sizes and live in distinct pools).
    let mm = MemoryManager::new(1, 1, PoolConfig::default());
    bdm_alloc::register_thread(0, 0);
    c.bench_function("alloc_mixed_size_classes", |b| {
        b.iter(|| {
            let small: Vec<PoolBox<[u64; 4]>> =
                (0..512).map(|i| PoolBox::new_in([i; 4], &mm, 0)).collect();
            let medium: Vec<PoolBox<[u64; 16]>> =
                (0..512).map(|i| PoolBox::new_in([i; 16], &mm, 0)).collect();
            let large: Vec<PoolBox<[u64; 64]>> =
                (0..512).map(|i| PoolBox::new_in([i; 64], &mm, 0)).collect();
            black_box((&small, &medium, &large));
        })
    });
    bdm_alloc::unregister_thread();
}

criterion_group!(
    benches,
    bench_alloc_free,
    bench_growth_rate,
    bench_size_classes
);
criterion_main!(benches);
