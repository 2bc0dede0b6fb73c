//! Criterion microbench: neighbor-search environment build and search
//! stages in isolation (the microscopic view of Figure 11b/11c).
//!
//! The paper's claim: the uniform grid's timestamped O(#agents) build beats
//! the serial kd-tree/octree builds by orders of magnitude, and its 3×3×3
//! box walk also wins the search stage for agent-sized radii.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bdm_env::{
    Environment, KdTreeEnvironment, NeighborQueryScratch, OctreeEnvironment, SliceCloud,
    UniformGridEnvironment, UpdateHint,
};
use bdm_numa::NumaThreadPool;
use bdm_util::{Real3, SimRng};

fn cloud(n: usize, seed: u64) -> Vec<Real3> {
    let mut rng = SimRng::new(seed);
    let extent = (n as f64).cbrt() * 15.0; // density comparable to the models
    (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("env_build");
    group.sample_size(20);
    // The engine's worker pool, as the simulation passes it: the grid
    // builds in parallel on it from its parallel-build threshold (2¹⁶
    // points) on, which only the largest size crosses.
    let pool = NumaThreadPool::detected();
    let hint = UpdateHint {
        pool: Some(&pool),
        ..UpdateHint::default()
    };
    for &n in &[1_000usize, 10_000, 100_000] {
        let points = cloud(n, 7);
        let slice = SliceCloud(&points);
        let radius = 12.0;
        let mut grid = UniformGridEnvironment::new();
        group.bench_with_input(BenchmarkId::new("uniform_grid", n), &n, |b, _| {
            b.iter(|| grid.update_with(black_box(&slice), radius, hint))
        });
        let mut kd = KdTreeEnvironment::new();
        group.bench_with_input(BenchmarkId::new("kd_tree", n), &n, |b, _| {
            b.iter(|| kd.update(black_box(&slice), radius))
        });
        let mut oct = OctreeEnvironment::new();
        group.bench_with_input(BenchmarkId::new("octree", n), &n, |b, _| {
            b.iter(|| oct.update(black_box(&slice), radius))
        });
    }
    group.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("env_search");
    group.sample_size(20);
    let n = 10_000;
    let points = cloud(n, 11);
    let slice = SliceCloud(&points);
    let radius = 12.0;
    let envs: Vec<(&str, Box<dyn Environment>)> = vec![
        ("uniform_grid", Box::new(UniformGridEnvironment::new())),
        ("kd_tree", Box::new(KdTreeEnvironment::new())),
        ("octree", Box::new(OctreeEnvironment::new())),
    ];
    let mut scratch = NeighborQueryScratch::new();
    for (name, mut env) in envs {
        env.update(&slice, radius);
        group.bench_function(BenchmarkId::new(name, n), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for (i, &p) in points.iter().enumerate().step_by(17) {
                    env.for_each_neighbor(
                        &slice,
                        p,
                        Some(i),
                        radius,
                        &mut scratch,
                        &mut |j, _p, _d2| acc = acc.wrapping_add(j),
                    );
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_sparse_rebuild(c: &mut Criterion) {
    // The timestamped boxes (Section 3.1) make build time independent of the
    // number of *boxes*: a sparse population in a huge space must rebuild as
    // fast as a dense one (O(#agents), not O(#agents + #boxes)).
    let mut group = c.benchmark_group("grid_sparse_rebuild");
    group.sample_size(20);
    let n = 2_000;
    for &spread in &[15.0f64, 500.0] {
        let mut rng = SimRng::new(3);
        let extent = (n as f64).cbrt() * spread;
        let points: Vec<Real3> = (0..n).map(|_| rng.point_in_cube(0.0, extent)).collect();
        let slice = SliceCloud(&points);
        let mut grid = UniformGridEnvironment::new();
        group.bench_with_input(
            BenchmarkId::new("spread", format!("{spread}")),
            &spread,
            |b, _| b.iter(|| grid.update(black_box(&slice), 12.0)),
        );
    }
    group.finish();
}

fn bench_tree_parameters(c: &mut Criterion) {
    // Section 6.9's parameter validation: the paper checked that its octree
    // bucket size and kd-tree depth/leaf parameter sit within 4.20% of the
    // optimum. Sweep both and report build+search per configuration.
    let n = 10_000;
    let points = cloud(n, 13);
    let slice = SliceCloud(&points);
    let radius = 12.0;
    let mut group = c.benchmark_group("tree_parameters");
    group.sample_size(10);
    for &bucket in &[8usize, 16, 32, 64, 128] {
        group.bench_with_input(
            BenchmarkId::new("octree_bucket", bucket),
            &bucket,
            |b, &bucket| {
                let mut env = OctreeEnvironment::with_bucket_size(bucket);
                let mut scratch = NeighborQueryScratch::new();
                b.iter(|| {
                    env.update(black_box(&slice), radius);
                    let mut acc = 0usize;
                    for (i, &p) in points.iter().enumerate().step_by(29) {
                        env.for_each_neighbor(
                            &slice,
                            p,
                            Some(i),
                            radius,
                            &mut scratch,
                            &mut |j, _, _| acc = acc.wrapping_add(j),
                        );
                    }
                    black_box(acc)
                })
            },
        );
    }
    for &leaf in &[8usize, 16, 32, 64, 128] {
        group.bench_with_input(BenchmarkId::new("kd_leaf", leaf), &leaf, |b, &leaf| {
            let mut env = KdTreeEnvironment::with_leaf_size(leaf);
            let mut scratch = NeighborQueryScratch::new();
            b.iter(|| {
                env.update(black_box(&slice), radius);
                let mut acc = 0usize;
                for (i, &p) in points.iter().enumerate().step_by(29) {
                    env.for_each_neighbor(
                        &slice,
                        p,
                        Some(i),
                        radius,
                        &mut scratch,
                        &mut |j, _, _| acc = acc.wrapping_add(j),
                    );
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_search,
    bench_sparse_rebuild,
    bench_tree_parameters
);
criterion_main!(benches);
