//! Direct probes of single layers, run once after the traced repetitions.
//!
//! Each probe calls one layer's public API on inputs taken from the
//! workload's own end-of-window scene (or sized like it) and reports the
//! median of [`REPS`] timed repetitions per unit of work, so a moved
//! end-to-end number can be attributed to the layer that moved it. Counts
//! (`env.neighbors_per_agent`) repeat exactly for a seed.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bdm_alloc::{MemoryManager, PoolBox, PoolConfig};
use bdm_checkpoint::Registry;
use bdm_core::{Cell, DiffusionGrid, Real3, SimRng, Simulation};
use bdm_env::{EnvironmentKind, NeighborQueryScratch, SliceCloud};
use bdm_models::CellClustering;
use bdm_numa::{NumaThreadPool, NumaTopology};
use bdm_sfc::{morton3_encode, split_ranges};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Workload, SORT_PERIOD, THREADS, WARMUP};
use crate::MIB;

/// Timed repetitions of a probe.
const REPS: usize = 20;
/// Repetitions of the probes that move the whole state (checkpoint codec).
const HEAVY_REPS: usize = 5;
/// Steps of the single-threaded runs (engine at one thread, baseline).
const BASELINE_STEPS: usize = 5;

/// One reported number. `note` carries what a reader needs to interpret it:
/// sample counts, bases of ratios, computed (not measured) traffic.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note,
        }
    }
}

/// Seconds of each of `reps` calls of `f`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let clock = Instant::now();
            f();
            clock.elapsed().as_secs_f64()
        })
        .collect()
}

pub struct Probes<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    /// `--quick`: smaller caps so the whole pass takes well under a second.
    pub quick: bool,
    pub tracer: &'a mut Tracer,
    pub root: u32,
    pub out: Vec<Metric>,
}

impl Probes<'_> {
    /// Runs `body` inside a `probe.<layer>` span.
    fn span<R>(&mut self, layer: &str, body: impl FnOnce(&mut Self) -> R) -> R {
        let id = self
            .tracer
            .open(format!("probe.{layer}"), Some(self.root), 0);
        let result = body(self);
        self.tracer.close(id, Vec::new());
        result
    }

    fn push(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.out.push(Metric::new(name, value, unit, note));
    }

    /// Every probe, on the simulation a repetition left behind. `t2_iter_s`
    /// is the two-thread time per iteration over the first sort period of
    /// the window — the base of `core.par_eff`.
    pub fn run_all(&mut self, sim: &Simulation, t2_iter_s: f64) {
        let positions = sim.snapshot().positions.clone();
        let diameters = sim.snapshot().diameters.clone();
        let radius = sim
            .param()
            .interaction_radius
            .unwrap_or(sim.snapshot().max_diameter);
        let pairs = self.span("env", |p| p.env(&positions, radius));
        self.span("force", |p| p.force(sim, &positions, &diameters, &pairs));
        self.span("diffusion", |p| p.diffusion());
        self.span("sfc", |p| p.sfc(&positions, radius));
        self.span("alloc", |p| p.alloc());
        self.span("numa", |p| p.numa());
        self.span("checkpoint", |p| p.checkpoint(sim));
        self.memory(sim);
        self.span("single_thread", |p| p.single_thread(t2_iter_s));
    }

    /// Grid rebuild and neighbour streaming with a counting no-op visitor —
    /// the scalar query path. Returns up to the pair cap of resolved
    /// `(agent, neighbour)` pairs for the force probe.
    fn env(&mut self, positions: &[Real3], radius: f64) -> Vec<(u32, u32)> {
        let n = positions.len();
        let cloud = SliceCloud(positions);
        let mut env = EnvironmentKind::UniformGrid.create();
        let rebuild = time_reps(REPS, || env.update(&cloud, radius));
        self.push(
            "env.grid_rebuild_ns",
            median(&rebuild) * 1e9 / n as f64,
            "ns/agent",
            format!(
                "n={REPS} agents={n}; computed: 24 B/agent read + {:.1} B/agent index",
                env.memory_bytes() as f64 / n as f64
            ),
        );

        let pair_cap = if self.quick { 100_000 } else { 4_000_000 };
        let mut pairs = Vec::with_capacity(pair_cap);
        let mut scratch = NeighborQueryScratch::new();
        let mut stream = |visit: &mut dyn FnMut(usize, usize)| {
            for (i, &pos) in positions.iter().enumerate() {
                env.for_each_neighbor(
                    &cloud,
                    pos,
                    Some(i),
                    radius,
                    &mut scratch,
                    &mut |j, _, _| visit(i, j),
                );
            }
        };
        let mut neighbors = 0u64;
        stream(&mut |i, j| {
            neighbors += 1;
            if pairs.len() < pair_cap {
                pairs.push((i as u32, j as u32));
            }
        });
        let streaming = time_reps(REPS, || {
            let mut count = 0u64;
            stream(&mut |_, _| count += 1);
            assert_eq!(black_box(count), neighbors, "neighbour count must repeat");
        });
        self.push(
            "env.neighbor_stream_ns",
            median(&streaming) * 1e9 / n as f64,
            "ns/agent",
            format!("n={REPS} agents={n} radius={radius}"),
        );
        self.push(
            "env.neighbors_per_agent",
            neighbors as f64 / n as f64,
            "count",
            format!("{neighbors} neighbours of {n} agents"),
        );
        pairs
    }

    /// The sphere–sphere force over pre-resolved pairs: the kernel without
    /// the neighbour search around it.
    fn force(
        &mut self,
        sim: &Simulation,
        positions: &[Real3],
        diameters: &[f64],
        pairs: &[(u32, u32)],
    ) {
        let force = sim.force();
        let kernel = time_reps(REPS, || {
            let mut sum = Real3::ZERO;
            for &(i, j) in pairs {
                let (i, j) = (i as usize, j as usize);
                sum += force.sphere_sphere(positions[i], diameters[i], positions[j], diameters[j]);
            }
            black_box(sum);
        });
        self.push(
            "core.force_pair_ns",
            median(&kernel) * 1e9 / pairs.len().max(1) as f64,
            "ns/pair",
            format!(
                "n={REPS} pairs={}; computed: 64 B/pair, 16 flop/pair apart, 28 flop/pair touching",
                pairs.len()
            ),
        );
    }

    /// One explicit diffusion substep on a grid of the resolution the
    /// clustering model uses at this population.
    fn diffusion(&mut self) {
        let resolution = CellClustering::new(self.w.agents).substance_resolution;
        let extent = (self.w.agents as f64).cbrt() * 15.0;
        let mut grid = DiffusionGrid::new("probe", 0.4, 0.001, resolution, Real3::ZERO, extent);
        let mut rng = SimRng::new(self.seed);
        for _ in 0..1000 {
            grid.increase_concentration(rng.point_in_cube(0.0, extent), 1.0);
        }
        let dt = 0.5 * grid.max_stable_dt();
        let steps = time_reps(REPS, || grid.step(dt));
        assert!(grid.total().is_finite());
        self.push(
            "diffusion.step_ns",
            median(&steps) * 1e9 / grid.num_volumes() as f64,
            "ns/volume",
            format!(
                "n={REPS} volumes={} (resolution {resolution})",
                grid.num_volumes()
            ),
        );
    }

    /// Morton-encoding every agent's box coordinate and splitting the codes
    /// into two ranges: the arithmetic under agent sorting and the halo
    /// exchange's partition.
    fn sfc(&mut self, positions: &[Real3], radius: f64) {
        let min = positions
            .iter()
            .fold(Real3::splat(f64::INFINITY), |m, p| m.min(p));
        let boxes: Vec<[u32; 3]> = positions
            .iter()
            .map(|p| {
                let b = (*p - min) * (1.0 / radius);
                [b[0] as u32, b[1] as u32, b[2] as u32]
            })
            .collect();
        let encode = time_reps(REPS, || {
            let codes: Vec<u64> = boxes
                .iter()
                .map(|b| morton3_encode(b[0], b[1], b[2]))
                .collect();
            black_box(split_ranges(&codes, 2));
        });
        self.push(
            "sfc.morton_ns",
            median(&encode) * 1e9 / boxes.len() as f64,
            "ns/agent",
            format!("n={REPS} agents={}", boxes.len()),
        );
    }

    /// Allocate-then-free cycles of agent-sized elements through the pool
    /// allocator and through the system allocator, on a registered thread
    /// (the thread-private free list the engine's workers use).
    fn alloc(&mut self) {
        type Slot = [u8; std::mem::size_of::<Cell>()];
        let count = if self.quick { 10_000 } else { 200_000 };
        let cycle = |mm: &MemoryManager| {
            let per_cycle = time_reps(REPS, || {
                let held: Vec<PoolBox<Slot>> = (0..count)
                    .map(|i| PoolBox::new_in([i as u8; std::mem::size_of::<Cell>()], mm, 0))
                    .collect();
                black_box(&held);
            });
            median(&per_cycle) * 1e9 / count as f64
        };
        bdm_alloc::register_thread(0, 0);
        let pool = cycle(&MemoryManager::new(THREADS, THREADS, PoolConfig::default()));
        let system = cycle(&MemoryManager::system_only(THREADS, THREADS));
        bdm_alloc::unregister_thread();
        let note = format!(
            "n={REPS} elements={count} of {} B",
            std::mem::size_of::<Slot>()
        );
        self.push("alloc.pool_cycle_ns", pool, "ns/cycle", note.clone());
        self.push("alloc.system_cycle_ns", system, "ns/cycle", note);
    }

    /// Dispatch cost and balance of the thread pool's parallel loop with a
    /// trivial body; per-worker busy time is kept by the probe. The loop is
    /// long enough (milliseconds) that a worker's wake-up latency does not
    /// decide the balance.
    fn numa(&mut self) {
        let n = if self.quick { 1_000_000 } else { 10_000_000 };
        let pool = NumaThreadPool::new(NumaTopology::new(THREADS, THREADS));
        // A thread names itself once it runs, and the pinning goes by name.
        pool.broadcast(&|_| {});
        crate::pin::pin_threads();
        let busy: [AtomicU64; THREADS] = std::array::from_fn(|_| AtomicU64::new(0));
        let mut imbalance = Vec::with_capacity(REPS);
        let dispatch = time_reps(REPS, || {
            busy.iter().for_each(|b| b.store(0, Ordering::Relaxed));
            pool.parallel_for(n, 1000, &|ctx, range| {
                let clock = Instant::now();
                black_box(range.fold(0usize, |sum, i| sum.wrapping_add(black_box(i))));
                busy[ctx.thread_id].fetch_add(clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
            let per_worker: Vec<f64> = busy
                .iter()
                .map(|b| b.load(Ordering::Relaxed) as f64)
                .collect();
            let mean = per_worker.iter().sum::<f64>() / THREADS as f64;
            imbalance.push(per_worker.iter().fold(0.0, |m: f64, &b| m.max(b)) / mean.max(1.0));
        });
        self.push(
            "numa.dispatch_ns",
            median(&dispatch) * 1e9 / n as f64,
            "ns/index",
            format!("n={REPS} indices={n} block=1000 threads={THREADS}"),
        );
        self.push(
            "numa.imbalance",
            median(&imbalance),
            "ratio",
            format!("n={REPS}; max / mean worker busy time, 1 = balanced"),
        );
    }

    /// Checkpoint codec throughput on the end-of-window state. Off the hot
    /// loop, so no end-to-end metric moves with it.
    fn checkpoint(&mut self, sim: &Simulation) {
        let registry = Registry::with_builtin_types();
        let bytes = bdm_checkpoint::checkpoint(sim).expect("built-in models are checkpointable");
        let write = time_reps(HEAVY_REPS, || {
            black_box(bdm_checkpoint::checkpoint(sim).expect("built-in models are checkpointable"));
        });
        let restore = time_reps(HEAVY_REPS, || {
            let restored =
                bdm_checkpoint::restore(&bytes, &registry).expect("own checkpoint restores");
            assert_eq!(restored.num_agents(), sim.num_agents());
        });
        let mib = bytes.len() as f64 / MIB;
        let note = format!("n={HEAVY_REPS} bytes={}", bytes.len());
        self.push(
            "checkpoint.write_mibps",
            mib / median(&write),
            "MiB/s",
            note.clone(),
        );
        self.push(
            "checkpoint.restore_mibps",
            mib / median(&restore),
            "MiB/s",
            note,
        );
        self.push(
            "checkpoint.bytes_per_agent",
            bytes.len() as f64 / sim.num_agents() as f64,
            "B/agent",
            format!("agents={}", sim.num_agents()),
        );
    }

    /// Memory by structure at the end of the window.
    fn memory(&mut self, sim: &Simulation) {
        let agents = format!("agents={}", sim.num_agents());
        self.push(
            "mem.snapshot_mib",
            sim.snapshot_memory_bytes() as f64 / MIB,
            "MiB",
            agents.clone(),
        );
        self.push(
            "mem.env_mib",
            sim.environment_memory_bytes() as f64 / MIB,
            "MiB",
            agents.clone(),
        );
        self.push(
            "mem.pool_reserved_mib",
            sim.memory_stats().reserved_bytes as f64 / MIB,
            "MiB",
            agents,
        );
    }

    /// The same workload on one engine thread (parallel efficiency against
    /// the two-thread window) and the plain single-threaded reference engine
    /// on a small scene of the same model.
    fn single_thread(&mut self, t2_iter_s: f64) {
        let mut sim = self.w.build(self.seed, 1);
        sim.simulate(WARMUP);
        let steps = time_reps(SORT_PERIOD, || sim.step());
        let t1_iter_s = steps.iter().sum::<f64>() / SORT_PERIOD as f64;
        self.push(
            "core.par_eff",
            t1_iter_s / (THREADS as f64 * t2_iter_s),
            "ratio",
            format!("t1={t1_iter_s} s/iter over {SORT_PERIOD} iterations, t{THREADS}={t2_iter_s} s/iter"),
        );

        let agents = if self.quick { 2_000 } else { 20_000 };
        let mut engine = bdm_baseline::engine_by_name(self.w.model, self.seed, agents)
            .expect("every workload model has a baseline counterpart");
        let steps = time_reps(BASELINE_STEPS, || engine.step(1.0));
        self.push(
            "baseline.iter_ns_per_agent",
            median(&steps) * 1e9 / agents as f64,
            "ns/agent",
            format!("n={BASELINE_STEPS} agents={agents}, bdm_baseline, one thread"),
        );
    }
}
