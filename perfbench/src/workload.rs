//! The four workloads, how one repetition of a workload runs, and what makes
//! its result correct.
//!
//! A repetition builds the model from the seed, runs [`WARMUP`] iterations
//! (the first-iteration Morton sort and the first scheduled sort fall here),
//! then times a window of iterations that is a whole number of sort periods,
//! so every window holds the same number of sorts. Everything is sized for a
//! 2-CPU host: two worker threads, one workload per process, closed loop —
//! the next iteration starts when the previous one returned.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use bdm_core::{builtin, OptLevel, Param, SimStats, Simulation};
use bdm_models::model_by_name;

use crate::trace::Tracer;

/// Worker threads and virtual NUMA domains of every run.
pub const THREADS: usize = 2;
/// Warm-up iterations before the timed window.
pub const WARMUP: usize = 10;
/// `agent_sort_frequency` of the optimisation ladder; windows are multiples.
pub const SORT_PERIOD: usize = 10;
/// Population of every workload in `--quick` mode.
pub const QUICK_AGENTS: usize = 10_000;

/// The built-in operations of an iteration, in pipeline order.
pub const OPS: [&str; 7] = [
    builtin::SNAPSHOT,
    builtin::HALO_EXCHANGE,
    builtin::ENVIRONMENT,
    builtin::AGENT_OPS,
    builtin::DIFFUSION,
    builtin::TEARDOWN,
    builtin::AGENT_SORTING,
];

/// Whether the population may change, and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Population {
    /// Nothing is added or removed: the count is exactly the initial one
    /// after every iteration.
    Constant,
    /// Agents are created and deleted; the final count stays within these
    /// factors of the initial one.
    Turnover { min_factor: f64, max_factor: f64 },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// `bdm_models::model_by_name` key.
    pub model: &'static str,
    pub agents: usize,
    /// `Param::shards`.
    pub shards: usize,
    /// Timed iterations per repetition.
    pub window: usize,
    pub population: Population,
    /// Inclusive ranges for the model's `validate()` values, as a factor of
    /// the initial population where `per_agent` is set. Unlisted values only
    /// have to be finite.
    pub expect: &'static [Expect],
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub key: &'static str,
    pub min: f64,
    pub max: f64,
    pub per_agent: bool,
}

const fn range(key: &'static str, min: f64, max: f64) -> Expect {
    Expect {
        key,
        min,
        max,
        per_agent: false,
    }
}

const fn per_agent(key: &'static str, min: f64, max: f64) -> Expect {
    Expect {
        key,
        min,
        max,
        per_agent: true,
    }
}

const CLUSTERING_EXPECT: &[Expect] = &[
    // Two well-mixed types start at 0.5 and only sort from there.
    range("same_type_fraction", 0.4, 1.0),
    per_agent("final_agents", 1.0, 1.0),
    // Every cell secretes 1.0 per iteration; decay removes a little.
    per_agent("substance_total_0", 1.0, 1e3),
    per_agent("substance_total_1", 1.0, 1e3),
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "clustering",
        model: "cell_clustering",
        agents: 200_000,
        shards: 1,
        window: 20,
        population: Population::Constant,
        expect: CLUSTERING_EXPECT,
        why: "dense constant population: box-batched force kernel, neighbour streaming and grid rebuild do the work; two diffusion grids tick along",
    },
    Workload {
        name: "epidemiology",
        model: "epidemiology",
        agents: 200_000,
        shards: 1,
        window: 40,
        population: Population::Constant,
        expect: &[
            per_agent("susceptible", 0.0, 1.0),
            per_agent("infected", 0.0, 1.0),
            per_agent("recovered", 0.0, 1.0),
            range("population_conserved", 1.0, 1.0),
        ],
        why: "mechanics off, so the force kernel is bypassed: random walkers decay the memory order and sort, rebuild and payload snapshot carry the iteration",
    },
    Workload {
        name: "oncology",
        model: "oncology",
        agents: 100_000,
        shards: 1,
        window: 20,
        population: Population::Turnover {
            min_factor: 0.9,
            max_factor: 2.0,
        },
        // `Population::Turnover` already bounds all three validate() values.
        expect: &[],
        why: "the only population that turns over: parallel add/remove commit, pool allocator, static-agent skipping, growing memory; grid rebuild is a small share",
    },
    Workload {
        name: "clustering_k2",
        model: "cell_clustering",
        agents: 50_000,
        shards: 2,
        window: 10,
        population: Population::Constant,
        expect: CLUSTERING_EXPECT,
        why: "the sharded engine (Param::shards = 2): halo exchange and two windowed grids; on the other three workloads halo_exchange stays 0",
    },
];

pub fn workload_by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--quick` variant: same layers, seconds instead of minutes.
    pub fn quick(&self) -> Workload {
        Workload {
            agents: QUICK_AGENTS,
            window: SORT_PERIOD,
            ..self.clone()
        }
    }

    /// Builds the scene from `seed` on the fully optimised ladder (what
    /// `fig05_breakdown` runs) with `threads` workers, one per domain, each
    /// pinned to its CPU (see [`crate::pin`]).
    pub fn build(&self, seed: u64, threads: usize) -> Simulation {
        let mut param = Param::default().apply_opt_level(OptLevel::StaticDetection);
        param.seed = seed;
        param.threads = Some(threads);
        param.numa_domains = Some(threads);
        param.shards = self.shards;
        let sim = model_by_name(self.model, self.agents)
            .expect("workload table names a registered model")
            .build(param);
        crate::pin::pin_threads();
        sim
    }

    /// Cheap per-iteration invariant, checked after every timed step.
    fn population_holds(&self, sim: &Simulation) -> bool {
        match self.population {
            Population::Constant => sim.num_agents() == self.agents,
            Population::Turnover { .. } => sim.num_agents() > 0,
        }
    }

    /// The end-of-window correctness check. Tolerance and invariant based,
    /// so a later optimisation that legitimately changes bits is not locked
    /// out by a golden hash. Returns every broken expectation, and the
    /// model's `validate()` values for the record.
    pub fn check(
        &self,
        sim: &mut Simulation,
        window: &SimStats,
    ) -> (Vec<String>, Vec<(String, f64)>) {
        let mut broken = Vec::new();
        let violations = sim.run_health_check();
        if violations != 0 {
            broken.push(format!("health check found {violations} violations"));
        }
        let n0 = self.agents as f64;
        match self.population {
            Population::Constant => {
                if sim.num_agents() != self.agents
                    || window.agents_added != 0
                    || window.agents_removed != 0
                {
                    broken.push(format!(
                        "population must stay {}: {} agents, +{} -{}",
                        self.agents,
                        sim.num_agents(),
                        window.agents_added,
                        window.agents_removed
                    ));
                }
            }
            Population::Turnover {
                min_factor,
                max_factor,
            } => {
                let n = sim.num_agents() as f64;
                if window.agents_added == 0
                    || window.agents_removed == 0
                    || n < min_factor * n0
                    || n > max_factor * n0
                {
                    broken.push(format!(
                        "population must turn over within [{min_factor}, {max_factor}] x {}: {n} agents, +{} -{}",
                        self.agents, window.agents_added, window.agents_removed
                    ));
                }
            }
        }
        let model = model_by_name(self.model, self.agents).expect("registered model");
        let validated = model.validate(sim);
        for (key, value) in &validated {
            let bounds = self.expect.iter().find(|e| e.key == key.as_str()).map(|e| {
                let scale = if e.per_agent { n0 } else { 1.0 };
                (e.min * scale, e.max * scale)
            });
            let inside = bounds.is_none_or(|(min, max)| (min..=max).contains(value));
            if !value.is_finite() || !inside {
                broken.push(format!("validate {key} = {value} outside {bounds:?}"));
            }
        }
        match (self.shards > 1, sim.shard_report()) {
            (false, None) => {}
            (true, Some(report)) => {
                let owned: usize = report.per_shard.iter().map(|s| s.owned).sum();
                if report.exchanges + report.exchange_skips != sim.iteration()
                    || owned != sim.num_agents()
                {
                    broken.push(format!(
                        "shards: {}+{} exchanges over {} iterations, {owned} owned of {}",
                        report.exchanges,
                        report.exchange_skips,
                        sim.iteration(),
                        sim.num_agents()
                    ));
                }
            }
            (sharded, report) => broken.push(format!(
                "sharded = {sharded} but shard report present = {}",
                report.is_some()
            )),
        }
        (broken, validated)
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Model build plus warm-up.
    pub setup_s: f64,
    /// Each timed `step()`, by the benchmark's own clock.
    pub step_s: Vec<f64>,
    /// Threads held in place by [`crate::pin`]; 0 means the placement, and
    /// with it the timings, were the scheduler's choice.
    pub pinned_threads: usize,
    /// Whether spans were recorded (and the scheduler read) per iteration.
    pub traced: bool,
    /// Per operation of [`OPS`]: the duration of every due run in the
    /// window (traced repetitions only).
    pub op_run_s: [Vec<f64>; 7],
    /// `sim.stats()` delta over the window.
    pub window_stats: SimStats,
    pub final_agents: usize,
    /// The model's `validate()` values at the end of the window.
    pub validated: Vec<(String, f64)>,
    /// One operation per timed iteration plus the final check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Rep {
    /// Window wall time per iteration, periodic sorts at their true share.
    pub fn iter_s(&self) -> f64 {
        self.step_s.iter().sum::<f64>() / self.step_s.len().max(1) as f64
    }

    /// Seconds per iteration spent in operation `op` of [`OPS`].
    pub fn op_iter_s(&self, op: usize) -> f64 {
        self.op_run_s[op].iter().sum::<f64>() / self.step_s.len().max(1) as f64
    }
}

fn stats_delta(after: SimStats, before: SimStats) -> SimStats {
    SimStats {
        agents_added: after.agents_added - before.agents_added,
        agents_removed: after.agents_removed - before.agents_removed,
        force_calculations: after.force_calculations - before.force_calculations,
        batched_force_queries: after.batched_force_queries - before.batched_force_queries,
        static_skipped: after.static_skipped - before.static_skipped,
        sorts: after.sorts - before.sorts,
        ..after
    }
}

/// Runs one repetition. With a tracer, `setup` and every `iteration` become
/// child spans of `root`, and each due operation a child of its iteration:
/// the scheduler reports per-operation durations, not start times, so the
/// `op.*` spans are laid back to back from the iteration's start in pipeline
/// order and what remains at the end is the scheduler's own time.
///
/// Returns the simulation too (unless a step panicked), for the probes.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    run: u32,
    mut trace: Option<(&mut Tracer, u32)>,
) -> (Rep, Option<Simulation>) {
    let mut rep = Rep {
        traced: trace.is_some(),
        attempted: w.window as u64 + 1,
        ..Rep::default()
    };
    let setup_span = trace
        .as_mut()
        .map(|(t, root)| t.open("setup", Some(*root), run));
    let setup = Instant::now();
    let mut sim = w.build(seed, THREADS);
    sim.simulate(WARMUP);
    // The first warm-up of a process creates the parallel-iterator pool.
    rep.pinned_threads = crate::pin::pin_threads();
    rep.setup_s = setup.elapsed().as_secs_f64();
    if let (Some((t, _)), Some(id)) = (trace.as_mut(), setup_span) {
        t.close(id, vec![("agents", sim.num_agents() as u64)]);
    }

    let stats_before = sim.stats();
    let mut ops_before = trace.as_ref().map(|_| sim.scheduler().ops());
    for i in 0..w.window {
        let span = trace
            .as_mut()
            .map(|(t, root)| (t.now_ns(), t.open("iteration", Some(*root), run)));
        let clock = Instant::now();
        let stepped = catch_unwind(AssertUnwindSafe(|| sim.step()));
        rep.step_s.push(clock.elapsed().as_secs_f64());
        if let (Some((t, _)), Some((start_ns, id))) = (trace.as_mut(), span) {
            t.close(id, vec![("agents", sim.num_agents() as u64)]);
            let ops_after = sim.scheduler().ops();
            let mut cursor = start_ns;
            for (before, after) in ops_before.iter().flatten().zip(&ops_after) {
                assert_eq!(before.name, after.name, "pipeline changed mid-window");
                if after.runs == before.runs {
                    continue;
                }
                let spent = after.total - before.total;
                let end = cursor + spent.as_nanos() as u64;
                t.record(
                    format!("op.{}", after.name),
                    Some(id),
                    run,
                    cursor,
                    end,
                    vec![("runs", after.runs - before.runs)],
                );
                cursor = end;
                if let Some(op) = OPS.iter().position(|&name| name == after.name) {
                    rep.op_run_s[op].push(spent.as_secs_f64());
                }
            }
            ops_before = Some(ops_after);
        }
        let broken = match stepped {
            Err(_) => Some("step() panicked".to_string()),
            Ok(()) if !w.population_holds(&sim) => Some(format!(
                "population invariant broke: {} agents",
                sim.num_agents()
            )),
            Ok(()) => None,
        };
        if let Some(why) = broken {
            // This and every remaining iteration fail, and so does the
            // final check that can no longer run.
            rep.failed = (w.window - i) as u64 + 1;
            rep.errors.push(format!("iteration {}: {why}", i + 1));
            return (rep, None);
        }
    }
    rep.window_stats = stats_delta(sim.stats(), stats_before);
    rep.final_agents = sim.num_agents();
    (rep.errors, rep.validated) = w.check(&mut sim, &rep.window_stats);
    if !rep.errors.is_empty() {
        // A wrong final state leaves none of the iterations that produced
        // it verified.
        rep.failed = rep.attempted;
    }
    (rep, Some(sim))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_checks_in_quick_mode() {
        for w in &WORKLOADS {
            let w = w.quick();
            let (rep, sim) = run_rep(&w, 4357, 1, None);
            assert_eq!(rep.errors, Vec::<String>::new(), "{}", w.name);
            assert_eq!((rep.attempted, rep.failed), (SORT_PERIOD as u64 + 1, 0));
            assert_eq!(rep.step_s.len(), SORT_PERIOD);
            assert_eq!(rep.window_stats.sorts, 1, "{}: one sort per period", w.name);
            assert!(sim.is_some());
        }
    }

    #[test]
    fn layers_separate_by_workload() {
        let rep = |name: &str| run_rep(&workload_by_name(name).unwrap().quick(), 90210, 1, None).0;
        let (clustering, epidemiology, oncology) =
            (rep("clustering"), rep("epidemiology"), rep("oncology"));
        assert!(clustering.window_stats.force_calculations > 0);
        assert_eq!(epidemiology.window_stats.force_calculations, 0);
        assert_eq!(clustering.window_stats.agents_added, 0);
        assert!(oncology.window_stats.agents_added > 0);
        assert!(oncology.window_stats.agents_removed > 0);
    }

    #[test]
    fn a_broken_expectation_fails_every_operation() {
        const DOUBLED: &[Expect] = &[per_agent("final_agents", 2.0, 3.0)];
        let w = Workload {
            expect: DOUBLED,
            ..workload_by_name("clustering").unwrap().quick()
        };
        let (rep, _) = run_rep(&w, 4357, 1, None);
        assert_eq!(rep.failed, rep.attempted);
        assert!(rep.errors[0].contains("final_agents"), "{:?}", rep.errors);
    }

    #[test]
    fn traced_iterations_are_covered_by_their_operations() {
        let w = workload_by_name("clustering_k2").unwrap().quick();
        let mut tracer = Tracer::with_capacity(256);
        let root = tracer.open("workload", None, 0);
        let (rep, _) = run_rep(&w, 4357, 1, Some((&mut tracer, root)));
        tracer.close(root, Vec::new());
        assert!(rep.errors.is_empty(), "{:?}", rep.errors);
        let own = crate::trace::self_times_ns(tracer.spans());
        let (mut total, mut uncovered) = (0, 0);
        for s in tracer.spans().iter().filter(|s| s.name == "iteration") {
            total += s.duration_ns();
            uncovered += own[s.id as usize];
        }
        assert!(
            total > 0 && uncovered * 20 <= total,
            "{uncovered} of {total} ns uncovered"
        );
        let halo = OPS
            .iter()
            .position(|&n| n == builtin::HALO_EXCHANGE)
            .unwrap();
        assert_eq!(rep.op_run_s[halo].len(), SORT_PERIOD);
        let sort = OPS
            .iter()
            .position(|&n| n == builtin::AGENT_SORTING)
            .unwrap();
        assert_eq!(rep.op_run_s[sort].len(), 1);
    }
}
