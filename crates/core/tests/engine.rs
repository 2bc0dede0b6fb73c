//! End-to-end engine tests: parallel commit (Figure 1), behaviors,
//! mechanics, static detection (Section 5), agent sorting (Section 4.2),
//! and determinism.

use bdm_core::{
    clone_behavior_box, new_agent_box, new_behavior_box, Agent, AgentContext, AgentHandle,
    AgentUid, Behavior, BehaviorControl, Cell, DiffusionGrid, EnvironmentKind, ExecutionContext,
    MemoryManager, NumaThreadPool, NumaTopology, OpKind, Operation, Param, Real3, ResourceManager,
    Simulation,
};
use bdm_sfc::morton3_encode;
use bdm_util::SimRng;
use proptest::prelude::*;

fn mm(domains: usize, threads: usize) -> MemoryManager {
    MemoryManager::new(domains, threads, bdm_alloc_cfg())
}

fn bdm_alloc_cfg() -> bdm_alloc::PoolConfig {
    bdm_alloc::PoolConfig::default()
}

/// Builds an RM with `uids` as cells in one domain.
fn rm_with_uids(uids: &[u64], mm: &MemoryManager) -> ResourceManager {
    let mut rm = ResourceManager::new(1);
    for &u in uids {
        let cell = Cell::new(AgentUid(u));
        rm.push(0, new_agent_box(cell, mm, 0), 0);
    }
    rm
}

fn surviving_uids(rm: &ResourceManager) -> Vec<u64> {
    let mut v = Vec::new();
    rm.for_each_agent(|_, a| v.push(a.uid().0));
    v
}

#[test]
fn figure1_removal_example() {
    // Paper Figure 1: agents [5,2,1,8,7,3,6], remove {2,8} (thread 0) and
    // {7} (thread 1) → result [5,3,1,6].
    let pool = NumaThreadPool::new(NumaTopology::new(1, 2));
    let m = mm(1, 2);
    let mut rm = rm_with_uids(&[5, 2, 1, 8, 7, 3, 6], &m);
    let mut ctxs = vec![ExecutionContext::new(1), ExecutionContext::new(1)];
    ctxs[0].queue_removal(AgentHandle::new(0, 1)); // uid 2
    ctxs[0].queue_removal(AgentHandle::new(0, 3)); // uid 8
    ctxs[1].queue_removal(AgentHandle::new(0, 4)); // uid 7
    let stats = rm.commit(&mut ctxs, &pool, true, 1);
    assert_eq!(stats.removed, 3);
    assert_eq!(surviving_uids(&rm), vec![5, 3, 1, 6]);
    drop(rm);
    assert_eq!(m.outstanding(), 0);
}

#[test]
fn parallel_and_serial_removal_agree() {
    let pool = NumaThreadPool::new(NumaTopology::new(2, 4));
    for removals in [
        vec![0usize],
        vec![9],
        vec![0, 9],
        vec![0, 1, 2, 3, 4],
        vec![5, 6, 7, 8, 9],
        (0..10).collect::<Vec<_>>(),
        vec![2, 4, 6, 8],
    ] {
        let uids: Vec<u64> = (100..110).collect();
        let survivors_expected: std::collections::BTreeSet<u64> = uids
            .iter()
            .enumerate()
            .filter(|(i, _)| !removals.contains(i))
            .map(|(_, &u)| u)
            .collect();
        for parallel in [false, true] {
            let m = mm(1, 4);
            let mut rm = rm_with_uids(&uids, &m);
            let mut ctxs: Vec<ExecutionContext> =
                (0..4).map(|_| ExecutionContext::new(1)).collect();
            for (k, &idx) in removals.iter().enumerate() {
                ctxs[k % 4].queue_removal(AgentHandle::new(0, idx));
            }
            rm.commit(&mut ctxs, &pool, parallel, 1);
            let got: std::collections::BTreeSet<u64> = surviving_uids(&rm).into_iter().collect();
            assert_eq!(got, survivors_expected, "parallel={parallel} {removals:?}");
            drop(rm);
            assert_eq!(m.outstanding(), 0);
        }
    }
}

#[test]
fn parallel_additions_add_everything() {
    let pool = NumaThreadPool::new(NumaTopology::new(2, 4));
    let m = mm(2, 4);
    let mut rm = ResourceManager::new(2);
    let mut ctxs: Vec<ExecutionContext> = (0..4).map(|_| ExecutionContext::new(2)).collect();
    let mut expected = std::collections::BTreeSet::new();
    for t in 0..4u64 {
        for j in 0..50u64 {
            let uid = 1000 + t * 100 + j;
            expected.insert(uid);
            let domain = (j % 2) as usize;
            let cell = Cell::new(AgentUid(uid));
            ctxs[t as usize].queue_new_agent(domain, new_agent_box(cell, &m, domain));
        }
    }
    let stats = rm.commit(&mut ctxs, &pool, true, 3);
    assert_eq!(stats.added, 200);
    assert_eq!(rm.num_agents(), 200);
    let got: std::collections::BTreeSet<u64> = surviving_uids(&rm).into_iter().collect();
    assert_eq!(got, expected);
    // Both domains received their share.
    assert_eq!(rm.num_in_domain(0), 100);
    assert_eq!(rm.num_in_domain(1), 100);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_parallel_removal_matches_reference(
        n in 1usize..200,
        seed in any::<u64>(),
        frac in 0.0f64..1.0,
    ) {
        let pool = NumaThreadPool::new(NumaTopology::new(2, 4));
        let m = mm(1, 4);
        let uids: Vec<u64> = (0..n as u64).map(|i| i + 1).collect();
        let mut rng = SimRng::new(seed);
        let removals: Vec<usize> = (0..n).filter(|_| rng.chance(frac)).collect();
        let expected: std::collections::BTreeSet<u64> = uids
            .iter()
            .enumerate()
            .filter(|(i, _)| !removals.contains(i))
            .map(|(_, &u)| u)
            .collect();
        let mut rm = rm_with_uids(&uids, &m);
        let mut ctxs: Vec<ExecutionContext> = (0..4).map(|_| ExecutionContext::new(1)).collect();
        for (k, &idx) in removals.iter().enumerate() {
            ctxs[k % 4].queue_removal(AgentHandle::new(0, idx));
        }
        rm.commit(&mut ctxs, &pool, true, 1);
        let got: std::collections::BTreeSet<u64> = surviving_uids(&rm).into_iter().collect();
        prop_assert_eq!(got, expected);
        drop(rm);
        prop_assert_eq!(m.outstanding(), 0);
    }
}

// ---------------------------------------------------------------------------
// Behaviors used by the simulation-level tests.
// ---------------------------------------------------------------------------

/// Grows the cell and divides above the threshold (the cell-proliferation
/// behavior of the paper's benchmark suite).
#[derive(Clone)]
struct GrowDivide;

impl Behavior for GrowDivide {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let cell = agent.as_any_mut().downcast_mut::<Cell>().expect("cell");
        if cell.diameter() < cell.division_threshold() {
            let rate = cell.growth_rate();
            cell.change_volume(rate * ctx.dt);
        } else {
            let uid = ctx.next_uid();
            let dir = ctx.rng.unit_vector();
            let mm = ctx_mm(ctx);
            let daughter = cell.divide(uid, dir, mm, ctx_domain(ctx));
            ctx.new_agent(daughter);
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> bdm_core::BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "GrowDivide"
    }
}

// Division needs the memory manager for daughter behaviors; expose the
// context internals through small helpers (the public API used by bdm-models
// wraps this more conveniently).
fn ctx_mm<'a>(ctx: &AgentContext<'a>) -> &'a MemoryManager {
    ctx.memory_manager()
}
fn ctx_domain(ctx: &AgentContext<'_>) -> usize {
    ctx.alloc_domain()
}

/// Removes the agent once it shrinks below a diameter.
#[derive(Clone)]
struct DieBelow(f64);

impl Behavior for DieBelow {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        agent.set_diameter(agent.diameter() - 0.5);
        if agent.diameter() < self.0 {
            ctx.remove_self();
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> bdm_core::BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
}

/// Secretes into grid 0 every iteration.
#[derive(Clone)]
struct Secrete(f64);

impl Behavior for Secrete {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let pos = agent.position();
        ctx.secrete(0, pos, self.0);
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> bdm_core::BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
}

/// One-shot behavior that removes itself after the first run.
#[derive(Clone)]
struct OneShot;

impl Behavior for OneShot {
    fn run(&mut self, agent: &mut dyn Agent, _ctx: &mut AgentContext<'_>) -> BehaviorControl {
        agent.set_diameter(agent.diameter() + 1.0);
        BehaviorControl::RemoveSelf
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> bdm_core::BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
}

fn small_param(threads: usize) -> Param {
    Param {
        threads: Some(threads),
        numa_domains: Some(threads.min(2)),
        simulation_time_step: 1.0,
        ..Param::default()
    }
}

fn add_cell_with_behavior<B: Behavior + 'static>(
    sim: &mut Simulation,
    pos: Real3,
    diameter: f64,
    behavior: B,
) -> AgentHandle {
    let uid = sim.new_uid();
    let mut cell = Cell::new(uid).with_position(pos).with_diameter(diameter);
    let b = new_behavior_box(behavior, sim.memory_manager(), 0);
    cell.base_mut().add_behavior(b);
    sim.add_agent(cell)
}

#[test]
fn growth_and_division_increase_population() {
    let mut sim = Simulation::new(small_param(2));
    let mut rng = SimRng::new(1);
    for _ in 0..20 {
        let pos = rng.point_in_cube(0.0, 60.0);
        add_cell_with_behavior(&mut sim, pos, 10.0, GrowDivide);
    }
    assert_eq!(sim.num_agents(), 20);
    sim.simulate(30);
    assert!(
        sim.num_agents() > 20,
        "cells should have divided: {}",
        sim.num_agents()
    );
    assert_eq!(sim.stats().agents_added as usize, sim.num_agents() - 20);
    // All diameters stay within sane bounds.
    sim.for_each_agent(|_, a| {
        assert!(a.diameter() > 0.0 && a.diameter() < 20.0);
        assert!(a.position().is_finite());
    });
}

#[test]
fn mechanics_separates_overlapping_cells() {
    let mut param = small_param(1);
    param.detect_static_agents = false;
    let mut sim = Simulation::new(param);
    let u1 = sim.new_uid();
    let u2 = sim.new_uid();
    sim.add_agent(
        Cell::new(u1)
            .with_position(Real3::new(0.0, 0.0, 0.0))
            .with_diameter(10.0),
    );
    sim.add_agent(
        Cell::new(u2)
            .with_position(Real3::new(4.0, 0.0, 0.0))
            .with_diameter(10.0),
    );
    let before = 4.0;
    sim.simulate(50);
    let mut positions = Vec::new();
    sim.for_each_agent(|_, a| positions.push(a.position()));
    let dist = positions[0].distance(&positions[1]);
    assert!(
        dist > before,
        "strong overlap must be pushed apart: {dist} <= {before}"
    );
}

#[test]
fn removal_behavior_empties_simulation() {
    let mut sim = Simulation::new(small_param(2));
    for i in 0..40 {
        add_cell_with_behavior(&mut sim, Real3::splat(i as f64 * 12.0), 8.0, DieBelow(6.0));
    }
    sim.simulate(10);
    assert_eq!(sim.num_agents(), 0, "all agents shrank away");
    assert_eq!(sim.stats().agents_removed, 40);
    // Engine keeps running on an empty population.
    sim.simulate(5);
    assert_eq!(sim.num_agents(), 0);
}

#[test]
fn one_shot_behavior_detaches() {
    let mut sim = Simulation::new(small_param(1));
    let h = add_cell_with_behavior(&mut sim, Real3::ZERO, 10.0, OneShot);
    sim.simulate(3);
    let agent = sim.resource_manager().agent(h);
    assert_eq!(agent.diameter(), 11.0, "ran exactly once");
    assert_eq!(agent.base().behaviors().len(), 0, "behavior detached");
}

#[test]
fn secretion_reaches_diffusion_grid() {
    let mut sim = Simulation::new(small_param(2));
    sim.add_diffusion_grid(DiffusionGrid::new("s", 0.1, 0.0, 8, Real3::ZERO, 80.0));
    for i in 0..10 {
        add_cell_with_behavior(&mut sim, Real3::splat(i as f64 * 8.0), 5.0, Secrete(2.0));
    }
    sim.simulate(5);
    let total = sim.diffusion_grid(0).total();
    assert!((total - 10.0 * 2.0 * 5.0).abs() < 1e-9, "total={total}");
}

#[test]
fn static_detection_skips_settled_regions() {
    let mut param = small_param(2);
    param.detect_static_agents = true;
    let mut sim = Simulation::new(param);
    // A sparse grid of cells, far apart: no forces, nothing moves.
    for x in 0..5 {
        for y in 0..5 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(Real3::new(x as f64 * 30.0, y as f64 * 30.0, 0.0))
                    .with_diameter(10.0),
            );
        }
    }
    sim.simulate(10);
    let stats = sim.stats();
    assert!(
        stats.static_skipped > 0,
        "settled agents must be skipped: {stats:?}"
    );
    // Skips start from iteration 3 at the latest: 25 agents × ~8 iterations.
    assert!(stats.static_skipped >= 25 * 6, "{stats:?}");
}

/// Position of the agent with uid `uid`.
fn position_of(sim: &Simulation, uid: u64) -> Real3 {
    let mut found = None;
    sim.for_each_agent(|_, a| {
        if a.uid().0 == uid {
            found = Some(a.position());
        }
    });
    found.expect("agent present")
}

#[test]
fn rearmed_static_detection_does_not_trust_stale_flags() {
    // The settled lattice above: 25 cells 30 apart, every one flagged
    // static after a few iterations.
    let mut param = small_param(2);
    param.detect_static_agents = true;
    let mut sim = Simulation::new(param);
    for x in 0..5 {
        for y in 0..5 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(Real3::new(x as f64 * 30.0, y as f64 * 30.0, 0.0))
                    .with_diameter(10.0),
            );
        }
    }
    sim.simulate(10);
    assert!(sim.static_detection_engaged());
    // Disarmed, a custom operation pushes cell 1 (at the origin) into the
    // sleeping cell 6 (at x = 30): 6 apart, diameters 10.
    sim.set_detect_static_agents(false);
    struct Push;
    impl Operation for Push {
        fn name(&self) -> &str {
            "push"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            if sim.iteration() == 11 {
                let mut pushed = None;
                sim.for_each_agent(|h, a| {
                    if a.uid().0 == 1 {
                        pushed = Some(h);
                    }
                });
                sim.resource_manager_mut()
                    .agent_mut(pushed.unwrap())
                    .set_position(Real3::new(24.0, 0.0, 0.0));
            }
        }
    }
    sim.scheduler_mut().add_op(Push);
    sim.simulate(1);
    let sleeper = position_of(&sim, 6);
    // Re-armed, the sleeper must compute the force of its new neighbour:
    // no flag survived the disarmed stretch, in which nobody maintained it.
    sim.set_detect_static_agents(true);
    let before = sim.stats();
    sim.simulate(1);
    let after = sim.stats();
    assert_eq!(after.static_skipped, before.static_skipped, "{after:?}");
    assert_eq!(after.force_calculations - before.force_calculations, 25);
    assert!(
        position_of(&sim, 6).x() > sleeper.x(),
        "the sleeper must be pushed away"
    );
}

#[test]
fn static_detection_matches_non_static_results() {
    // The optimization must not change simulation results: compare final
    // positions with and without static detection (serial for determinism).
    let run = |detect: bool| -> Vec<(u64, [f64; 3])> {
        let mut param = small_param(1);
        param.detect_static_agents = detect;
        let mut sim = Simulation::new(param);
        let mut rng = SimRng::new(99);
        for _ in 0..30 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(rng.point_in_cube(0.0, 40.0))
                    .with_diameter(9.0),
            );
        }
        sim.simulate(40);
        let mut out = Vec::new();
        sim.for_each_agent(|_, a| out.push((a.uid().0, a.position().into())));
        out.sort_by_key(|(u, _)| *u);
        out
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(without.len(), with.len());
    for ((u1, p1), (u2, p2)) in without.iter().zip(with.iter()) {
        assert_eq!(u1, u2);
        let d = Real3::from(*p1).distance(&Real3::from(*p2));
        assert!(
            d < 1e-6,
            "uid {u1}: static detection changed the result by {d}"
        );
    }
}

#[test]
fn serial_runs_are_deterministic() {
    let run = || -> Vec<(u64, [f64; 3], f64)> {
        let mut sim = Simulation::new(small_param(1));
        let mut rng = SimRng::new(7);
        for _ in 0..25 {
            let pos = rng.point_in_cube(0.0, 50.0);
            add_cell_with_behavior(&mut sim, pos, 9.0, GrowDivide);
        }
        sim.simulate(25);
        let mut out = Vec::new();
        sim.for_each_agent(|_, a| out.push((a.uid().0, a.position().into(), a.diameter())));
        out.sort_by_key(|(u, _, _)| *u);
        out
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1, y.1, "positions bit-identical for uid {}", x.0);
        assert_eq!(x.2, y.2);
    }
}

#[test]
fn thread_counts_agree_statistically() {
    // Multi-threaded runs use per-(agent, iteration) RNG streams, so the
    // *set* of agents/uids must match a serial run exactly even though
    // commit order differs.
    let run = |threads: usize| -> std::collections::BTreeSet<u64> {
        let mut sim = Simulation::new(small_param(threads));
        let mut rng = SimRng::new(3);
        for _ in 0..20 {
            let pos = rng.point_in_cube(0.0, 80.0);
            add_cell_with_behavior(&mut sim, pos, 9.5, GrowDivide);
        }
        sim.simulate(20);
        let mut uids = std::collections::BTreeSet::new();
        sim.for_each_agent(|_, a| {
            uids.insert(a.uid().0);
        });
        uids
    };
    let serial = run(1);
    let parallel = run(2);
    assert_eq!(serial, parallel, "uid sets must agree across thread counts");
}

#[test]
fn sorting_preserves_agents_and_orders_by_morton_code() {
    let mut param = small_param(2);
    param.agent_sort_frequency = Some(1);
    param.enable_mechanics = false; // keep positions fixed
    let mut sim = Simulation::new(param);
    let mut rng = SimRng::new(11);
    let mut expected = std::collections::BTreeSet::new();
    for _ in 0..300 {
        let uid = sim.new_uid();
        expected.insert(uid.0);
        sim.add_agent(
            Cell::new(uid)
                .with_position(rng.point_in_cube(0.0, 100.0))
                .with_diameter(10.0),
        );
    }
    assert!(sim.last_sort_phases().is_none());
    sim.simulate(2);
    assert!(sim.stats().sorts >= 2);
    let phases = sim.last_sort_phases().expect("a sort ran");
    assert!(!phases.permute.is_zero() && phases.permute < sim.time_buckets().total());
    // All agents survived the relocation.
    let got: std::collections::BTreeSet<u64> =
        surviving_uids(sim.resource_manager()).into_iter().collect();
    assert_eq!(got, expected);

    // Agents are in Morton order: reconstruct box coordinates with the same
    // grid geometry (box length = max diameter = 10, min = bbox min).
    let mut positions = Vec::new();
    sim.for_each_agent(|_, a| positions.push(a.position()));
    let min = positions
        .iter()
        .fold(Real3::splat(f64::INFINITY), |m, p| m.min(p));
    let code = |p: &Real3| {
        let bx = ((p.x() - min.x()) / 10.0) as u32;
        let by = ((p.y() - min.y()) / 10.0) as u32;
        let bz = ((p.z() - min.z()) / 10.0) as u32;
        morton3_encode(bx, by, bz)
    };
    // Global order across domains must be non-decreasing.
    let codes: Vec<u64> = positions.iter().map(code).collect();
    let violations = codes.windows(2).filter(|w| w[0] > w[1]).count();
    assert_eq!(
        violations, 0,
        "agents must be stored in Morton order after sorting"
    );
}

#[test]
fn far_apart_clusters_sort_every_iteration_in_bounded_memory() {
    // Two 500-cell clusters 10⁴ interaction radii apart: a radius-sized
    // lattice would hold 10¹² boxes (the rebuild used to abort allocating
    // them, and the sort enumerated every one). The coarsened lattice keeps
    // rebuild and per-iteration sort proportional to the 1000 agents.
    let mut param = small_param(2);
    param.agent_sort_frequency = Some(1);
    let mut sim = Simulation::new(param);
    let mut rng = SimRng::new(29);
    for i in 0..1000 {
        let uid = sim.new_uid();
        let cluster = Real3::splat((i % 2) as f64 * 10.0 * 1e4);
        sim.add_agent(
            Cell::new(uid)
                .with_position(cluster + rng.point_in_cube(0.0, 60.0))
                .with_diameter(10.0),
        );
    }
    sim.simulate(20);
    assert_eq!(sim.num_agents(), 1000);
    assert_eq!(sim.stats().sorts, 20);
    assert!(sim.stats().force_calculations > 0);
    let grid = sim.environment().as_uniform_grid().unwrap();
    assert!(grid.box_length() > 10.0);
    assert!(grid.num_boxes() <= bdm_env::uniform_grid::MAX_BOXES_PER_POINT * 1000);
    sim.for_each_agent(|_, a| assert!(a.position().is_finite()));
}

#[test]
fn sorting_preserves_agents_and_improves_locality() {
    // Sorting (Section 4.2; the engine's curve is Morton, which the paper
    // chose over Hilbert) must be a valid permutation (no agent lost, no
    // duplicate) and must place spatial neighbors near each other in
    // memory.
    let mut param = small_param(2);
    param.agent_sort_frequency = Some(1);
    param.enable_mechanics = false;
    let mut sim = Simulation::new(param);
    let mut rng = SimRng::new(23);
    let mut expected = std::collections::BTreeSet::new();
    for _ in 0..300 {
        let uid = sim.new_uid();
        expected.insert(uid.0);
        sim.add_agent(
            Cell::new(uid)
                .with_position(rng.point_in_cube(0.0, 100.0))
                .with_diameter(10.0),
        );
    }
    sim.simulate(2);
    assert!(sim.stats().sorts >= 2);
    let got: std::collections::BTreeSet<u64> =
        surviving_uids(sim.resource_manager()).into_iter().collect();
    assert_eq!(got, expected);

    // Locality metric: mean distance between memory-adjacent agents must be
    // far below the random-layout expectation (~half the domain diagonal).
    let mut positions = Vec::new();
    sim.for_each_agent(|_, a| positions.push(a.position()));
    let mean_adjacent: f64 = positions
        .windows(2)
        .map(|w| w[0].distance(&w[1]))
        .sum::<f64>()
        / (positions.len() - 1) as f64;
    assert!(
        mean_adjacent < 40.0,
        "memory-adjacent agents must be spatially close: {mean_adjacent:.1}"
    );
}

#[test]
fn sorted_run_keeps_the_unsorted_runs_agents() {
    // Growth and division between the sorts: the permutation must neither
    // lose, duplicate nor invent an agent while the population turns over.
    let run = |sort: Option<usize>| -> Vec<u64> {
        let mut param = small_param(2);
        param.agent_sort_frequency = sort;
        let mut sim = Simulation::new(param);
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            let pos = rng.point_in_cube(0.0, 60.0);
            add_cell_with_behavior(&mut sim, pos, 9.0, GrowDivide);
        }
        sim.simulate(20);
        let mut uids = surviving_uids(sim.resource_manager());
        uids.sort_unstable();
        uids
    };
    let unsorted = run(None);
    assert!(unsorted.len() > 100, "cells divided between the sorts");
    assert_eq!(run(Some(2)), unsorted);
}

#[test]
fn all_environments_give_same_serial_results() {
    let run = |kind: EnvironmentKind| -> Vec<(u64, [f64; 3])> {
        let mut param = small_param(1);
        param.environment = kind;
        let mut sim = Simulation::new(param);
        let mut rng = SimRng::new(17);
        for _ in 0..40 {
            let uid = sim.new_uid();
            sim.add_agent(
                Cell::new(uid)
                    .with_position(rng.point_in_cube(0.0, 40.0))
                    .with_diameter(9.0),
            );
        }
        sim.simulate(20);
        let mut out = Vec::new();
        sim.for_each_agent(|_, a| out.push((a.uid().0, a.position().into())));
        out.sort_by_key(|(u, _)| *u);
        out
    };
    let grid = run(EnvironmentKind::UniformGrid);
    let kd = run(EnvironmentKind::KdTree);
    let oct = run(EnvironmentKind::Octree);
    for (g, k) in grid.iter().zip(kd.iter()) {
        assert_eq!(g.0, k.0);
        let d = Real3::from(g.1).distance(&Real3::from(k.1));
        assert!(d < 1e-9, "kd-tree deviates for uid {}: {d}", g.0);
    }
    for (g, o) in grid.iter().zip(oct.iter()) {
        let d = Real3::from(g.1).distance(&Real3::from(o.1));
        assert!(d < 1e-9, "octree deviates for uid {}: {d}", g.0);
    }
}

#[test]
fn deferred_mutations_apply() {
    /// Marks all neighbors' cell type via deferred mutation.
    #[derive(Clone)]
    struct Tag;
    impl Behavior for Tag {
        fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
            let pos = agent.position();
            let mut neighbors = Vec::new();
            ctx.for_each_neighbor(pos, 15.0, |idx, _nd, _d2| neighbors.push(idx));
            for idx in neighbors {
                let (domain, local) = ctx.split_global(idx);
                ctx.defer_on_agent(AgentHandle::new(domain, local), |a| {
                    if let Some(c) = a.as_any_mut().downcast_mut::<Cell>() {
                        *c = std::mem::replace(c, Cell::new(c.uid())).with_cell_type(7);
                    }
                });
            }
            BehaviorControl::RemoveSelf
        }
        fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> bdm_core::BehaviorBox {
            clone_behavior_box(self, mm, domain)
        }
    }
    let mut param = small_param(1);
    param.enable_mechanics = false;
    param.interaction_radius = Some(15.0);
    let mut sim = Simulation::new(param);
    add_cell_with_behavior(&mut sim, Real3::ZERO, 10.0, Tag);
    let u2 = sim.new_uid();
    sim.add_agent(
        Cell::new(u2)
            .with_position(Real3::new(5.0, 0.0, 0.0))
            .with_diameter(10.0),
    );
    sim.simulate(1);
    let tagged = sim.count_agents(|a| a.payload() == 7);
    assert_eq!(tagged, 1, "the neighbor was tagged via deferred mutation");
}

#[test]
fn pool_box_accounting_balances_after_drop() {
    let param = small_param(2);
    let mut sim = Simulation::new(param);
    let mut rng = SimRng::new(2);
    for _ in 0..50 {
        let pos = rng.point_in_cube(0.0, 50.0);
        add_cell_with_behavior(&mut sim, pos, 9.0, GrowDivide);
    }
    sim.simulate(10);
    let stats = sim.memory_stats();
    assert!(stats.pool_allocations > 0, "agents live in the pool");
    // Dropping the simulation must return every element.
    // (Checked implicitly: PoolBox drops before the MemoryManager because of
    // field order; a leak would abort the allocator's Drop in debug builds.)
    drop(sim);
}
