//! Shared scenes and probes for the conformance suites: a population sparse
//! enough that the uniform grid coarsens its lattice, a lattice that
//! settles, is shaken and settles again, and a probe that checkpoints from
//! inside an iteration. Each test binary uses a subset.
#![allow(dead_code)]

use std::sync::{Arc, Mutex};

use biodynamo::models::{BenchmarkModel, Characteristics, GrowthDivision};
use biodynamo::prelude::*;

/// Two clusters of growing, dividing, overlapping cells 10⁴ interaction
/// radii apart: ~10¹² radius-sized boxes for `num_agents` agents, so the grid
/// runs on a coarsened lattice from the first iteration — and the sharded
/// engine must ship that one global box edge to every shard window.
pub struct SparseScene {
    pub num_agents: usize,
}

impl BenchmarkModel for SparseScene {
    fn name(&self) -> &'static str {
        "sparse_two_clusters"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: true,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: true,
            random_movement: false,
            uses_diffusion: false,
            has_static_regions: false,
            paper_iterations: 0,
            paper_agents: 0,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        param.interaction_radius = Some(15.0);
        let mut sim = Simulation::new(param);
        let mut rng = SimRng::new(sim.param().seed ^ 0x5ba5);
        for i in 0..self.num_agents {
            let cluster = Real3::splat((i % 2) as f64 * 15.0 * 1e4);
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(cluster + rng.point_in_cube(0.0, 40.0))
                .with_diameter(9.0 + rng.uniform_in(0.0, 2.0))
                .with_growth_rate(60.0)
                .with_division_threshold(12.0);
            cell.base_mut()
                .add_behavior(new_behavior_box(GrowthDivision, sim.memory_manager(), 0));
            sim.add_agent(cell);
        }
        sim
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        vec![("final_agents".into(), sim.num_agents() as f64)]
    }
}

/// Whether the simulation's uniform grid currently sits on a coarsened
/// lattice (box edge above the build radius).
pub fn lattice_is_coarsened(sim: &Simulation) -> bool {
    let grid = sim.environment().as_uniform_grid().expect("uniform grid");
    grid.box_length()
        > sim
            .param()
            .interaction_radius
            .expect("scene pins the radius")
}

/// A lattice of cells that settles, is shaken for a few iterations, then
/// settles again: armed static detection engages, stands down while
/// everything moves, and re-engages once the scene is still.
///
/// 10³ cells of diameter 10 sit 12 apart, out of contact, so every one ends
/// the first pass settled. In iterations 6–8 the [`Kick`] behaviour moves
/// each cell a random step of 2: those passes leave no cell static,
/// contacts form, and forces act once the shaking stops.
pub struct SettleScene;

impl SettleScene {
    const SIDE: usize = 10;
    const KICK: Kick = Kick {
        from: 6,
        until: 9,
        step: 2.0,
    };
}

impl BenchmarkModel for SettleScene {
    fn name(&self) -> &'static str {
        "settle_shake_settle"
    }

    fn characteristics(&self) -> Characteristics {
        Characteristics {
            creates_agents: false,
            deletes_agents: false,
            modifies_neighbors: false,
            load_imbalance: false,
            random_movement: true,
            uses_diffusion: false,
            has_static_regions: true,
            paper_iterations: 0,
            paper_agents: 0,
            paper_diffusion_volumes: 0,
        }
    }

    fn build(&self, mut param: Param) -> Simulation {
        param.simulation_time_step = 1.0;
        param.enable_mechanics = true;
        param.interaction_radius = Some(10.0);
        let mut sim = Simulation::new(param);
        let side = SettleScene::SIDE;
        for i in 0..side * side * side {
            let at = [i % side, (i / side) % side, i / (side * side)];
            let uid = sim.new_uid();
            let mut cell = Cell::new(uid)
                .with_position(Real3(at.map(|c| c as f64 * 12.0)))
                .with_diameter(10.0);
            cell.base_mut().add_behavior(new_behavior_box(
                SettleScene::KICK,
                sim.memory_manager(),
                0,
            ));
            sim.add_agent(cell);
        }
        sim
    }

    fn validate(&self, sim: &Simulation) -> Vec<(String, f64)> {
        vec![("final_agents".into(), sim.num_agents() as f64)]
    }
}

/// Moves its cell `step` in a random direction in iterations
/// `from..until`; does nothing otherwise.
#[derive(Clone)]
pub struct Kick {
    pub from: u64,
    pub until: u64,
    pub step: f64,
}

impl Kick {
    /// Checkpoint tag of the behaviour (register [`Kick::read`] under it).
    pub const TAG: &'static str = "tests.Kick";

    /// Reads what `checkpoint_write` wrote.
    pub fn read(r: &mut biodynamo::util::ByteReader<'_>) -> Kick {
        Kick {
            from: r.take_u64().expect("from"),
            until: r.take_u64().expect("until"),
            step: r.take_f64().expect("step"),
        }
    }
}

impl Behavior for Kick {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        if (self.from..self.until).contains(&ctx.iteration) {
            let step = ctx.rng.unit_vector() * self.step;
            agent.set_position(agent.position() + step);
        }
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn name(&self) -> &'static str {
        "Kick"
    }
    fn checkpoint_tag(&self) -> &'static str {
        Kick::TAG
    }
    fn checkpoint_write(&self, out: &mut biodynamo::util::ByteWriter) {
        out.put_u64(self.from);
        out.put_u64(self.until);
        out.put_f64(self.step);
    }
}

/// A pipeline probe that checkpoints the simulation from inside iteration
/// `at`, wherever it sits in the pipeline.
pub struct CheckpointProbe {
    pub at: u64,
    pub out: Arc<Mutex<Option<Vec<u8>>>>,
}

impl Operation for CheckpointProbe {
    fn name(&self) -> &str {
        "ckpt_probe"
    }
    fn kind(&self) -> OpKind {
        OpKind::Pre
    }
    fn run(&mut self, ctx: &mut SimulationCtx<'_>) {
        if ctx.iteration() == self.at {
            let bytes =
                biodynamo::checkpoint::checkpoint(ctx.sim).expect("mid-iteration checkpoint");
            *self.out.lock().unwrap() = Some(bytes);
        }
    }
}

/// Same name and position as [`CheckpointProbe`], but inert: registered by
/// the restore builder so the captured scheduler state resolves.
pub struct InertProbe;

impl Operation for InertProbe {
    fn name(&self) -> &str {
        "ckpt_probe"
    }
    fn kind(&self) -> OpKind {
        OpKind::Pre
    }
    fn run(&mut self, _ctx: &mut SimulationCtx<'_>) {}
}
