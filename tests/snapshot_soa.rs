//! Integration: the SoA snapshot.
//!
//! The per-iteration snapshot is a structure of arrays gathered in one
//! sweep, all three arrays on every iteration; these tests pin (i) bitwise
//! equivalence between the SoA arrays and an agent-by-agent AoS reference
//! on all six benchmark models, (ii) that a behavior reading
//! `Neighbor::payload` gets every neighbor's payload under each model's own
//! `Param`, and (iii) that a custom `Operation` reads `Snapshot::payloads`
//! without declaring anything.

use std::sync::{Arc, Mutex};

use biodynamo::core::{clone_behavior_box, new_behavior_box, BehaviorBox, BehaviorControl};
use biodynamo::core::{AgentContext, MemoryManager};
use biodynamo::models::{all_models, BenchmarkModel};
use biodynamo::prelude::*;

fn param() -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        seed: 4357,
        ..Param::default()
    }
}

/// AoS reference: every agent's (position, diameter, payload) in resource
/// manager order — exactly the order the snapshot gather uses.
fn aos_reference(sim: &Simulation) -> Vec<(Real3, f64, u64)> {
    let mut out = Vec::with_capacity(sim.num_agents());
    sim.for_each_agent(|_, a| out.push((a.position(), a.diameter(), a.payload())));
    out
}

#[test]
fn soa_snapshot_matches_aos_reference_on_all_models() {
    for model in all_models(150) {
        let mut sim = model.build(param());
        let reference = aos_reference(&sim);
        // The snapshot of iteration 1 is gathered from exactly the pre-step
        // agent state collected above.
        sim.simulate(1);
        let snap = sim.snapshot();
        assert_eq!(snap.len(), reference.len(), "{}", model.name());
        assert_eq!(snap.payloads.len(), reference.len(), "{}", model.name());
        let mut max_diameter = 0f64;
        for (i, (pos, diameter, payload)) in reference.iter().enumerate() {
            // Bitwise: the gather copies, it must not recompute.
            assert_eq!(snap.positions[i], *pos, "{} agent {i}", model.name());
            assert_eq!(
                snap.diameters[i].to_bits(),
                diameter.to_bits(),
                "{} agent {i}",
                model.name()
            );
            assert_eq!(snap.payloads[i], *payload, "{} agent {i}", model.name());
            max_diameter = max_diameter.max(*diameter);
        }
        assert_eq!(
            snap.max_diameter.to_bits(),
            max_diameter.to_bits(),
            "{}",
            model.name()
        );
        assert_eq!(
            *snap.offsets.last().unwrap(),
            reference.len(),
            "{}",
            model.name()
        );
        assert_eq!(
            snap.memory_bytes(),
            snap.len() * (24 + 8 + 8) + snap.offsets.len() * 8
        );
    }
}

/// Records `(global index, payload)` of every neighbor of its agent.
#[derive(Clone)]
struct PayloadReader {
    radius: f64,
    seen: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Behavior for PayloadReader {
    fn run(&mut self, agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        let mut seen = self.seen.lock().unwrap();
        ctx.for_each_neighbor(agent.position(), self.radius, |idx, n, _| {
            seen.push((idx, n.payload()))
        });
        BehaviorControl::Keep
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
}

#[test]
fn behavior_reads_neighbor_payloads_on_all_models() {
    for model in all_models(150) {
        let mut sim = model.build(param());
        // One reader next to the first agent, querying within its own
        // diameter or the model's fixed radius: inside the grid's build
        // radius, and the first agent is always a neighbor.
        let mut first = None;
        sim.for_each_agent(|_, a| {
            first.get_or_insert((a.position(), a.diameter()));
        });
        let (at, diameter) = first.expect("models start populated");
        let radius = sim.param().interaction_radius.unwrap_or(diameter);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let reader = PayloadReader {
            radius,
            seen: seen.clone(),
        };
        let uid = sim.new_uid();
        let mut cell = Cell::new(uid)
            .with_position(at + Real3::new(0.1, 0.0, 0.0))
            .with_diameter(diameter);
        cell.base_mut()
            .add_behavior(new_behavior_box(reader, sim.memory_manager(), 0));
        sim.add_agent(cell);
        let reference = aos_reference(&sim);
        sim.simulate(1);
        let seen = seen.lock().unwrap();
        assert!(!seen.is_empty(), "{}", model.name());
        for &(idx, payload) in seen.iter() {
            assert_eq!(payload, reference[idx].2, "{} neighbor {idx}", model.name());
        }
    }
}

#[test]
fn custom_operation_sees_snapshot_payloads() {
    // An operation that reads Snapshot::payloads without declaring it: the
    // array is there and holds the live agents' payloads.
    struct SumPayloads {
        seen: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }
    impl Operation for SumPayloads {
        fn name(&self) -> &str {
            "sum_payloads"
        }
        fn kind(&self) -> OpKind {
            OpKind::Standalone
        }
        fn run(&mut self, sim: &mut Simulation) {
            let snap = sim.snapshot();
            let sum: u64 = snap.payloads.iter().sum();
            self.seen.store(sum, std::sync::atomic::Ordering::Relaxed);
        }
    }

    let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(u64::MAX));
    let model = biodynamo::models::CellClustering::new(100);
    let mut sim = model.build(param());
    sim.scheduler_mut()
        .add_op(SumPayloads { seen: seen.clone() });
    sim.simulate(1);
    // Types alternate 0/1 → half the agents sum to 50.
    assert_eq!(seen.load(std::sync::atomic::Ordering::Relaxed), 50);
}
