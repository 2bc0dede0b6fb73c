//! Behaviours ride inside their agent's pool element: each is dropped
//! exactly once whatever moves it (removal, `RemoveSelf`, the sort, a list
//! returning inline), keeps its state through sorts and a checkpoint, and
//! a sort of a balanced population allocates no pool element: it moves
//! each agent, behaviours included, as its bytes.

use std::sync::atomic::{AtomicI64, Ordering};

use biodynamo::checkpoint::{checkpoint, restore, Registry};
use biodynamo::core::{
    clone_behavior_box, new_behavior_box, AgentContext, Behavior, BehaviorBox, BehaviorControl,
    MemoryManager,
};
use biodynamo::prelude::*;

/// Counts its runs, and keeps the number of live instances (made or
/// cloned, not yet dropped) in `live`. `W` words of payload follow: at
/// `W = 1` the behavior is 24 bytes and fits a box's words; at `W = 2` it
/// spills to a pool element of its own.
struct Counted<const W: usize> {
    live: &'static AtomicI64,
    runs: u32,
    /// Run at which the agent removes itself (0: never).
    die_at: u16,
    /// Run at which the behavior detaches itself (0: never).
    detach_at: u16,
    payload: [u64; W],
}

impl<const W: usize> Counted<W> {
    const TAG: &'static str = "test.Counted";

    fn new(live: &'static AtomicI64) -> Counted<W> {
        live.fetch_add(1, Ordering::Relaxed);
        Counted {
            live,
            runs: 0,
            die_at: 0,
            detach_at: 0,
            payload: [u64::MAX; W],
        }
    }

    fn runs(b: &BehaviorBox) -> u32 {
        let mut w = biodynamo::util::ByteWriter::new();
        b.checkpoint_write(&mut w);
        u32::from_le_bytes(w.as_slice()[..4].try_into().unwrap())
    }
}

impl<const W: usize> Clone for Counted<W> {
    fn clone(&self) -> Counted<W> {
        self.live.fetch_add(1, Ordering::Relaxed);
        Counted { ..*self }
    }
}

impl<const W: usize> Drop for Counted<W> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<const W: usize> Behavior for Counted<W> {
    fn run(&mut self, _agent: &mut dyn Agent, ctx: &mut AgentContext<'_>) -> BehaviorControl {
        assert_eq!(self.payload, [u64::MAX; W], "the payload moved intact");
        self.runs += 1;
        if self.runs == self.die_at.into() {
            ctx.remove_self();
        }
        match self.runs == self.detach_at.into() {
            true => BehaviorControl::RemoveSelf,
            false => BehaviorControl::Keep,
        }
    }
    fn clone_behavior(&self, mm: &MemoryManager, domain: usize) -> BehaviorBox {
        clone_behavior_box(self, mm, domain)
    }
    fn checkpoint_tag(&self) -> &'static str {
        Self::TAG
    }
    fn checkpoint_write(&self, out: &mut biodynamo::util::ByteWriter) {
        out.put_u32(self.runs);
    }
}

fn param(sort_every: usize) -> Param {
    Param {
        threads: Some(2),
        numa_domains: Some(2),
        interaction_radius: Some(12.0),
        agent_sort_frequency: Some(sort_every),
        ..Param::default()
    }
}

fn add_cell(sim: &mut Simulation, at: usize, behaviors: Vec<BehaviorBox>) {
    let uid = sim.new_uid();
    let p = Real3::new((at % 10) as f64, ((at / 10) % 10) as f64, (at / 100) as f64) * 12.0;
    let mut cell = Cell::new(uid).with_position(p).with_diameter(8.0);
    behaviors
        .into_iter()
        .for_each(|b| cell.base_mut().add_behavior(b));
    sim.add_agent(cell);
}

/// 100 agents that remove themselves at their third run, 100 with two
/// behaviors of which one detaches at its second run, and 50 with three
/// (a spilled list) of which one detaches at its second run, returning the
/// list inline. The scene sorts every iteration.
fn drops_exactly_once<const W: usize>(live: &'static AtomicI64) {
    let mut sim = Simulation::new(param(1));
    let counted = |die_at, detach_at| {
        let mut c = Counted::<W>::new(live);
        (c.die_at, c.detach_at) = (die_at, detach_at);
        c
    };
    let mut at = 0..;
    for _ in 0..100 {
        let b = new_behavior_box(counted(3, 0), sim.memory_manager(), 0);
        add_cell(&mut sim, at.next().unwrap(), vec![b]);
    }
    for _ in 0..100 {
        let mm = sim.memory_manager();
        let b = vec![
            new_behavior_box(counted(0, 0), mm, 0),
            new_behavior_box(counted(0, 2), mm, 0),
        ];
        add_cell(&mut sim, at.next().unwrap(), b);
    }
    for _ in 0..50 {
        let mm = sim.memory_manager();
        let b = vec![
            new_behavior_box(counted(0, 2), mm, 0),
            new_behavior_box(counted(0, 0), mm, 0),
            new_behavior_box(counted(0, 0), mm, 0),
        ];
        add_cell(&mut sim, at.next().unwrap(), b);
    }
    // Live behaviors and agents after iterations 0..=4.
    let expected = [(450, 250), (450, 250), (300, 250), (200, 150), (200, 150)];
    for (iteration, &(behaviors, agents)) in expected.iter().enumerate() {
        if iteration > 0 {
            sim.simulate(1);
        }
        assert_eq!(sim.num_agents(), agents, "W = {W}, iteration {iteration}");
        assert_eq!(
            live.load(Ordering::Relaxed),
            behaviors,
            "W = {W}, iteration {iteration}"
        );
        let held: usize = {
            let mut n = 0;
            sim.for_each_agent(|_, a| n += a.base().behaviors().len());
            n
        };
        assert_eq!(held as i64, behaviors);
        // Pool elements: one per agent, plus one per spilled behavior.
        let spilled = if W > 1 { behaviors } else { 0 };
        assert_eq!(
            sim.memory_manager().outstanding(),
            agents as i64 + spilled,
            "W = {W}, iteration {iteration}"
        );
    }
    assert_eq!(sim.stats().sorts, 4);
    drop(sim);
    assert_eq!(live.load(Ordering::Relaxed), 0);
}

#[test]
fn each_behavior_drops_exactly_once() {
    static INLINE: AtomicI64 = AtomicI64::new(0);
    static SPILLED: AtomicI64 = AtomicI64::new(0);
    drops_exactly_once::<1>(&INLINE);
    drops_exactly_once::<2>(&SPILLED);
}

#[test]
fn state_survives_two_sorts_and_a_checkpoint_round_trip() {
    static LIVE: AtomicI64 = AtomicI64::new(0);
    let mut sim = Simulation::new(param(1));
    for at in 0..200 {
        let mm = sim.memory_manager();
        let b = vec![
            new_behavior_box(Counted::<1>::new(&LIVE), mm, 0),
            new_behavior_box(Counted::<2>::new(&LIVE), mm, 0),
        ];
        add_cell(&mut sim, at, b);
    }
    let all_ran = |sim: &Simulation, runs: u32| {
        sim.count_agents(|a| {
            let b = a.base().behaviors();
            b.len() == 2 && b.iter().all(|b| Counted::<1>::runs(b) == runs)
        })
    };
    sim.simulate(2);
    assert_eq!((sim.stats().sorts, all_ran(&sim, 2)), (2, 200));

    let mut registry = Registry::with_builtin_types();
    // Both widths write the same tag and body; the restored ones are all
    // `W = 1`, which the engine cannot tell apart.
    registry.register_behavior(Counted::<1>::TAG, |r| {
        let mut b = Counted::<1>::new(&LIVE);
        b.runs = r.take_u32().unwrap();
        Ok(b)
    });
    let mut restored = restore(&checkpoint(&sim).unwrap(), &registry).unwrap();
    assert_eq!(all_ran(&restored, 2), 200);
    assert_eq!(LIVE.load(Ordering::Relaxed), 800);
    restored.simulate(1);
    sim.simulate(1);
    assert_eq!((all_ran(&sim, 3), all_ran(&restored, 3)), (200, 200));
    drop((sim, restored));
    assert_eq!(LIVE.load(Ordering::Relaxed), 0);
}

#[test]
fn a_balanced_sort_allocates_no_pool_element() {
    static LIVE: AtomicI64 = AtomicI64::new(0);
    const N: usize = 1000;
    let mut sim = Simulation::new(param(2));
    for at in 0..N {
        let mm = sim.memory_manager();
        let b = vec![
            new_behavior_box(Counted::<1>::new(&LIVE), mm, 0),
            new_behavior_box(Counted::<1>::new(&LIVE), mm, 0),
        ];
        add_cell(&mut sim, at, b);
    }
    let allocations = |sim: &Simulation| sim.memory_stats().pool_allocations;
    // Sorting every second iteration and at the first: iterations 1, 2
    // and 4 sort, iteration 3 does not.
    sim.simulate(2);
    assert_eq!(sim.stats().sorts, 2);
    let before = allocations(&sim);
    sim.simulate(1);
    assert_eq!(sim.stats().sorts, 2);
    assert_eq!(allocations(&sim), before, "an iteration without a sort");
    sim.simulate(1);
    assert_eq!(sim.stats().sorts, 3);
    assert_eq!(allocations(&sim), before, "the sort moves agents in place");
    assert_eq!(sim.memory_manager().outstanding(), N as i64);
    assert_eq!(
        LIVE.load(Ordering::Relaxed),
        2 * N as i64,
        "each behaviour alive once"
    );
}
