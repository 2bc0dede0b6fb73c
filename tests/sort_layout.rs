//! The sort permutes agents in place: after every sort, the agents of one
//! domain and one layout sit at ascending addresses in store order, and
//! the pool holds exactly the live elements — on a constant population
//! (`cell_clustering`), one that turns over (`oncology`), two agent types
//! with a pooled behaviour (`neuroscience`) and the system allocator.

use std::alloc::Layout;
use std::collections::BTreeMap;

use biodynamo::models::model_by_name;
use biodynamo::prelude::*;

/// Within each domain and layout, store order is ascending address order.
/// Returns the number of (domain, layout) groups.
fn assert_address_order(sim: &Simulation, label: &str) -> usize {
    let mut last: BTreeMap<(u32, usize, usize), usize> = BTreeMap::new();
    sim.for_each_agent(|h, a| {
        let layout = Layout::for_value(a);
        let addr = a as *const dyn Agent as *const u8 as usize;
        let key = (h.domain, layout.size(), layout.align());
        if let Some(prev) = last.insert(key, addr) {
            assert!(prev < addr, "{label}: agent {h:?} below its predecessor");
        }
    });
    last.len()
}

/// The pool elements the live agents hold: one per agent, plus one per
/// behaviour too large to ride inside it (neuroscience's 64-byte
/// `GrowthCone`).
fn live_elements(sim: &Simulation) -> i64 {
    let mut n = 0;
    sim.for_each_agent(|_, a| {
        let pooled = a
            .base()
            .behaviors()
            .iter()
            .filter(|b| b.name() == "GrowthCone");
        n += 1 + pooled.count() as i64;
    });
    n
}

/// Runs `model` for 12 iterations with a sort every third and checks the
/// layout after each sort. Returns the most (domain, layout) groups seen.
fn check(model: &str, agents: usize, use_pool: bool) -> usize {
    let param = Param {
        threads: Some(2),
        numa_domains: Some(2),
        agent_sort_frequency: Some(3),
        use_pool_allocator: use_pool,
        ..Param::default()
    };
    let mut sim = model_by_name(model, agents).unwrap().build(param);
    let (mut sorts, mut groups) = (0, 0);
    for iteration in 1..=12 {
        sim.simulate(1);
        if sim.stats().sorts == sorts {
            continue;
        }
        sorts = sim.stats().sorts;
        let label = format!("{model}, pool {use_pool}, iteration {iteration}");
        groups = groups.max(assert_address_order(&sim, &label));
        if use_pool {
            assert_eq!(
                sim.memory_manager().outstanding(),
                live_elements(&sim),
                "{label}"
            );
        }
    }
    assert!(sorts >= 4, "{model}: {sorts} sorts");
    groups
}

#[test]
fn constant_population_sorts_into_address_order() {
    check("cell_clustering", 2000, true);
}

#[test]
fn turnover_sorts_into_address_order() {
    check("oncology", 2000, true);
}

#[test]
fn two_agent_types_sort_into_address_order() {
    // Somata and neurite elements in both domains.
    assert_eq!(check("neuroscience", 400, true), 4);
}

#[test]
fn system_allocator_sorts_into_address_order() {
    check("cell_clustering", 2000, false);
    check("oncology", 2000, false);
}
