//! # bdm-baseline
//!
//! A deliberately straightforward **serial** agent-based engine, standing in
//! for the single-threaded comparators of paper Section 6.6 (Cortex3D and
//! NetLogo; docs/ARCHITECTURE.md, "Deviations from the paper", gives the
//! substitution rationale). Figure 8 uses these tools to quantify the
//! parallel overhead of the optimized engine ("Scalability! But at what
//! COST?").
//!
//! Characteristic (intentional) inefficiencies of the era of tools it
//! represents:
//!
//! * single-threaded throughout,
//! * array-of-structs agents behind individual heap allocations
//!   (`Vec<Box<BaselineAgent>>`, like a JVM object graph),
//! * **materialized per-agent neighbor lists** rebuilt from scratch every
//!   iteration (freshly allocated, LAMMPS-style memory hunger — the paper
//!   notes BioDynaMo avoids exactly these lists),
//! * a serially rebuilt bucket grid for the neighbor search,
//! * serial diffusion.
//!
//! The engine is nonetheless *correct* and runs the same model logic as the
//! optimized engine, so runtime/memory ratios are meaningful.

use bdm_util::{Real3, SimRng};

/// Uniform direction from three normalised standard-normal components.
///
/// The engine's `SimRng::unit_vector` draws the same law in fewer
/// uniforms; this engine keeps its own draw so that its trajectories, and
/// the timings calibrated on them, stay what they were.
fn gaussian_direction(rng: &mut SimRng) -> Real3 {
    loop {
        let v = Real3::new(
            rng.gaussian(0.0, 1.0),
            rng.gaussian(0.0, 1.0),
            rng.gaussian(0.0, 1.0),
        );
        let n = v.norm();
        if n > 1e-12 {
            return v / n;
        }
    }
}

/// An agent of the baseline engine (AoS, boxed).
#[derive(Debug, Clone)]
pub struct BaselineAgent {
    /// Position.
    pub position: Real3,
    /// Diameter.
    pub diameter: f64,
    /// Model-defined type/state word.
    pub state: u64,
    /// Model-defined auxiliary value (growth progress, infection timer, …).
    pub aux: f64,
    /// Alive flag (deaths are applied at the end of the iteration).
    pub alive: bool,
}

impl BaselineAgent {
    /// Creates an agent at a position.
    pub fn new(position: Real3, diameter: f64, state: u64) -> BaselineAgent {
        BaselineAgent {
            position,
            diameter,
            state,
            aux: 0.0,
            alive: true,
        }
    }
}

/// A model rule executed once per agent per iteration.
///
/// Receives the agent index, the full population (read/write), that agent's
/// materialized neighbor list, the engine RNG, and a birth queue.
pub type Rule = Box<
    dyn FnMut(usize, &mut Vec<Box<BaselineAgent>>, &[u32], &mut SimRng, &mut Vec<BaselineAgent>),
>;

/// The serial baseline engine.
pub struct BaselineEngine {
    /// The population (boxed AoS, see module docs).
    pub agents: Vec<Box<BaselineAgent>>,
    rules: Vec<Rule>,
    rng: SimRng,
    interaction_radius: f64,
    /// Optional repulsive pairwise mechanics.
    pub mechanics: bool,
    /// Optional serial diffusion grids: `(values, resolution, min, edge)`.
    pub diffusion: Vec<BaselineDiffusion>,
    iteration: u64,
}

/// A naive serial diffusion grid.
#[derive(Debug, Clone)]
pub struct BaselineDiffusion {
    /// Concentrations (x fastest).
    pub values: Vec<f64>,
    /// Boxes per axis.
    pub resolution: usize,
    /// Lower corner.
    pub min: Real3,
    /// Domain edge length.
    pub edge: f64,
    /// Diffusion coefficient.
    pub coefficient: f64,
}

impl BaselineDiffusion {
    /// Creates an empty grid.
    pub fn new(resolution: usize, min: Real3, edge: f64, coefficient: f64) -> BaselineDiffusion {
        BaselineDiffusion {
            values: vec![0.0; resolution * resolution * resolution],
            resolution,
            min,
            edge,
            coefficient,
        }
    }

    /// Box index of a position (clamped).
    pub fn index(&self, p: Real3) -> usize {
        let r = self.resolution;
        let h = self.edge / r as f64;
        let mut idx = [0usize; 3];
        for a in 0..3 {
            idx[a] = (((p[a] - self.min[a]) / h).max(0.0) as usize).min(r - 1);
        }
        idx[0] + r * (idx[1] + r * idx[2])
    }

    /// One serial FTCS step.
    pub fn step(&mut self, dt: f64) {
        let r = self.resolution;
        let h = self.edge / r as f64;
        let alpha = (self.coefficient * dt / (h * h)).min(1.0 / 6.0);
        let mut next = vec![0.0; self.values.len()];
        for z in 0..r {
            for y in 0..r {
                for x in 0..r {
                    let at = |xx: usize, yy: usize, zz: usize| self.values[xx + r * (yy + r * zz)];
                    let c = at(x, y, z);
                    let mut lap = -6.0 * c;
                    lap += at(x.saturating_sub(1), y, z);
                    lap += at((x + 1).min(r - 1), y, z);
                    lap += at(x, y.saturating_sub(1), z);
                    lap += at(x, (y + 1).min(r - 1), z);
                    lap += at(x, y, z.saturating_sub(1));
                    lap += at(x, y, (z + 1).min(r - 1));
                    next[x + r * (y + r * z)] = c + alpha * lap;
                }
            }
        }
        self.values = next;
    }

    /// Concentration gradient at a position (central differences).
    pub fn gradient(&self, p: Real3) -> Real3 {
        let r = self.resolution;
        let flat = self.index(p);
        let (x, y, z) = (flat % r, (flat / r) % r, flat / (r * r));
        let at = |xx: usize, yy: usize, zz: usize| self.values[xx + r * (yy + r * zz)];
        let h = self.edge / r as f64;
        Real3::new(
            (at((x + 1).min(r - 1), y, z) - at(x.saturating_sub(1), y, z)) / (2.0 * h),
            (at(x, (y + 1).min(r - 1), z) - at(x, y.saturating_sub(1), z)) / (2.0 * h),
            (at(x, y, (z + 1).min(r - 1)) - at(x, y, z.saturating_sub(1))) / (2.0 * h),
        )
    }
}

impl BaselineEngine {
    /// Creates an engine with a fixed interaction radius.
    pub fn new(seed: u64, interaction_radius: f64) -> BaselineEngine {
        BaselineEngine {
            agents: Vec::new(),
            rules: Vec::new(),
            rng: SimRng::new(seed),
            interaction_radius,
            mechanics: true,
            diffusion: Vec::new(),
            iteration: 0,
        }
    }

    /// Adds an agent.
    pub fn add_agent(&mut self, a: BaselineAgent) {
        self.agents.push(Box::new(a));
    }

    /// Registers a per-agent rule.
    pub fn add_rule(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Number of live agents.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// Iterations executed.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Rebuilds the materialized neighbor lists (serial bucket grid; fresh
    /// allocations every call — intentionally, see module docs).
    fn build_neighbor_lists(&self) -> Vec<Vec<u32>> {
        let n = self.agents.len();
        let r = self.interaction_radius;
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        if n == 0 {
            return lists;
        }
        // Bounding box.
        let mut min = Real3::splat(f64::INFINITY);
        let mut max = Real3::splat(f64::NEG_INFINITY);
        for a in &self.agents {
            min = min.min(&a.position);
            max = max.max(&a.position);
        }
        let dims: Vec<usize> = (0..3)
            .map(|ax| (((max[ax] - min[ax]) / r).floor() as usize + 1).max(1))
            .collect();
        let flat = |bc: [usize; 3]| bc[0] + dims[0] * (bc[1] + dims[1] * bc[2]);
        let coords = |p: Real3| {
            let mut bc = [0usize; 3];
            for ax in 0..3 {
                bc[ax] = (((p[ax] - min[ax]) / r).max(0.0) as usize).min(dims[ax] - 1);
            }
            bc
        };
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); dims[0] * dims[1] * dims[2]];
        for (i, a) in self.agents.iter().enumerate() {
            buckets[flat(coords(a.position))].push(i as u32);
        }
        let r2 = r * r;
        for (i, a) in self.agents.iter().enumerate() {
            let bc = coords(a.position);
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (x, y, z) = (bc[0] as i64 + dx, bc[1] as i64 + dy, bc[2] as i64 + dz);
                        if x < 0
                            || y < 0
                            || z < 0
                            || x >= dims[0] as i64
                            || y >= dims[1] as i64
                            || z >= dims[2] as i64
                        {
                            continue;
                        }
                        for &j in &buckets[flat([x as usize, y as usize, z as usize])] {
                            if j as usize != i
                                && a.position.distance_sq(&self.agents[j as usize].position) <= r2
                            {
                                lists[i].push(j);
                            }
                        }
                    }
                }
            }
        }
        lists
    }

    /// Executes one iteration: rules, naive mechanics, diffusion, births and
    /// deaths.
    pub fn step(&mut self, dt: f64) {
        self.iteration += 1;
        let lists = self.build_neighbor_lists();
        let mut births: Vec<BaselineAgent> = Vec::new();
        // Rules (take/put to satisfy the borrow checker).
        let mut rules = std::mem::take(&mut self.rules);
        for rule in rules.iter_mut() {
            for (i, neighbors) in lists.iter().enumerate() {
                rule(i, &mut self.agents, neighbors, &mut self.rng, &mut births);
            }
        }
        self.rules = rules;
        // Naive mechanics: repulsion with the same force law as the engine.
        if self.mechanics {
            let mut displacements = vec![Real3::ZERO; self.agents.len()];
            for (i, a) in self.agents.iter().enumerate() {
                let (r1, p1) = (a.diameter / 2.0, a.position);
                let mut f = Real3::ZERO;
                for &j in &lists[i] {
                    let b = &self.agents[j as usize];
                    let delta = p1 - b.position;
                    let dist = delta.norm();
                    let overlap = r1 + b.diameter / 2.0 - dist;
                    if overlap > 0.0 && dist > 1e-12 {
                        let r_eff = r1 * (b.diameter / 2.0) / (r1 + b.diameter / 2.0);
                        let mag = 2.0 * overlap - (r_eff * overlap).sqrt();
                        f += delta * (mag / dist);
                    }
                }
                displacements[i] = f * dt;
            }
            for (a, d) in self.agents.iter_mut().zip(&displacements) {
                let n = d.norm();
                let capped = if n > 3.0 { *d * (3.0 / n) } else { *d };
                a.position += capped;
            }
        }
        for g in &mut self.diffusion {
            g.step(dt);
        }
        // Deaths then births, serially.
        self.agents.retain(|a| a.alive);
        for b in births {
            self.agents.push(Box::new(b));
        }
    }

    /// Runs `n` iterations.
    pub fn simulate(&mut self, n: usize, dt: f64) {
        for _ in 0..n {
            self.step(dt);
        }
    }

    /// Approximate heap usage of the engine's own structures (the agents and
    /// one iteration's neighbor lists).
    pub fn approx_heap_bytes(&self) -> usize {
        let agent = std::mem::size_of::<BaselineAgent>() + std::mem::size_of::<usize>();
        self.agents.len() * agent
            + self
                .diffusion
                .iter()
                .map(|d| d.values.len() * 8)
                .sum::<usize>()
    }
}

/// Pre-built baseline model: growing/dividing cells (cell proliferation).
pub fn proliferation(seed: u64, n: usize) -> BaselineEngine {
    let mut e = BaselineEngine::new(seed, 14.0);
    let per_dim = (n as f64).cbrt().floor().max(1.0) as usize;
    let mut placed = 0;
    for x in 0..per_dim {
        for y in 0..per_dim {
            for z in 0..per_dim {
                if placed >= n {
                    break;
                }
                e.add_agent(BaselineAgent::new(
                    Real3::new(x as f64 * 20.0, y as f64 * 20.0, z as f64 * 20.0),
                    10.0,
                    0,
                ));
                placed += 1;
            }
        }
    }
    e.add_rule(Box::new(|i, agents, _nb, rng, births| {
        let a = &mut agents[i];
        if a.diameter < 14.0 {
            let r = a.diameter / 2.0;
            let v = 4.0 / 3.0 * std::f64::consts::PI * r * r * r + 100.0;
            a.diameter = 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).cbrt();
        } else {
            let dir = gaussian_direction(rng);
            let r = a.diameter / 2.0;
            let v = 4.0 / 3.0 * std::f64::consts::PI * r * r * r / 2.0;
            a.diameter = 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).cbrt();
            let pos = a.position + dir * (a.diameter / 2.0);
            let d = a.diameter;
            births.push(BaselineAgent::new(pos, d, 0));
        }
    }));
    e
}

/// Pre-built baseline model: SIR epidemiology with random walkers.
pub fn epidemiology(seed: u64, n: usize) -> BaselineEngine {
    let extent = (n as f64).cbrt() * 12.0;
    let mut e = BaselineEngine::new(seed, 8.0);
    e.mechanics = false;
    let mut rng = SimRng::new(seed ^ 0xbeef);
    for i in 0..n {
        let state = if i < n / 20 { 1 } else { 0 };
        let mut a = BaselineAgent::new(rng.point_in_cube(0.0, extent), 2.0, state);
        a.aux = 0.0;
        e.add_agent(a);
    }
    e.add_rule(Box::new(move |i, agents, nb, rng, _births| {
        // Random walk.
        let dir = gaussian_direction(rng);
        let p = (agents[i].position + dir * 6.0).clamp_scalar(0.0, extent);
        agents[i].position = p;
        // Infection dynamics.
        match agents[i].state {
            0 => {
                let infected_near = nb.iter().any(|&j| agents[j as usize].state == 1);
                if infected_near && rng.chance(0.3) {
                    agents[i].state = 1;
                    agents[i].aux = 0.0;
                }
            }
            1 => {
                agents[i].aux += 1.0;
                if agents[i].aux >= 30.0 {
                    agents[i].state = 2;
                }
            }
            _ => {}
        }
    }));
    e
}

/// Pre-built baseline model: two-type chemotactic clustering.
pub fn clustering(seed: u64, n: usize) -> BaselineEngine {
    let extent = (n as f64).cbrt() * 15.0;
    let res = ((27.0 * n as f64).cbrt().ceil() as usize).clamp(8, 64);
    let mut e = BaselineEngine::new(seed, 10.0);
    e.diffusion
        .push(BaselineDiffusion::new(res, Real3::ZERO, extent, 0.4));
    e.diffusion
        .push(BaselineDiffusion::new(res, Real3::ZERO, extent, 0.4));
    let mut rng = SimRng::new(seed ^ 0xc1);
    for i in 0..n {
        e.add_agent(BaselineAgent::new(
            rng.point_in_cube(0.0, extent),
            10.0,
            (i % 2) as u64,
        ));
    }
    e.add_rule(Box::new(|i, agents, _nb, _rng, _births| {
        let ty = agents[i].state;
        let pos = agents[i].position;
        let _ = (ty, pos); // secretion + chemotaxis handled below via engine
                           // state; this rule is a placeholder for per-agent work (position
                           // jitter keeps the workload comparable).
        agents[i].aux += 1.0;
    }));
    e
}

/// Pre-built baseline model: differential-adhesion cell sorting.
pub fn cell_sorting(seed: u64, n: usize) -> BaselineEngine {
    let extent = (n as f64).cbrt() * 12.0;
    let mut e = BaselineEngine::new(seed, 15.0);
    let mut rng = SimRng::new(seed ^ 0x50);
    for i in 0..n {
        e.add_agent(BaselineAgent::new(
            rng.point_in_cube(0.0, extent),
            10.0,
            (i % 2) as u64,
        ));
    }
    e.add_rule(Box::new(|i, agents, nb, _rng, _births| {
        let my_type = agents[i].state;
        let pos = agents[i].position;
        let mut sum = Real3::ZERO;
        let mut count = 0u32;
        for &j in nb {
            let b = &agents[j as usize];
            if b.state == my_type {
                sum += b.position;
                count += 1;
            }
        }
        if count > 0 {
            let dir = (sum / count as f64 - pos).normalized();
            agents[i].position = pos + dir * 2.0;
        }
    }));
    e
}

/// Pre-built baseline model: branching neurite growth (the Cortex3D-style
/// workload). Somas sit on a 2-D grid; growth-cone agents climb in +z,
/// depositing an immobile trail sphere every step and bifurcating with a
/// small probability. The deposited arbor never moves — the workload has the
/// same "active growth front over a static region" shape as the engine's
/// neuroscience model (paper Sections 5 and 6.1).
pub fn neurite_growth(seed: u64, n_initial: usize) -> BaselineEngine {
    const CONE: u64 = 2;
    const TRAIL: u64 = 1;
    let n_neurons = (n_initial / 3).max(1);
    let dim = (n_neurons as f64).sqrt().ceil().max(1.0) as usize;
    let mut e = BaselineEngine::new(seed, 12.0);
    e.mechanics = true;
    let mut placed = 0;
    'outer: for gx in 0..dim {
        for gy in 0..dim {
            if placed >= n_neurons {
                break 'outer;
            }
            let pos = Real3::new(gx as f64 * 30.0 + 15.0, gy as f64 * 30.0 + 15.0, 10.0);
            // Soma plus two initial growth cones, mirroring the engine model.
            e.add_agent(BaselineAgent::new(pos, 10.0, 0));
            for _ in 0..2 {
                let mut cone = BaselineAgent::new(pos + Real3::new(0.0, 0.0, 6.0), 2.0, CONE);
                cone.aux = 0.0; // branch order
                e.add_agent(cone);
            }
            placed += 1;
        }
    }
    e.add_rule(Box::new(move |i, agents, _nb, rng, births| {
        if agents[i].state != CONE {
            return;
        }
        // Climb in +z with lateral jitter, deposit a trail sphere behind.
        let jitter = gaussian_direction(rng) * 0.6;
        let dir = (Real3::new(jitter.x(), jitter.y(), 1.0)).normalized();
        let old = agents[i].position;
        agents[i].position = old + dir * 2.0;
        births.push(BaselineAgent::new(old, 2.0, TRAIL));
        // Occasional bifurcation up to branch order 4.
        if agents[i].aux < 4.0 && rng.chance(0.03) {
            let mut twin = agents[i].clone();
            twin.aux += 1.0;
            agents[i].aux += 1.0;
            births.push(*twin);
        }
    }));
    e
}

/// Pre-built baseline model: tumor spheroid with proliferation and apoptosis
/// (the only baseline workload that deletes agents, mirroring the engine's
/// oncology model).
pub fn oncology(seed: u64, n: usize) -> BaselineEngine {
    let r = (n as f64).cbrt() * 6.0;
    let center = Real3::splat(r * 1.5);
    let mut e = BaselineEngine::new(seed, 15.0);
    let mut rng = SimRng::new(seed ^ 0x0c0);
    for _ in 0..n {
        let dir = gaussian_direction(&mut rng);
        let dist = r * rng.uniform().cbrt();
        e.add_agent(BaselineAgent::new(
            center + dir * dist,
            9.0 + rng.uniform_in(0.0, 2.0),
            0,
        ));
    }
    e.add_rule(Box::new(|i, agents, nb, rng, births| {
        if rng.chance(0.002) {
            agents[i].alive = false;
            return;
        }
        if nb.len() <= 12 {
            let a = &mut agents[i];
            if a.diameter < 14.0 {
                let rr = a.diameter / 2.0;
                let v = 4.0 / 3.0 * std::f64::consts::PI * rr * rr * rr + 40.0;
                a.diameter = 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).cbrt();
            } else {
                let dir = gaussian_direction(rng);
                let rr = a.diameter / 2.0;
                let v = 4.0 / 3.0 * std::f64::consts::PI * rr * rr * rr / 2.0;
                a.diameter = 2.0 * (3.0 * v / (4.0 * std::f64::consts::PI)).cbrt();
                let pos = a.position + dir * (a.diameter / 2.0);
                let d = a.diameter;
                births.push(BaselineAgent::new(pos, d, 0));
            }
        }
    }));
    e
}

/// Builds the baseline engine matching a benchmark-model name, at the given
/// scale. Returns `None` for names without a baseline counterpart.
pub fn engine_by_name(name: &str, seed: u64, n: usize) -> Option<BaselineEngine> {
    Some(match name {
        "cell_proliferation" => proliferation(seed, n),
        "cell_clustering" => clustering(seed, n),
        "epidemiology" => epidemiology(seed, n),
        "neuroscience" => neurite_growth(seed, n),
        "oncology" => oncology(seed, n),
        "cell_sorting" => cell_sorting(seed, n),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proliferation_grows() {
        let mut e = proliferation(1, 27);
        assert_eq!(e.num_agents(), 27);
        e.simulate(30, 1.0);
        assert!(e.num_agents() > 27, "{}", e.num_agents());
    }

    #[test]
    fn epidemiology_spreads() {
        let mut e = epidemiology(2, 300);
        let infected0 = e.agents.iter().filter(|a| a.state == 1).count();
        e.simulate(50, 1.0);
        let touched = e.agents.iter().filter(|a| a.state != 0).count();
        assert!(touched > infected0, "{touched} > {infected0}");
        assert_eq!(e.num_agents(), 300);
    }

    #[test]
    fn cell_sorting_sorts() {
        let mut e = cell_sorting(3, 200);
        let frac = |e: &BaselineEngine| {
            let lists = e.build_neighbor_lists();
            let mut num = 0.0;
            let mut den = 0.0;
            for (i, l) in lists.iter().enumerate() {
                for &j in l {
                    den += 1.0;
                    if e.agents[j as usize].state == e.agents[i].state {
                        num += 1.0;
                    }
                }
            }
            if den == 0.0 {
                0.0
            } else {
                num / den
            }
        };
        let before = frac(&e);
        e.simulate(60, 1.0);
        let after = frac(&e);
        assert!(after > before, "sorting: {before:.3} -> {after:.3}");
    }

    #[test]
    fn neighbor_lists_match_brute_force() {
        let mut e = BaselineEngine::new(7, 5.0);
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            e.add_agent(BaselineAgent::new(rng.point_in_cube(0.0, 30.0), 2.0, 0));
        }
        let lists = e.build_neighbor_lists();
        for (i, list) in lists.iter().enumerate() {
            let mut expected: Vec<u32> = (0..e.num_agents() as u32)
                .filter(|&j| {
                    j as usize != i
                        && e.agents[i]
                            .position
                            .distance_sq(&e.agents[j as usize].position)
                            <= 25.0
                })
                .collect();
            expected.sort_unstable();
            let mut got = list.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "agent {i}");
        }
    }

    #[test]
    fn deaths_are_applied() {
        let mut e = BaselineEngine::new(1, 5.0);
        for i in 0..10 {
            e.add_agent(BaselineAgent::new(Real3::splat(i as f64 * 10.0), 2.0, 0));
        }
        e.add_rule(Box::new(|i, agents, _nb, _rng, _b| {
            if i % 2 == 0 {
                agents[i].alive = false;
            }
        }));
        e.step(1.0);
        assert_eq!(e.num_agents(), 5);
    }

    #[test]
    fn diffusion_conserves_interior_mass() {
        let mut d = BaselineDiffusion::new(8, Real3::ZERO, 8.0, 0.2);
        let idx = d.index(Real3::splat(4.0));
        d.values[idx] = 10.0;
        for _ in 0..20 {
            d.step(0.1);
        }
        let total: f64 = d.values.iter().sum();
        assert!((total - 10.0).abs() < 1e-9, "{total}");
        let g = d.gradient(Real3::new(2.0, 4.0, 4.0));
        assert!(g.x() > 0.0);
    }

    #[test]
    fn empty_engine_steps() {
        let mut e = BaselineEngine::new(1, 5.0);
        e.simulate(3, 1.0);
        assert_eq!(e.num_agents(), 0);
    }

    #[test]
    fn neurite_growth_extends_and_is_mostly_static() {
        let mut e = neurite_growth(5, 12);
        let initial = e.num_agents();
        e.simulate(25, 1.0);
        assert!(
            e.num_agents() > initial * 2,
            "{} > {}",
            e.num_agents(),
            initial
        );
        // Trail spheres outnumber cones: the arbor is mostly static.
        let trails = e.agents.iter().filter(|a| a.state == 1).count();
        let cones = e.agents.iter().filter(|a| a.state == 2).count();
        assert!(trails > cones, "trails {trails} vs cones {cones}");
        // Cones climbed the +z direction.
        let max_z = e
            .agents
            .iter()
            .map(|a| a.position.z())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(max_z > 20.0, "max z {max_z}");
    }

    #[test]
    fn oncology_has_turnover() {
        let mut e = oncology(6, 150);
        e.simulate(30, 1.0);
        assert!(e.num_agents() > 0);
        // Stochastic deaths happen at p=0.002 over 150 agents × 30 steps;
        // population still trends upward because of division.
        assert!(e.num_agents() > 120, "{}", e.num_agents());
    }

    #[test]
    fn engine_registry_covers_all_models() {
        for name in [
            "cell_proliferation",
            "cell_clustering",
            "epidemiology",
            "neuroscience",
            "oncology",
            "cell_sorting",
        ] {
            let e = engine_by_name(name, 1, 30).unwrap_or_else(|| panic!("{name}"));
            assert!(e.num_agents() > 0, "{name}");
        }
        assert!(engine_by_name("nope", 1, 10).is_none());
    }
}
