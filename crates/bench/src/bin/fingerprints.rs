//! Bitwise fingerprints of the six benchmark models: the protocol that
//! shows a change leaves every simulated bit where it was.
//!
//! Each line is one run — `Param::default()` with the seed (4357), the
//! model at `--agents` (2000) for `--iterations` (30) — and the FNV-1a
//! digest of the Debug form of [`bdm_core::testing::fingerprint`] after it:
//! every agent's uid, position, diameter, payload, static and wake flags
//! and serialized behaviors, plus the iteration and uid counter. Per model
//! the uniform grid runs at K ∈ {1, 2} shards × static detection
//! {off, armed}, then at K ∈ {1, 2} with detection armed and the agent sort
//! every 5 iterations (`sort=5` on the line: the sort, its post-commit
//! index rebuild and the NUMA balancing); `cell_clustering` and `oncology`
//! also run on the kd-tree and the brute-force environment (detection
//! armed). Every run uses two threads and two NUMA domains.
//!
//! ```text
//! cargo run --release -p bdm_bench --bin fingerprints > after.txt
//! ```
//!
//! Two trees that simulate the same bits print the same 40 lines, and a
//! line that differs names the run that diverged: `diff` the outputs of a
//! parent and a change. Within one run the binary
//! also asserts that K = 1 and K = 2 print the same digest per (model,
//! detection, sort) — the sharded engine is bitwise the single engine — and
//! exits non-zero when they differ.

use std::collections::BTreeMap;

use bdm_bench::Args;
use bdm_core::testing::fingerprint;
use bdm_core::{EnvironmentKind, Param};
use bdm_models::model_by_name;
use bdm_util::fnv1a64;

/// Iterations between agent sorts on the sorted rows.
const SORT_PERIOD: usize = 5;

fn main() {
    let args = Args::parse();
    let agents = args.agents.unwrap_or(2000);
    let iterations = args.iterations.unwrap_or(30);
    let mut mismatches = Vec::new();
    for name in args.selected_models() {
        let mut runs = Vec::new();
        for shards in [1, 2] {
            for detect in [false, true] {
                runs.push((EnvironmentKind::UniformGrid, shards, detect, None));
            }
        }
        for shards in [1, 2] {
            runs.push((
                EnvironmentKind::UniformGrid,
                shards,
                true,
                Some(SORT_PERIOD),
            ));
        }
        if matches!(name.as_str(), "cell_clustering" | "oncology") {
            runs.push((EnvironmentKind::KdTree, 1, true, None));
            runs.push((EnvironmentKind::Brute, 1, true, None));
        }
        // The K = 1 digest of each (detection, sort) setting on the grid.
        let mut single = BTreeMap::new();
        for (environment, shards, detect, sort) in runs {
            let param = Param {
                seed: args.seed,
                threads: Some(2),
                numa_domains: Some(2),
                environment,
                shards,
                detect_static_agents: detect,
                agent_sort_frequency: sort,
                ..Param::default()
            };
            let model =
                model_by_name(&name, agents).unwrap_or_else(|| panic!("unknown model {name}"));
            let mut sim = model.build(param);
            sim.simulate(iterations);
            let digest = fnv1a64(format!("{:?}", fingerprint(&sim)).as_bytes());
            let sorted = sort.map_or(String::new(), |period| format!(" sort={period}"));
            println!(
                "{name} {environment:?} K={shards} detect={detect}{sorted} agents={} digest={digest:016x}",
                sim.num_agents()
            );
            if environment == EnvironmentKind::UniformGrid {
                match single.get(&(detect, sort)) {
                    None => {
                        single.insert((detect, sort), digest);
                    }
                    Some(&k1) if k1 != digest => {
                        mismatches.push(format!(
                            "{name} detect={detect}{sorted}: K=1 {k1:016x}, K={shards} {digest:016x}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
    }
    if !mismatches.is_empty() {
        eprintln!("sharded runs diverge from the single engine:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
}
