//! Bitwise fingerprints of the six benchmark models: the protocol that
//! shows a change leaves every simulated bit where it was.
//!
//! Each line is one run — `Param::default()` with the seed (4357), the
//! model at `--agents` (2000) for `--iterations` (30) — and the FNV-1a
//! digest of the Debug form of [`bdm_core::testing::fingerprint`] after it:
//! every agent's uid, position, diameter, payload, static and wake flags
//! and serialized behaviors, plus the iteration and uid counter. Per model
//! the uniform grid runs at K ∈ {1, 2} shards × static detection
//! {off, armed}; `cell_clustering` and `oncology` also run on the kd-tree
//! and the brute-force environment (detection armed). Models that add or
//! remove agents (`oncology`, `neuroscience`, `cell_proliferation`) are
//! run-to-run reproducible on one thread only and run there; the others
//! run on two.
//!
//! ```text
//! cargo run --release -p bdm_bench --bin fingerprints > after.txt
//! ```
//!
//! Two trees that simulate the same bits print the same 28 lines, and a
//! line that differs names the run that diverged: `diff` the outputs of a
//! parent and a change. Within one run the binary
//! also asserts that K = 1 and K = 2 print the same digest per (model,
//! detection) — the sharded engine is bitwise the single engine — and
//! exits non-zero when they differ.

use std::collections::BTreeMap;

use bdm_bench::Args;
use bdm_core::testing::fingerprint;
use bdm_core::{EnvironmentKind, Param};
use bdm_models::model_by_name;
use bdm_util::fnv1a64;

fn main() {
    let args = Args::parse();
    let agents = args.agents.unwrap_or(2000);
    let iterations = args.iterations.unwrap_or(30);
    let mut mismatches = Vec::new();
    for name in args.selected_models() {
        let threads = match name.as_str() {
            "oncology" | "neuroscience" | "cell_proliferation" => 1,
            _ => 2,
        };
        let mut runs = Vec::new();
        for shards in [1, 2] {
            for detect in [false, true] {
                runs.push((EnvironmentKind::UniformGrid, shards, detect));
            }
        }
        if matches!(name.as_str(), "cell_clustering" | "oncology") {
            runs.push((EnvironmentKind::KdTree, 1, true));
            runs.push((EnvironmentKind::Brute, 1, true));
        }
        // The K = 1 digest of each detection setting on the grid.
        let mut single = BTreeMap::new();
        for (environment, shards, detect) in runs {
            let param = Param {
                seed: args.seed,
                threads: Some(threads),
                numa_domains: Some(threads),
                environment,
                shards,
                detect_static_agents: detect,
                ..Param::default()
            };
            let model =
                model_by_name(&name, agents).unwrap_or_else(|| panic!("unknown model {name}"));
            let mut sim = model.build(param);
            sim.simulate(iterations);
            let digest = fnv1a64(format!("{:?}", fingerprint(&sim)).as_bytes());
            println!(
                "{name} {environment:?} K={shards} detect={detect} agents={} digest={digest:016x}",
                sim.num_agents()
            );
            if environment == EnvironmentKind::UniformGrid {
                match single.get(&detect) {
                    None => {
                        single.insert(detect, digest);
                    }
                    Some(&k1) if k1 != digest => {
                        mismatches.push(format!(
                            "{name} detect={detect}: K=1 {k1:016x}, K={shards} {digest:016x}"
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
