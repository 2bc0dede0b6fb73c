//! **Figure 11** — neighbor-search algorithm comparison: BioDynaMo's
//! uniform grid vs octree (Behley et al. stand-in) vs kd-tree (nanoflann
//! stand-in), across all five models and two NUMA configurations.
//!
//! Agent sorting is off for all algorithms ("because it is currently only
//! implemented for the uniform grid", Section 6.9). Four properties are
//! measured per the paper: (a) whole-simulation runtime, (b) index build
//! time (the `environment_update` bucket), (c) search time, measured
//! indirectly through the agent-operation runtime, and (d) index memory.
//!
//! Paper observations to reproduce in shape: the grid's build is faster by
//! orders of magnitude (255–983× on four NUMA domains — the tree builds are
//! serial), the grid also wins the search stage throughout, whole
//! simulations are up to 191× faster than the kd-tree, and the grid costs
//! at most 11% more memory.

use bdm_bench::{emit, fmt_bytes, fmt_secs, fmt_speedup, header, Args, RunSpec, ENVIRONMENTS};
use bdm_util::Table;

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Figure 11: neighbor-search algorithm comparison", &args);

    let agents = args.scale(20_000);
    let iterations = args.iters(10);
    let max_threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    // Left column of the figure: many domains; right column: one domain.
    let domain_configs: Vec<(usize, usize)> = if max_threads >= 4 {
        vec![(4.min(max_threads), max_threads), (1, max_threads)]
    } else {
        vec![(max_threads.min(2), max_threads), (1, max_threads)]
    };
    println!("agents={agents} iterations={iterations}; sorting disabled for all algorithms\n");

    let mut table = Table::new([
        "domains",
        "model",
        "environment",
        "whole (s/iter)",
        "build (s/iter)",
        "search proxy (s/iter)",
        "index memory",
        "snapshot memory",
    ]);
    let mut grid_vs_kdtree_whole = Vec::new();
    let mut grid_vs_kdtree_build = Vec::new();
    for &(domains, threads) in &domain_configs {
        for name in args.selected_models() {
            let mut grid_report = None;
            for (env, env_label) in ENVIRONMENTS {
                let mut spec = RunSpec::new(&name, agents, iterations)
                    .with_topology(Some(threads), Some(domains));
                spec.env = Some(env);
                spec.sort_freq = Some(None); // sorting off for a fair comparison
                let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
                table.row([
                    domains.to_string(),
                    name.clone(),
                    env_label.to_string(),
                    fmt_secs(report.per_iter_secs()),
                    fmt_secs(report.bucket("environment_update") / iterations as f64),
                    fmt_secs(report.bucket("agent_ops") / iterations as f64),
                    fmt_bytes(report.env_bytes),
                    // Per-array SoA accounting from the engine:
                    // positions, diameters and payloads of every agent.
                    fmt_bytes(report.snapshot_bytes),
                ]);
                match env_label {
                    "uniform_grid" => grid_report = Some(report),
                    "kd_tree" => {
                        if let Some(grid) = &grid_report {
                            if grid.per_iter_secs() > 0.0 {
                                grid_vs_kdtree_whole
                                    .push(report.per_iter_secs() / grid.per_iter_secs());
                            }
                            let grid_build = grid.bucket("environment_update");
                            if grid_build > 0.0 {
                                grid_vs_kdtree_build
                                    .push(report.bucket("environment_update") / grid_build);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    emit(&table, "fig11_neighbor", &args);

    let fmt_range = |v: &[f64]| {
        if v.is_empty() {
            "n/a".to_string()
        } else {
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            format!("{}-{}", fmt_speedup(min), fmt_speedup(max))
        }
    };
    println!(
        "uniform grid vs kd-tree, whole simulation: {} (paper: up to 191x)\n\
         uniform grid vs kd-tree, build time:       {} (paper: 255-983x on 4 domains)",
        fmt_range(&grid_vs_kdtree_whole),
        fmt_range(&grid_vs_kdtree_build),
    );
}
