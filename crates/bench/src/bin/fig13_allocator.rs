//! **Figure 13** — memory allocator comparison (runtime speedup and memory
//! consumption).
//!
//! The paper compares the BioDynaMo pool allocator against ptmalloc2 and
//! jemalloc (tcmalloc deadlocked) in four configurations per simulation.
//! Substitution (docs/ARCHITECTURE.md, "Deviations from the paper"):
//! glibc's allocator *is* ptmalloc2, so the system-allocator configuration
//! is exact; jemalloc/tcmalloc are not redistributable here. We measure the same contrast the figure exists to
//! show — pool allocator on/off for agents and behaviors. The paper's
//! extra-sorting-memory configurations have no counterpart: the sort
//! permutes agents in place on either allocator.
//!
//! Paper observations to reproduce in shape: the pool allocator is up to
//! 1.52× faster than ptmalloc2 (median 1.19×) while consuming slightly
//! *less* memory on average (−1.41%).

use bdm_bench::{emit, fmt_bytes, fmt_secs, fmt_speedup, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::{median, Table};

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Figure 13: memory allocator comparison", &args);

    let agents = args.scale(8_000);
    let iterations = args.iters(15);
    println!(
        "agents={agents} iterations={iterations}; allocation-heavy models (oncology,\n\
         cell_proliferation, neuroscience) stress the allocator most\n"
    );

    let configs = [("system allocator", false), ("pool allocator", true)];

    let mut table = Table::new([
        "model",
        "configuration",
        "s/iteration",
        "speedup vs system",
        "peak memory",
        "pool allocations",
    ]);
    let mut speedups = Vec::new();
    let mut memory_ratios = Vec::new();
    for name in args.selected_models() {
        let mut base: Option<(f64, u64)> = None;
        for (label, use_pool) in configs {
            let mut spec = RunSpec::new(&name, agents, iterations)
                .with_opt(OptLevel::StaticDetection)
                .with_topology(args.threads, args.domains);
            spec.use_pool = Some(use_pool);
            let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
            let per_iter = report.per_iter_secs();
            let (base_secs, base_mem) = *base.get_or_insert((per_iter, report.peak_rss_bytes));
            let speedup = base_secs / per_iter;
            table.row([
                name.clone(),
                label.to_string(),
                fmt_secs(per_iter),
                fmt_speedup(speedup),
                fmt_bytes(report.peak_rss_bytes),
                report.pool_allocations.to_string(),
            ]);
            if label == "pool allocator" {
                speedups.push(speedup);
                if base_mem > 0 && report.peak_rss_bytes > 0 {
                    memory_ratios.push(report.peak_rss_bytes as f64 / base_mem as f64);
                }
            }
        }
    }
    emit(&table, "fig13_allocator", &args);

    println!(
        "median pool-allocator speedup: {} (paper: 1.19x over ptmalloc2, up to 1.52x)",
        median(&speedups).map_or("n/a".into(), fmt_speedup)
    );
    if let Some(m) = median(&memory_ratios) {
        println!(
            "median pool-allocator memory ratio: {:.3} (paper: 0.986, i.e. 1.41% below ptmalloc2)",
            m
        );
    }
}
