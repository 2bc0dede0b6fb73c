//! **Figure 8** — comparison with Cortex3D and NetLogo, with the
//! optimizations progressively switched on.
//!
//! Cortex3D and NetLogo are serial Java tools; `bdm-baseline` is their
//! stand-in (docs/ARCHITECTURE.md, "Deviations from the paper"): a correct
//! but deliberately straightforward serial engine with boxed AoS agents and
//! materialized per-agent neighbor lists. Four small-scale benchmarks run **single-threaded** (the
//! comparators are not parallelized, exactly as in the paper), and the
//! medium-scale epidemiology benchmark uses all threads.
//!
//! Paper observations to reproduce in shape: single-thread speedup up to
//! 78.8× with 2.49× less memory; three orders of magnitude at medium scale
//! with all threads; the standard implementation achieves a median 15.5×;
//! the uniform grid is the largest single step (median 2.18×, 45.5× when
//! parallelism is active).

use bdm_bench::{emit, fmt_bytes, fmt_secs, fmt_speedup, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::{median, Table};

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header(
        "Figure 8: comparison with Cortex3D and NetLogo (serial baseline)",
        &args,
    );

    // (figure label, model, agents, iterations, single-thread?)
    let scale = |n: usize| if args.quick { n / 4 } else { n };
    let benchmarks: Vec<(&str, &str, usize, usize, bool)> = vec![
        (
            "cell growth (small)",
            "cell_proliferation",
            scale(2_000),
            args.iters(10),
            true,
        ),
        (
            "neurite growth (small)",
            "neuroscience",
            scale(3_000),
            args.iters(10),
            true,
        ),
        (
            "soma clustering (small)",
            "cell_clustering",
            scale(4_000),
            args.iters(10),
            true,
        ),
        (
            "cell sorting (small)",
            "cell_sorting",
            scale(4_000),
            args.iters(10),
            true,
        ),
        (
            "epidemiology (medium)",
            "epidemiology",
            scale(30_000),
            args.iters(10),
            false,
        ),
    ];
    let all_threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });

    let mut table = Table::new([
        "benchmark",
        "configuration",
        "s/iteration",
        "speedup vs baseline",
        "peak memory",
    ]);
    let mut standard_speedups = Vec::new();
    let mut grid_step_speedups = Vec::new();
    let mut full_speedups = Vec::new();
    for (label, model, agents, iterations, single_thread) in benchmarks {
        let (threads, domains) = if single_thread {
            (Some(1), Some(1))
        } else {
            (Some(all_threads), args.domains)
        };
        // The serial comparator.
        let base_spec = RunSpec::new(model, agents, iterations)
            .with_baseline()
            .with_topology(Some(1), Some(1));
        let base = bdm_bench::measure_median(&base_spec, args.repeats, args.no_subprocess);
        table.row([
            label.to_string(),
            "serial baseline (Cortex3D/NetLogo stand-in)".to_string(),
            fmt_secs(base.per_iter_secs()),
            "1.00x".to_string(),
            fmt_bytes(base.peak_rss_bytes),
        ]);
        // The engine ladder.
        let mut prev = base.per_iter_secs();
        for opt in OptLevel::ALL {
            let spec = RunSpec::new(model, agents, iterations)
                .with_opt(opt)
                .with_topology(threads, domains);
            let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
            let per_iter = report.per_iter_secs();
            let speedup = base.per_iter_secs() / per_iter;
            table.row([
                label.to_string(),
                format!("biodynamo {}", opt.label()),
                fmt_secs(per_iter),
                fmt_speedup(speedup),
                fmt_bytes(report.peak_rss_bytes),
            ]);
            match opt {
                OptLevel::Standard => standard_speedups.push(speedup),
                OptLevel::UniformGrid => grid_step_speedups.push(prev / per_iter),
                OptLevel::StaticDetection => full_speedups.push(speedup),
                _ => {}
            }
            prev = per_iter;
        }
    }
    emit(&table, "fig08_comparison", &args);

    let fmt_med = |v: &[f64]| median(v).map_or("n/a".into(), fmt_speedup);
    println!(
        "median standard-implementation speedup: {} (paper: 15.5x)\n\
         median uniform-grid step speedup:       {} (paper: 2.18x, 45.5x with parallelism)\n\
         median fully-optimized speedup:         {} (paper: up to 78.8x serial, ~1000x medium-scale)",
        fmt_med(&standard_speedups),
        fmt_med(&grid_step_speedups),
        fmt_med(&full_speedups),
    );
}
