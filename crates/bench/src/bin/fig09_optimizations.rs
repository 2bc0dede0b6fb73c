//! **Figure 9** — speedup (top) and memory consumption (bottom) versus the
//! BioDynaMo standard implementation, with the optimizations progressively
//! switched on, for all five Table 1 models.
//!
//! Paper observations to reproduce in shape: total improvement 33.1–524×
//! (median 159×); the uniform grid is the largest step (up to 184×, median
//! 27.4×); memory-layout optimizations add up to 5.30× (median 2.96×);
//! extra sorting memory up to 2.07× (median 1.09×); static detection 3.22×
//! for neuroscience; parallel removal cuts oncology time by 31.7%; the
//! optimizations cost a median 1.77% extra memory (55.6% with extra sorting
//! memory).

use bdm_bench::{emit, fmt_secs, fmt_speedup, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::{median, Table};

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header(
        "Figure 9: optimization ladder (speedup and memory vs standard)",
        &args,
    );

    let agents = args.scale(8_000);
    // Long enough for the sorting frequency (10) of the memory-layout
    // preset to fire several times.
    let iterations = args.iters(40);
    println!("agents={agents} iterations={iterations} (paper: 2M-12.6M agents)\n");

    let mut table = Table::new([
        "model",
        "configuration",
        "s/iteration",
        "speedup vs standard",
        "memory vs standard",
        "snapshot memory",
        "s/iter vs previous level",
    ]);
    let mut full_speedups = Vec::new();
    let mut grid_step = Vec::new();
    let mut memlayout_step = Vec::new();
    let mut extra_mem_step = Vec::new();
    let mut removal_note = None;
    let mut static_note = None;
    for name in args.selected_models() {
        let mut standard: Option<(f64, u64)> = None;
        let mut prev_secs = f64::NAN;
        for opt in OptLevel::ALL {
            let spec = RunSpec::new(&name, agents, iterations)
                .with_opt(opt)
                .with_topology(args.threads, args.domains);
            let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
            let per_iter = report.per_iter_secs();
            let (base_secs, base_mem) = *standard.get_or_insert((per_iter, report.peak_rss_bytes));
            let speedup = base_secs / per_iter;
            let mem_ratio = if base_mem > 0 && report.peak_rss_bytes > 0 {
                format!("{:.2}x", report.peak_rss_bytes as f64 / base_mem as f64)
            } else {
                "n/a".into()
            };
            table.row([
                name.clone(),
                opt.label().to_string(),
                fmt_secs(per_iter),
                fmt_speedup(speedup),
                mem_ratio,
                // Per-array SoA accounting from the engine (payloads only
                // when the model's kernels declared them).
                bdm_util::format_bytes(report.snapshot_bytes),
                // The step this level adds, against the level below it in
                // the same run, so runner speed cancels (the CI gate reads
                // this column on the `+static_detection` rows).
                if prev_secs.is_nan() {
                    "n/a".into()
                } else {
                    format!("{:.2}", per_iter / prev_secs)
                },
            ]);
            match opt {
                OptLevel::UniformGrid => grid_step.push(base_secs / per_iter),
                OptLevel::ParallelAddRemove if name == "oncology" => {
                    removal_note = Some(1.0 - per_iter / prev_secs);
                }
                OptLevel::MemoryLayout => memlayout_step.push(prev_secs / per_iter),
                OptLevel::SortExtraMemory => extra_mem_step.push(prev_secs / per_iter),
                OptLevel::StaticDetection => {
                    full_speedups.push(speedup);
                    if name == "neuroscience" {
                        static_note = Some(prev_secs / per_iter);
                    }
                }
                _ => {}
            }
            prev_secs = per_iter;
        }
    }
    emit(&table, "fig09_optimizations", &args);

    let fmt_med = |v: &[f64]| median(v).map_or("n/a".into(), fmt_speedup);
    println!(
        "median full-ladder speedup:        {} (paper: 159x, range 33.1-524x)\n\
         median uniform-grid step:          {} (paper: 27.4x, up to 184x)\n\
         median memory-layout step:         {} (paper: 2.96x, up to 5.30x)\n\
         median extra-sort-memory step:     {} (paper: 1.09x, up to 2.07x)",
        fmt_med(&full_speedups),
        fmt_med(&grid_step),
        fmt_med(&memlayout_step),
        fmt_med(&extra_mem_step),
    );
    if let Some(cut) = removal_note {
        println!(
            "oncology parallel-removal step:    {:.1}% runtime reduction (paper: 31.7%)",
            cut * 100.0
        );
    }
    if let Some(s) = static_note {
        println!(
            "neuroscience static-detection step: {} (paper: 3.22x)",
            fmt_speedup(s)
        );
    }
}
