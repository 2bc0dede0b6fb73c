//! **Figure 12** — agent sorting and balancing speedup for different
//! execution frequencies, on four NUMA domains (left) and one (right).
//!
//! The baseline is the same configuration *without* agent sorting. Paper
//! observations to reproduce in shape: randomly-initialized models benefit
//! most (oncology 5.77×, clustering 4.56× peak on four domains); random
//! *movement* destroys the benefit (epidemiology peak 1.14×); grid
//! initialization reduces it (proliferation 1.82×); for neuroscience the
//! static-detection mechanism hides most of the benefit (below-average
//! speedup with detection on; 3.80× at frequency 20 with detection off).
//! Sorting helps even on one domain, because it also aligns memory with
//! space.

use bdm_bench::{emit, fmt_secs, fmt_speedup, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::Table;

const FREQUENCIES: [Option<usize>; 6] = [None, Some(1), Some(5), Some(10), Some(20), Some(50)];

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header(
        "Figure 12: agent sorting and balancing frequency study",
        &args,
    );

    let agents = args.scale(8_000);
    // Must cover several periods of the largest frequency (50).
    let iterations = args.iters(120);
    let threads = args.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let domain_configs: Vec<usize> = if threads >= 4 {
        vec![4, 1]
    } else {
        vec![threads.min(2), 1]
    };
    println!("agents={agents} iterations={iterations} (baseline per row-group: sorting off)\n");

    // `sort frequency` configures the scheduler's built-in `agent_sorting`
    // operation; the "sorting time" column reads that op's accumulated
    // wall-clock time back from the scheduler's per-op timings.
    let mut table = Table::new([
        "domains",
        "model",
        "sort frequency",
        "speedup vs no sorting",
        "sorting time (total)",
    ]);
    for &domains in &domain_configs {
        for name in args.selected_models() {
            let mut baseline = None;
            for freq in FREQUENCIES {
                let mut spec = RunSpec::new(&name, agents, iterations)
                    .with_opt(OptLevel::StaticDetection)
                    .with_topology(Some(threads), Some(domains.min(threads)));
                spec.sort_freq = Some(freq);
                let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
                let per_iter = report.per_iter_secs();
                let base = *baseline.get_or_insert(per_iter);
                table.row([
                    domains.to_string(),
                    name.clone(),
                    freq.map_or("off".to_string(), |f| f.to_string()),
                    fmt_speedup(base / per_iter),
                    fmt_secs(report.bucket("agent_sorting")),
                ]);
            }
        }
    }
    emit(&table, "fig12_sorting_freq", &args);

    // The paper's neuroscience aside: with static detection disabled, the
    // sorting benefit reappears (3.80x at frequency 20).
    if args.selected_models().iter().any(|m| m == "neuroscience") {
        println!(
            "neuroscience with static detection OFF (paper: sorting regains 3.80x at freq 20):"
        );
        let mut aside = Table::new(["sort frequency", "speedup vs no sorting"]);
        let mut baseline = None;
        for freq in [None, Some(20)] {
            let mut spec = RunSpec::new("neuroscience", agents, iterations)
                .with_opt(OptLevel::MemoryLayout) // ladder stops before static detection
                .with_topology(Some(threads), args.domains);
            spec.sort_freq = Some(freq);
            let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
            let per_iter = report.per_iter_secs();
            let base = *baseline.get_or_insert(per_iter);
            aside.row([
                freq.map_or("off".to_string(), |f| f.to_string()),
                fmt_speedup(base / per_iter),
            ]);
        }
        emit(&aside, "fig12_neuroscience_aside", &args);
    }
}
