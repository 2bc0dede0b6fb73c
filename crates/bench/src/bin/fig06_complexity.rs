//! **Figure 6** — average runtime per iteration and memory consumption as
//! the number of agents varies from 10³ to 10⁹.
//!
//! The paper observes: runtime is nearly flat until ~10⁵ agents (1.21 ms →
//! 2.80 ms — fixed engine overheads dominate), then grows linearly up to 10⁹
//! agents (6.41–38.1 s/iteration); memory stays below 1.6 GB until 10⁶ and
//! then also grows linearly (245–564 GB at 10⁹).
//!
//! On this host the sweep defaults to 10³…10⁵ (`--max-exp` raises it as far
//! as RAM allows, and `--max-agents N` pins the largest scale point to
//! exactly `N`, e.g. `--max-agents 1000000` for the 10⁶ hot-path protocol —
//! the code path is identical, only the scale changes). The harness fits
//! the log-log slope of the tail; "reproduced" means a slope ≈ 1 (linear)
//! after the flat region.
//!
//! `--phase-csv` additionally writes `fig06_phases.csv`: the scheduler's
//! per-operation wall-clock buckets for every `(model, scale)` point, so a
//! hot-path PR can show *which* phase (`environment_update`, `agent_ops`,
//! …) moved rather than just the total.

use bdm_bench::{emit, fmt_bytes, fmt_secs, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::Table;

/// Least-squares slope of `ln(y)` against `ln(x)`.
fn loglog_slope(points: &[(f64, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// The sweep's scale points: powers of ten from 10³, capped by `--max-exp`
/// or finished at exactly `--max-agents` when given.
fn scale_points(args: &Args) -> Vec<usize> {
    if let Some(max) = args.max_agents {
        let mut points = Vec::new();
        let mut p = 1_000usize;
        while p < max {
            points.push(p);
            p = p.saturating_mul(10);
        }
        points.push(max);
        return points;
    }
    let max_exp = args.max_exp.unwrap_or(if args.quick { 4 } else { 5 });
    (3..=max_exp).map(|e| 10usize.pow(e)).collect()
}

/// `1e6`-style label for exact powers of ten, plain number otherwise.
fn scale_label(agents: usize) -> String {
    let log = (agents as f64).log10();
    if (log - log.round()).abs() < 1e-9 {
        format!("1e{}", log.round() as u32)
    } else {
        agents.to_string()
    }
}

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Figure 6: runtime and space complexity", &args);

    let points = scale_points(&args);
    let iterations = args.iters(10);
    println!(
        "sweep: {} agents, {iterations} iterations each (paper: 10^3 .. 10^9)\n",
        points
            .iter()
            .map(|&p| scale_label(p))
            .collect::<Vec<_>>()
            .join(" "),
    );

    let mut table = Table::new([
        "model",
        "agents",
        "s/iteration",
        "peak memory",
        "peak B/agent",
    ]);
    let mut phases = Table::new([
        "model",
        "agents",
        "phase",
        "total_s",
        "s/iteration",
        "share",
    ]);
    let mut slope_rows = Vec::new();
    for name in args.selected_models() {
        let mut runtime_points = Vec::new();
        let mut memory_points = Vec::new();
        for &agents in &points {
            let spec = RunSpec::new(&name, agents, iterations)
                .with_opt(OptLevel::MemoryLayout)
                .with_topology(args.threads, args.domains);
            let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
            table.row([
                name.clone(),
                scale_label(agents),
                fmt_secs(report.per_iter_secs()),
                fmt_bytes(report.peak_rss_bytes),
                match report.peak_rss_bytes {
                    0 => "n/a".to_string(),
                    bytes => format!("{:.0}", bytes as f64 / agents as f64),
                },
            ]);
            if args.phase_csv {
                let total: f64 = report.buckets.values().sum();
                for (phase, secs) in &report.buckets {
                    phases.row([
                        name.clone(),
                        scale_label(agents),
                        phase.clone(),
                        format!("{secs:.6}"),
                        format!("{:.6}", secs / iterations as f64),
                        format!("{:.3}", if total > 0.0 { secs / total } else { 0.0 }),
                    ]);
                }
                // A synthetic `total` row (sum of all buckets) so the CI
                // guard can trip on whole-iteration regressions that hide
                // below every per-phase threshold.
                phases.row([
                    name.clone(),
                    scale_label(agents),
                    "total".to_string(),
                    format!("{total:.6}"),
                    format!("{:.6}", total / iterations as f64),
                    "1.000".to_string(),
                ]);
            }
            runtime_points.push((agents as f64, report.per_iter_secs()));
            if report.peak_rss_bytes > 0 {
                memory_points.push((agents as f64, report.peak_rss_bytes as f64));
            }
        }
        // The paper's flat region ends around 10^5; fit the tail only (the
        // last three points, or all if the sweep is short).
        let tail_start = runtime_points.len().saturating_sub(3);
        let runtime_slope = loglog_slope(&runtime_points[tail_start..]);
        let memory_slope = loglog_slope(&memory_points[memory_points.len().saturating_sub(3)..]);
        slope_rows.push((name, runtime_slope, memory_slope));
    }
    emit(&table, "fig06_complexity", &args);
    if args.phase_csv {
        // --phase-csv implies CSV output for the phase table regardless of
        // --csv (that is its whole purpose).
        let phase_args = Args {
            csv: true,
            ..args.clone()
        };
        emit(&phases, "fig06_phases", &phase_args);
    }

    let mut slopes = Table::new(["model", "runtime slope (tail)", "memory slope (tail)"]);
    for (name, rt, mem) in slope_rows {
        let fmt = |s: Option<f64>| s.map_or("n/a".to_string(), |v| format!("{v:.2}"));
        slopes.row([name, fmt(rt), fmt(mem)]);
    }
    emit(&slopes, "fig06_slopes", &args);
    println!(
        "expected shape (paper): flat runtime until ~1e5 agents, then slope ≈ 1 (linear);\n\
         memory slope ≈ 1 once agents dominate the fixed footprint."
    );
}
