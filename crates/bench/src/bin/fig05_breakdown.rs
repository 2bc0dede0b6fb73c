//! **Figure 5** — operation runtime breakdown (left) and microarchitecture
//! analysis (right, `--proxy`).
//!
//! Left panel: per-operation share of the total runtime with all
//! optimizations enabled. The shares come from the engine scheduler's
//! per-operation wall-clock timings (`Simulation::time_buckets` is derived
//! from the `Scheduler`'s op list, so each phase name below is the name of
//! a built-in `Operation`). The paper reports agent operations dominating
//! (median 76.3%), environment rebuild second (median 18.0%, up to 36.5% for
//! epidemiology's wider environment), sorting 0.18–6.33%, setup/teardown
//! ≤ 2.66%.
//!
//! Right panel substitution (docs/ARCHITECTURE.md, "Deviations from the
//! paper"): VTune's "memory bound" pipeline slots are proprietary-hardware
//! telemetry; `--proxy` instead reports a software memory-traffic estimate
//! per iteration, the effective bandwidth through the agent-op phase, and
//! ns per agent operation. The paper's claim
//! that the workload is memory-bound shows up as high effective traffic and
//! low arithmetic per byte across all five models.

use bdm_bench::{emit, fmt_pct, fmt_secs, header, Args, RunSpec};
use bdm_core::OptLevel;
use bdm_util::{median, Table};

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Figure 5: operation runtime breakdown", &args);

    let agents = args.scale(8_000);
    let iterations = args.iters(30);
    println!(
        "agents={agents} iterations={iterations} (paper: 2M-12.6M agents, 288-1000 iterations)\n"
    );

    let mut table = Table::new([
        "model",
        "agent_ops",
        "environment",
        "snapshot",
        "sorting",
        "teardown",
        "standalone",
        "total",
        "sort run/agent_ops run",
        "diffusion run/agent_ops run",
        "snapshot run/agent_ops run",
    ]);
    let mut agent_op_shares = Vec::new();
    let mut env_shares = Vec::new();
    let mut proxy_rows = Vec::new();
    for name in args.selected_models() {
        let spec = RunSpec::new(&name, agents, iterations)
            .with_opt(OptLevel::StaticDetection)
            .with_topology(args.threads, args.domains);
        let report = bdm_bench::measure_median(&spec, args.repeats, args.no_subprocess);
        let total: f64 = report.buckets.values().sum();
        let share = |bucket: &str| {
            if total > 0.0 {
                report.bucket(bucket) / total
            } else {
                0.0
            }
        };
        agent_op_shares.push(share("agent_ops"));
        env_shares.push(share("environment_update"));
        table.row([
            name.clone(),
            fmt_pct(share("agent_ops")),
            fmt_pct(share("environment_update")),
            fmt_pct(share("snapshot")),
            fmt_pct(share("agent_sorting")),
            fmt_pct(share("teardown")),
            fmt_pct(share("standalone_ops")),
            fmt_secs(total),
            // One due sort against one agent pass of the same run, so the
            // runner's speed cancels (the CI gate reads this column).
            format!(
                "{:.2}",
                (report.bucket("agent_sorting") / report.sorts.max(1) as f64)
                    / (report.bucket("agent_ops") / iterations as f64)
            ),
            // The standalone bucket is the `diffusion` op, due every
            // iteration like `agent_ops`; same run, so runner speed cancels.
            format!(
                "{:.3}",
                report.bucket("standalone_ops") / report.bucket("agent_ops")
            ),
            // The `snapshot` op is due every iteration too: the gather of
            // all three SoA arrays against one agent pass, same run.
            format!(
                "{:.3}",
                report.bucket("snapshot") / report.bucket("agent_ops")
            ),
        ]);

        if args.proxy {
            // Memory-traffic estimate per iteration, per the SoA snapshot
            // layout: the gather streams exactly `snapshot_bytes` (the
            // per-array sum the engine reports: positions, diameters and
            // payloads of every agent), a force calculation reads
            // the streamed 24 B position run plus one lazy 8 B diameter per
            // partner, and the agent object itself is touched (~128 B of
            // hot state).
            let per_iter_forces = report.force_calculations as f64 / iterations as f64;
            let bytes_per_iter = report.snapshot_bytes as f64
                + report.final_agents as f64 * 128.0
                + per_iter_forces * 2.0 * (24.0 + 8.0);
            let agent_op_secs = report.bucket("agent_ops") / iterations as f64;
            let gbps = if agent_op_secs > 0.0 {
                bytes_per_iter / agent_op_secs / 1e9
            } else {
                0.0
            };
            let ns_per_op = if report.final_agents > 0 {
                report.bucket("agent_ops") * 1e9 / (report.final_agents as f64 * iterations as f64)
            } else {
                0.0
            };
            proxy_rows.push((name, bytes_per_iter, gbps, ns_per_op));
        }
    }
    emit(&table, "fig05_breakdown", &args);
    println!(
        "median agent-op share: {} (paper: 76.3%)   median environment share: {} (paper: 18.0%)",
        fmt_pct(median(&agent_op_shares).unwrap_or(0.0)),
        fmt_pct(median(&env_shares).unwrap_or(0.0)),
    );

    if args.proxy {
        println!("\nmicroarchitecture proxy (software stand-in for VTune):");
        let mut proxy = Table::new([
            "model",
            "est. bytes/iteration",
            "effective GB/s (agent ops)",
            "ns per agent-op",
        ]);
        for (name, bytes, gbps, ns) in proxy_rows {
            proxy.row([
                name,
                bdm_util::format_bytes(bytes as u64),
                format!("{gbps:.2}"),
                format!("{ns:.0}"),
            ]);
        }
        emit(&proxy, "fig05_proxy", &args);
        println!(
            "paper (VTune): 31.8-47.2% of pipeline slots stalled on memory across the five models;\n\
             the proxy's uniformly high traffic per arithmetic-light agent-op mirrors that diagnosis."
        );
    }
}
