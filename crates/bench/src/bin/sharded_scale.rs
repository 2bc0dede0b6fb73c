//! Sharded-execution scaling: `cell_clustering` across in-process shard
//! counts (PR 10 tentpole demonstration).
//!
//! The paper's engine iterates one global uniform grid; the sharded engine
//! partitions the population into K Morton-range shards, each with its own
//! windowed grid, and runs an explicit halo exchange between iterations
//! (docs/ARCHITECTURE.md — "Sharded execution"). Results are bitwise
//! shard-count-invariant (`tests/sharded_conformance.rs`); this binary
//! measures what the exchange costs and how balanced the partition is.
//!
//! Default protocol is the ISSUE acceptance run: 10⁷ agents, 10 iterations,
//! K ∈ {1, 2, 4, 8}. `--shards K` pins a single shard count; `--quick`
//! drops to a CI-friendly 50k agents; `--detect-static` turns static-agent
//! detection on, which widens the halo from 2 rings to 3 or more.
//!
//! Columns: wall-clock per iteration, the `halo_exchange` scheduler bucket
//! per iteration — also as ns per agent, as a share of the iteration and
//! relative to the `agent_ops` bucket (a same-run ratio CI gates on) — the
//! `environment_update` bucket, exchanges executed vs skipped
//! (generation-keyed skip-if-unchanged), and the owned/halo population
//! spread across shards. A second table details the per-shard owned/halo
//! counts and grid-build times of the largest K.

use bdm_bench::{emit, fmt_secs, header, Args};
use bdm_core::Param;
use bdm_util::{Table, Timer};

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Sharded execution scaling (cell_clustering)", &args);

    let agents = args
        .agents
        .unwrap_or(if args.quick { 50_000 } else { 10_000_000 });
    let iterations = args.iters(10);
    let sweep: Vec<usize> = match args.shards {
        Some(k) => vec![k],
        None => vec![1, 2, 4, 8],
    };
    println!(
        "agents={agents} iterations={iterations} shards={sweep:?} detect_static={}\n",
        args.detect_static
    );

    let mut table = Table::new([
        "shards",
        "s/iter",
        "exchange s/iter",
        "exchange ns/agent",
        "exchange share",
        "exchange/agent_ops",
        "env update s/iter",
        "exchanges",
        "skips",
        "owned min..max",
        "halo min..max",
    ]);
    let mut detail: Option<(usize, Table)> = None;
    for &k in &sweep {
        let model = bdm_bench::model_or_die("cell_clustering", agents);
        let mut sim = model.build(Param {
            shards: k,
            detect_static_agents: args.detect_static,
            seed: args.seed,
            threads: args.threads,
            numa_domains: args.domains,
            ..Param::default()
        });
        let timer = Timer::start();
        sim.simulate(iterations);
        let wall = timer.elapsed_secs();

        let per_iter = wall / iterations as f64;
        let bucket = |name: &str| {
            sim.time_buckets()
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, d)| d.as_secs_f64())
                / iterations as f64
        };
        let (exchanges, skips, owned, halo) = match sim.shard_report() {
            Some(report) => {
                assert_eq!(report.shards, k, "report covers every shard");
                let owned: Vec<usize> = report.per_shard.iter().map(|s| s.owned).collect();
                let halo: Vec<usize> = report.per_shard.iter().map(|s| s.halo).collect();
                assert_eq!(
                    owned.iter().sum::<usize>(),
                    sim.num_agents(),
                    "ownership partitions the population"
                );
                if detail.as_ref().is_none_or(|(prev, _)| k > *prev) {
                    let mut t = Table::new(["shard", "owned", "halo", "grid build"]);
                    for (idx, s) in report.per_shard.iter().enumerate() {
                        t.row([
                            idx.to_string(),
                            s.owned.to_string(),
                            s.halo.to_string(),
                            fmt_secs(s.grid_build.as_secs_f64()),
                        ]);
                    }
                    detail = Some((k, t));
                }
                (report.exchanges, report.exchange_skips, owned, halo)
            }
            // K == 1 runs on the classic single-engine path: no partition,
            // no halo, the whole population "owned" by the one engine.
            None => (0, 0, vec![sim.num_agents()], vec![0]),
        };
        let span = |v: &[usize]| {
            let (min, max) = (v.iter().min().unwrap(), v.iter().max().unwrap());
            format!("{min}..{max}")
        };
        let exchange = bucket("halo_exchange");
        table.row([
            k.to_string(),
            format!("{per_iter:.4}"),
            fmt_secs(exchange),
            format!("{:.1}", exchange * 1e9 / sim.num_agents().max(1) as f64),
            format!("{:.4}", exchange / per_iter),
            format!("{:.4}", exchange / bucket("agent_ops")),
            fmt_secs(bucket("environment_update")),
            exchanges.to_string(),
            skips.to_string(),
            span(&owned),
            span(&halo),
        ]);
    }
    emit(&table, "sharded_scale", &args);
    if let Some((k, t)) = detail {
        println!("per-shard detail at K={k}:");
        emit(&t, "sharded_scale_shards", &args);
    }
}
