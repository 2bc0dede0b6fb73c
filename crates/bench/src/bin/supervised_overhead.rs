//! Supervision overhead: what the sentinel and the restore-point ring cost
//! when nothing goes wrong.
//!
//! For every selected model, three runs with identical parameters:
//!
//! 1. **plain** — `Simulation::simulate`, no health policy, no ring;
//! 2. **sentinel** — health policy scanning every iteration, still plain
//!    `simulate` (isolates the scan cost);
//! 3. **supervised** — the full [`SupervisedRunner`] loop: sentinel, panic
//!    boundary, and periodic ring captures (interval = half the run, so two
//!    captures land inside the timed window). The runner's one-time initial
//!    capture is taken *before* the timer starts — it amortizes to zero in
//!    a long run and would otherwise dominate a short measurement.
//!
//! The committed acceptance number (docs/PERFORMANCE.md — supervision
//! overhead) is this binary at the 10⁶-agent `cell_clustering` 2-thread
//! protocol; the budget is **< 5%** end-to-end.
//!
//! [`SupervisedRunner`]: bdm_checkpoint::SupervisedRunner

use std::time::Instant;

use bdm_bench::{emit, header, Args};
use bdm_checkpoint::{RecoveryPolicy, RingPolicy, SupervisedRunner};
use bdm_core::{HealthPolicy, Param};
use bdm_util::Table;

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Supervision overhead (no faults)", &args);

    let agents = args.scale(50_000);
    let iterations = args.iters(60);
    let ring_interval = (iterations as u64 / 2).max(1);
    println!(
        "agents={agents} iterations={iterations} sentinel=every iteration \
         ring: interval={ring_interval} depth=10\n"
    );

    let mut table = Table::new([
        "model",
        "plain s/iter",
        "sentinel s/iter",
        "sentinel ovh",
        "supervised s/iter",
        "total ovh",
        "captures",
        "ring bytes",
    ]);
    for name in args.selected_models() {
        let model = bdm_models::model_by_name(&name, agents).expect("known model");
        let base_param = || Param {
            seed: args.seed,
            threads: args.threads,
            numa_domains: args.domains,
            ..Param::default()
        };

        let mut plain_sim = model.build(base_param());
        let t0 = Instant::now();
        plain_sim.simulate(iterations);
        let plain = t0.elapsed().as_secs_f64() / iterations as f64;

        let mut sentinel_sim = model.build(Param {
            health: Some(HealthPolicy::every(1)),
            ..base_param()
        });
        let t1 = Instant::now();
        sentinel_sim.simulate(iterations);
        let sentinel = t1.elapsed().as_secs_f64() / iterations as f64;
        assert_eq!(
            sentinel_sim.stats().violations_detected,
            0,
            "{name}: clean run must not report violations"
        );

        let supervised_sim = model.build(Param {
            health: Some(HealthPolicy::every(1)),
            ..base_param()
        });
        let mut runner = SupervisedRunner::new(
            supervised_sim,
            RecoveryPolicy {
                ring: RingPolicy {
                    interval: ring_interval,
                    depth: 10,
                },
                max_attempts: 1,
                degradations: Vec::new(),
            },
        );
        // Take the one-time initial capture outside the timed window.
        runner.run(0).expect("initial capture");
        let t2 = Instant::now();
        let report = runner.run(iterations as u64).expect("clean run");
        let supervised = t2.elapsed().as_secs_f64() / iterations as f64;
        assert_eq!(report.attempts, 0, "{name}: clean run must not recover");

        let pct = |a: f64| format!("{:+.1}%", (a / plain - 1.0) * 100.0);
        table.row([
            name.clone(),
            format!("{plain:.4}"),
            format!("{sentinel:.4}"),
            pct(sentinel),
            format!("{supervised:.4}"),
            pct(supervised),
            report.captures.to_string(),
            report.ring_bytes.to_string(),
        ]);
    }
    emit(&table, "supervised_overhead", &args);
}
