//! Supervision overhead: what the sentinel and the restore-point ring cost
//! when nothing goes wrong.
//!
//! For every selected model, three arms with identical parameters:
//!
//! 1. **plain** — `Simulation::simulate`, no sentinel, no ring;
//! 2. **sentinel** — the sentinel scanning every iteration, still plain
//!    `simulate` (isolates the scan cost);
//! 3. **supervised** — the full [`SupervisedRunner`] loop: sentinel, panic
//!    boundary, and periodic ring captures (interval = half the run, so two
//!    captures land inside the timed window). The runner's one-time initial
//!    capture is taken *before* the timer starts — it amortizes to zero in
//!    a long run and would otherwise dominate a short measurement.
//!
//! `--repeats N` runs the three arms in N rounds, rotating which arm runs
//! first, and reports each arm's median s/iter: the host's speed drifts by
//! more over minutes than the overhead being measured, so arms run back to
//! back once each cannot resolve it (docs/PERFORMANCE.md — supervision
//! overhead). Every run asserts that a clean run reports no violation and
//! no recovery. The acceptance protocol is the 10⁶-agent `cell_clustering`
//! 2-thread run of that section; the budget is **< 5%** end-to-end.
//!
//! [`SupervisedRunner`]: bdm_checkpoint::SupervisedRunner

use std::time::Instant;

use bdm_bench::{emit, header, Args};
use bdm_checkpoint::{RecoveryPolicy, RecoveryReport, RingPolicy, SupervisedRunner};
use bdm_core::Param;
use bdm_models::BenchmarkModel;
use bdm_util::Table;

/// Arms, in table order: 0 plain, 1 sentinel, 2 supervised.
const ARMS: usize = 3;

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Supervision overhead (no faults)", &args);

    let agents = args.scale(50_000);
    let iterations = args.iters(60);
    let ring_interval = (iterations as u64 / 2).max(1);
    println!(
        "agents={agents} iterations={iterations} sentinel=every iteration \
         ring: interval={ring_interval} depth=10 rounds={} (arm order rotates; \
         median s/iter per arm)\n",
        args.repeats
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
        let mut samples: [Vec<f64>; ARMS] = Default::default();
        let mut supervised_report = RecoveryReport::default();
        for round in 0..args.repeats {
            for k in 0..ARMS {
                let arm = (round + k) % ARMS;
                let (secs_per_iter, report) =
                    run_arm(arm, model.as_ref(), &args, iterations, ring_interval);
                samples[arm].push(secs_per_iter);
                if let Some(report) = report {
                    supervised_report = report;
                }
            }
        }
        let [plain, sentinel, supervised] =
            samples.map(|s| bdm_util::median(&s).expect("at least one round"));

        let pct = |a: f64| format!("{:+.1}%", (a / plain - 1.0) * 100.0);
        table.row([
            name.clone(),
            format!("{plain:.4}"),
            format!("{sentinel:.4}"),
            pct(sentinel),
            format!("{supervised:.4}"),
            pct(supervised),
            supervised_report.captures.to_string(),
            supervised_report.ring_bytes.to_string(),
        ]);
    }
    emit(&table, "supervised_overhead", &args);
}

/// Runs arm `arm` (see [`ARMS`]) once on a freshly built model and returns its
/// s/iter (model build excluded), plus the runner's report for the
/// supervised arm.
fn run_arm(
    arm: usize,
    model: &dyn BenchmarkModel,
    args: &Args,
    iterations: usize,
    ring_interval: u64,
) -> (f64, Option<RecoveryReport>) {
    let name = model.name();
    let param = Param {
        seed: args.seed,
        threads: args.threads,
        numa_domains: args.domains,
        health_check_every: (arm > 0).then_some(1),
        ..Param::default()
    };
    let mut sim = model.build(param);
    if arm < 2 {
        let t = Instant::now();
        sim.simulate(iterations);
        let secs = t.elapsed().as_secs_f64() / iterations as f64;
        assert_eq!(
            sim.stats().violations_detected,
            0,
            "{name}: clean run must not report violations"
        );
        return (secs, None);
    }
    let mut runner = SupervisedRunner::new(
        sim,
        RecoveryPolicy {
            ring: RingPolicy {
                interval: ring_interval,
                depth: 10,
            },
            max_attempts: 1,
        },
    );
    // Take the one-time initial capture outside the timed window.
    runner.run(0).expect("initial capture");
    let t = Instant::now();
    let report = runner.run(iterations as u64).expect("clean run");
    let secs = t.elapsed().as_secs_f64() / iterations as f64;
    assert_eq!(report.attempts, 0, "{name}: clean run must not recover");
    assert_eq!(
        report.violations_handled, 0,
        "{name}: clean run must not report violations"
    );
    (secs, Some(report))
}
