//! Supervised soak: fault-injected execution with recovery conformance.
//!
//! For every selected model: build a seeded [`FaultPlan`] of panics and NaN
//! position writes, run the model under the [`SupervisedRunner`], and
//! require (i) zero process aborts — every fault is caught and rolled back,
//! (ii) a clean [`RecoveryReport`] (every recovery confirmed by replay), and
//! (iii) a final state **bitwise identical** to an undisturbed reference
//! run with the same parameters. Exits non-zero on any divergence, so CI
//! can gate on it (the `supervised_soak` job).
//!
//! [`FaultPlan`]: bdm_core::FaultPlan
//! [`RecoveryReport`]: bdm_checkpoint::RecoveryReport
//! [`SupervisedRunner`]: bdm_checkpoint::SupervisedRunner

use bdm_bench::{emit, header, Args};
use bdm_checkpoint::{RecoveryPolicy, RingPolicy, SupervisedRunner};
use bdm_core::testing::{fingerprint, first_divergence};
use bdm_core::{FaultPlan, FaultSite, Param};
use bdm_util::Table;

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Supervised soak (fault-injected recovery)", &args);

    let agents = args.scale(5_000);
    let iterations = args.iters(120).max(10) as u64;
    let faults = 6usize;
    println!("agents={agents} iterations={iterations} injected_faults={faults}\n");

    // Keep injected-panic chatter out of the soak log; the supervisor
    // catches and reports every unwind itself.
    std::panic::set_hook(Box::new(|_| {}));

    let mut table = Table::new([
        "model",
        "panics",
        "violations",
        "attempts",
        "succeeded",
        "captures",
        "ring bytes",
        "conformance",
    ]);
    let mut failures = 0;
    for name in args.selected_models() {
        let model = bdm_models::model_by_name(&name, agents).expect("known model");
        let mk_param = || Param {
            seed: args.seed,
            threads: args.threads,
            numa_domains: args.domains,
            health_check_every: Some(4),
            ..Param::default()
        };

        // Undisturbed reference with identical parameters: the engine is
        // bitwise reproducible at any thread and shard count.
        let mut reference = model.build(mk_param());
        reference.simulate(iterations as usize);

        let sites = [
            FaultSite::BeforeOp("agent_ops".into()),
            FaultSite::BeforeOp("environment_update".into()),
            FaultSite::BeforeOp("teardown".into()),
            FaultSite::GridRebuild,
        ];
        let plan = FaultPlan::seeded(args.seed, &sites, 2, iterations - 1, faults);
        let mut sim = model.build(mk_param());
        sim.set_fault_plan(plan);

        let mut runner = SupervisedRunner::new(
            sim,
            RecoveryPolicy {
                ring: RingPolicy {
                    interval: (iterations / 10).max(2),
                    depth: 10,
                },
                max_attempts: 4 * faults as u64,
            },
        );
        let report = match runner.run(iterations) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("{name}: supervision failed: {err}");
                failures += 1;
                continue;
            }
        };

        let verdict = match first_divergence(&fingerprint(&reference), &fingerprint(runner.sim())) {
            None => "bitwise identical".to_string(),
            Some(d) => {
                failures += 1;
                format!("DIVERGED: {d}")
            }
        };
        if report.attempts != report.succeeded {
            eprintln!(
                "{name}: {} of {} recoveries unconfirmed",
                report.attempts - report.succeeded,
                report.attempts
            );
            failures += 1;
        }
        table.row([
            name.clone(),
            report.panics_caught.to_string(),
            report.violations_handled.to_string(),
            report.attempts.to_string(),
            report.succeeded.to_string(),
            report.captures.to_string(),
            report.ring_bytes.to_string(),
            verdict,
        ]);
    }
    emit(&table, "supervised_soak", &args);
    if failures > 0 {
        eprintln!("\nsupervised_soak: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\nsupervised_soak: all models recovered bitwise-identically");
}
