//! Checkpoint size and throughput measurement.
//!
//! For every selected model: the full-checkpoint size, the serialize/restore
//! wall time with the derived throughput, and the steady-state bytes
//! resident in a supervision [`CheckpointRing`] of depth 10 — the memory a
//! [`SupervisedRunner`](bdm_checkpoint::SupervisedRunner) pins for its
//! restore points, 10 full checkpoints. The committed baseline capture
//! (`bench/baselines/ckpt_bytes.csv`) uses the `run_all` protocol scale;
//! docs/PERFORMANCE.md records a 10⁶-agent throughput run of this binary.

use std::time::Instant;

use bdm_bench::{emit, fmt_bytes, header, Args};
use bdm_checkpoint::{checkpoint, restore, CheckpointRing, Registry, RingPolicy};
use bdm_core::Param;
use bdm_util::Table;

fn main() {
    bdm_bench::child_guard();
    let args = Args::parse();
    header("Checkpoint size and throughput", &args);

    let agents = args.scale(10_000);
    let iterations = args.iters(5);
    println!("agents={agents} iterations={iterations}\n");

    let reg = Registry::with_builtin_types();
    let mut table = Table::new([
        "model",
        "full bytes",
        "bytes/agent",
        "write",
        "restore",
        "ring bytes (steady)",
    ]);
    for name in args.selected_models() {
        let model = bdm_models::model_by_name(&name, agents).expect("known model");
        let param = Param {
            seed: args.seed,
            threads: args.threads,
            numa_domains: args.domains,
            shards: args.shards.unwrap_or(1),
            ..Param::default()
        };
        let mut sim = model.build(param);
        sim.simulate(iterations);

        let t0 = Instant::now();
        let full = checkpoint(&sim).expect("checkpoint");
        let write_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let restored = restore(&full, &reg).expect("restore");
        let restore_secs = t1.elapsed().as_secs_f64();
        assert_eq!(restored.iteration(), iterations as u64, "{name}");

        // Supervision-ring residency once retention has saturated: 10
        // captures fill a depth-10 ring and the next ones rotate it.
        let ring_policy = RingPolicy {
            interval: 1,
            depth: 10,
        };
        let mut ring = CheckpointRing::new(ring_policy);
        for _ in 0..12 {
            sim.step();
            ring.capture(&sim).expect("ring capture");
        }
        let ring_bytes = ring.resident_bytes();

        let n = restored.num_agents() as u64;
        table.row([
            name.clone(),
            full.len().to_string(),
            format!("{:.1}", full.len() as f64 / n.max(1) as f64),
            format!(
                "{:.1} ms ({}/s)",
                write_secs * 1e3,
                fmt_bytes((full.len() as f64 / write_secs) as u64)
            ),
            format!(
                "{:.1} ms ({}/s)",
                restore_secs * 1e3,
                fmt_bytes((full.len() as f64 / restore_secs) as u64)
            ),
            ring_bytes.to_string(),
        ]);
    }
    emit(&table, "ckpt_bytes", &args);
}
