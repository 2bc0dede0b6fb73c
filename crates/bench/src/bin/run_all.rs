//! **run_all** — executes every table/figure binary with quick settings and
//! collects their CSV output under `results/` (the equivalent of the
//! paper artifact's `run-main.sh`, Appendix A.2).
//!
//! Each experiment runs as a sibling binary from the same build directory;
//! flags given to `run_all` (e.g. `--agents`, `--threads`, `--out`) are
//! forwarded. Exit status is non-zero if any experiment fails.

use std::process::Command;

use bdm_util::Timer;

const EXPERIMENTS: [(&str, &[&str]); 14] = [
    ("table1_characteristics", &[]),
    ("table2_hardware", &[]),
    ("fig05_breakdown", &["--proxy"]),
    ("fig06_complexity", &[]),
    ("fig07_biocellion", &["--visualize"]),
    ("fig08_comparison", &[]),
    ("fig09_optimizations", &[]),
    ("fig10_scalability", &["--whole"]),
    ("fig10_scalability", &[]),
    ("fig11_neighbor", &[]),
    ("fig12_sorting_freq", &[]),
    ("fig13_allocator", &[]),
    ("sharded_scale", &[]),
    ("ckpt_bytes", &[]),
];

fn main() {
    bdm_bench::child_guard();
    // Forward all our flags; add --quick/--csv unless the caller overrode.
    let forwarded: Vec<String> = std::env::args().skip(1).collect();
    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("binary directory")
        .to_path_buf();

    let mut failures = Vec::new();
    let total = Timer::start();
    for (binary, extra) in EXPERIMENTS {
        let mut cmd = Command::new(exe_dir.join(binary));
        cmd.args(extra);
        if !forwarded.iter().any(|a| a == "--no-quick") {
            cmd.arg("--quick");
        }
        cmd.arg("--csv");
        cmd.args(forwarded.iter().filter(|a| *a != "--no-quick"));
        println!("\n=================================================================");
        println!("running {binary} {}", extra.join(" "));
        println!("=================================================================");
        let t = Timer::start();
        match cmd.status() {
            Ok(status) if status.success() => {
                println!("[{binary} finished in {:.1}s]", t.elapsed_secs());
            }
            Ok(status) => {
                eprintln!("[{binary} FAILED: {status}]");
                failures.push(binary);
            }
            Err(err) => {
                eprintln!("[{binary} could not start: {err}]");
                failures.push(binary);
            }
        }
    }
    println!("\n=================================================================");
    println!(
        "run_all finished in {:.1}s; {} experiment(s) failed{}",
        total.elapsed_secs(),
        failures.len(),
        if failures.is_empty() {
            String::new()
        } else {
            format!(": {}", failures.join(", "))
        }
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
