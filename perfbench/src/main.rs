//! The repo benchmark: one workload per process, end-to-end metrics from an
//! untraced run, per-layer metrics and a span trace from a traced run.
//!
//! ```text
//! perfbench --workload <name> [--seed S] [--seconds T] [--trace 0|1] [--quick]
//! perfbench --all [same options]      # each workload in a fresh child process
//! ```
//!
//! A run repeats { build the model from the seed, warm up, time a window }
//! until `--seconds` have passed, checks every repetition's result, prints
//! each metric by name with its unit, and ends with one JSON object. See
//! README.md for what the metrics mean and who they serve.

mod json;
mod pin;
mod probes;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Json;
use probes::{Metric, Probes};
use stats::{median, tail};
use trace::Tracer;
use workload::{run_rep, workload_by_name, Rep, Workload, OPS, SORT_PERIOD, THREADS, WORKLOADS};

const USAGE: &str =
    "usage: perfbench (--workload <name> | --all) [--seed S] [--seconds T] [--trace 0|1] [--quick]
workloads: clustering, epidemiology, oncology, clustering_k2";

pub(crate) const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone)]
struct Options {
    /// `None` = `--all`.
    workload: Option<&'static Workload>,
    seed: u64,
    /// How long the repetitions of one run measure.
    seconds: f64,
    trace: bool,
    /// Small scenes, two repetitions: checks the benchmark itself in
    /// seconds. Never a baseline.
    quick: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 4357,
        seconds: 15.0,
        trace: false,
        quick: false,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(workload_by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--all" => all = true,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
                    return Err("--seconds must be within (0, 60]".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if all == opts.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(opts)
}

/// Everything one run measured.
struct Report {
    reps: Vec<Rep>,
    /// `VmHWM` after each repetition.
    peak_rss_mib: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    layers: Vec<Metric>,
    tracer: Tracer,
}

impl Report {
    fn untraced(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(|r| !r.traced)
    }

    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    /// The end-to-end metrics, from the untraced repetitions only.
    fn end_to_end(&self, w: &Workload) -> Vec<Metric> {
        let reps = self.untraced().count();
        let iter_s: Vec<f64> = self.untraced().map(Rep::iter_s).collect();
        let steps: Vec<f64> = self
            .untraced()
            .flat_map(|r| r.step_s.iter().copied())
            .collect();
        let setup_s: Vec<f64> = self.untraced().map(|r| r.setup_s).collect();
        let tail_note =
            tail(&steps).map_or(String::new(), |(p, v)| format!(" iter_tail_s=p{p}:{v}"));
        vec![
            Metric::new(
                "iter_s",
                median(&iter_s),
                "s",
                format!(
                    "median of {reps} windows of {} iterations, sorts included",
                    w.window
                ),
            ),
            Metric::new(
                "iter_p50_s",
                median(&steps),
                "s",
                format!("n={} timed steps;{tail_note}", steps.len()),
            ),
            Metric::new(
                "peak_rss_mib",
                self.peak_rss_mib[0],
                "MiB",
                format!(
                    "VmHWM after the first repetition; after each: {:?}",
                    self.peak_rss_mib
                ),
            ),
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                format!(
                    "median of {reps} x (model build + {} warm-up iterations)",
                    workload::WARMUP
                ),
            ),
        ]
    }
}

/// Per-operation times, scheduler self time and counts from the traced
/// repetitions, ahead of the direct probes.
fn traced_layers(report: &Report) -> Vec<Metric> {
    let tracer = &report.tracer;
    let traced: Vec<&Rep> = report.reps.iter().filter(|r| r.traced).collect();
    let mut out = Vec::new();
    for (op, name) in OPS.iter().enumerate() {
        let per_iter: Vec<f64> = traced.iter().map(|r| r.op_iter_s(op)).collect();
        let runs: Vec<f64> = traced
            .iter()
            .flat_map(|r| r.op_run_s[op].iter().copied())
            .collect();
        let tail_note = tail(&runs).map_or(String::new(), |(p, v)| format!(" p{p}={v}"));
        out.push(Metric::new(
            format!("op.{name}_s"),
            median(&per_iter),
            "s",
            format!(
                "per iteration, median of {} windows; per due run: n={} p50={}{tail_note}",
                traced.len(),
                runs.len(),
                median(&runs)
            ),
        ));
    }

    let own = trace::self_times_ns(tracer.spans());
    let iterations: Vec<&trace::Span> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "iteration")
        .collect();
    let self_s: Vec<f64> = iterations
        .iter()
        .map(|s| own[s.id as usize] as f64 * 1e-9)
        .collect();
    let total_ns: u64 = iterations.iter().map(|s| s.duration_ns()).sum();
    let self_ns: u64 = iterations.iter().map(|s| own[s.id as usize]).sum();
    out.push(Metric::new(
        "sched.self_s",
        median(&self_s),
        "s",
        format!(
            "n={} iteration spans; iteration minus its op.* children",
            self_s.len()
        ),
    ));
    out.push(Metric::new(
        "trace.children_share",
        1.0 - self_ns as f64 / total_ns.max(1) as f64,
        "ratio",
        "share of the traced iterations' time covered by op.* spans".into(),
    ));
    let traced_iter_s = median(&traced.iter().map(|r| r.iter_s()).collect::<Vec<_>>());
    let untraced_iter_s = median(&report.untraced().map(Rep::iter_s).collect::<Vec<_>>());
    out.push(Metric::new(
        "trace.overhead",
        traced_iter_s / untraced_iter_s - 1.0,
        "ratio",
        format!("traced iter_s {traced_iter_s} / untraced iter_s {untraced_iter_s} - 1"),
    ));

    // Counts repeat exactly for a seed, so the first repetition speaks for all.
    let stats = report.reps[0].window_stats;
    let window = report.reps[0].step_s.len().max(1) as f64;
    let skippable = stats.static_skipped + stats.force_calculations;
    let exact = "count over one window; repeats exactly for a seed".to_string();
    out.push(Metric::new(
        "core.static_skip_ratio",
        stats.static_skipped as f64 / skippable.max(1) as f64,
        "ratio",
        format!(
            "{} skipped of {skippable} force evaluations due",
            stats.static_skipped
        ),
    ));
    for (name, value) in [
        (
            "core.force_calcs_per_iter",
            stats.force_calculations as f64 / window,
        ),
        ("core.added", stats.agents_added as f64),
        ("core.removed", stats.agents_removed as f64),
        ("core.sorts", stats.sorts as f64),
    ] {
        out.push(Metric::new(name, value, "count", exact.clone()));
    }
    out
}

fn run(w: &Workload, opts: &Options) -> Report {
    let mut report = Report {
        reps: Vec::new(),
        peak_rss_mib: Vec::new(),
        layers: Vec::new(),
        tracer: Tracer::with_capacity(if opts.trace { 1 << 16 } else { 1 }),
    };
    let root = report.tracer.open("workload", None, 0);
    let budget = Duration::from_secs_f64(opts.seconds);
    // A traced run needs one repetition of each kind for `trace.overhead`.
    let min_reps = if opts.trace || opts.quick { 2 } else { 1 };
    let start = Instant::now();
    let mut last_sim = None;
    loop {
        // The previous repetition's simulation must be gone before the next
        // one is built, or the peak would hold two populations.
        drop(last_sim.take());
        let traced = opts.trace && report.reps.len().is_multiple_of(2);
        let run_id = report.reps.len() as u32 + 1;
        let (rep, sim) = run_rep(
            w,
            opts.seed,
            run_id,
            traced.then_some((&mut report.tracer, root)),
        );
        let failed = rep.failed > 0;
        report.reps.push(rep);
        report
            .peak_rss_mib
            .push(bdm_util::peak_rss_bytes().unwrap_or(0) as f64 / MIB);
        last_sim = sim;
        let enough = report.reps.len() >= min_reps && (opts.quick || start.elapsed() >= budget);
        if failed || enough {
            break;
        }
    }
    if opts.trace && report.failed() == 0 {
        let sim = last_sim
            .as_ref()
            .expect("a repetition without failures returns its simulation");
        let first_period: Vec<f64> = report
            .untraced()
            .map(|r| r.step_s[..SORT_PERIOD].iter().sum::<f64>() / SORT_PERIOD as f64)
            .collect();
        let mut layers = traced_layers(&report);
        let mut probes = Probes {
            w,
            seed: opts.seed,
            quick: opts.quick,
            tracer: &mut report.tracer,
            root,
            out: Vec::new(),
        };
        probes.run_all(sim, median(&first_period));
        layers.append(&mut probes.out);
        report.layers = layers;
    }
    drop(last_sim);
    let reps = report.reps.len() as u64;
    report.tracer.close(root, vec![("reps", reps)]);
    report
}

fn result_json(report: &Report, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.failed() == 0)),
        ("attempted", Json::Int(report.attempted())),
        ("failed", Json::Int(report.failed())),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.as_str(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

fn print_report(w: &Workload, opts: &Options, report: &Report) {
    let nproc = pin::nproc();
    let fingerprint = Json::obj([
        ("workload", Json::str(w.name)),
        ("model", Json::str(w.model)),
        ("agents", Json::Int(w.agents as u64)),
        ("shards", Json::Int(w.shards as u64)),
        ("window", Json::Int(w.window as u64)),
        ("seed", Json::Int(opts.seed)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("quick", Json::Bool(opts.quick)),
        ("nproc", Json::Int(nproc as u64)),
        ("threads", Json::Int(THREADS as u64)),
        ("domains", Json::Int(THREADS as u64)),
        // More workers than CPUs: the timings are not a valid baseline.
        ("oversubscribed", Json::Bool(nproc < THREADS)),
        (
            "pinned_threads",
            Json::Int(report.reps.last().map_or(0, |r| r.pinned_threads as u64)),
        ),
        ("reps", Json::Int(report.reps.len() as u64)),
        (
            "final_agents",
            Json::Int(report.reps.last().map_or(0, |r| r.final_agents as u64)),
        ),
    ]);
    println!("workload {}: {}", w.name, w.why);
    println!("fingerprint {}", fingerprint.render());
    if let Some(rep) = report.reps.last() {
        let values: Vec<String> = rep
            .validated
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("validate {}", values.join(" "));
    }
    for rep in &report.reps {
        for e in &rep.errors {
            println!("error {e}");
        }
    }
    let end_to_end = report.end_to_end(w);
    for m in end_to_end.iter().chain(&report.layers) {
        println!("metric {} = {} {}   # {}", m.name, m.value, m.unit, m.note);
    }
    let failed_share = report.failed() as f64 / report.attempted().max(1) as f64;
    println!(
        "metric failed_share = {failed_share} ratio   # {} of {} operations",
        report.failed(),
        report.attempted()
    );
    // End-to-end metrics only ever come from an untraced run.
    let metrics = if opts.trace {
        &report.layers
    } else {
        &end_to_end
    };
    println!("{}", result_json(report, metrics).render());
}

/// `--all`: every workload in a fresh child process, so each `VmHWM` is that
/// workload's own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("the running program has a path");
    let forwarded: Vec<&String> = args.iter().filter(|a| *a != "--all").collect();
    let mut ok = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name])
            .args(&forwarded)
            .status()
            .expect("the running program can be started again");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = opts.workload else {
        return run_all(&args);
    };
    let w = if opts.quick { w.quick() } else { w.clone() };
    let report = run(&w, &opts);
    print_report(&w, &opts, &report);
    if opts.trace {
        let path = PathBuf::from(format!("results/perfbench/{}.trace.jsonl", w.name));
        if let Err(e) = report.tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if report.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse(&args("--workload oncology --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(o.workload.unwrap().name, "oncology");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.quick),
            (7, 10.0, true, false)
        );
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload oncology --all")).is_err());
        assert!(parse(&args("--seed 1")).is_err());
        assert!(parse(&args("--workload oncology --trace yes")).is_err());
        assert!(parse(&args("--workload oncology --seconds 0")).is_err());
        assert!(parse(&args("--all --quick")).unwrap().workload.is_none());
    }

    /// Names of the metrics `BENCHMARK.json` lists under `section`.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let body = &text[text.find(&format!("\"{section}\"")).unwrap()..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    /// The quick traced and untraced paths end to end, and the contract with
    /// `BENCHMARK.json`: an untraced run reports exactly its end-to-end
    /// metrics, a traced run exactly its per-layer metrics.
    #[test]
    fn quick_runs_report_exactly_the_declared_metrics() {
        for w in &WORKLOADS {
            let opts = Options {
                workload: Some(w),
                seed: 4357,
                seconds: 1.0,
                trace: true,
                quick: true,
            };
            let w = w.quick();
            let report = run(&w, &opts);
            assert_eq!(
                report.failed(),
                0,
                "{}: {:?}",
                w.name,
                report.reps.last().unwrap().errors
            );
            assert_eq!(report.reps.iter().filter(|r| r.traced).count(), 1);
            let names = |ms: &[Metric]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
            assert_eq!(names(&report.layers), declared("per_layer"), "{}", w.name);
            assert_eq!(
                names(&report.end_to_end(&w)),
                declared("end_to_end"),
                "{}",
                w.name
            );
            for m in report.layers.iter().chain(&report.end_to_end(&w)) {
                assert!(m.value.is_finite(), "{} {} = {}", w.name, m.name, m.value);
            }
            for m in report.end_to_end(&w) {
                assert!(m.value > 0.0, "{} {} must never be 0", w.name, m.name);
            }
            let value = |name: &str| report.layers.iter().find(|m| m.name == name).unwrap().value;
            assert!(value("trace.children_share") >= 0.95, "{}", w.name);
            // Without shards the operation is scheduled but returns at once.
            let halo_share = value("op.halo_exchange_s") / value("op.agent_ops_s");
            assert_eq!(halo_share > 0.01, w.shards > 1, "{}", w.name);
            assert_eq!(
                value("core.force_calcs_per_iter") > 0.0,
                w.model != "epidemiology"
            );
            assert_eq!(value("core.added") > 0.0, w.model == "oncology");
            let rendered = result_json(&report, &report.layers).render();
            assert!(rendered.starts_with(r#"{"correct": true, "attempted": 22, "failed": 0, "metrics": {"op.snapshot_s": {"value": "#));
        }
        assert_eq!(
            declared("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
    }
}
