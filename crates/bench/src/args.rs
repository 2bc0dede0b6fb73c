//! Minimal command-line argument parsing for the benchmark binaries.
//!
//! Every `table*`/`fig*` binary accepts the same core flags; binaries ignore
//! flags that do not apply to them. No external CLI crate is used (the
//! workspace's dependency budget is spent on the engine, not the harness).

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parsed command-line flags shared by all benchmark binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--agents N` — agents per simulation (binary-specific default).
    pub agents: Option<usize>,
    /// `--iterations N` — iterations per measurement.
    pub iterations: Option<usize>,
    /// `--threads N` — worker threads (default: all available).
    pub threads: Option<usize>,
    /// `--domains N` — virtual NUMA domains (default: detect).
    pub domains: Option<usize>,
    /// `--shards K` — in-process shard count (sharded execution with halo
    /// exchange; default 1 = classic single-engine path).
    pub shards: Option<usize>,
    /// `--models a,b,c` — restrict to a subset of the five models.
    pub models: Option<Vec<String>>,
    /// `--csv` — additionally write `results/<binary>.csv`.
    pub csv: bool,
    /// `--out DIR` — output directory for CSV files (default `results`).
    pub out_dir: PathBuf,
    /// `--quick` — smallest sensible scales (used by `run_all` and CI).
    pub quick: bool,
    /// `--max-exp E` — largest power of ten in the Figure 6 sweep.
    pub max_exp: Option<u32>,
    /// `--max-agents N` — largest scale point of the Figure 6 sweep
    /// (overrides `--max-exp`; the sweep runs 10³, 10⁴, … and finishes at
    /// exactly `N`).
    pub max_agents: Option<usize>,
    /// `--phase-csv` — additionally write `<out>/fig06_phases.csv` with the
    /// scheduler's per-operation timings per scale point.
    pub phase_csv: bool,
    /// `--visualize` — dump a point cloud CSV (Figure 7a).
    pub visualize: bool,
    /// `--proxy` — include the micro-architecture proxy (Figure 5 right).
    pub proxy: bool,
    /// `--whole` — whole-simulation scalability only (Figure 10a).
    pub whole: bool,
    /// `--detect-static` — run with static-agent detection on
    /// (`sharded_scale`: the halo widens from 2 to 3+ rings).
    pub detect_static: bool,
    /// `--repeats N` — measurement repetitions (median is reported).
    pub repeats: usize,
    /// `--seed S` — base RNG seed.
    pub seed: u64,
    /// `--no-subprocess` — measure in-process (less isolation, easier
    /// debugging; memory numbers become cumulative).
    pub no_subprocess: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            agents: None,
            iterations: None,
            threads: None,
            domains: None,
            shards: None,
            models: None,
            csv: false,
            out_dir: PathBuf::from("results"),
            quick: false,
            max_exp: None,
            max_agents: None,
            phase_csv: false,
            visualize: false,
            proxy: false,
            whole: false,
            detect_static: false,
            repeats: 1,
            seed: 4357,
            no_subprocess: false,
        }
    }
}

/// Usage text shared by all binaries.
pub const USAGE: &str = "\
Common flags:
  --agents N        agents per simulation (binary-specific default)
  --iterations N    iterations per measurement
  --threads N       worker threads (default: all available)
  --domains N       virtual NUMA domains (default: detect; the topology
                    is virtual, see docs/ARCHITECTURE.md)
  --shards K        in-process shard count (SFC partitioning + halo
                    exchange; default 1 = single engine)
  --models a,b,c    subset of: cell_proliferation, cell_clustering,
                    epidemiology, neuroscience, oncology, cell_sorting
  --repeats N       measurement repetitions, median reported (default 1)
  --seed S          base RNG seed (default 4357)
  --csv             also write results/<binary>.csv
  --out DIR         output directory for CSV files (default: results)
  --quick           smallest sensible scales (for run_all / CI)
  --max-exp E       largest 10^E of the Figure 6 sweep (default 5)
  --max-agents N    largest Figure 6 scale point (overrides --max-exp; the
                    sweep runs 10^3, 10^4, ... and finishes at exactly N)
  --phase-csv       also write fig06_phases.csv (per-operation timings per
                    scale point, from the scheduler)
  --visualize       dump the Figure 7a point cloud CSV
  --proxy           include the microarchitecture proxy (Figure 5 right)
  --whole           whole-simulation scalability only (Figure 10a)
  --detect-static   static-agent detection on (sharded_scale: wider halo)
  --no-subprocess   measure in-process instead of in a child process
  -h, --help        this message";

impl Args {
    /// Parses `std::env::args`, exiting with usage on `-h`/`--help` or on an
    /// unknown flag.
    pub fn parse() -> Args {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                if msg.is_empty() {
                    eprintln!("{USAGE}");
                    std::process::exit(0);
                }
                eprintln!("error: {msg}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// Parses an explicit argument list. `Err("")` signals a help request.
    pub fn try_parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "-h" | "--help" => return Err(String::new()),
                "--csv" => args.csv = true,
                "--quick" => args.quick = true,
                "--phase-csv" => args.phase_csv = true,
                "--visualize" => args.visualize = true,
                "--proxy" => args.proxy = true,
                "--whole" => args.whole = true,
                "--detect-static" => args.detect_static = true,
                "--no-subprocess" => args.no_subprocess = true,
                flag if flag.starts_with("--") => {
                    let key = flag.trim_start_matches("--").to_string();
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag {flag} expects a value"))?;
                    values.insert(key, value);
                }
                other => return Err(format!("unexpected argument: {other}")),
            }
        }
        let parse_usize =
            |values: &BTreeMap<String, String>, key: &str| -> Result<Option<usize>, String> {
                values
                    .get(key)
                    .map(|v| {
                        v.parse::<usize>()
                            .map_err(|_| format!("--{key}: not a number: {v}"))
                    })
                    .transpose()
            };
        args.agents = parse_usize(&values, "agents")?;
        args.iterations = parse_usize(&values, "iterations")?;
        args.threads = parse_usize(&values, "threads")?;
        args.domains = parse_usize(&values, "domains")?;
        args.shards = parse_usize(&values, "shards")?;
        if let Some(r) = parse_usize(&values, "repeats")? {
            args.repeats = r.max(1);
        }
        if let Some(v) = values.get("seed") {
            args.seed = v
                .parse()
                .map_err(|_| format!("--seed: not a number: {v}"))?;
        }
        if let Some(v) = values.get("max-exp") {
            args.max_exp = Some(
                v.parse()
                    .map_err(|_| format!("--max-exp: not a number: {v}"))?,
            );
        }
        args.max_agents = parse_usize(&values, "max-agents")?;
        if let Some(v) = values.get("out") {
            args.out_dir = PathBuf::from(v);
        }
        if let Some(v) = values.get("models") {
            args.models = Some(v.split(',').map(|s| s.trim().to_string()).collect());
        }
        let known = [
            "agents",
            "iterations",
            "threads",
            "domains",
            "shards",
            "repeats",
            "seed",
            "max-exp",
            "max-agents",
            "out",
            "models",
        ];
        for key in values.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown flag: --{key}"));
            }
        }
        Ok(args)
    }

    /// The model names selected by `--models`, or all six benchmark models
    /// (the five Table 1 models plus the Biocellion cell-sorting model).
    pub fn selected_models(&self) -> Vec<String> {
        self.models.clone().unwrap_or_else(|| {
            [
                "cell_proliferation",
                "cell_clustering",
                "epidemiology",
                "neuroscience",
                "oncology",
                "cell_sorting",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect()
        })
    }

    /// Default agent count for the five-model comparisons, honoring
    /// `--agents` and `--quick`.
    pub fn scale(&self, default: usize) -> usize {
        self.agents
            .unwrap_or(if self.quick { default / 4 } else { default })
    }

    /// Default iteration count, honoring `--iterations` and `--quick`.
    pub fn iters(&self, default: usize) -> usize {
        self.iterations.unwrap_or(if self.quick {
            (default / 2).max(2)
        } else {
            default
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::try_parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.agents, None);
        assert!(!a.csv);
        assert_eq!(a.repeats, 1);
        assert_eq!(a.out_dir, PathBuf::from("results"));
        assert_eq!(a.selected_models().len(), 6);
    }

    #[test]
    fn flags_and_values() {
        let a = parse(
            "--agents 5000 --iterations 20 --csv --threads 2 --domains 4 --shards 4 --seed 7",
        )
        .unwrap();
        assert_eq!(a.agents, Some(5000));
        assert_eq!(a.iterations, Some(20));
        assert!(a.csv);
        assert_eq!(a.threads, Some(2));
        assert_eq!(a.domains, Some(4));
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn model_subset() {
        let a = parse("--models oncology,epidemiology").unwrap();
        assert_eq!(a.selected_models(), vec!["oncology", "epidemiology"]);
    }

    #[test]
    fn help_is_empty_error() {
        assert_eq!(parse("--help").unwrap_err(), "");
        assert_eq!(parse("-h").unwrap_err(), "");
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse("--bogus 3").unwrap_err().contains("unknown flag"));
        assert!(parse("positional").unwrap_err().contains("unexpected"));
    }

    #[test]
    fn bad_number_rejected() {
        assert!(parse("--agents abc").unwrap_err().contains("not a number"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse("--agents").unwrap_err().contains("expects a value"));
    }

    #[test]
    fn sweep_flags() {
        let a = parse("--max-agents 1000000 --phase-csv").unwrap();
        assert_eq!(a.max_agents, Some(1_000_000));
        assert!(a.phase_csv);
        let b = parse("").unwrap();
        assert_eq!(b.max_agents, None);
        assert!(!b.phase_csv);
        assert!(parse("--max-agents x")
            .unwrap_err()
            .contains("not a number"));
    }

    #[test]
    fn scaling_helpers() {
        let a = parse("--quick").unwrap();
        assert_eq!(a.scale(8000), 2000);
        assert_eq!(a.iters(10), 5);
        let b = parse("--agents 123 --iterations 7").unwrap();
        assert_eq!(b.scale(8000), 123);
        assert_eq!(b.iters(10), 7);
    }
}
