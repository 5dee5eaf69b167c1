//! The repository benchmark: named workloads over the Polystyrene
//! substrates, driven through the public experiment plane and timed
//! call by call.
//!
//! `perfbench` prints the end-to-end metrics of one workload run with
//! tracing off; `perfbench_traced` installs a counting allocator,
//! records a span around every call into a layer and prints the
//! per-layer metrics. Both end with one JSON result line. See
//! `README.md` beside this crate for the workloads, metrics and seeds.

pub mod alloc;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use report::{result_json, Metric, Run, GATED};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;
use workload::{Plan, Seeds, Workload};

/// Set-ups measured per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;

/// Fewest timed scripts a deterministic run repeats, so every run checks
/// that its exact counts repeat.
const MIN_SCRIPTS: usize = 2;

/// Whether a deterministic run starts another script: until it has
/// [`MIN_SCRIPTS`] and its scripts' timed phases fill the budget.
fn another_script(scripts: usize, timed_s: f64, seconds: f64) -> bool {
    scripts < MIN_SCRIPTS || timed_s < seconds
}

/// Stack of the threads each script runs on.
const SCRIPT_STACK: usize = 64 << 20;

/// Checked command-line arguments.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    /// The inputs, with any size overrides applied.
    plan: Plan,
    /// Workload seed.
    seed: u64,
    /// Time budget of the timed phase.
    seconds: f64,
    /// Where the traced run writes its spans.
    trace_out: Option<PathBuf>,
    /// The untraced run's `rounds_per_s`, for the tracing overhead.
    untraced_rounds_per_s: Option<f64>,
    /// Print one line per timed round of the first script.
    per_round: bool,
}

/// The usage text.
const USAGE: &str =
    "usage: perfbench --workload reshape_engine|serve_netsim|serve_cluster|serve_tcp \
[--seed N] [--seconds S] [--trace-out PATH] [--untraced-rounds-per-s X] \
[--cols N] [--rows N] [--rate N] [--rounds N] [--per-round 0|1]";

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_bit(flag: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag}: expected 0 or 1, got {value:?}")),
    }
}

impl Args {
    /// Parses `--flag value` pairs.
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut per_round) = (1, 15.0_f64, false);
        let (mut trace_out, mut untraced_rounds_per_s) = (None, None);
        let (mut cols, mut rows, mut rate, mut rounds) = (None, None, None, None);
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            if seen.contains(&flag.as_str()) {
                return Err(format!("{flag}: given twice"));
            }
            seen.push(flag.as_str());
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = parse_num(flag, value)?,
                "--seconds" => seconds = parse_num(flag, value)?,
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                "--untraced-rounds-per-s" => untraced_rounds_per_s = Some(parse_num(flag, value)?),
                "--per-round" => per_round = parse_bit(flag, value)?,
                "--cols" => cols = Some(parse_num(flag, value)?),
                "--rows" => rows = Some(parse_num(flag, value)?),
                "--rate" => rate = Some(parse_num(flag, value)?),
                "--rounds" => rounds = Some(parse_num(flag, value)?),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        let mut plan = workload.plan();
        plan.cols = cols.unwrap_or(plan.cols);
        plan.rows = rows.unwrap_or(plan.rows);
        plan.rate = rate.unwrap_or(plan.rate);
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be a positive number".into());
        }
        if plan.cols < 2 || plan.rows < 2 {
            return Err("--cols and --rows must be at least 2".into());
        }
        if let Some(rounds) = rounds {
            let kill = plan.kill.map_or(0, |(at, _)| at);
            if workload.is_live() || rounds <= kill {
                return Err(format!(
                    "--rounds applies to the deterministic workloads and must exceed the kill round {kill}"
                ));
            }
            plan.rounds = Some(rounds);
        }
        Ok(Args {
            plan,
            seed,
            seconds,
            trace_out,
            untraced_rounds_per_s,
            per_round,
        })
    }
}

/// Runs `f` on a fresh thread, so thread-local scratch starts empty for
/// every script and repeated scripts allocate alike.
fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(SCRIPT_STACK)
            .spawn_scoped(scope, f)
            .expect("spawn the script thread")
            .join()
            .expect("the script thread panicked")
    })
}

/// Runs the workload `args` names and gathers its scripts.
fn run(args: &Args, tracer: &mut Tracer) -> Run {
    let plan = args.plan;
    let seeds = Seeds::derive(args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setup_samples = Vec::new();
    let mut reps = Vec::new();
    if plan.workload.is_live() {
        for _ in 1..SETUP_SAMPLES {
            setup_samples.push(on_fresh_thread(|| workload::set_up_only(&plan, seeds)));
        }
        let rep = on_fresh_thread(|| workload::run_rep(&plan, seeds, budget, tracer));
        setup_samples.push(rep.setup_s);
        reps.push(rep);
    } else {
        let mut timed_s = 0.0;
        while another_script(reps.len(), timed_s, args.seconds) {
            let rep = on_fresh_thread(|| workload::run_rep(&plan, seeds, budget, tracer));
            timed_s += rep.wall_s;
            setup_samples.push(rep.setup_s);
            reps.push(rep);
        }
        while setup_samples.len() < SETUP_SAMPLES {
            setup_samples.push(on_fresh_thread(|| workload::set_up_only(&plan, seeds)));
        }
    }
    Run {
        plan,
        reps,
        setup_samples,
    }
}

/// The command: parses `argv`, runs, prints and returns the exit code.
/// `trace` says whether the calling binary is the traced one, which
/// installed [`alloc::CountingAlloc`] and records spans.
pub fn main_with(argv: &[String], trace: bool) -> i32 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let plan = args.plan;
    // Room for the spans of about 200 rounds per second.
    let mut tracer = Tracer::new(trace, (args.seconds * 1600.0) as usize);
    let run = run(&args, &mut tracer);

    let rounds: usize = run.reps.iter().map(|r| r.rounds()).sum();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} scripts={} timed_rounds={} nodes={} rate={}",
        plan.workload.name(),
        args.seed,
        args.seconds,
        u8::from(trace),
        run.reps.len(),
        rounds,
        plan.nodes(),
        plan.rate,
    );
    if args.per_round {
        let first = &run.reps[0];
        for (i, (obs, t)) in first.observations.iter().zip(&first.traffic).enumerate() {
            println!(
                "round {i:>4} ms {:.3} alive {} homogeneity {:.4} reference {:.4} offered {} delivered {} dropped {} shed {} hops {:.3}",
                first.round_ms[i],
                obs.alive_nodes,
                obs.homogeneity,
                obs.reference_homogeneity,
                t.offered,
                t.delivered,
                t.dropped,
                t.shed,
                t.mean_hops
            );
        }
    }
    let end_to_end = run.end_to_end();
    for m in &end_to_end {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("metric {:<26} {} {}{note}", m.name, m.value, m.unit);
    }
    if !plan.workload.is_live() {
        for (name, value) in run.reps[0].exact_counts() {
            if trace || !name.starts_with("lab.") {
                println!("exact {name} {value}");
            }
        }
    }
    let mut checks = run.checks();
    let result: Vec<Metric> = if trace {
        for (name, count, total_ms, self_ms) in tracer.self_time_table() {
            println!(
                "span {name:<24} count {count:>7} total_ms {total_ms:.3} self_ms {self_ms:.3}"
            );
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = tracer.write_jsonl(path) {
                checks.push((format!("write spans to {}: {e}", path.display()), false));
            }
        }
        let per_layer = run.per_layer(&tracer, args.untraced_rounds_per_s);
        for m in &per_layer {
            println!("layer {:<36} {} {}", m.name, m.value, m.unit);
        }
        per_layer
    } else {
        end_to_end
            .iter()
            .filter(|m| GATED.contains(&m.name))
            .cloned()
            .collect()
    };
    for m in end_to_end.iter().chain(&result) {
        checks.push((format!("{} is finite", m.name), m.value.is_finite()));
    }
    let mut correct = true;
    for (check, passed) in &checks {
        if !passed {
            correct = false;
            eprintln!(
                "perfbench: check failed (workload {}, seed {}): {check}",
                plan.workload.name(),
                args.seed
            );
        }
    }
    println!(
        "check {} of {} output checks passed",
        checks.iter().filter(|c| c.1).count(),
        checks.len()
    );
    let failed: u64 = run.reps.iter().map(|r| r.population_breaks).sum();
    println!("{}", result_json(correct, rounds, failed, &result));
    if correct {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse("--workload serve_tcp --seed 7 --seconds 15").unwrap();
        assert_eq!(args.plan, Workload::ServeTcp.plan());
        assert_eq!((args.seed, args.seconds), (7, 15.0));
    }

    #[test]
    fn size_flags_override_the_plan() {
        let args =
            parse("--workload serve_netsim --cols 32 --rows 16 --rate 10 --rounds 60").unwrap();
        assert_eq!((args.plan.cols, args.plan.rows), (32, 16));
        assert_eq!((args.plan.rate, args.plan.rounds), (10, Some(60)));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload serve_tcp --trace 1",
            "--workload serve_tcp --per-round 2",
            "--workload serve_tcp --seed 1 --seed 2",
            "--workload serve_tcp --seconds 0",
            "--workload serve_tcp --rounds 50",
            "--workload serve_netsim --rounds 10",
            "--workload serve_tcp --frobnicate 1",
            "--workload serve_tcp --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deterministic_runs_repeat_their_script_until_the_budget_is_spent() {
        // At least two scripts, however long each takes.
        assert!(another_script(0, 0.0, 1.0));
        assert!(another_script(1, 30.0, 1.0));
        assert!(!another_script(2, 30.0, 1.0));
        // Then more until the timed phases fill the budget.
        assert!(another_script(2, 12.0, 15.0));
        assert!(another_script(3, 14.9, 15.0));
        assert!(!another_script(3, 18.0, 15.0));
    }
}
