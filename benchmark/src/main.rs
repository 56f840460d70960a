//! The repository's benchmark: five workloads driven over loopback TCP
//! by closed-loop client threads, and a separate traced run that times
//! the same ops down a ladder of public entry points. See `README.md`.

mod check;
mod corpus;
mod env;
mod ladder;
mod reads;
mod record;
mod span;
mod stats;
mod stream;
mod workloads;
mod writes;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use env::{Env, Plan};
use record::{append_history, result_line, RunInfo};
use workloads::{timed_plan, Outcome, WORKLOADS};

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--history FILE]\n\
                     workloads: read-cold read-hot ingest read-write scatter (default: all)";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    history: Option<PathBuf>,
    corrupt_reference: bool,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workloads: WORKLOADS.to_vec(),
            seed: 42,
            seconds: 8,
            trace: false,
            smoke: false,
            history: None,
            corrupt_reference: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or(format!("unknown workload {name:?}"))?;
                args.workloads = vec![known];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--history" => args.history = Some(PathBuf::from(value("a file")?)),
            // Test hook: the run must then report a wrong answer and fail.
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn make_env(args: &Args, out_dir: PathBuf) -> Env {
    Env {
        seed: args.seed,
        seconds: args.seconds,
        // Full size: 5 000 documents, about 27 000 PARA objects. Smoke:
        // small enough that all five workloads finish in seconds.
        docs: if args.smoke { 300 } else { 5_000 },
        setup_reps: if args.smoke { 1 } else { 3 },
        plan: if args.smoke {
            Plan::Counted {
                warmup_ops: 10,
                ops: 200,
            }
        } else {
            timed_plan(args.seconds)
        },
        verify_ops: if args.smoke { 40 } else { 200 },
        trace_ops: if args.smoke { 100 } else { 125 * args.seconds },
        out_dir,
        corrupt_reference: args.corrupt_reference,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir =
        PathBuf::from(std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "benchmark/out".into()));
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = make_env(&args, out_dir.clone());

    let mut all_correct = true;
    for workload in args.workloads {
        let info = RunInfo {
            rev: std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
            nproc,
            seed: env.seed,
            workload,
            seconds: env.seconds,
            trace: args.trace,
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        };
        println!(
            "== {workload}: seed {}, {} docs, {} client threads, nproc {nproc}, rev {}, {} ==",
            env.seed,
            env.docs,
            workloads::CLIENTS,
            info.rev,
            if args.trace {
                "ladder-traced run"
            } else {
                "tracing off"
            }
        );
        let Outcome {
            metrics,
            attempted,
            failed,
        } = if args.trace {
            ladder::run(workload, &env)
        } else {
            workloads::run(workload, &env)
        };
        for m in &metrics {
            println!(
                "{} = {} {} ({} samples)",
                m.name, m.value, m.unit, m.samples
            );
        }
        if !args.smoke {
            let history = args
                .history
                .clone()
                .unwrap_or_else(|| out_dir.join("history.jsonl"));
            append_history(&history, &info, &metrics).expect("append to the history file");
        }
        let correct = failed == 0;
        all_correct &= correct;
        println!(
            "{}",
            result_line(correct, attempted.max(1), failed, &metrics)
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn smoke_env(corrupt_reference: bool) -> Env {
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).unwrap();
        make_env(
            &Args {
                smoke: true,
                corrupt_reference,
                ..Args::default()
            },
            out_dir,
        )
    }

    /// Every `"name": "…"` of `BENCHMARK.json`.
    fn declared_names() -> BTreeSet<String> {
        include_str!("../../BENCHMARK.json")
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_program_reports() {
        let env = smoke_env(false);
        let untraced = workloads::run("read-hot", &env);
        assert_eq!(untraced.failed, 0);
        let traced = ladder::run("read-hot", &env);
        assert_eq!(traced.failed, 0);
        let reported: BTreeSet<String> = WORKLOADS
            .iter()
            .copied()
            .chain(untraced.metrics.iter().map(|m| m.name))
            .chain(traced.metrics.iter().map(|m| m.name))
            .map(str::to_string)
            .collect();
        assert_eq!(reported, declared_names());
    }

    #[test]
    fn a_corrupted_reference_answer_fails_the_run() {
        for workload in ["read-cold", "scatter"] {
            assert_eq!(workloads::run(workload, &smoke_env(false)).failed, 0);
            assert_eq!(workloads::run(workload, &smoke_env(true)).failed, 1);
        }
    }
}
