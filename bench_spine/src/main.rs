//! `spine` — the repo's benchmark: six named workloads, end-to-end
//! metrics with tracing off, per-layer metrics from one traced run.
//! `README.md` beside this crate says why each workload and metric
//! exists; `BENCHMARK.json` at the repo root is the contract.

mod common;
mod compare;
mod dealers_run;
mod gen;
mod io;
mod json;
mod layers;
mod report;
mod rng;
mod stats;
mod trace;
mod traced;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};

use common::Scratch;
use report::{Contract, Report};
use workloads::{Args, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: spine --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      spine all [--seed <n>] [--seconds <s>] [--runs <k>] [--smoke] [--out <file>]\n\
         \x20      spine compare <A.json> <B.json>\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match flag(args, name) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| usage()),
    }
}

/// One workload, one mode: what the driver invokes.
fn run_one(run: &Args, traced: bool) -> Report {
    if !traced {
        return workloads::run(run);
    }
    let mut report = Report::default();
    workloads::note_run(&mut report, run);
    let scratch = Scratch::new();
    let shared = layers::run(run, &scratch, &mut report);
    report.note("graph_nodes_s", shared.graph_s.len());
    report.note("graph_nodes_l", shared.graph_l.len());
    traced::run(run, &scratch, &shared, &mut report);
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds = parsed(&args, "--seconds", 8.0);
    let seed = parsed(&args, "--seed", 1u64);
    let smoke = args.iter().any(|a| a == "--smoke");
    match args.first().map(String::as_str) {
        Some("compare") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                usage()
            };
            match compare::compare(Path::new(a), Path::new(b)) {
                Ok((0, _)) => {}
                Ok(_) => std::process::exit(1),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2)
                }
            }
        }
        Some("all") => {
            let default_out = common::out_dir().join(format!("runset_{seed}.json"));
            let all = compare::AllArgs {
                seed,
                seconds,
                smoke,
                runs: parsed(&args, "--runs", 1usize).max(1),
                out: flag(&args, "--out").map_or(default_out, PathBuf::from),
            };
            if !compare::run_all(&all) {
                std::process::exit(1);
            }
        }
        _ => {
            let Some(workload) = flag(&args, "--workload").and_then(Workload::parse) else {
                usage()
            };
            let traced = match flag(&args, "--trace") {
                None | Some("0") => false,
                Some("1") => true,
                Some(_) => usage(),
            };
            let run = Args {
                workload,
                seed,
                seconds,
                smoke,
            };
            let report = run_one(&run, traced);
            print!("{}", report.render_text());
            let contract = Contract::load();
            let specs = if traced {
                &contract.per_layer
            } else {
                &contract.end_to_end
            };
            let conforms = report.conforms_to(specs);
            if let Err(e) = &conforms {
                eprintln!("contract violation: {e}");
            }
            println!("{}", report.render_json());
            if !report.correct() || conforms.is_err() {
                std::process::exit(1);
            }
        }
    }
}
