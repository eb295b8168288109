//! `spine all` runs every workload in a fresh child process and writes
//! one run-set file; `spine compare A.json B.json` judges each
//! end-to-end metric of each workload against the bound
//! `BENCHMARK.json` fixes for it. This is the tool behind "two
//! run-sets of one commit agree" and behind every later change's
//! parent-versus-change check.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::json::{escape, Json};
use crate::report::{Contract, MetricSpec};
use crate::stats;
use crate::workloads::Workload;

pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// End-to-end runs per workload, on consecutive seeds.
    pub runs: usize,
    pub out: std::path::PathBuf,
}

/// Run every workload (`runs` end-to-end runs and one traced run each;
/// a smoke run traces one workload only) in child processes of this
/// executable; write the run-set; return
/// whether every run was correct.
pub fn run_all(args: &AllArgs) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let e2e = (0..args.runs).map(|i| (args.seed + i as u64, 0));
        // The layer suite is the same whichever workload is traced; a
        // smoke run exercises it once.
        let traced = !args.smoke || workload == Workload::ServeHotCache;
        for (seed, trace) in e2e.chain(traced.then_some((args.seed, 1))) {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", &trace.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let start = Instant::now();
            let output = cmd.output().expect("spawn workload process");
            let wall = start.elapsed().as_secs_f64();
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            let result = stdout.lines().last().unwrap_or("").trim().to_string();
            let ok = output.status.success() && Json::parse(&result).is_ok();
            if !ok {
                all_correct = false;
                eprintln!(
                    "{} (seed {seed}, trace {trace}) failed: {}",
                    workload.name(),
                    String::from_utf8_lossy(&output.stderr)
                );
                continue;
            }
            entries.push(format!(
                "{{\"workload\":\"{}\",\"trace\":{trace},\"seed\":{seed},\"wall_s\":{wall:.3},\"result\":{result}}}",
                escape(workload.name())
            ));
        }
    }
    let doc = format!(
        "{{\"host_threads\":{},\"seed\":{},\"seconds\":{},\"smoke_not_comparable\":{},\"runs\":[\n{}\n]}}\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.seed,
        args.seconds,
        args.smoke,
        entries.join(",\n")
    );
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&args.out, doc).expect("write run-set");
    eprintln!("wrote {}", args.out.display());
    all_correct
}

/// `(workload, metric) → values`, one per end-to-end run in the set.
type Values = BTreeMap<(String, String), Vec<f64>>;

pub fn load_run_set(path: &Path) -> Result<Values, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut values = Values::new();
    for run in doc.get("runs").map(Json::as_arr).unwrap_or_default() {
        if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let metrics = run.get("result").and_then(|r| r.get("metrics"));
        for (name, m) in metrics.and_then(Json::as_obj).into_iter().flatten() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The runs' own spread is wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when B is better).
pub fn worsening(spec: &MetricSpec, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (stats::median(a.to_vec()), stats::median(b.to_vec()));
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if spec.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = spec.bound.expect("end-to-end metrics carry a bound");
    // With four runs or more a side, the sides' own quartile spread
    // says whether a difference of `bound` is resolvable at all.
    let noisy = |v: &[f64]| v.len() >= 4 && stats::spread(v) > bound;
    if noisy(a) || noisy(b) {
        let better = |x: f64, y: f64| if spec.higher_is_better { x > y } else { x < y };
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        let b_always_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
        return if b_always_better {
            Verdict::WithinBound
        } else if b_always_worse && worsening(spec, a, b) > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(spec, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Print the table; returns how many pairings regressed or could not
/// be resolved.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<(usize, usize), String> {
    let contract = Contract::load();
    let (a, b) = (load_run_set(a_path)?, load_run_set(b_path)?);
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in &contract.workloads {
        for spec in &contract.end_to_end {
            let key = (workload.clone(), spec.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{workload:<22} {:<22} missing from one run-set", spec.name);
                unresolved += 1;
                continue;
            };
            let verdict = judge(spec, va, vb);
            regressed += usize::from(verdict == Verdict::Regressed);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            println!(
                "{workload:<22} {:<22} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {} (n={}/{})",
                spec.name,
                stats::median(va.clone()),
                stats::median(vb.clone()),
                100.0 * worsening(spec, va, vb),
                100.0 * spec.bound.unwrap_or(0.0),
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok((regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn single_runs_compare_medians_against_the_bound() {
        let lower = spec(false, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.0]), Verdict::WithinBound);
        assert_eq!(judge(&lower, &[100.0], &[111.0]), Verdict::Regressed);
        assert_eq!(judge(&lower, &[100.0], &[50.0]), Verdict::WithinBound);
        let higher = spec(true, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[91.0]), Verdict::WithinBound);
        assert_eq!(judge(&higher, &[100.0], &[89.0]), Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[150.0]), Verdict::WithinBound);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_dominates() {
        let s = spec(false, 0.05);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&s, &noisy, &[95.0, 105.0, 85.0, 115.0, 100.0]),
            Verdict::Unresolved
        );
        // Every B run beats every A run: resolved despite the noise.
        assert_eq!(
            judge(&s, &noisy, &[70.0, 60.0, 75.0, 50.0, 65.0]),
            Verdict::WithinBound
        );
        // Every B run loses to every A run, by more than the bound.
        assert_eq!(
            judge(&s, &noisy, &[130.0, 160.0, 150.0, 140.0, 170.0]),
            Verdict::Regressed
        );
        // Tight runs, a real shift.
        let tight = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&s, &tight, &[107.0, 108.0, 106.0, 107.5, 106.5]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&s, &tight, &[103.0, 104.0, 102.0, 103.5, 102.5]),
            Verdict::WithinBound
        );
    }
}
