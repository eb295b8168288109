//! Regenerate every figure of the Lipstick paper's evaluation (§5.4–5.6).
//!
//! ```text
//! experiments [fig5a|fig5b|fig5c|fig6a|fig6b|fig6c|fig7a|fig7b|fig7c|del|fine|abl|all] [--scale S]
//! ```
//!
//! `--scale` multiplies workload sizes (default 1 ≈ laptop-friendly;
//! the paper's full sizes correspond to roughly `--scale 20`). Output
//! is aligned text tables — the same rows/series the paper plots — plus
//! `abl`, the ablations of two design choices. An unknown name exits 2.

use std::env;
use std::time::Instant;

use lipstick_bench::*;
use lipstick_core::graph::validate::intermediate_nodes_by_definition;
use lipstick_core::query::zoom_out;
use lipstick_core::semiring::Polynomial;
use lipstick_core::NodeKind;
use lipstick_workflowgen::{ArcticParams, DealersParams, Selectivity, Topology};

/// A table's name and the function printing it at a given scale.
type Table = (&'static str, fn(f64));

/// Every table, by the name that selects it.
const TABLES: &[Table] = &[
    ("fig5a", fig5a),
    ("fig5b", fig5b),
    ("fig5c", fig5c),
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig6c", fig6c),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig7c", fig7c),
    ("del", exp_del),
    ("fine", exp_fine),
    ("abl", exp_abl),
];

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale: f64 = 1.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            name => {
                which = name.to_string();
                i += 1;
            }
        }
    }
    if which != "all" && !TABLES.iter().any(|(name, _)| *name == which) {
        let names: Vec<&str> = TABLES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown figure '{which}'; expected one of: {}, all",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for (name, table) in TABLES {
        if which == "all" || which == *name {
            table(scale);
        }
    }
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64) * scale).round().max(1.0) as usize
}

/// Fig 5(a): dealership execution time vs number of executions,
/// with and without provenance.
fn fig5a(scale: f64) {
    println!("\n== FIG5a: Car dealerships, execution time vs numExec ==");
    println!(
        "{:>8} {:>16} {:>16} {:>9}",
        "numExec", "no-prov (ms)", "prov (ms)", "overhead"
    );
    let num_cars = scaled(1000, scale);
    for num_exec in [10, 20, 40, 60, 80, 100] {
        let params = DealersParams {
            num_cars,
            num_exec,
            seed: 1_000_003, // picky buyer: runs use all executions
        };
        let without = run_dealers(&params, false);
        let with = run_dealers(&params, true);
        println!(
            "{:>8} {:>16.2} {:>16.2} {:>8.2}x",
            num_exec,
            ms(without.elapsed),
            ms(with.elapsed),
            ms(with.elapsed) / ms(without.elapsed).max(1e-9)
        );
    }
}

/// Fig 5(b): Arctic stations execution time by topology, with and
/// without provenance (24 stations, month selectivity).
fn fig5b(scale: f64) {
    println!("\n== FIG5b: Arctic stations (24 modules, selectivity=month) ==");
    println!(
        "{:>18} {:>8} {:>16} {:>16} {:>9}",
        "topology", "numExec", "no-prov (ms)", "prov (ms)", "overhead"
    );
    let num_exec = scaled(20, scale);
    for topology in [
        Topology::Parallel,
        Topology::Dense { fanout: 6 },
        Topology::Serial,
    ] {
        let params = ArcticParams {
            stations: 24,
            topology,
            selectivity: Selectivity::Month,
            num_exec,
            seed: 7,
        };
        let without = run_arctic(&params, false);
        let with = run_arctic(&params, true);
        println!(
            "{:>18} {:>8} {:>16.2} {:>16.2} {:>8.1}%",
            topology.to_string(),
            num_exec,
            ms(without.elapsed),
            ms(with.elapsed),
            (ms(with.elapsed) / ms(without.elapsed).max(1e-9) - 1.0) * 100.0
        );
    }
}

/// Fig 5(c): % improvement vs number of reducers (parallel executor).
fn fig5c(scale: f64) {
    println!("\n== FIG5c: Car dealerships, % improvement vs reducers ==");
    println!(
        "{:>9} {:>16} {:>16} {:>14} {:>14}",
        "reducers", "no-prov (ms)", "prov (ms)", "no-prov impr", "prov impr"
    );
    // The paper's full inventory (20 000 cars) makes the four dealer
    // modules the dominant cost — the portion the parallel phase can
    // absorb. Each point is the best of three trials (the paper notes
    // same-reducer-count differences are noise).
    let params = DealersParams {
        num_cars: scaled(20_000, scale),
        num_exec: 2,
        seed: 1_000_003,
    };
    let best_of = |reducers: usize, with_prov: bool| {
        (0..3)
            .map(|_| ms(run_dealers_parallel(&params, reducers, with_prov)))
            .fold(f64::INFINITY, f64::min)
    };
    let base_no = best_of(1, false);
    let base_yes = best_of(1, true);
    for reducers in [1usize, 2, 3, 4, 6, 8, 16, 32, 54] {
        let no = best_of(reducers, false);
        let yes = best_of(reducers, true);
        println!(
            "{:>9} {:>16.2} {:>16.2} {:>13.1}% {:>13.1}%",
            reducers,
            no,
            yes,
            (1.0 - no / base_no) * 100.0,
            (1.0 - yes / base_yes) * 100.0
        );
    }
}

/// Fig 6(a): graph building time vs number of nodes (dealers).
fn fig6a(scale: f64) {
    println!("\n== FIG6a: graph build time vs #nodes (Car dealerships) ==");
    println!("{:>10} {:>12} {:>14}", "numExec", "nodes", "build (ms)");
    let num_cars = scaled(1000, scale);
    for num_exec in [5, 10, 20, 40, 80] {
        let params = DealersParams {
            num_cars,
            num_exec,
            seed: 1_000_003,
        };
        let run = run_dealers(&params, true);
        let g = run.graph.expect("tracking on");
        let (build, nodes) = measure_graph_build(&g);
        println!("{:>10} {:>12} {:>14.2}", num_exec, nodes, ms(build));
    }
}

/// Fig 6(b): build time by selectivity, dense fan-out 2, varying
/// module count.
fn fig6b(scale: f64) {
    println!("\n== FIG6b: graph build time, Arctic dense fan-out 2 ==");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>12}",
        "modules", "all (ms)", "season (ms)", "month (ms)", "year (ms)"
    );
    let num_exec = scaled(10, scale);
    for stations in [2usize, 6, 12, 24] {
        let mut row = format!("{stations:>9}");
        for selectivity in [
            Selectivity::All,
            Selectivity::Season,
            Selectivity::Month,
            Selectivity::Year,
        ] {
            let params = ArcticParams {
                stations,
                topology: Topology::Dense { fanout: 2 },
                selectivity,
                num_exec,
                seed: 7,
            };
            let run = run_arctic(&params, true);
            let g = run.graph.expect("tracking on");
            let (build, _) = measure_graph_build(&g);
            row.push_str(&format!(" {:>12.2}", ms(build)));
        }
        println!("{row}");
    }
}

/// Fig 6(c): build time by selectivity across topologies, 24 modules.
fn fig6c(scale: f64) {
    println!("\n== FIG6c: graph build time, Arctic 24 modules ==");
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>12}",
        "topology", "all (ms)", "season (ms)", "month (ms)", "year (ms)"
    );
    let num_exec = scaled(10, scale);
    for topology in [
        Topology::Serial,
        Topology::Parallel,
        Topology::Dense { fanout: 2 },
        Topology::Dense { fanout: 3 },
        Topology::Dense { fanout: 6 },
        Topology::Dense { fanout: 12 },
    ] {
        let mut row = format!("{:>18}", topology.to_string());
        for selectivity in [
            Selectivity::All,
            Selectivity::Season,
            Selectivity::Month,
            Selectivity::Year,
        ] {
            let params = ArcticParams {
                stations: 24,
                topology,
                selectivity,
                num_exec,
                seed: 7,
            };
            let run = run_arctic(&params, true);
            let g = run.graph.expect("tracking on");
            let (build, _) = measure_graph_build(&g);
            row.push_str(&format!(" {:>12.2}", ms(build)));
        }
        println!("{row}");
    }
}

/// Fig 7(a): ZoomOut/ZoomIn time vs graph size, dealer vs aggregate.
fn fig7a(scale: f64) {
    println!("\n== FIG7a: zoom time vs graph size (Car dealerships) ==");
    println!(
        "{:>8} {:>10} {:>18} {:>17} {:>18} {:>17}",
        "numExec", "nodes", "dealer zoomout", "dealer zoomin", "agg zoomout", "agg zoomin"
    );
    let num_cars = scaled(1000, scale);
    for num_exec in [10, 20, 40, 80] {
        let params = DealersParams {
            num_cars,
            num_exec,
            seed: 1_000_003,
        };
        let run = run_dealers(&params, true);
        let mut g = run.graph.expect("tracking on");
        let nodes = g.len();
        let (d_out, d_in) = measure_zoom(&mut g, "Mdealer1");
        let (a_out, a_in) = measure_zoom(&mut g, "Magg");
        println!(
            "{:>8} {:>10} {:>15.2}ms {:>14.2}ms {:>15.2}ms {:>14.2}ms",
            num_exec,
            nodes,
            ms(d_out),
            ms(d_in),
            ms(a_out),
            ms(a_in)
        );
    }
}

/// Fig 7(b): subgraph query time vs result size (dealers, 50 roots).
fn fig7b(scale: f64) {
    println!("\n== FIG7b: subgraph time vs result size (Car dealerships) ==");
    let params = DealersParams {
        num_cars: scaled(1000, scale),
        num_exec: scaled(40, scale),
        seed: 1_000_003,
    };
    let run = run_dealers(&params, true);
    let g = run.graph.expect("tracking on");
    println!("graph: {}", graph_summary(&g));
    println!("{:>16} {:>14}", "subgraph nodes", "time (ms)");
    let mut pairs = measure_subgraphs(&g, 50);
    pairs.sort();
    for (size, t) in pairs.iter().step_by((pairs.len() / 12).max(1)) {
        println!("{:>16} {:>14.3}", size, ms(*t));
    }
}

/// Fig 7(c): subgraph time by selectivity and topology (Arctic, 24
/// modules).
fn fig7c(scale: f64) {
    println!("\n== FIG7c: subgraph time, Arctic 24 modules (mean of 50 roots) ==");
    println!(
        "{:>18} {:>12} {:>12} {:>12} {:>12}",
        "topology", "all (ms)", "season (ms)", "month (ms)", "year (ms)"
    );
    let num_exec = scaled(10, scale);
    for topology in [
        Topology::Serial,
        Topology::Parallel,
        Topology::Dense { fanout: 2 },
        Topology::Dense { fanout: 3 },
        Topology::Dense { fanout: 6 },
        Topology::Dense { fanout: 12 },
    ] {
        let mut row = format!("{:>18}", topology.to_string());
        for selectivity in [
            Selectivity::All,
            Selectivity::Season,
            Selectivity::Month,
            Selectivity::Year,
        ] {
            let params = ArcticParams {
                stations: 24,
                topology,
                selectivity,
                num_exec,
                seed: 7,
            };
            let run = run_arctic(&params, true);
            let g = run.graph.expect("tracking on");
            let pairs = measure_subgraphs(&g, 50);
            let mean = pairs.iter().map(|(_, t)| ms(*t)).sum::<f64>() / pairs.len().max(1) as f64;
            row.push_str(&format!(" {:>12.3}", mean));
        }
        println!("{row}");
    }
}

/// §5.6 in-text: deletion propagation timings.
fn exp_del(scale: f64) {
    println!("\n== EXP-DEL: deletion propagation (Car dealerships, 50 roots) ==");
    let params = DealersParams {
        num_cars: scaled(1000, scale),
        num_exec: scaled(40, scale),
        seed: 1_000_003,
    };
    let run = run_dealers(&params, true);
    let g = run.graph.expect("tracking on");
    let pairs = measure_deletions(&g, 50);
    let times: Vec<f64> = pairs.iter().map(|(_, t)| ms(*t)).collect();
    let max = times.iter().cloned().fold(0.0, f64::max);
    let sub_ms = times.iter().filter(|t| **t < 1.0).count();
    println!(
        "graph: {} | {} deletions, {} under 1 ms, max {:.2} ms",
        graph_summary(&g),
        times.len(),
        sub_ms,
        max
    );
}

/// §5.5 in-text: fine-grainedness of output dependencies.
fn exp_fine(scale: f64) {
    println!("\n== EXP-FINE: fraction of state tuples an output depends on ==");
    let params = DealersParams {
        num_cars: scaled(2000, scale),
        num_exec: scaled(20, scale),
        seed: 1_000_003,
    };
    let run = run_dealers(&params, true);
    let g = run.graph.expect("tracking on");
    let fractions = fine_grained_fractions(&g);
    let (min, max) = fractions
        .iter()
        .fold((1.0f64, 0.0f64), |(lo, hi), f| (lo.min(*f), hi.max(*f)));
    println!(
        "graph: {} | outputs sampled: {} | dependency fraction: {:.2}%..{:.2}% of base tuples (coarse-grained would be 100%)",
        graph_summary(&g),
        fractions.len(),
        min * 100.0,
        max * 100.0
    );
}

/// Ablations of two design choices: the shared graph vs expanded
/// polynomials for every module output (§3.2's compactness claim), and
/// ZoomOut by role tags vs the Definition 4.1 reachability
/// characterisation of one module's intermediate nodes.
fn exp_abl(scale: f64) {
    println!("\n== ABL: graph vs polynomials (§3.2), ZoomOut tags vs Def 4.1 (Car dealerships) ==");
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>11} {:>10} {:>10}",
        "numExec", "nodes", "poly size", "expand (ms)", "graph (ms)", "tags (ms)", "def (ms)"
    );
    for num_exec in [5, 10] {
        let params = DealersParams {
            num_cars: scaled(200, scale),
            num_exec,
            seed: 1_000_003,
        };
        let g = run_dealers(&params, true).graph.expect("tracking on");
        let outputs: Vec<_> = g
            .iter_visible()
            .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
            .map(|(id, _)| id)
            .collect();
        let expand = || -> usize {
            outputs
                .iter()
                .map(|&o| {
                    let expr = g.expr_of(o);
                    Polynomial::from_expr(&expr).map_or_else(|| expr.size(), |p| p.expanded_size())
                })
                .sum()
        };
        let by_definition = || -> usize {
            g.invocations_of("Mdealer1")
                .into_iter()
                .map(|inv| intermediate_nodes_by_definition(&g, inv).len())
                .sum()
        };
        println!(
            "{:>8} {:>8} {:>10} {:>12.3} {:>11.3} {:>10.3} {:>10.3}",
            num_exec,
            g.len(),
            expand(),
            best_of_3(|| (), |()| expand()),
            best_of_3(|| (), |()| g.visible_signature().0.len()),
            best_of_3(
                || g.clone(),
                |mut z| {
                    zoom_out(&mut z, &["Mdealer1"]).expect("zoom");
                    z
                }
            ),
            best_of_3(|| (), |()| by_definition()),
        );
    }
}

/// Best of three timed runs of `run`, each over a fresh `setup()`.
/// Neither the setup nor dropping the output is timed.
fn best_of_3<T, R>(mut setup: impl FnMut() -> T, mut run: impl FnMut(T) -> R) -> f64 {
    (0..3)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            let output = std::hint::black_box(run(input));
            let elapsed = start.elapsed();
            drop(output);
            ms(elapsed)
        })
        .fold(f64::INFINITY, f64::min)
}
