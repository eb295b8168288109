//! The Car dealerships workflow (paper §2.2, §5.2).
//!
//! Topology (unfolded — the dealers appear twice, sharing state):
//!
//! ```text
//! Mreq ─▶ Mand ─▶ Mdealer1..4 (bid) ─▶ Magg ─▶ Mxor ─▶ Mdealer1..4 (buy) ─▶ Mcar
//!                                        ▲
//!                                     Mchoice
//! ```
//!
//! Each dealer keeps `Cars`, `SoldCars` and `InventoryBids` state; the
//! bid is computed by the `CalcBid` black box from the number of
//! available cars, recent sales, and the dealer's own previous bids for
//! the model (re-requests are answered with the same or a lower bid,
//! per §1). The buyer is fixed per run with a desired model, reserve
//! price and acceptance probability (§5.2).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use lipstick_core::Tracker;
use lipstick_nrel::{Bag, DataType, Schema, Tuple, Value};
use lipstick_piglatin::udf::UdfRegistry;
use lipstick_workflow::{
    execute_once, ExecutionOutput, ModuleSpec, Result, Workflow, WorkflowBuilder, WorkflowInput,
    WorkflowState,
};
use rand::{rngs::StdRng, SeedableRng};

/// The twelve German car models of §5.2.
pub const MODELS: [&str; 12] = [
    "Golf", "Passat", "Polo", "Tiguan", "Jetta", "A3", "A4", "A6", "C-Class", "E-Class",
    "3-Series", "5-Series",
];

/// Number of dealerships (fixed topology, §5.2).
pub const NUM_DEALERS: usize = 4;

/// Benchmark parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DealersParams {
    /// Total cars across all dealerships (`numCars`).
    pub num_cars: usize,
    /// Maximum executions per run (`numExec`).
    pub num_exec: usize,
    /// RNG seed (buyer, inventory assignment, coin flips).
    pub seed: u64,
}

impl Default for DealersParams {
    fn default() -> Self {
        DealersParams {
            num_cars: 200,
            num_exec: 10,
            seed: 42,
        }
    }
}

/// Deterministic base price per model (the paper leaves pricing to the
/// opaque `CalcBid`; any stable function works).
pub fn base_price(model: &str) -> f64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    model.hash(&mut h);
    18_000.0 + (h.finish() % 28) as f64 * 1_000.0
}

fn requests_schema() -> Schema {
    Schema::named(&[
        ("UserId", DataType::Str),
        ("BidId", DataType::Str),
        ("Model", DataType::Str),
    ])
}

fn cars_schema() -> Schema {
    Schema::named(&[("CarId", DataType::Str), ("Model", DataType::Str)])
}

fn sold_schema() -> Schema {
    Schema::named(&[("CarId", DataType::Str), ("BidId", DataType::Str)])
}

fn inventory_bids_schema() -> Schema {
    Schema::named(&[
        ("BidId", DataType::Str),
        ("UserId", DataType::Str),
        ("Model", DataType::Str),
        ("Amount", DataType::Float),
    ])
}

fn bids_schema() -> Schema {
    Schema::named(&[
        ("Dealer", DataType::Str),
        ("BidId", DataType::Str),
        ("Model", DataType::Str),
        ("Price", DataType::Float),
    ])
}

fn choice_schema() -> Schema {
    Schema::named(&[
        ("Reserve", DataType::Float),
        ("Coin", DataType::Float),
        ("AcceptP", DataType::Float),
    ])
}

fn win_schema() -> Schema {
    Schema::named(&[
        ("Dealer", DataType::Str),
        ("BidId", DataType::Str),
        ("Model", DataType::Str),
    ])
}

fn sold_out_schema() -> Schema {
    Schema::named(&[
        ("Dealer", DataType::Str),
        ("CarId", DataType::Str),
        ("BidId", DataType::Str),
    ])
}

/// Register the `CalcBid` black box (§2.2): price from availability,
/// recent sales, and the dealer's previous bids for the model.
pub fn register_udfs(udfs: &mut UdfRegistry) {
    udfs.register("CalcBid", true, Some(inventory_bids_schema()), |args| {
        let requests = args[0].as_bag().map_err(|e| e.to_string())?;
        let avail = first_count(&args[1], 1)?;
        let sold = first_count(&args[2], 1)?;
        let prev_min = bag_min_amount(&args[3], 3)?;
        let mut out = Bag::empty();
        for req in requests.iter() {
            let user = req.get(0).map_err(|e| e.to_string())?.clone();
            let bid_id = req.get(1).map_err(|e| e.to_string())?.clone();
            let model_v = req.get(2).map_err(|e| e.to_string())?.clone();
            let model = model_v.to_text().into_owned();
            let base = base_price(&model);
            let mut amount = base - 500.0 * avail as f64 + 750.0 * sold as f64;
            if let Some(prev) = prev_min {
                // a re-request is answered with the same or a lower
                // amount (§1)
                amount = amount.min(prev - 250.0);
            }
            amount = amount.max(base * 0.5);
            out.push(Tuple::new(vec![
                bid_id,
                user,
                model_v,
                Value::Float(amount),
            ]));
        }
        Ok(Value::Bag(out))
    });
}

fn first_count(bag: &Value, field: usize) -> std::result::Result<i64, String> {
    let b = bag.as_bag().map_err(|e| e.to_string())?;
    match b.iter().next() {
        Some(t) => t
            .get(field)
            .map_err(|e| e.to_string())?
            .as_i64()
            .map_err(|e| e.to_string()),
        None => Ok(0),
    }
}

fn bag_min_amount(bag: &Value, field: usize) -> std::result::Result<Option<f64>, String> {
    let b = bag.as_bag().map_err(|e| e.to_string())?;
    let mut min = None;
    for t in b.iter() {
        let v = t
            .get(field)
            .map_err(|e| e.to_string())?
            .as_f64()
            .map_err(|e| e.to_string())?;
        min = Some(match min {
            None => v,
            Some(m) if v < m => v,
            Some(m) => m,
        });
    }
    Ok(min)
}

/// The dealer's bid-phase state query — the paper's §2.2 `Qstate`,
/// extended with previous-bid consultation and state persistence.
fn dealer_bid_qstate() -> String {
    r#"
    ReqModel = FOREACH Requests GENERATE Model;
    Inventory = JOIN Cars BY Model, ReqModel BY Model;
    SoldInventory = JOIN Inventory BY Cars::CarId, SoldCars BY CarId;
    CarsByModel = GROUP Inventory BY Cars::Model;
    SoldByModel = GROUP SoldInventory BY Inventory::Cars::Model;
    NumCarsByModel = FOREACH CarsByModel GENERATE group AS Model, COUNT(Inventory) AS NumAvail;
    NumSoldByModel = FOREACH SoldByModel GENERATE group AS Model, COUNT(SoldInventory) AS NumSold;
    PrevBids = FILTER InventoryBids BY Amount > 0.0;
    AllInfoByModel = COGROUP Requests BY Model, NumCarsByModel BY Model, NumSoldByModel BY Model, PrevBids BY Model;
    NewBids = FOREACH AllInfoByModel GENERATE FLATTEN(CalcBid(Requests, NumCarsByModel, NumSoldByModel, PrevBids));
    InventoryBids = UNION InventoryBids, NewBids;
    "#
    .to_string()
}

fn dealer_bid_spec(k: usize) -> Arc<ModuleSpec> {
    Arc::new(ModuleSpec {
        name: format!("Mdealer{k}"),
        input_schema: vec![("Requests".into(), requests_schema())],
        state_schema: vec![
            ("Cars".into(), cars_schema()),
            ("SoldCars".into(), sold_schema()),
            ("InventoryBids".into(), inventory_bids_schema()),
        ],
        output_schema: vec![(format!("Bids{k}"), bids_schema())],
        q_state: dealer_bid_qstate(),
        q_out: format!(
            "Bids{k} = FOREACH NewBids GENERATE 'dealer{k}' AS Dealer, BidId, Model, Amount AS Price;"
        ),
    })
}

fn dealer_buy_spec(k: usize) -> Arc<ModuleSpec> {
    Arc::new(ModuleSpec {
        name: format!("Mdealer{k}"),
        input_schema: vec![("Win".into(), win_schema())],
        state_schema: vec![
            ("Cars".into(), cars_schema()),
            ("SoldCars".into(), sold_schema()),
        ],
        output_schema: vec![(format!("Sold{k}"), sold_out_schema())],
        q_state: format!(
            r#"
            MyWin = FILTER Win BY Dealer == 'dealer{k}';
            Avail = JOIN Cars BY Model, MyWin BY Model;
            Pick0 = FOREACH Avail GENERATE Cars::CarId AS CarId, MyWin::BidId AS BidId;
            PickOrd = ORDER Pick0 BY CarId;
            Pick = LIMIT PickOrd 1;
            SoldCars = UNION SoldCars, Pick;
            "#
        ),
        q_out: format!("Sold{k} = FOREACH Pick GENERATE 'dealer{k}' AS Dealer, CarId, BidId;"),
    })
}

/// Build the car-dealership workflow and register its UDFs.
pub fn build(udfs: &mut UdfRegistry) -> Workflow {
    register_udfs(udfs);
    let mut b = WorkflowBuilder::new();

    let mreq = b.add_node(
        "Mreq",
        Arc::new(ModuleSpec {
            name: "Mreq".into(),
            input_schema: vec![("BidRequest".into(), requests_schema())],
            state_schema: vec![],
            output_schema: vec![("Requests0".into(), requests_schema())],
            q_state: String::new(),
            q_out: "Requests0 = FILTER BidRequest BY Model != '';".into(),
        }),
    );
    let mand = b.add_node(
        "Mand",
        Arc::new(ModuleSpec {
            name: "Mand".into(),
            input_schema: vec![("Requests0".into(), requests_schema())],
            state_schema: vec![],
            output_schema: vec![("Requests".into(), requests_schema())],
            q_state: String::new(),
            q_out: "Requests = FILTER Requests0 BY true;".into(),
        }),
    );
    b.add_edge(mreq, mand, &["Requests0"]);

    let mut bid_nodes = Vec::new();
    for k in 1..=NUM_DEALERS {
        let d = b.add_node(format!("Mdealer{k}.bid"), dealer_bid_spec(k));
        b.add_edge(mand, d, &["Requests"]);
        bid_nodes.push(d);
    }

    let magg = b.add_node(
        "Magg",
        Arc::new(ModuleSpec {
            name: "Magg".into(),
            input_schema: (1..=NUM_DEALERS)
                .map(|k| (format!("Bids{k}"), bids_schema()))
                .collect(),
            state_schema: vec![],
            output_schema: vec![
                ("Winner".into(), bids_schema()),
                ("Best".into(), Schema::named(&[("Price", DataType::Float)])),
            ],
            q_state: String::new(),
            q_out: r#"
                AllBids = UNION Bids1, Bids2, Bids3, Bids4;
                G = GROUP AllBids ALL;
                Best = FOREACH G GENERATE MIN(AllBids.Price) AS Price;
                Sorted = ORDER AllBids BY Price;
                Winner = LIMIT Sorted 1;
            "#
            .into(),
        }),
    );
    for (k, d) in bid_nodes.iter().enumerate() {
        let rel = format!("Bids{}", k + 1);
        b.add_edge(*d, magg, &[rel.as_str()]);
    }

    let mchoice = b.add_node(
        "Mchoice",
        Arc::new(ModuleSpec {
            name: "Mchoice".into(),
            input_schema: vec![("ChoiceIn".into(), choice_schema())],
            state_schema: vec![],
            output_schema: vec![("ChoiceOut".into(), choice_schema())],
            q_state: String::new(),
            q_out: "ChoiceOut = FILTER ChoiceIn BY true;".into(),
        }),
    );

    let mxor = b.add_node(
        "Mxor",
        Arc::new(ModuleSpec {
            name: "Mxor".into(),
            input_schema: vec![
                ("Winner".into(), bids_schema()),
                ("ChoiceOut".into(), choice_schema()),
            ],
            state_schema: vec![],
            output_schema: vec![("Win".into(), win_schema())],
            q_state: String::new(),
            q_out: r#"
                W = FOREACH Winner GENERATE 1 AS k, Dealer, BidId, Model, Price;
                C = FOREACH ChoiceOut GENERATE 1 AS j, Reserve, Coin, AcceptP;
                J = JOIN W BY k, C BY j;
                Acc = FILTER J BY Price <= Reserve AND Coin < AcceptP;
                Win = FOREACH Acc GENERATE Dealer, BidId, Model;
            "#
            .into(),
        }),
    );
    b.add_edge(magg, mxor, &["Winner"]);
    b.add_edge(mchoice, mxor, &["ChoiceOut"]);

    let mcar = b.add_node(
        "Mcar",
        Arc::new(ModuleSpec {
            name: "Mcar".into(),
            input_schema: (1..=NUM_DEALERS)
                .map(|k| (format!("Sold{k}"), sold_out_schema()))
                .collect(),
            state_schema: vec![],
            output_schema: vec![("Car".into(), sold_out_schema())],
            q_state: String::new(),
            q_out: "Car = UNION Sold1, Sold2, Sold3, Sold4;".into(),
        }),
    );
    for k in 1..=NUM_DEALERS {
        let buy = b.add_node(format!("Mdealer{k}.buy"), dealer_buy_spec(k));
        b.add_edge(mxor, buy, &["Win"]);
        let rel = format!("Sold{k}");
        b.add_edge(buy, mcar, &[rel.as_str()]);
    }

    b.build().expect("dealership workflow is statically valid")
}

/// Seed the dealers' `Cars` state: `num_cars` split evenly, each car a
/// random model, tokens `C{dealer}.{i}` (the paper's `C2`-style ids).
pub fn seed_state<T: Tracker>(
    wf: &Workflow,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    params: &DealersParams,
) -> Result<()> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let per_dealer = params.num_cars / NUM_DEALERS;
    for k in 1..=NUM_DEALERS {
        let cars: Vec<Tuple> = (0..per_dealer)
            .map(|i| {
                let model = *rng.pick(&MODELS);
                Tuple::new(vec![Value::str(format!("C{k}.{i}")), Value::str(model)])
            })
            .collect();
        state.seed(
            wf,
            &format!("Mdealer{k}"),
            "Cars",
            cars,
            tracker,
            move |i, _| format!("C{k}.{i}"),
        )?;
    }
    Ok(())
}

/// The buyer fixed for one run (§5.2).
#[derive(Debug, Clone)]
pub struct Buyer {
    pub user: String,
    pub model: String,
    pub reserve: f64,
    pub accept_p: f64,
}

impl Buyer {
    /// Draw a buyer from the run's RNG.
    pub fn draw(rng: &mut StdRng) -> Buyer {
        let model = rng.pick(&MODELS).to_string();
        let base = base_price(&model);
        Buyer {
            user: "P1".into(),
            reserve: base * rng.uniform(0.85..1.15),
            accept_p: rng.uniform(0.3..0.9),
            model,
        }
    }
}

/// What [`run`] and [`run_declining`] return: the workflow, final
/// state, and the run's outcome.
pub type DealersRun<R> = (Workflow, WorkflowState<R>, RunOutcome<R>);

/// Result of a full run (a sequence of executions).
#[derive(Debug)]
pub struct RunOutcome<R: Copy> {
    /// Number of executions performed.
    pub executions: usize,
    /// The purchased car `(Dealer, CarId, BidId)`, if the run ended in
    /// a sale.
    pub purchased: Option<Tuple>,
    /// Per-execution outputs.
    pub outputs: Vec<ExecutionOutput<R>>,
}

/// Execute a run whose buyer always declines (reserve 0), so exactly
/// `num_exec` executions happen — the protocol of the paper's timing
/// experiments ("10 bids per dealership" means 10 full executions).
pub fn run_declining<T: Tracker>(
    params: &DealersParams,
    tracker: &mut T,
) -> Result<DealersRun<T::Ref>> {
    let mut udfs = UdfRegistry::new();
    let wf = build(&mut udfs);
    let mut state = WorkflowState::empty(&wf);
    seed_state(&wf, &mut state, tracker, params)?;
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let mut buyer = Buyer::draw(&mut rng);
    buyer.reserve = 0.0; // no bid is ever accepted
    let mut outputs = Vec::with_capacity(params.num_exec);
    for e in 0..params.num_exec {
        let input = execution_input(&buyer, e as u32, 0.99);
        outputs.push(execute_once(
            &wf, &input, &mut state, tracker, &udfs, e as u32,
        )?);
    }
    let executions = outputs.len();
    Ok((
        wf,
        state,
        RunOutcome {
            executions,
            purchased: None,
            outputs,
        },
    ))
}

/// Execute a full run: consecutive executions with a fixed buyer until
/// purchase or `num_exec`.
pub fn run<T: Tracker>(params: &DealersParams, tracker: &mut T) -> Result<DealersRun<T::Ref>> {
    let mut udfs = UdfRegistry::new();
    let wf = build(&mut udfs);
    let mut state = WorkflowState::empty(&wf);
    seed_state(&wf, &mut state, tracker, params)?;
    let outcome = run_with(&wf, &udfs, &mut state, tracker, params)?;
    Ok((wf, state, outcome))
}

/// Execute a run against pre-built workflow/state (lets callers reuse
/// the workflow across runs, as the benchmark driver does).
pub fn run_with<T: Tracker>(
    wf: &Workflow,
    udfs: &UdfRegistry,
    state: &mut WorkflowState<T::Ref>,
    tracker: &mut T,
    params: &DealersParams,
) -> Result<RunOutcome<T::Ref>> {
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let buyer = Buyer::draw(&mut rng);
    let mut outputs = Vec::new();
    let mut purchased = None;
    let mut executions = 0;
    for e in 0..params.num_exec {
        let input = execution_input(&buyer, e as u32, rng.unit());
        let out = execute_once(wf, &input, state, tracker, udfs, e as u32)?;
        executions += 1;
        let car = out.relation("Mcar", "Car").expect("Mcar always outputs");
        if let Some(row) = car.rows.first() {
            purchased = Some(row.tuple.clone());
            outputs.push(out);
            break;
        }
        outputs.push(out);
    }
    Ok(RunOutcome {
        executions,
        purchased,
        outputs,
    })
}

/// The workflow input of one execution: the bid request and the buyer's
/// choice parameters (reserve, a coin flip, acceptance probability).
pub fn execution_input(buyer: &Buyer, execution: u32, coin: f64) -> WorkflowInput {
    WorkflowInput::new()
        .provide(
            "Mreq",
            "BidRequest",
            vec![Tuple::new(vec![
                Value::str(&buyer.user),
                Value::str(format!("B{execution}")),
                Value::str(&buyer.model),
            ])],
        )
        .provide(
            "Mchoice",
            "ChoiceIn",
            vec![Tuple::new(vec![
                Value::Float(buyer.reserve),
                Value::Float(coin),
                Value::Float(buyer.accept_p),
            ])],
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lipstick_core::graph::{GraphTracker, NoTracker};
    use lipstick_core::query::subgraph::ancestors;
    use lipstick_core::NodeKind;

    #[test]
    fn workflow_builds_and_validates() {
        let mut udfs = UdfRegistry::new();
        let wf = build(&mut udfs);
        // Mreq + Mchoice + Mand + 4 bid + Magg + Mxor + 4 buy + Mcar = 14
        assert_eq!(wf.len(), 14);
        assert_eq!(wf.input_nodes().len(), 2);
        assert_eq!(wf.output_nodes().len(), 1);
    }

    #[test]
    fn run_produces_bids_every_execution() {
        let params = DealersParams {
            num_cars: 48,
            num_exec: 4,
            seed: 7,
        };
        let mut tracker = NoTracker;
        let (_, _, outcome) = run(&params, &mut tracker).unwrap();
        assert!(outcome.executions >= 1);
        assert_eq!(outcome.outputs.len(), outcome.executions);
    }

    #[test]
    fn a_patient_buyer_eventually_purchases() {
        // With many executions, declining bids fall until they pass the
        // reserve, so some seed in a small range must produce a sale.
        let mut any_sale = false;
        for seed in 0..6 {
            let params = DealersParams {
                num_cars: 48,
                num_exec: 30,
                seed,
            };
            let mut tracker = NoTracker;
            let (wf, state, outcome) = run(&params, &mut tracker).unwrap();
            if let Some(car) = &outcome.purchased {
                any_sale = true;
                assert_eq!(car.arity(), 3);
                // the sale was recorded in some dealer's SoldCars state
                let sold_somewhere = (1..=NUM_DEALERS).any(|k| {
                    state
                        .relation(&wf, &format!("Mdealer{k}"), "SoldCars")
                        .is_some_and(|r| !r.is_empty())
                });
                assert!(sold_somewhere);
                break;
            }
        }
        assert!(any_sale, "no seed in 0..6 produced a sale");
    }

    #[test]
    fn rerequest_bids_do_not_increase() {
        let params = DealersParams {
            num_cars: 48,
            num_exec: 5,
            seed: 3,
        };
        let mut tracker = NoTracker;
        let mut udfs = UdfRegistry::new();
        let wf = build(&mut udfs);
        let mut state = WorkflowState::empty(&wf);
        seed_state(&wf, &mut state, &mut tracker, &params).unwrap();
        let buyer = Buyer {
            user: "P1".into(),
            model: "Golf".into(),
            reserve: 0.0, // never accepts → forces re-requests
            accept_p: 1.0,
        };
        let mut last_best: Option<f64> = None;
        for e in 0..params.num_exec {
            let input = execution_input(&buyer, e as u32, 0.99);
            let out = execute_once(&wf, &input, &mut state, &mut tracker, &udfs, e as u32).unwrap();
            let best = out.relation("Magg", "Best");
            // Magg is not an output node; read Winner via Mcar path
            // instead: use the winner staged nowhere — so check dealer
            // state: last InventoryBids amount per execution.
            let _ = best;
            let bids = state.relation(&wf, "Mdealer1", "InventoryBids").unwrap();
            let latest = bids
                .rows
                .iter()
                .map(|r| r.tuple.get(3).unwrap().as_f64().unwrap())
                .fold(f64::INFINITY, f64::min);
            if let Some(prev) = last_best {
                assert!(
                    latest <= prev,
                    "re-request bid increased: {latest} > {prev}"
                );
            }
            last_best = Some(latest);
        }
    }

    #[test]
    fn provenance_run_matches_plain_run() {
        let params = DealersParams {
            num_cars: 24,
            num_exec: 3,
            seed: 11,
        };
        let mut t1 = NoTracker;
        let (_, _, o1) = run(&params, &mut t1).unwrap();
        let mut t2 = GraphTracker::new();
        let (_, _, o2) = run(&params, &mut t2).unwrap();
        assert_eq!(o1.executions, o2.executions);
        assert_eq!(o1.purchased, o2.purchased);
    }

    #[test]
    fn fine_grained_dependencies_are_sparse() {
        // §5.5: an output depends on a small fraction of state tuples,
        // not on all of them.
        let params = DealersParams {
            num_cars: 120,
            num_exec: 2,
            seed: 5,
        };
        let mut tracker = GraphTracker::new();
        let (_, _, _outcome) = run(&params, &mut tracker).unwrap();
        let g = tracker.finish();
        // Count the base-tuple ancestors of the last module output in
        // the graph (a late-stage tuple, after aggregation).
        let some_output = g
            .iter_visible()
            .filter(|(_, n)| matches!(n.kind, NodeKind::ModuleOutput))
            .map(|(id, _)| id)
            .last()
            .unwrap();
        let anc = ancestors(&g, some_output).unwrap();
        let base_deps = anc
            .iter()
            .filter(|id| matches!(g.node(**id).kind, NodeKind::BaseTuple { .. }))
            .count();
        let total_base = g
            .iter_visible()
            .filter(|(_, n)| matches!(n.kind, NodeKind::BaseTuple { .. }))
            .count();
        assert!(
            base_deps < total_base / 2,
            "output depends on {base_deps}/{total_base} state tuples — not fine-grained"
        );
    }

    #[test]
    fn base_price_is_stable_and_bounded() {
        for m in MODELS {
            let p = base_price(m);
            assert_eq!(p, base_price(m));
            assert!((18_000.0..=45_000.0).contains(&p));
        }
    }
}
