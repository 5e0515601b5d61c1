//! Ablation E: dynamic vs static scheduling (the paper's future work,
//! §5.5/§7). The static plan is computed from *estimates*; the dynamic
//! scheduler re-prioritizes at runtime as actual costs become known. Both
//! pay the actual costs. Estimates are perturbed by a seeded multiplicative
//! noise factor to model mis-estimation.

use aig_bench::{dataset, fig10_options, markdown_table, spec, table_json, write_bench_json, Json};
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::DatasetSize;
use aig_mediator::cost::{measured_costs, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::build_graph;
use aig_mediator::schedule::{dynamic_response_time, static_response_on_actuals};
use aig_mediator::unfold::unfold;
use aig_prng::rngs::StdRng;
use aig_prng::{Rng, SeedableRng};
use aig_relstore::Value;

fn main() {
    let aig = spec();
    let data = dataset(DatasetSize::Medium);
    let unfold_depth = 5;
    let options = fig10_options(unfold_depth, 1.0);
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, unfold_depth, options.plan.cutoff).unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &options.plan.graph).unwrap();
    let exec = execute_graph(
        &unfolded.aig,
        &data.catalog,
        &graph,
        &[("date", Value::str(&data.dates[0]))],
        &ExecOptions::default(),
    )
    .unwrap();
    let costs = measured_costs(
        &graph,
        &exec.measured,
        options.plan.graph.cost_model.per_query_overhead_secs,
        options.plan.graph.eval_scale,
    );
    let actual = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();

    let mut rows = Vec::new();
    for noise in [1.0f64, 2.0, 5.0, 10.0] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut est = actual.clone();
        for node in est.nodes.iter_mut() {
            // Multiplicative noise in [1/noise, noise].
            let f = noise.powf(rng.gen_range(-1.0f64..1.0));
            node.eval_secs *= f;
        }
        let static_secs = static_response_on_actuals(&est, &actual, &options.policy.network);
        let dynamic_secs = dynamic_response_time(&est, &actual, &options.policy.network);
        rows.push(vec![
            format!("{noise}x"),
            format!("{static_secs:.2}"),
            format!("{dynamic_secs:.2}"),
            format!("{:.3}", static_secs / dynamic_secs),
        ]);
    }
    println!("Ablation E: static vs dynamic scheduling under estimate noise");
    println!("(σ0, Medium, unfold {unfold_depth}, 1 Mbps, no merging)\n");
    let header = [
        "estimate noise",
        "static (s)",
        "dynamic (s)",
        "static / dynamic",
    ];
    println!("{}", markdown_table(&header, &rows));
    write_bench_json(
        "ablation_dynamic",
        &Json::obj(vec![
            ("unfold", Json::num(unfold_depth as f64)),
            ("rows", table_json(&header, &rows)),
        ]),
    );
}
