//! Ablation A: Algorithm `Schedule` (§5.3) vs a naive per-source topological
//! order. Reports the simulated response time of both plans (no merging), so
//! the benefit of criticality-driven ordering is isolated.

use aig_bench::{dataset, fig10_options, markdown_table, spec, table_json, write_bench_json, Json};
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::DatasetSize;
use aig_mediator::cost::{measured_costs, response_time, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::build_graph;
use aig_mediator::schedule::{naive_plan, schedule};
use aig_mediator::unfold::unfold;
use aig_relstore::Value;

fn main() {
    let aig = spec();
    let unfold_depth = 5;
    let mut rows = Vec::new();
    for size in DatasetSize::ALL {
        let data = dataset(size);
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
        let cg = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();
        let scheduled = response_time(
            &cg,
            &schedule(&cg, &options.policy.network),
            &options.policy.network,
        );
        let naive = response_time(&cg, &naive_plan(&cg), &options.policy.network);
        rows.push(vec![
            size.name().to_string(),
            format!("{naive:.2}"),
            format!("{scheduled:.2}"),
            format!("{:.3}", naive / scheduled),
        ]);
    }
    println!("Ablation A: list scheduling (Fig. 8) vs naive topological order");
    println!("(σ0, unfold {unfold_depth}, 1 Mbps, no merging)\n");
    let header = ["dataset", "naive (s)", "Schedule (s)", "naive / Schedule"];
    println!("{}", markdown_table(&header, &rows));
    write_bench_json(
        "ablation_schedule",
        &Json::obj(vec![
            ("unfold", Json::num(unfold_depth as f64)),
            ("rows", table_json(&header, &rows)),
        ]),
    );
}
