//! Micro-benchmarks for the optimization phase: Algorithm `Schedule` (§5.3)
//! and Algorithm `Merge` (§5.4) on σ0's dependency graph (small dataset,
//! unfold 3) — the compile-time cost the paper bounds at O(n^5).

use aig_bench::microbench::{black_box, run};
use aig_bench::{dataset, fig10_options, spec};
use aig_core::{compile_constraints, decompose_queries};
use aig_datagen::DatasetSize;
use aig_mediator::cost::{measured_costs, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::build_graph;
use aig_mediator::merge::merge;
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::unfold;
use aig_relstore::Value;

fn main() {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let options = fig10_options(3, 1.0);
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 3, options.plan.cutoff).unwrap();
    let graph = build_graph(&unfolded.aig, &data.catalog, &options.plan.graph).unwrap();
    let exec = execute_graph(
        &unfolded.aig,
        &data.catalog,
        &graph,
        &[("date", Value::str(&data.dates[0]))],
        &ExecOptions::default(),
    )
    .unwrap();
    let costs = measured_costs(&graph, &exec.measured, 1.0, 10.0);
    let cg = CostGraph::from_task_graph(&graph, &costs).contract_passthrough();

    run("schedule_sigma0_small_u3", || {
        black_box(schedule(black_box(&cg), &options.policy.network))
    });
    run("merge_sigma0_small_u3", || {
        black_box(merge(black_box(&cg), &options.policy.network, 1.0))
    });
    run("graph_build_sigma0_small_u3", || {
        black_box(build_graph(&unfolded.aig, &data.catalog, &options.plan.graph).unwrap())
    });
}
