//! Developer aid: dumps the contracted cost graph and merge decisions for
//! one Fig. 10 cell. Not part of the experiment suite.

use aig_bench::{dataset, fig10_options, spec};
use aig_core::compile_constraints;
use aig_core::decompose_queries;
use aig_datagen::DatasetSize;
use aig_mediator::cost::response_time;
use aig_mediator::cost::{measured_costs, CostGraph};
use aig_mediator::exec::{execute_graph, ExecOptions};
use aig_mediator::graph::build_graph;
use aig_mediator::merge::{merge_pair, no_merge};
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::unfold;
use aig_relstore::Value;

fn main() {
    let unfold_depth: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    let aig = spec();
    let data = dataset(DatasetSize::Large);
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
    eprint!("{}", aig_mediator::render_graph(&cg, &graph, &data.catalog));
    let base = no_merge(&cg, &options.policy.network);
    eprint!(
        "{}",
        aig_mediator::render_plan(&cg, &base.plan, &options.policy.network, &data.catalog)
    );
    eprintln!("unmerged response: {:.3}", base.response_secs);
    // Greedy trace.
    let mut current = cg.clone();
    let mut cost = base.response_secs;
    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for u in 0..current.len() {
            if !current.nodes[u].mergeable {
                continue;
            }
            for v in (u + 1)..current.len() {
                if !current.nodes[v].mergeable || current.nodes[u].source != current.nodes[v].source
                {
                    continue;
                }
                let cand = merge_pair(
                    &current,
                    u,
                    v,
                    options.plan.graph.cost_model.per_query_overhead_secs,
                );
                if cand.topo().is_none() {
                    continue;
                }
                let plan = schedule(&cand, &options.policy.network);
                let c = response_time(&cand, &plan, &options.policy.network);
                if c < cost && best.map(|(_, _, bc)| c < bc).unwrap_or(true) {
                    best = Some((u, v, c));
                }
            }
        }
        match best {
            Some((u, v, c)) => {
                eprintln!("merge #{u}+#{v} -> {:.3}", c);
                current = merge_pair(
                    &current,
                    u,
                    v,
                    options.plan.graph.cost_model.per_query_overhead_secs,
                );
                cost = c;
            }
            None => break,
        }
    }
    eprintln!("final response: {cost:.3}");
}
