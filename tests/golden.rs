//! Golden-file tests for the explain renderings and the redacted run report
//! on σ0 with the fixed mini hospital catalog. Regenerate the files under
//! `tests/golden/` with `UPDATE_GOLDEN=1 cargo test -q --test golden`.

use aig_core::paper::{mini_hospital_catalog, sigma0};
use aig_core::{compile_constraints, decompose_queries};
use aig_mediator::cost::{estimated_costs, CostGraph};
use aig_mediator::graph::{build_graph, GraphOptions};
use aig_mediator::schedule::schedule;
use aig_mediator::unfold::{unfold, CutOff};
use aig_mediator::{
    render_graph, render_plan, render_report, run_with_report, MediatorOptions, NetworkModel,
};
use aig_relstore::Value;
use std::fs;
use std::path::PathBuf;

fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "rendering drifted from {name}; if intentional, regenerate with \
         UPDATE_GOLDEN=1 cargo test --test golden"
    );
}

#[test]
fn graph_and_plan_renderings_are_stable() {
    let aig = sigma0().unwrap();
    let compiled = compile_constraints(&aig).unwrap();
    let (specialized, _) = decompose_queries(&compiled).unwrap();
    let unfolded = unfold(&specialized, 2, CutOff::Truncate).unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    let tasks = build_graph(&unfolded.aig, &catalog, &GraphOptions::default()).unwrap();
    let costs = estimated_costs(&tasks);
    let cg = CostGraph::from_task_graph(&tasks, &costs).contract_passthrough();
    let net = NetworkModel::mbps(1.0);

    check("graph.txt", &render_graph(&cg, &tasks, &catalog));
    check(
        "plan.txt",
        &render_plan(&cg, &schedule(&cg, &net), &net, &catalog),
    );
}

#[test]
fn run_report_rendering_and_json_are_stable() {
    let aig = sigma0().unwrap();
    let catalog = mini_hospital_catalog().unwrap();
    // Wall-clock-independent simulated costs; the remaining measured-time
    // fields are redacted so the report is byte-stable.
    let mut options = MediatorOptions::builder()
        .unfold_depth(2)
        .max_depth(2)
        .cutoff(CutOff::Truncate)
        .network(NetworkModel::mbps(1.0))
        .build()
        .unwrap();
    options.plan.graph.eval_scale = 0.0;
    options.plan.graph.cost_model.per_query_overhead_secs = 1.0;
    let (_, report) =
        run_with_report(&aig, &catalog, &[("date", Value::str("d1"))], &options).unwrap();
    let redacted = report.redacted();

    check("report.txt", &render_report(&redacted));
    let mut json = redacted.to_json().to_pretty();
    json.push('\n');
    check("report.json", &json);
}
