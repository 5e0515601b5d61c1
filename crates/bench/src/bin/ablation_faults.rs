//! Ablation F: resilience overhead vs transient-fault rate. The fault plan
//! is seeded, so every row replays the same injection schedule; the run is
//! accepted only if the recovered document matches the fault-free one, so
//! the sweep measures the *cost* of recovery, never silent corruption.

use aig_bench::{dataset, markdown_table, spec, table_json, write_bench_json, Json};
use aig_datagen::DatasetSize;
use aig_mediator::{run_with_report, FaultConfig, RetryPolicy};
use aig_relstore::Value;

const HEADER: [&str; 8] = [
    "transient rate",
    "injected",
    "retried",
    "timed out",
    "absorbed",
    "backoff (ms)",
    "exec wall (s)",
    "identical",
];

fn main() {
    let aig = spec();
    let data = dataset(DatasetSize::Small);
    let unfold = 6;
    let args = [("date", Value::str(&data.dates[0]))];
    let mut options = aig_bench::fig10_options(unfold, 1.0);
    // Measure real executor wall time, not the simulated 2003 calibration.
    options.plan.graph.eval_scale = 0.0;
    options.plan.graph.cost_model.per_query_overhead_secs = 1.0;
    options.policy.retry = RetryPolicy {
        max_attempts: 8,
        backoff_base_secs: 0.0002,
        backoff_cap_secs: 0.002,
        jitter: 0.5,
        timeout_secs: 0.05,
    };

    let (clean_run, _) =
        run_with_report(&aig, &data.catalog, &args, &options).expect("fault-free run");

    let mut rows = Vec::new();
    for rate in [0.0, 0.1, 0.2, 0.4, 0.6] {
        let mut faulted = options.clone();
        faulted.policy.faults = Some(FaultConfig {
            seed: 42,
            transient_rate: rate,
            latency_rate: rate / 2.0,
            // Spikes of 20-60 ms straddle the 50 ms timeout: short ones are
            // absorbed, long ones are cut off and retried.
            latency_secs: 0.04,
            ..FaultConfig::default()
        });
        let (run, report) =
            run_with_report(&aig, &data.catalog, &args, &faulted).expect("faulted run recovers");
        let r = &report.resilience;
        rows.push(vec![
            format!("{rate}"),
            r.injected.to_string(),
            r.retried.to_string(),
            r.timed_out.to_string(),
            r.absorbed_spikes.to_string(),
            format!("{:.2}", r.backoff_secs * 1e3),
            format!("{:.3}", report.exec_wall_secs),
            (run.tree == clean_run.tree).to_string(),
        ]);
    }
    println!("Ablation F: resilience overhead vs transient-fault rate (Small, unfold {unfold})\n");
    println!("{}", markdown_table(&HEADER, &rows));
    write_bench_json(
        "ablation_faults",
        &Json::obj(vec![
            ("unfold", Json::num(unfold as f64)),
            ("seed", Json::num(42.0)),
            ("rows", table_json(&HEADER, &rows)),
        ]),
    );
}
