//! Perf-regression gate for the committed bench artifacts.
//!
//! Usage: `check_perf_regression <baseline_dir> <current_dir>`
//!
//! Compares freshly regenerated `BENCH_fig10.json`,
//! `BENCH_ablation_dynamic_live.json`, `BENCH_ablation_plan_cache.json`,
//! `BENCH_shipcut.json`, `BENCH_columnar.json`, `BENCH_integrity.json`,
//! `BENCH_server.json` and `BENCH_deltas.json`
//! against the committed baselines. The
//! simulated quantities (merging ratios, predicted speedups) are
//! deterministic and get a tight relative band; wall-clock quantities
//! (phase timers, live speedups) vary with the machine, so they only fail
//! on large factors — the gate catches an accidental quadratic blowup, not
//! a noisy CI runner.

use aig_mediator::json::parse;
use aig_mediator::Json;
use std::process::ExitCode;

/// Relative tolerance for deterministic simulated quantities.
const SIM_TOLERANCE: f64 = 0.25;
/// Relative tolerance for live (wall-clock-derived) speedups.
const LIVE_TOLERANCE: f64 = 0.30;
/// A phase may regress by this factor plus the absolute floor before it
/// fails (timers well under the floor are pure noise).
const PHASE_FACTOR: f64 = 3.0;
const PHASE_FLOOR_SECS: f64 = 0.05;

struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            failures: Vec::new(),
            checks: 0,
        }
    }

    fn within(&mut self, what: &str, baseline: f64, current: f64, tolerance: f64) {
        self.checks += 1;
        if baseline == 0.0 {
            if current.abs() > 1e-9 {
                self.failures
                    .push(format!("{what}: baseline 0, current {current}"));
            }
            return;
        }
        let drift = (current / baseline - 1.0).abs();
        if drift > tolerance {
            self.failures.push(format!(
                "{what}: {baseline:.4} -> {current:.4} ({:+.1}% > ±{:.0}%)",
                (current / baseline - 1.0) * 100.0,
                tolerance * 100.0
            ));
        }
    }

    fn bounded(&mut self, what: &str, baseline: f64, current: f64) {
        self.checks += 1;
        let bound = baseline * PHASE_FACTOR + PHASE_FLOOR_SECS;
        if current > bound {
            self.failures.push(format!(
                "{what}: {current:.4}s exceeds {bound:.4}s ({baseline:.4}s baseline x{PHASE_FACTOR} + {PHASE_FLOOR_SECS}s)"
            ));
        }
    }

    fn require(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failures.push(what.to_string());
        }
    }
}

fn load(dir: &str, name: &str) -> Json {
    let path = format!("{dir}/{name}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn num(json: &Json, key: &str) -> f64 {
    json.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key}"))
}

fn check_fig10(gate: &mut Gate, baseline: &Json, current: &Json) {
    // Merging ratios are simulated, hence deterministic up to measured
    // byte sizes: match the cells by (dataset, unfold).
    let base_cells = baseline.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let cur_cells = current.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    gate.require(
        "fig10: cell count changed",
        base_cells.len() == cur_cells.len(),
    );
    for base in base_cells {
        let dataset = base.get("dataset").and_then(Json::as_str).unwrap_or("?");
        let unfold = num(base, "unfold");
        let Some(cur) = cur_cells.iter().find(|c| {
            c.get("dataset").and_then(Json::as_str) == Some(dataset)
                && c.get("unfold").and_then(Json::as_f64) == Some(unfold)
        }) else {
            gate.require(&format!("fig10 cell {dataset}/{unfold}: missing"), false);
            continue;
        };
        gate.within(
            &format!("fig10 {dataset}/unfold {unfold} merging ratio"),
            num(base, "ratio"),
            num(cur, "ratio"),
            SIM_TOLERANCE,
        );
    }
    // Phase timers are wall-clock: only large factors fail.
    let phases = |j: &Json| -> Vec<(String, f64)> {
        j.get("report")
            .and_then(|r| r.get("phases"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|p| {
                (
                    p.get("name")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    num(p, "secs"),
                )
            })
            .collect()
    };
    let cur_phases = phases(current);
    for (name, base_secs) in phases(baseline) {
        if let Some((_, cur_secs)) = cur_phases.iter().find(|(n, _)| *n == name) {
            gate.bounded(&format!("fig10 phase {name}"), base_secs, *cur_secs);
        }
    }
}

fn check_dynamic_live(gate: &mut Gate, baseline: &Json, current: &Json) {
    gate.within(
        "dynamic_live predicted speedup",
        num(baseline, "predicted_speedup"),
        num(current, "predicted_speedup"),
        SIM_TOLERANCE,
    );
    gate.within(
        "dynamic_live live speedup",
        num(baseline, "live_speedup"),
        num(current, "live_speedup"),
        LIVE_TOLERANCE,
    );
    gate.require(
        "dynamic_live: live run disagrees with the simulator beyond ±20%",
        current
            .get("within_tolerance")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "dynamic_live: live dynamic no longer beats static",
        num(current, "live_speedup") > 1.05,
    );
}

fn check_plan_cache(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The amortized ratio is wall-clock-derived but its headline claim —
    // warm requests cost less than half a cold pipeline — must hold on any
    // machine, so it is a hard requirement, not a drift band.
    gate.require(
        "plan_cache: warm requests no longer cost < 0.5x a cold pipeline",
        num(current, "amortized_ratio") < 0.5,
    );
    gate.within(
        "plan_cache amortized ratio",
        num(baseline, "amortized_ratio"),
        num(current, "amortized_ratio"),
        LIVE_TOLERANCE,
    );
    gate.require(
        "plan_cache: warm requests stopped hitting the cache in one round",
        num(current, "warm_unfold_rounds") == 1.0 && num(current, "cache_misses") <= 3.0,
    );
    gate.bounded(
        "plan_cache warm per-request",
        num(baseline, "warm_per_request_secs"),
        num(current, "warm_per_request_secs"),
    );
}

fn check_shipcut(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The two headline claims hold on any machine: pruning strictly reduces
    // the shipped bytes and never changes the document.
    gate.require(
        "shipcut: shipped bytes no longer strictly reduced",
        num(current, "saved_bytes") > 0.0
            && num(current, "shipped_cut_bytes") < num(current, "shipped_full_bytes"),
    );
    gate.require(
        "shipcut: documents are no longer byte-identical across pruning",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "shipcut: pruned response time exceeds the unpruned one",
        num(current, "response_on_secs") <= num(current, "response_off_secs"),
    );
    // Byte counts and simulated responses are deterministic up to measured
    // eval times: a tight drift band against the committed baseline.
    gate.within(
        "shipcut shipped bytes (pruned)",
        num(baseline, "shipped_cut_bytes"),
        num(current, "shipped_cut_bytes"),
        SIM_TOLERANCE,
    );
    gate.within(
        "shipcut response with pruning",
        num(baseline, "response_on_secs"),
        num(current, "response_on_secs"),
        SIM_TOLERANCE,
    );
    // Wall clocks only fail on large factors.
    gate.bounded(
        "shipcut cold wall (pruned)",
        num(baseline, "cold_on_wall_secs"),
        num(current, "cold_on_wall_secs"),
    );
    gate.bounded(
        "shipcut warm per-request",
        num(baseline, "warm_per_request_secs"),
        num(current, "warm_per_request_secs"),
    );
}

fn check_columnar(gate: &mut Gate, baseline: &Json, current: &Json, fig10_current: &Json) {
    // Hard, machine-independent claims of the columnar storage: the
    // dictionary-encoded wire representation is strictly smaller than the
    // raw row-major bytes of the same shipments, and the interned kernels
    // beat their row-major emulations.
    gate.require(
        "columnar: wire size no longer strictly below the row-major bytes",
        num(current, "wire_bytes") < num(current, "row_major_bytes"),
    );
    gate.require(
        "columnar: DISTINCT no longer beats the row-major emulation",
        num(current, "distinct_speedup") > 1.0,
    );
    gate.require(
        "columnar: projection no longer beats the row-major emulation",
        num(current, "project_speedup") > 1.0,
    );
    // Tie the run to the committed Fig. 10 workload: the same (dataset,
    // unfold) cell must exist and the columnar response must not regress
    // past it beyond the simulated-drift band.
    let dataset = current.get("dataset").and_then(Json::as_str).unwrap_or("?");
    let unfold = num(current, "unfold");
    let cell = fig10_current
        .get("cells")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|c| {
            c.get("dataset").and_then(Json::as_str) == Some(dataset)
                && c.get("unfold").and_then(Json::as_f64) == Some(unfold)
        })
        .cloned();
    match cell {
        Some(cell) => gate.require(
            "columnar: response regressed past the Fig. 10 cell",
            num(current, "response_merged_secs")
                <= num(&cell, "response_merged_secs") * (1.0 + SIM_TOLERANCE),
        ),
        None => gate.require(
            &format!("columnar: no Fig. 10 cell for {dataset}/unfold {unfold}"),
            false,
        ),
    }
    // Byte counts are deterministic; walls only fail on large factors.
    gate.within(
        "columnar wire bytes",
        num(baseline, "wire_bytes"),
        num(current, "wire_bytes"),
        SIM_TOLERANCE,
    );
    gate.within(
        "columnar response merged",
        num(baseline, "response_merged_secs"),
        num(current, "response_merged_secs"),
        SIM_TOLERANCE,
    );
    gate.bounded(
        "columnar cold wall",
        num(baseline, "cold_wall_secs"),
        num(current, "cold_wall_secs"),
    );
    gate.bounded(
        "columnar DISTINCT kernel",
        num(baseline, "columnar_distinct_secs"),
        num(current, "columnar_distinct_secs"),
    );
}

fn check_integrity(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The headline claims are machine-independent hard requirements: the
    // sweep injects corruption, none of it goes undetected, every defended
    // document is byte-identical to the clean run — and the defense-off
    // control proves the schedule really does publish wrong answers when
    // nobody checks (otherwise the sweep is vacuous).
    gate.require(
        "integrity: the sweep no longer injects corruption",
        num(current, "injected_total") > 0.0,
    );
    gate.require(
        "integrity: corruption slipped past the defense",
        num(current, "undetected_with_defense") == 0.0
            && num(current, "masked_total") == num(current, "injected_total"),
    );
    gate.require(
        "integrity: defended documents are no longer byte-identical",
        current
            .get("docs_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "integrity: the defense-off control no longer publishes a wrong answer",
        num(current, "defense_off_undetected") > 0.0
            && !current
                .get("defense_off_doc_identical")
                .and_then(Json::as_bool)
                .unwrap_or(true),
    );
    // The injection schedule is a pure function of (seed, catalog): the
    // totals track the committed baseline tightly.
    gate.within(
        "integrity injected corruptions",
        num(baseline, "injected_total"),
        num(current, "injected_total"),
        SIM_TOLERANCE,
    );
    // Wall clocks only fail on large factors.
    gate.bounded(
        "integrity checked clean wall",
        num(baseline, "checked_wall_secs"),
        num(current, "checked_wall_secs"),
    );
}

fn check_server(gate: &mut Gate, baseline: &Json, current: &Json) {
    // The server ledger is machine-independent by construction — arrivals,
    // service times, fault stalls, and probe jitter all run on the logical
    // clock — so the structural claims are hard requirements on any host.
    gate.require(
        "server: ledger identities no longer balance",
        current
            .get("balanced")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    gate.require(
        "server: requests were silently dropped (offered != terminated)",
        num(current, "silent_drops") == 0.0,
    );
    gate.require(
        "server: admission control stopped rejecting under overload",
        num(current, "rejected") > 0.0,
    );
    gate.require(
        "server: no deadline was ever exceeded (budget plumbing is dead)",
        num(current, "deadline_exceeded") > 0.0,
    );
    gate.require(
        "server: the breaker lifecycle went quiet (no trip/probe/close)",
        num(current, "breaker_trips") > 0.0
            && num(current, "breaker_probes") > 0.0
            && num(current, "breaker_closes") > 0.0,
    );
    gate.require(
        "server: nothing was served degraded through the outage storms",
        num(current, "degraded") > 0.0,
    );
    gate.require(
        "server: nothing completed cleanly",
        num(current, "completed") > 0.0,
    );
    // Ledger counts and latency percentiles are deterministic simulated
    // quantities: tight drift bands against the committed baseline.
    for key in [
        "admitted",
        "rejected",
        "completed",
        "deadline_exceeded",
        "degraded",
        "failed",
        "p50_secs",
        "p99_secs",
    ] {
        gate.within(
            &format!("server {key}"),
            num(baseline, key),
            num(current, key),
            SIM_TOLERANCE,
        );
    }
}

fn check_deltas(gate: &mut Gate, baseline: &Json, current: &Json) {
    let cell = |json: &Json, scope: &str| -> Json {
        json.get(scope)
            .cloned()
            .unwrap_or_else(|| panic!("missing delta scope {scope}"))
    };
    // Machine-independent hard claims of incremental re-evaluation: the
    // incremental document is byte-identical to a cold full run over the
    // post-delta catalog in every scope, an empty delta re-runs nothing,
    // single-/few-table deltas re-run strictly less than the whole graph,
    // and the re-run count is monotone across the nested widening scopes.
    gate.require(
        "deltas: incremental documents are no longer byte-identical to cold runs",
        current
            .get("identical")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    );
    let none = cell(current, "none");
    let price = cell(current, "price");
    let price_cover = cell(current, "price_cover");
    let all = cell(current, "price_cover_visits");
    gate.require(
        "deltas: an empty delta re-ran tasks",
        num(&none, "tasks_rerun") == 0.0,
    );
    gate.require(
        "deltas: a price delta no longer re-runs a small subgraph (< 1/3 of tasks)",
        num(&price, "tasks_rerun") * 3.0 < num(&price, "tasks_total"),
    );
    gate.require(
        "deltas: a table delta re-ran the whole graph",
        num(&all, "tasks_rerun") < num(&all, "tasks_total"),
    );
    gate.require(
        "deltas: re-run counts are not monotone across widening scopes",
        num(&none, "tasks_rerun") <= num(&price, "tasks_rerun")
            && num(&price, "tasks_rerun") <= num(&price_cover, "tasks_rerun")
            && num(&price_cover, "tasks_rerun") <= num(&all, "tasks_rerun"),
    );
    gate.require(
        "deltas: the price-delta retag no longer reuses most document nodes",
        num(&price, "nodes_reused") > num(&price, "nodes_rebuilt"),
    );
    // Re-run counts and splice sizes are pure functions of the seeded
    // dataset and the seeded deltas. Tight drift bands.
    for key in ["tasks_rerun", "rows_spliced", "nodes_reused"] {
        gate.within(
            &format!("deltas price {key}"),
            num(&cell(baseline, "price"), key),
            num(&price, key),
            SIM_TOLERANCE,
        );
    }
    // Wall clocks only fail on large factors.
    gate.bounded(
        "deltas incremental wall (price scope)",
        num(&cell(baseline, "price"), "wall_incr_secs"),
        num(&price, "wall_incr_secs"),
    );
    gate.bounded(
        "deltas full-run wall (price scope)",
        num(&cell(baseline, "price"), "wall_full_secs"),
        num(&price, "wall_full_secs"),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_dir, current_dir] = &args[..] else {
        eprintln!("usage: check_perf_regression <baseline_dir> <current_dir>");
        return ExitCode::from(2);
    };
    let mut gate = Gate::new();
    let fig10_current = load(current_dir, "BENCH_fig10.json");
    check_fig10(
        &mut gate,
        &load(baseline_dir, "BENCH_fig10.json"),
        &fig10_current,
    );
    check_dynamic_live(
        &mut gate,
        &load(baseline_dir, "BENCH_ablation_dynamic_live.json"),
        &load(current_dir, "BENCH_ablation_dynamic_live.json"),
    );
    check_plan_cache(
        &mut gate,
        &load(baseline_dir, "BENCH_ablation_plan_cache.json"),
        &load(current_dir, "BENCH_ablation_plan_cache.json"),
    );
    check_shipcut(
        &mut gate,
        &load(baseline_dir, "BENCH_shipcut.json"),
        &load(current_dir, "BENCH_shipcut.json"),
    );
    check_columnar(
        &mut gate,
        &load(baseline_dir, "BENCH_columnar.json"),
        &load(current_dir, "BENCH_columnar.json"),
        &fig10_current,
    );
    check_integrity(
        &mut gate,
        &load(baseline_dir, "BENCH_integrity.json"),
        &load(current_dir, "BENCH_integrity.json"),
    );
    check_server(
        &mut gate,
        &load(baseline_dir, "BENCH_server.json"),
        &load(current_dir, "BENCH_server.json"),
    );
    check_deltas(
        &mut gate,
        &load(baseline_dir, "BENCH_deltas.json"),
        &load(current_dir, "BENCH_deltas.json"),
    );
    if gate.failures.is_empty() {
        println!("perf regression gate: {} checks passed", gate.checks);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perf regression gate: {}/{} checks failed",
            gate.failures.len(),
            gate.checks
        );
        for f in &gate.failures {
            eprintln!("  FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
