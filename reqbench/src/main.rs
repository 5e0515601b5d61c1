//! Request-level benchmark of the AIG mediator.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload <deep_report|recursive_report|delta_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client drives the public `Mediator` service with σ0
//! over generated hospital data: one request at a time, the next sent when
//! the previous document is out. With `--trace 0` the last stdout line is
//! a JSON object with the end-to-end metrics; with `--trace 1` the same
//! loop runs, then a traced pass breaks requests into the pipeline's
//! layers and the line carries the per-layer metrics instead. Details (all
//! latencies, sample counts, spans) go to `.bench_out/`. See `NOTES.md`.

mod common;
mod deltamix;
mod layers;
mod reads;
mod trace;

use aig_datagen::DatasetSize;
use aig_mediator::{CutOff, Json, MediatorOptions};
use common::{median, quantile, SetupTime, Tally};
use layers::Profile;
use std::process::exit;
use trace::Recorder;

/// Times each run builds a fresh service and serves its first document;
/// `setup_s` is their median, calibrated by [`REFERENCE_KERNEL_SECS`].
pub const SETUP_REPEATS: usize = 3;

/// Seconds of one calibration-kernel run that `setup_s` is scaled to: each
/// set-up wall is divided by the kernel's wall around it and multiplied by
/// this constant (about the kernel's time on the machine the baseline in
/// `NOTES.md` was measured on), so `setup_s` reads in seconds at that speed.
const REFERENCE_KERNEL_SECS: f64 = 0.015;

/// The least share of a traced request's wall its layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// Parsed command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
pub struct Outcome {
    pub tally: Tally,
    pub setup: Vec<SetupTime>,
    /// Wall seconds of every timed read request.
    pub walls: Vec<f64>,
    /// Each read's wall divided by the mean of the calibration kernel's
    /// walls timed just before and just after it.
    pub norms: Vec<f64>,
    /// Wall seconds of the timed loop (reads, plus writes on `delta_mix`).
    pub busy: f64,
    pub rss_mb: f64,
    /// Write latencies (`delta_mix` only).
    pub writes: Vec<f64>,
    pub profile: Option<Profile>,
    pub recorder: Option<Recorder>,
}

impl Outcome {
    pub fn new(
        tally: Tally,
        setup: Vec<SetupTime>,
        walls: Vec<f64>,
        norms: Vec<f64>,
        busy: f64,
        rss_mb: f64,
    ) -> Outcome {
        Outcome {
            tally,
            setup,
            walls,
            norms,
            busy,
            rss_mb,
            writes: Vec::new(),
            profile: None,
            recorder: None,
        }
    }
}

fn options(unfold: usize, max_depth: usize, cutoff: CutOff, incremental: bool) -> MediatorOptions {
    MediatorOptions::builder()
        .unfold_depth(unfold)
        .max_depth(max_depth)
        .cutoff(cutoff)
        .check_guards(true)
        .validate_output(true)
        .check_integrity(true)
        .incremental(incremental)
        .build()
        .expect("valid options")
}

/// `deep_report`: Large dataset, truncated at unfold 7 (Fig. 10's
/// deepest cell).
fn deep_report() -> reads::ReadWorkload {
    reads::ReadWorkload {
        size: DatasetSize::Large,
        dates: 4,
        options: options(7, 7, CutOff::Truncate, false),
        oracle: reads::Oracle::Reference(include_str!("../reference/deep_report.digests")),
        traced: 3,
        must_promote: false,
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "reqbench: {msg}\nusage: reqbench --workload <deep_report|recursive_report|delta_mix> \
         --seed <n> --seconds <s> --trace <0|1>\n       reqbench --emit-reference"
    );
    exit(2)
}

fn parse_args() -> Run {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut emit_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--emit-reference" {
            emit_reference = true;
            continue;
        }
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if emit_reference {
        reads::emit_reference();
        exit(0);
    }
    Run {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))])
}

fn main() {
    let run = parse_args();
    let outcome = match run.workload.as_str() {
        "deep_report" => reads::run(&deep_report(), &run),
        "recursive_report" => reads::run(
            &reads::ReadWorkload {
                size: DatasetSize::Small,
                dates: 5,
                options: options(4, 64, CutOff::Frontier, false),
                oracle: reads::Oracle::Conceptual,
                traced: 5,
                must_promote: true,
            },
            &run,
        ),
        "delta_mix" => deltamix::run(&options(4, 4, CutOff::Truncate, true), &run),
        other => usage(&format!("unknown workload {other}")),
    };
    report(&run, outcome);
}

/// Writes the details file and prints the result line (last on stdout).
fn report(run: &Run, outcome: Outcome) {
    let Outcome {
        tally,
        setup,
        walls,
        norms,
        busy,
        rss_mb,
        writes,
        profile,
        recorder,
    } = outcome;
    if walls.is_empty() {
        eprintln!("reqbench: no request completed");
        exit(1);
    }
    let p50_ms = median(&walls) * 1e3;
    // A p90 needs ten samples beyond it.
    let p90_ms = (walls.len() >= 100).then(|| quantile(&walls, 0.9) * 1e3);
    let docs_per_s = walls.len() as f64 / busy;
    let setup_raw: Vec<f64> = setup.iter().map(|s| s.secs).collect();
    let setup_cal: Vec<f64> = setup.iter().map(|s| s.secs / s.kernel_secs).collect();
    // Raw walls swing with the host's load, so the end-to-end metrics are
    // the kernel-normalized latency, the kernel-calibrated set-up time and
    // memory; the raw walls go to stderr and the details file.
    let mut metrics = vec![
        (
            "setup_s",
            metric(median(&setup_cal) * REFERENCE_KERNEL_SECS, "s"),
        ),
        ("request_p50_norm", metric(median(&norms), "ratio")),
        ("peak_rss_mb", metric(rss_mb, "MiB")),
    ];
    let per_layer: Vec<(&str, f64, &str)> =
        profile.as_ref().map(|p| p.finish()).unwrap_or_default();
    if let Some((_, coverage, _)) = per_layer.iter().find(|m| m.0 == "trace.coverage") {
        if *coverage < MIN_COVERAGE {
            common::invalid(format!(
                "trace.coverage {coverage:.3} < {MIN_COVERAGE}: the spans do not explain the request"
            ));
        }
    }

    // Human-readable summary on stderr.
    eprintln!(
        "reqbench {} seed {}: {} reads in {:.2} s, {} attempted, {} failed",
        run.workload,
        run.seed,
        walls.len(),
        busy,
        tally.attempted,
        tally.failed
    );
    eprintln!(
        "  request p50 {p50_ms:.2} ms, p90 {p90_ms:?} ms, {docs_per_s:.3} docs/s, \
         set-up walls {setup_raw:?} s, peak rss {rss_mb:.1} MiB"
    );
    if !writes.is_empty() {
        eprintln!(
            "  write p50 {:.3} ms over {} writes",
            median(&writes) * 1e3,
            writes.len()
        );
    }
    for (name, value, unit) in &per_layer {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }

    // Details file: every sample, and the spans of a traced run.
    let dir = std::path::Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        run.workload,
        run.seed,
        u8::from(run.trace)
    );
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::num(*x)).collect());
    let mut details = vec![
        ("workload", Json::str(run.workload.clone())),
        ("seed", Json::num(run.seed as f64)),
        ("attempted", Json::num(tally.attempted as f64)),
        ("failed", Json::num(tally.failed as f64)),
        ("setup_secs", nums(&setup_raw)),
        ("request_secs", nums(&walls)),
        ("request_norm", nums(&norms)),
        ("write_secs", nums(&writes)),
        ("request_p50_ms", Json::num(p50_ms)),
        ("docs_per_s", Json::num(docs_per_s)),
    ];
    if let Some(p90) = p90_ms {
        details.push(("request_p90_ms", Json::num(p90)));
    }
    if !writes.is_empty() {
        details.push(("write_p50_ms", Json::num(median(&writes) * 1e3)));
    }
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            Json::obj(details).to_pretty() + "\n",
        )?;
        if let Some(rec) = &recorder {
            std::fs::write(
                dir.join(format!("{stem}.trace.json")),
                rec.to_chrome_json(&run.workload, run.seed).to_compact() + "\n",
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("reqbench: cannot write {}: {e}", dir.display());
    }

    if run.trace {
        metrics = per_layer
            .iter()
            .map(|&(name, value, unit)| (name, metric(value, unit)))
            .collect();
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::num(tally.attempted as f64)),
        ("failed", Json::num(tally.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.to_compact());
}
