//! Pieces every workload shares: the σ0 request with its checks, the
//! calibration kernel, order statistics, digests and peak memory.

use aig_core::spec::Aig;
use aig_mediator::{Mediator, MediatorError, MediatorRun, RunReport};
use aig_relstore::Value;
use aig_xml::XmlTree;
use std::hint::black_box;
use std::time::Instant;

/// One completed request: the document, its serialization and the report.
pub struct Served {
    pub run: MediatorRun,
    pub report: RunReport,
    pub text: String,
    /// Wall seconds of `Mediator::request` plus serialization.
    pub secs: f64,
    /// The serialization's share of `secs`.
    pub serialize_secs: f64,
}

/// A request as a user sees it: `Mediator::request` for one visit date,
/// then the document serialized to XML text. Only this is timed.
pub fn request(mediator: &Mediator, aig: &Aig, date: &str) -> Result<Served, MediatorError> {
    let start = Instant::now();
    let (run, report) = mediator.request(aig, &[("date", Value::str(date))])?;
    let serialize_start = Instant::now();
    let text = aig_xml::serialize::to_string(&run.tree);
    let end = Instant::now();
    Ok(Served {
        run,
        report,
        text,
        secs: (end - start).as_secs_f64(),
        serialize_secs: (end - serialize_start).as_secs_f64(),
    })
}

/// The guarantees every document must meet, checked outside the timed
/// region: it conforms to σ0's DTD and satisfies σ0's keys and inclusion
/// constraints (the whole-tree `ConstraintSet::check`).
pub fn check_document(aig: &Aig, tree: &XmlTree) -> Result<(), String> {
    aig_xml::validate(tree, &aig.dtd).map_err(|e| format!("DTD validation: {e}"))?;
    let violations = aig.constraints.check(tree);
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "{} constraint violation(s), first: {v:?}",
            violations.len()
        )),
    }
}

/// FNV-1a over the bytes of `text`, as 16 hex digits.
pub fn digest(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Digest of a document's canonical form (star children sorted), so two
/// evaluation strategies that order siblings differently still agree.
pub fn canonical_digest(aig: &Aig, tree: &XmlTree) -> String {
    digest(&aig_xml::serialize::to_string(&aig_mediator::canonical(
        aig, tree,
    )))
}

/// The in-run reference for wall-clock ratios: a fixed amount of work over
/// buffers allocated once, so its time tracks how fast the machine runs
/// right now and not the state of the heap. It has two parts: integer
/// mixing over a small buffer (core speed) and random read-modify-writes
/// over a table larger than most private caches (contention in the shared
/// cache and memory, which slows the mediator's hash-heavy work most).
/// Create it before anything else, so its buffers are resident for the
/// whole run and [`peak_rss_mb`] can leave them out exactly.
pub struct Kernel {
    mix: Vec<u64>,
    table: Vec<u64>,
}

/// Words of the mixing buffer (2 MiB).
const MIX_WORDS: usize = 1 << 18;
/// Passes over the mixing buffer per timing.
const MIX_PASSES: usize = 6;
/// Words of the random-access table (32 MiB; a power of two).
const TABLE_WORDS: usize = 1 << 22;
/// Random updates of the table per timing.
const TABLE_UPDATES: usize = 1 << 19;

/// Bytes the kernel keeps resident.
pub const KERNEL_BYTES: usize = (MIX_WORDS + TABLE_WORDS) * std::mem::size_of::<u64>();

impl Kernel {
    pub fn new() -> Kernel {
        Kernel {
            mix: (0..MIX_WORDS as u64).collect(),
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }

    /// Runs `f` between two runs of the kernel; returns its result and the
    /// mean of the two kernel walls.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.time();
        let out = f();
        (out, 0.5 * (before + self.time()))
    }

    /// Runs the kernel once and returns its wall seconds. Allocates nothing.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..MIX_PASSES {
            for word in self.mix.iter_mut() {
                let mut x = *word ^ acc;
                x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                x ^= x >> 31;
                *word = x;
                acc = acc.rotate_left(7).wrapping_add(x);
            }
        }
        let mut x = acc | 1;
        for _ in 0..TABLE_UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & (TABLE_WORDS - 1)];
            *slot = slot.wrapping_add(x);
        }
        black_box(x);
        start.elapsed().as_secs_f64()
    }
}

/// One timed set-up: its wall and the calibration kernel's wall around it.
pub struct SetupTime {
    pub secs: f64,
    pub kernel_secs: f64,
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of `values` at `q` in [0, 1]; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// High-water resident memory of this process so far, in MiB, less the
/// calibration kernel's buffers (resident for the whole run).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly laid out, writable `struct rusage` and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    (usage.maxrss as f64 * 1024.0 - KERNEL_BYTES as f64) / (1024.0 * 1024.0)
}

/// Tally of operations attempted and failed (an operation fails when it
/// errors or its output fails a check).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; logs and counts it as failed on `Err`.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("reqbench: FAILED {what}: {e}");
        }
    }
}

/// Aborts the run without a result: the workload did not measure what it
/// claims to (a validity guard or the traced-path fidelity check failed).
pub fn invalid(msg: impl std::fmt::Display) -> ! {
    eprintln!("reqbench: invalid run: {msg}");
    std::process::exit(3)
}
