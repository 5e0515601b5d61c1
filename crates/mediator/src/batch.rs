//! The chunked-shipment seam: bounded columnar batch streams.
//!
//! The materializing seam ships each task's whole output relation in
//! one piece, so a shipment is resident in full while it crosses the wire.
//! Under [`crate::plan::ExecPolicy::batching`] the ship seam instead yields
//! fixed-size batches ([`BatchStream`]): the mediator puts batch `k` on the
//! wire while the consumer digests batch `k − 1`, so at most two batches of
//! a task are resident at once (the double-buffer window) and peak resident
//! rows are bounded by `O(batch_rows × active tasks)` instead of the
//! largest shipped relation. Stores and documents are byte-identical either
//! way — batching changes *when rows cross the seam*, never what arrives.
//!
//! [`ShipLedger`] does the accounting: resident rows under the window,
//! their global peak, and the total batch count, shared by every task of an
//! execution (including the task driver's per-source workers).

use crate::exec::ExecOptions;
use aig_relstore::Relation;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A bounded stream of fixed-size columnar batches — the source/executor
/// shipment seam. Every batch shares the schema of the stream's relation;
/// concatenating the batches in order reproduces it exactly (see the
/// `batch_props` property suite in `aig-relstore`).
pub trait BatchStream {
    /// The next batch, `None` once the stream is drained. Batches are
    /// non-empty and hold at most `batch_rows` rows.
    fn next_batch(&mut self) -> Option<Relation>;
    /// Batches left to yield (exact: relations know their length).
    fn batches_left(&self) -> usize;
}

/// [`BatchStream`] over a materialized relation — the only producer today;
/// the trait is the seam a cursor-backed source implementation would plug
/// into. Slices share the relation's column buffers (`Arc` clones) when the
/// whole relation fits one batch, so the materializing configuration pays
/// nothing for going through the seam.
#[derive(Debug)]
pub struct RelationStream {
    rel: Relation,
    batch_rows: usize,
    next: usize,
}

impl RelationStream {
    pub fn new(rel: Relation, batch_rows: usize) -> RelationStream {
        RelationStream {
            rel,
            batch_rows: batch_rows.max(1),
            next: 0,
        }
    }
}

impl BatchStream for RelationStream {
    fn next_batch(&mut self) -> Option<Relation> {
        if self.next >= self.rel.len() {
            return None;
        }
        let rows = self.batch_rows.min(self.rel.len() - self.next);
        let batch = self.rel.slice(self.next, rows);
        self.next += rows;
        Some(batch)
    }

    fn batches_left(&self) -> usize {
        (self.rel.len() - self.next).div_ceil(self.batch_rows)
    }
}

/// Shared shipment accounting for one execution. Thread-safe so the task
/// driver's per-source workers update it lock-free; the double-buffer
/// window is acquired/released per batch by [`ship_output`].
#[derive(Debug, Default)]
pub struct ShipLedger {
    resident_rows: AtomicUsize,
    peak_resident_rows: AtomicUsize,
    total_batches: AtomicU64,
}

impl ShipLedger {
    fn acquire(&self, rows: usize) {
        let now = self.resident_rows.fetch_add(rows, Ordering::SeqCst) + rows;
        self.peak_resident_rows.fetch_max(now, Ordering::SeqCst);
        self.total_batches.fetch_add(1, Ordering::Relaxed);
    }

    fn release(&self, rows: usize) {
        self.resident_rows.fetch_sub(rows, Ordering::SeqCst);
    }

    /// Highest number of shipment rows resident at any instant.
    pub fn peak_resident_rows(&self) -> usize {
        self.peak_resident_rows.load(Ordering::SeqCst)
    }

    /// Batches shipped across all tasks.
    pub fn total_batches(&self) -> u64 {
        self.total_batches.load(Ordering::Relaxed)
    }
}

/// What the shipment seam did during one execution; carried in
/// [`crate::exec::ExecResult`] and summarized into the run report's
/// `batching` section.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchLog {
    /// Whether chunked shipment was on.
    pub enabled: bool,
    /// The configured batch size (rows); meaningful only when enabled.
    pub batch_rows: usize,
    /// Batches shipped across all tasks (one per task output when off).
    pub total_batches: u64,
    /// Peak shipment rows resident at any instant: bounded by
    /// `2 × batch_rows × active tasks` when batching, by the largest
    /// shipped relation (times active tasks) when materializing.
    pub peak_resident_rows: u64,
}

impl BatchLog {
    pub(crate) fn from_ledger(opts: &ExecOptions, ledger: &ShipLedger) -> BatchLog {
        BatchLog {
            enabled: opts.batching(),
            batch_rows: opts.batch_rows(),
            total_batches: ledger.total_batches(),
            peak_resident_rows: ledger.peak_resident_rows() as u64,
        }
    }
}

/// Per-task outcome of the ship seam.
pub(crate) struct ShipOutcome {
    /// Wire bytes shipped: the ship image's dictionary-encoded size when
    /// materializing, the sum of per-batch wire sizes when batching (each
    /// batch ships the dictionary slice its rows touch).
    pub ship_bytes: f64,
    /// Batches the output crossed the seam in.
    pub batches: u64,
}

/// Ships one task's output through the seam, doing the resident-row
/// accounting against `ledger`. `on_batch(batches_so_far, bytes_so_far)`
/// fires after each batch lands — the task driver uses it to patch
/// partial shipment progress into the dynamic scheduler.
pub(crate) fn ship_output(
    opts: &ExecOptions,
    ledger: &ShipLedger,
    task_id: usize,
    rel: &Relation,
    mut on_batch: impl FnMut(u64, f64),
) -> ShipOutcome {
    if !opts.batching() {
        // Materializing: the whole ship image crosses the wire as one
        // batch and is resident in full while it does.
        ledger.acquire(rel.len());
        ledger.release(rel.len());
        let bytes = crate::exec::ship_image_bytes(opts, task_id, rel);
        on_batch(1, bytes);
        return ShipOutcome {
            ship_bytes: bytes,
            batches: 1,
        };
    }
    let image = match &opts.shipcut {
        Some(cut) => cut.ship_image(task_id, rel),
        None => rel.clone(),
    };
    let mut stream = RelationStream::new(image, opts.batch_rows());
    let mut shipped = 0.0;
    let mut batches = 0u64;
    let mut in_flight: Option<usize> = None;
    while let Some(batch) = stream.next_batch() {
        ledger.acquire(batch.len());
        shipped += batch.wire_bytes() as f64;
        batches += 1;
        // Double-buffer window: the consumer finishes batch k−1 while
        // batch k is on the wire, so k−1's rows release now.
        if let Some(rows) = in_flight.take() {
            ledger.release(rows);
        }
        in_flight = Some(batch.len());
        on_batch(batches, shipped);
    }
    if let Some(rows) = in_flight {
        ledger.release(rows);
    }
    ShipOutcome {
        ship_bytes: shipped,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig_relstore::Value;

    fn rel(rows: usize) -> Relation {
        let mut r = Relation::empty(vec!["a".to_string()]);
        for i in 0..rows {
            r.push(vec![Value::int(i as i64 % 5)]);
        }
        r
    }

    #[test]
    fn stream_partitions_and_counts() {
        let r = rel(10);
        let mut s = RelationStream::new(r.clone(), 4);
        assert_eq!(s.batches_left(), 3);
        let mut total = 0;
        while let Some(b) = s.next_batch() {
            assert!(b.len() <= 4 && !b.is_empty());
            total += b.len();
        }
        assert_eq!(total, 10);
        assert_eq!(s.batches_left(), 0);
    }

    #[test]
    fn batched_ledger_peak_is_the_double_buffer_window() {
        let opts = ExecOptions {
            policy: crate::plan::ExecPolicy {
                batching: true,
                batch_rows: 4,
                ..crate::plan::ExecPolicy::default()
            },
            ..ExecOptions::default()
        };
        let ledger = ShipLedger::default();
        let out = ship_output(&opts, &ledger, 0, &rel(10), |_, _| {});
        assert_eq!(out.batches, 3);
        // Two batches resident at once, never the whole relation.
        assert_eq!(ledger.peak_resident_rows(), 8);
        assert_eq!(ledger.total_batches(), 3);
    }

    #[test]
    fn materializing_ledger_holds_the_whole_relation() {
        let opts = ExecOptions::default();
        let ledger = ShipLedger::default();
        let out = ship_output(&opts, &ledger, 0, &rel(10), |_, _| {});
        assert_eq!(out.batches, 1);
        assert_eq!(ledger.peak_resident_rows(), 10);
        assert_eq!(out.ship_bytes, rel(10).wire_bytes() as f64);
    }
}
