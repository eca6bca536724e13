//! Morsel-driven parallel scan dispatch.
//!
//! [`MorselDispatcher`] partitions a scan's row range (by *scan position*,
//! so shuffled orders chunk identically) into fixed [`CHUNK_ROWS`]-sized
//! chunks and fans chunks out over the persistent [`crate::pool::ScanPool`].
//! Each chunk accumulates into its own `BatchAcc` partial — workers never
//! share an accumulator — and completed partials are folded into a base
//! accumulator **in chunk order**, whichever worker finishes first.
//!
//! # Determinism
//!
//! The chunk partition depends only on `CHUNK_ROWS` and absolute scan
//! position; the merge order depends only on chunk indices. Neither depends
//! on the worker count, scheduling, or how a budget slices the scan, so the
//! accumulated result — including every floating-point rounding — is
//! bit-identical for any `workers ≥ 1`. The retained scalar reference path
//! ([`crate::execute_exact_scalar`]) folds its row-at-a-time accumulation
//! over the same chunk grid, which is what lets differential tests pin
//! parallel == scalar *bit for bit*.
//!
//! # Memory
//!
//! Only in-flight partials are alive: completed chunks merge eagerly into
//! the base and their accumulators return to a pool, so a scan holds
//! O(workers) accumulators regardless of table size.
//!
//! # Worker lifetime
//!
//! Workers are *pooled*, not scoped: a qualifying `scan_span` publishes
//! helper claims on the process-wide persistent [`crate::pool::ScanPool`]
//! and runs the span body on the calling thread itself, so fanning out
//! costs a queue push + wake rather than a thread spawn/join round-trip
//! per worker per span. Pool workers that pick a claim up pull chunk
//! indices from the span's shared cursor until the supply is dry; claims
//! the pool never got to are revoked when the caller's own pass finishes.
//! Because the pool is shared and fixed-size (one worker per core), any
//! number of concurrent sessions' scans compose without oversubscription —
//! the FIFO claim queue arbitrates chunks across spans in arrival order —
//! and budget-stepped scans with many chunk-sized grants no longer pay a
//! spawn per grant.

use crate::aggregate::GroupedAcc;
use crate::batch::{BatchAcc, BoundPlan, Rows, MORSEL};
use crate::plan::CompiledPlan;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per dispatch chunk — the unit of parallel work distribution *and*
/// of deterministic partial merging. A multiple of [`MORSEL`], sized so the
/// per-chunk partial merge/reset (O(populated bins)) stays a small fraction
/// of per-chunk scan work even for dense 2D bin spaces near
/// [`crate::plan::DENSE_BIN_CAP`].
pub const CHUNK_ROWS: usize = 64 * MORSEL;

/// Worker count of this machine (`available_parallelism`, min 1) — the
/// default when the benchmark settings leave `workers = 0`.
pub fn available_workers() -> usize {
    idebench_core::settings::available_parallelism()
}

/// Chunk-partitioned accumulation state of one scan (see module docs).
pub struct MorselDispatcher {
    workers: usize,
    /// Chunks `0..merged` folded together, in chunk order.
    base: BatchAcc,
    /// The at-most-one chunk whose row range the scan has entered but not
    /// yet finished (budget slicing can pause mid-chunk).
    partial: Option<(usize, BatchAcc)>,
    /// Recycled accumulators (reset, ready for the next chunk).
    pool: Vec<BatchAcc>,
}

/// In-order merge state shared by the workers of one parallel span.
struct MergeState<'a> {
    base: &'a mut BatchAcc,
    /// Next chunk index the base is waiting for.
    next_merge: usize,
    /// Finished chunks that arrived ahead of `next_merge`.
    parked: Vec<(usize, BatchAcc)>,
}

impl MorselDispatcher {
    pub fn new(plan: &CompiledPlan) -> Self {
        MorselDispatcher {
            workers: 1,
            base: BatchAcc::for_plan(plan),
            partial: None,
            pool: Vec::new(),
        }
    }

    /// Sets the worker-pool size (clamped to ≥ 1).
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The accumulated state so far, materialized in chunk order.
    pub fn grouped(&self) -> GroupedAcc {
        let mut g = self.base.to_grouped();
        if let Some((_, p)) = &self.partial {
            g.merge(&p.to_grouped());
        }
        g
    }

    /// Processes scan positions `start..start + take` (`take ≥ 1`), fanning
    /// chunks out over the worker pool when there is enough work to split.
    /// Returns the number of rows that passed the filter.
    ///
    /// `num_rows` is the scan's total length: a final chunk cut short by the
    /// end of the data (rather than by budget) still counts as complete.
    pub fn scan_span(
        &mut self,
        plan: &CompiledPlan,
        order: Option<&[u32]>,
        start: usize,
        take: usize,
        num_rows: usize,
    ) -> u64 {
        debug_assert!(take >= 1 && start + take <= num_rows);
        let end = start + take;
        let scan_done = end >= num_rows;
        let first_chunk = start / CHUNK_ROWS;
        let last_chunk = (end - 1) / CHUNK_ROWS;
        debug_assert!(
            self.partial.as_ref().is_none_or(|(c, _)| *c == first_chunk),
            "a paused chunk is always the one the scan resumes into"
        );
        // Fan out only when the span carries at least a full chunk of work:
        // a tiny budget span that merely straddles a chunk boundary is not
        // worth even a pool round-trip. The sequential path uses the same
        // chunk grid, so the choice never affects results.
        if self.workers == 1 || first_chunk == last_chunk || take < CHUNK_ROWS {
            self.scan_sequential(plan, order, start, end, scan_done, first_chunk, last_chunk)
        } else {
            self.scan_parallel(plan, order, start, end, scan_done, first_chunk, last_chunk)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_sequential(
        &mut self,
        plan: &CompiledPlan,
        order: Option<&[u32]>,
        start: usize,
        end: usize,
        scan_done: bool,
        first_chunk: usize,
        last_chunk: usize,
    ) -> u64 {
        let bound = plan.bind();
        let mut matched = 0u64;
        for chunk in first_chunk..=last_chunk {
            let lo = (chunk * CHUNK_ROWS).max(start);
            let hi = ((chunk + 1) * CHUNK_ROWS).min(end);
            let mut acc = self.acquire(plan, chunk);
            matched += process_span(&bound, order, &mut acc, lo, hi) as u64;
            if hi == (chunk + 1) * CHUNK_ROWS || scan_done {
                self.base.merge_from(&acc);
                acc.reset();
                self.pool.push(acc);
            } else {
                self.partial = Some((chunk, acc));
            }
        }
        matched
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_parallel(
        &mut self,
        plan: &CompiledPlan,
        order: Option<&[u32]>,
        start: usize,
        end: usize,
        scan_done: bool,
        first_chunk: usize,
        last_chunk: usize,
    ) -> u64 {
        let matched_total = AtomicU64::new(0);
        let next_chunk = AtomicUsize::new(first_chunk);
        let carry = Mutex::new(self.partial.take());
        let merge = Mutex::new(MergeState {
            base: &mut self.base,
            next_merge: first_chunk,
            parked: Vec::new(),
        });
        let pool = Mutex::new(&mut self.pool);
        let leftover: Mutex<Option<(usize, BatchAcc)>> = Mutex::new(None);
        let threads = self.workers.min(last_chunk - first_chunk + 1);

        // The span body: every participant (the calling thread plus any
        // pool worker that picks a claim up) pulls chunk indices from the
        // shared cursor until the supply is dry.
        let body = || {
            let bound = plan.bind();
            loop {
                let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
                if chunk > last_chunk {
                    break;
                }
                let lo = (chunk * CHUNK_ROWS).max(start);
                let hi = ((chunk + 1) * CHUNK_ROWS).min(end);
                // Resume the paused chunk's partial if this is it;
                // otherwise grab a pooled (or fresh) accumulator.
                let mut acc = (chunk == first_chunk)
                    .then(|| carry.lock().unwrap().take().map(|(_, acc)| acc))
                    .flatten()
                    .or_else(|| pool.lock().unwrap().pop())
                    .unwrap_or_else(|| BatchAcc::for_plan(plan));
                let matched = process_span(&bound, order, &mut acc, lo, hi);
                matched_total.fetch_add(matched as u64, Ordering::Relaxed);
                if hi < (chunk + 1) * CHUNK_ROWS && !scan_done {
                    // Budget cut the (single, final) chunk short:
                    // park it for the next span.
                    *leftover.lock().unwrap() = Some((chunk, acc));
                    continue;
                }
                let mut state = merge.lock().unwrap();
                if chunk == state.next_merge {
                    // Fold in order, draining any parked successors.
                    let mut recycled = Vec::new();
                    state.base.merge_from(&acc);
                    state.next_merge += 1;
                    acc.reset();
                    recycled.push(acc);
                    while let Some(at) = state
                        .parked
                        .iter()
                        .position(|(c, _)| *c == state.next_merge)
                    {
                        let (_, mut parked_acc) = state.parked.swap_remove(at);
                        state.base.merge_from(&parked_acc);
                        state.next_merge += 1;
                        parked_acc.reset();
                        recycled.push(parked_acc);
                    }
                    drop(state);
                    pool.lock().unwrap().append(&mut recycled);
                } else {
                    state.parked.push((chunk, acc));
                }
            }
        };
        crate::pool::global_pool().scope_run(threads - 1, &body);

        debug_assert!(merge.into_inner().unwrap().parked.is_empty());
        self.partial = leftover.into_inner().unwrap();
        matched_total.into_inner()
    }

    fn acquire(&mut self, plan: &CompiledPlan, chunk: usize) -> BatchAcc {
        match self.partial.take() {
            Some((c, acc)) if c == chunk => acc,
            // A paused partial for any other chunk would merge stale rows
            // on top of a re-processed chunk — fail loudly rather than
            // silently double-count (scan_span's invariant rejects this).
            Some((c, _)) => unreachable!("paused chunk {c} resumed as chunk {chunk}"),
            None => self.pool.pop().unwrap_or_else(|| BatchAcc::for_plan(plan)),
        }
    }
}

/// Runs positions `lo..hi` of one chunk morsel by morsel into `acc`,
/// returning the matched-row count.
fn process_span(
    bound: &BoundPlan<'_>,
    order: Option<&[u32]>,
    acc: &mut BatchAcc,
    lo: usize,
    hi: usize,
) -> usize {
    let mut matched = 0;
    let mut pos = lo;
    while pos < hi {
        let take = MORSEL.min(hi - pos);
        let rows = match order {
            Some(o) => Rows::Gather(&o[pos..pos + take]),
            None => Rows::Natural {
                base: pos,
                len: take,
            },
        };
        matched += acc.process_morsel(bound, rows);
        pos += take;
    }
    matched
}
