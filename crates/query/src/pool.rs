//! The persistent, channel-fed scan worker pool.
//!
//! [`ScanPool`] owns a fixed set of long-lived worker threads fed from a
//! FIFO claim queue. Parallel scan spans no longer spawn and join an OS
//! thread per worker per span (the overhead the old `std::thread::scope`
//! design paid): a span publishes *claims* on its shared body closure, pool
//! workers pick claims up, run the body until the span's chunks are
//! exhausted, and the calling thread — always a full participant — revokes
//! whatever claims nobody got to. One process-wide pool
//! ([`global_pool`], sized to this machine's available parallelism) serves
//! every dispatcher, so intra-query parallelism and multi-session
//! concurrency compose without oversubscription: no matter how many
//! sessions scan at once, at most `threads + callers` OS threads do scan
//! work, and the FIFO claim queue arbitrates chunks fairly in span-arrival
//! order across sessions.
//!
//! # Execution model
//!
//! [`ScanPool::scope_run`] is a drop-in replacement for "spawn `n` scoped
//! threads over one closure and join them":
//!
//! 1. The caller enqueues `helpers` claims referencing `body` and wakes the
//!    pool.
//! 2. The caller runs `body()` itself. The body is a work-*stealing* loop
//!    (workers pull chunk indices from a shared atomic), so the span makes
//!    full progress even when every pool thread is busy with other spans.
//! 3. On return the caller revokes its still-queued claims and blocks only
//!    for claims already *running* — which terminate as soon as the chunk
//!    supply is dry.
//!
//! # Safety
//!
//! The body reference is lifetime-erased to cross the `'static` boundary of
//! the persistent worker threads. This is sound because `scope_run` does
//! not return — by normal exit *or by unwind* — until every claim is either
//! revoked (still queued, never ran) or finished running: the revoke-and-
//! wait step lives in a drop guard, so a panic inside the caller's own
//! `body()` pass still waits out in-flight workers before the borrowed
//! state unwinds. Workers run the body under `catch_unwind`, always
//! decrement their in-flight count, and a worker-side panic is re-raised in
//! the caller after the wait — the same propagation `std::thread::scope`
//! performed at join.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// A worker panic's payload, carried back to the span's caller.
type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// Locks a mutex, transparently recovering from poisoning (a panicking
/// participant must not wedge the pool's bookkeeping).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A lifetime-erased pointer to a span body. Only dereferenced while the
/// originating [`ScanPool::scope_run`] call is still blocked (see module
/// docs), which is what makes the `Send + Sync` claims sound.
#[derive(Clone, Copy)]
struct BodyPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: `BodyPtr` has one field, `.0`, a raw pointer to a
// `dyn Fn() + Sync` body. Moving it to a worker thread only lets that
// thread form `&dyn Fn() + Sync`, and a shared reference to a `Sync` value
// may be used from any thread. The pointee outlives every such use: the
// pointer is dereferenced only while the `scope_run` call that created it
// is still blocked (module docs, "Safety").
unsafe impl Send for BodyPtr {}
// SAFETY: a shared `&BodyPtr` only allows copying `.0` out, which is the
// `Send` case above; `BodyPtr` has no interior mutability and no other
// field.
unsafe impl Sync for BodyPtr {}

/// Claim accounting of one span: how many claims are still queued, how many
/// bodies are currently running, whether the caller has revoked the
/// remainder, and the first worker panic's payload (re-raised in the
/// caller, preserving the original message as `std::thread::scope` did).
struct TaskState {
    queued: usize,
    running: usize,
    revoked: bool,
    panic: Option<PanicPayload>,
}

/// One span's shared handle: the body plus its claim accounting.
struct SpanTask {
    body: BodyPtr,
    state: Mutex<TaskState>,
    done: Condvar,
}

/// The claim queue plus the shutdown latch, under one lock.
struct QueueState {
    claims: VecDeque<Arc<SpanTask>>,
    shutdown: bool,
}

struct PoolShared {
    /// FIFO claim queue — one entry per outstanding helper claim. FIFO
    /// order is what arbitrates chunks fairly across concurrent sessions.
    queue: Mutex<QueueState>,
    ready: Condvar,
}

/// A persistent scan worker pool (see module docs).
pub struct ScanPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScanPool {
    /// Creates a pool with `threads` persistent workers. Workers park on
    /// the claim queue when idle; they live until the pool is dropped.
    pub fn new(threads: usize) -> ScanPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(QueueState {
                claims: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("idebench-scan-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn scan pool worker")
            })
            .collect();
        ScanPool { shared, workers }
    }

    /// Number of persistent worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `body` on the calling thread *and* on up to `helpers` pool
    /// workers concurrently, returning once every participant is done.
    ///
    /// Equivalent to spawning `helpers + 1` scoped threads over `body` and
    /// joining them — minus the per-call spawn/join round-trips, and with
    /// the same panic discipline (a panic in any participant is propagated
    /// to the caller, after all participants have stopped). Claims the pool
    /// cannot service promptly are revoked when the caller's own pass
    /// finishes, so a saturated (or zero-thread) pool degrades to the
    /// caller simply doing all the work; the call never deadlocks, even
    /// when invoked from a pool worker itself.
    pub fn scope_run(&self, helpers: usize, body: &(dyn Fn() + Sync)) {
        if helpers == 0 || self.workers.is_empty() {
            body();
            return;
        }
        // SAFETY: the transmute changes only the lifetime of the trait
        // object: the `Fn() + Sync` vtable and data pointer are unchanged.
        // The `'static` reference escapes into `SpanTask::body`, and every
        // dereference of it happens before this call returns: the
        // `ScopeGuard` below revokes the still-queued claims and waits for
        // the running ones, on normal return and on unwind alike.
        let body_static: &'static (dyn Fn() + Sync + 'static) = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync + 'static)>(body)
        };
        let task = Arc::new(SpanTask {
            body: BodyPtr(body_static as *const _),
            state: Mutex::new(TaskState {
                queued: helpers,
                running: 0,
                revoked: false,
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut q = lock(&self.shared.queue);
            for _ in 0..helpers {
                q.claims.push_back(Arc::clone(&task));
            }
        }
        self.shared.ready.notify_all();

        {
            // The revoke-and-wait lives in a drop guard so that even a
            // panic in the caller's own pass cannot return control (and
            // unwind the borrowed span state) while a worker still runs.
            let _guard = ScopeGuard {
                shared: &self.shared,
                task: &task,
            };
            // The caller is a full participant: the span progresses even
            // if no pool worker ever picks a claim up.
            body();
        }

        let worker_panic = lock(&task.state).panic.take();
        if let Some(payload) = worker_panic {
            // Re-raise the worker's original panic, payload intact — the
            // propagation std::thread::scope performed at join.
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        // `&mut self` proves no scope_run is in flight; claims can only be
        // leftovers of already-completed (revoked) spans.
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Revokes a span's unclaimed queue entries and waits out every in-flight
/// worker. Runs on normal exit *and* on unwind, which is what upholds the
/// lifetime-erasure safety contract.
struct ScopeGuard<'a> {
    shared: &'a PoolShared,
    task: &'a Arc<SpanTask>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let revoked = {
            let mut q = lock(&self.shared.queue);
            let before = q.claims.len();
            q.claims.retain(|t| !Arc::ptr_eq(t, self.task));
            before - q.claims.len()
        };
        let mut st = lock(&self.task.state);
        st.queued -= revoked;
        st.revoked = true;
        while st.queued > 0 || st.running > 0 {
            st = self.task.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut q = lock(&shared.queue);
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(t) = q.claims.pop_front() {
                    break t;
                }
                q = shared.ready.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Convert the popped queue entry into either a running body or a
        // no-op (the span's caller already finished and revoked).
        let run = {
            let mut st = lock(&task.state);
            st.queued -= 1;
            if st.revoked {
                false
            } else {
                st.running += 1;
                true
            }
        };
        if run {
            // A panicking body must still decrement `running` (or the
            // span's caller waits forever); the panic itself is recorded
            // and re-raised by the caller.
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: `running` was incremented under the task lock
                // while the claim was not revoked, so the span's caller
                // cannot leave `ScopeGuard::drop` — and the body it
                // borrowed stays alive — until this worker decrements
                // `running` again after the call.
                (unsafe { &*task.body.0 })();
            }));
            let mut st = lock(&task.state);
            st.running -= 1;
            if let Err(payload) = outcome {
                // Keep the first panic; the caller re-raises it.
                st.panic.get_or_insert(payload);
            }
            drop(st);
        }
        task.done.notify_all();
    }
}

/// The process-wide scan pool every [`crate::MorselDispatcher`] fans out
/// over, sized to this machine's available parallelism. Created on first
/// use; its workers park when no scan is in flight.
pub fn global_pool() -> &'static ScanPool {
    static POOL: OnceLock<ScanPool> = OnceLock::new();
    POOL.get_or_init(|| ScanPool::new(crate::dispatch::available_workers()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_run_executes_body_at_least_once() {
        let pool = ScanPool::new(2);
        let calls = AtomicUsize::new(0);
        let body = || {
            calls.fetch_add(1, Ordering::Relaxed);
        };
        pool.scope_run(3, &body);
        let n = calls.load(Ordering::Relaxed);
        assert!((1..=4).contains(&n), "1..=4 participants ran, got {n}");
    }

    #[test]
    fn zero_helpers_runs_inline() {
        let pool = ScanPool::new(1);
        let calls = AtomicUsize::new(0);
        pool.scope_run(0, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn zero_thread_pool_degrades_to_caller() {
        let pool = ScanPool::new(0);
        let calls = AtomicUsize::new(0);
        pool.scope_run(7, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn work_stealing_loop_completes_all_items() {
        // A realistic span body: participants pull indices from a shared
        // atomic until the supply is dry; every index is processed exactly
        // once no matter how many participants show up.
        let pool = ScanPool::new(4);
        const ITEMS: usize = 1_000;
        for _ in 0..20 {
            let next = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
            let body = || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ITEMS {
                    break;
                }
                hits[i].fetch_add(1, Ordering::Relaxed);
            };
            pool.scope_run(3, &body);
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn concurrent_spans_share_the_pool_without_deadlock() {
        let pool = Arc::new(ScanPool::new(2));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..50 {
                        let next = AtomicUsize::new(0);
                        let sum = AtomicUsize::new(0);
                        let body = || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= 100 {
                                break;
                            }
                            sum.fetch_add(i, Ordering::Relaxed);
                        };
                        pool.scope_run(2, &body);
                        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
                    }
                });
            }
        });
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ScanPool::new(3);
        let calls = AtomicUsize::new(0);
        pool.scope_run(2, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // joins; would hang forever if shutdown were broken
    }

    #[test]
    fn panicking_body_propagates_after_all_participants_stop() {
        let pool = ScanPool::new(2);
        let entered = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let body = || {
                entered.fetch_add(1, Ordering::Relaxed);
                panic!("span body exploded");
            };
            pool.scope_run(2, &body);
        }));
        let payload = result.expect_err("the panic must reach the caller");
        // The original payload survives, whichever participant panicked.
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "span body exploded");
        // The pool survives a panicked span: later spans still work.
        let ok = AtomicUsize::new(0);
        pool.scope_run(2, &|| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert!(ok.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn global_pool_is_shared_and_sized_to_the_machine() {
        let p1 = global_pool() as *const ScanPool;
        let p2 = global_pool() as *const ScanPool;
        assert_eq!(p1, p2);
        assert_eq!(global_pool().threads(), crate::available_workers());
    }
}
