//! The lazily initialized, reusable worker pool under [`crate::par`].
//!
//! The first parallel call spawns `max_threads() - 1` daemon worker
//! threads (the calling thread is always the team's last member); every
//! later call reuses them, so the per-call cost of `par_map` /
//! `par_zip_chunks` drops from N thread spawns to a queue push — the
//! first step of the ROADMAP hot-kernel item.
//!
//! Execution model: a parallel call packages its borrowed closures as a
//! [`Batch`], enqueues up to `helpers` "come help this batch" jobs on the
//! shared queue, then drains the batch itself before blocking on the
//! batch's completion latch. Because the caller always helps first, a
//! batch completes even when every pool worker is busy, and no thread
//! waits on a task nobody runs. A thread running a batch's task is marked
//! ([`in_task`]), and `par::team` sizes a parallel call made there at
//! one: a nested call (a GEMM inside a `par_map` task) runs inline.
//!
//! Panics inside a task are caught, the first payload is stashed on the
//! batch, and [`run_batch`] re-raises it with `resume_unwind` after the
//! whole batch has drained — preserving the scoped-spawn contract that
//! task panics propagate to the caller and never strand a borrow.
//!
//! This is the one module in the workspace that needs `unsafe`: a
//! persistent pool must hold tasks that borrow the caller's stack, which
//! requires erasing their lifetimes (scoped threads are the only safe
//! alternative, and per-call scoped spawning is exactly what this module
//! replaces). The erasure is sound because `run_batch` never returns —
//! normally or by unwinding — until every erased task has finished, and
//! everything that can outlive the call (queued helper jobs, the batch
//! allocation) holds only an `Arc` to post-completion state with no
//! borrowed data in it.
#![allow(unsafe_code)]

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::par::max_threads;

thread_local! {
    /// Set while this thread runs a task of some batch.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is running a task of a batch — where the
/// rest of the team is busy with the batch's other tasks, so a nested
/// parallel call gains nothing by forking (see `par::team`).
pub(crate) fn in_task() -> bool {
    IN_TASK.get()
}

/// A unit of borrowed work dispatched by `par_map` / `par_zip_chunks`.
pub(crate) type Task<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A queued "help this batch" job; owns an `Arc` to the batch it serves.
type HelperJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<VecDeque<HelperJob>>,
    work_ready: Condvar,
}

struct Pool {
    shared: Arc<PoolShared>,
    /// Worker-thread count (team size minus the calling thread).
    helpers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared =
            Arc::new(PoolShared { queue: Mutex::new(VecDeque::new()), work_ready: Condvar::new() });
        let helpers = max_threads().saturating_sub(1);
        for i in 0..helpers {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("fedl-par-{i}"))
                .spawn(move || worker_loop(&sh))
                .expect("failed to spawn fedl-par pool worker");
        }
        Pool { shared, helpers }
    })
}

fn worker_loop(sh: &PoolShared) {
    loop {
        let job = {
            let mut queue = sh.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = sh.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        job();
    }
}

struct BatchStatus {
    unfinished: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// One parallel call's worth of tasks plus its completion latch. Tasks
/// hold lifetime-erased borrows; `status`/`done` outlive the call safely
/// (no borrowed data) so late-arriving helpers can observe "all drained".
struct Batch {
    tasks: Mutex<Vec<Task<'static>>>,
    status: Mutex<BatchStatus>,
    done: Condvar,
}

/// Drains `batch` until its task list is empty, recording completions
/// (and the first panic payload) on the status latch.
fn help(batch: &Batch) {
    loop {
        let task = batch.tasks.lock().expect("batch task list poisoned").pop();
        let Some(task) = task else { return };
        let outer = IN_TASK.replace(true);
        let outcome = catch_unwind(AssertUnwindSafe(task));
        IN_TASK.set(outer);
        let mut status = batch.status.lock().expect("batch status poisoned");
        if let Err(payload) = outcome {
            status.panic.get_or_insert(payload);
        }
        status.unfinished -= 1;
        if status.unfinished == 0 {
            batch.done.notify_all();
        }
    }
}

/// Runs every task to completion across the pool plus the calling
/// thread, then returns. Panics with the first task's panic payload if
/// any task panicked — but only after the entire batch has drained, so
/// no borrow captured by a task can escape the call.
pub(crate) fn run_batch(tasks: Vec<Task<'_>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        // A single task runs inline: no erasure, no queue traffic.
        let task = tasks.into_iter().next().expect("len checked");
        task();
        return;
    }
    // SAFETY: the erased tasks are confined to `batch.tasks`, and this
    // function blocks below until `status.unfinished == 0`, which only
    // happens after every task has been popped and has finished running
    // (each decrement follows the task's return or caught panic). Thus
    // no erased task — nor anything it borrows — is live once `run_batch`
    // returns or unwinds. What does outlive the call (the `Arc<Batch>`
    // clones inside queued helper jobs) sees an empty task list and
    // post-completion status containing no borrowed data.
    let tasks: Vec<Task<'static>> = tasks
        .into_iter()
        .map(|t| unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(t) })
        .collect();
    let batch = Arc::new(Batch {
        tasks: Mutex::new(tasks),
        status: Mutex::new(BatchStatus { unfinished: n, panic: None }),
        done: Condvar::new(),
    });
    let pool = pool();
    // The caller drains too, so at most n - 1 helpers are useful.
    let wanted = pool.helpers.min(n - 1);
    if wanted > 0 {
        let mut queue = pool.shared.queue.lock().expect("pool queue poisoned");
        for _ in 0..wanted {
            let served = Arc::clone(&batch);
            queue.push_back(Box::new(move || help(&served)));
        }
        drop(queue);
        pool.shared.work_ready.notify_all();
    }
    help(&batch);
    let mut status = batch.status.lock().expect("batch status poisoned");
    while status.unfinished > 0 {
        status = batch.done.wait(status).expect("batch status poisoned");
    }
    let panic = status.panic.take();
    drop(status);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn batch_runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..64)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Task<'_>
            })
            .collect();
        run_batch(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn consecutive_batches_reuse_the_pool() {
        // Two back-to-back batches must both complete (the queue drains
        // stale helper jobs between calls without touching dead batches).
        for round in 0..3 {
            let hits = AtomicUsize::new(0);
            let tasks: Vec<Task<'_>> = (0..16)
                .map(|_| {
                    Box::new(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            run_batch(tasks);
            assert_eq!(hits.load(Ordering::Relaxed), 16, "round {round}");
        }
    }

    #[test]
    fn task_panic_propagates_after_the_batch_drains() {
        let hits = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Task<'_>> = (0..8)
                .map(|i| {
                    let hits = &hits;
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom from task 3");
                        }
                        hits.fetch_add(1, Ordering::Relaxed);
                    }) as Task<'_>
                })
                .collect();
            run_batch(tasks);
        }));
        let payload = result.expect_err("batch panic must propagate");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(message.contains("boom"), "unexpected payload {message:?}");
        // Every non-panicking task still ran: the batch drains fully
        // before the panic is re-raised.
        assert_eq!(hits.load(Ordering::Relaxed), 7);
    }
}
