//! The work-stealing batch scheduler.
//!
//! Requests are enqueued into one injector queue per shard. At drain time
//! each worker repeatedly *takes a whole shard queue at once* — that is the
//! batching: every request pending against a shard is answered under a
//! single shard read-lock acquisition, in one pass. A worker whose home
//! queue is empty steals the entire pending queue of another shard
//! (round-robin from its own position), so one hot tenant cannot idle the
//! other workers and a cold drain finishes as soon as all queues are
//! observed empty.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Cumulative scheduler counters (monotonic over the server's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Requests answered through the scheduler.
    pub served: u64,
    /// Shard batches processed (one batch = one lock acquisition); the
    /// coalescing ratio is `served / batches`.
    pub batches: u64,
    /// Batches a worker took from a shard other than its home position.
    pub steals: u64,
}

/// Per-shard injector queues plus the counters above.
#[derive(Debug)]
pub(crate) struct ShardQueues<J> {
    queues: Vec<Mutex<VecDeque<J>>>,
    pending: AtomicUsize,
    served: AtomicU64,
    batches: AtomicU64,
    steals: AtomicU64,
}

impl<J> ShardQueues<J> {
    pub(crate) fn new(shards: usize) -> Self {
        ShardQueues {
            queues: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Enqueues one job on its shard's queue.
    pub(crate) fn push(&self, shard: usize, job: J) {
        let mut q = self.queues[shard].lock().expect("queue lock poisoned");
        q.push_back(job);
        // Inside the lock scope: a concurrent `take_shard` decrements under
        // the same lock, so the counter can never transiently underflow.
        self.pending.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs currently enqueued (across all shards).
    pub(crate) fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Takes **every** job pending on `shard` — the coalescing step.
    /// Returns an empty queue when there is nothing to take.
    fn take_shard(&self, shard: usize) -> VecDeque<J> {
        let mut q = self.queues[shard].lock().expect("queue lock poisoned");
        let taken = std::mem::take(&mut *q);
        if !taken.is_empty() {
            // Same lock scope as the matching fetch_add in `push`.
            self.pending.fetch_sub(taken.len(), Ordering::Relaxed);
        }
        taken
    }

    /// Folds another queue set's counters into this one — `serve_batch`
    /// drains a throwaway queue set, then credits the server's cumulative
    /// counters with what it did.
    pub(crate) fn absorb(&self, other: SchedulerStats) {
        self.served.fetch_add(other.served, Ordering::Relaxed);
        self.batches.fetch_add(other.batches, Ordering::Relaxed);
        self.steals.fetch_add(other.steals, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            served: self.served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Drains every queue with `threads` workers. Worker `w` starts at
    /// shard `w % shards` and sweeps round-robin, taking whole shard
    /// queues; a take at offset > 0 counts as a steal. `process` is called
    /// once per non-empty batch with `(shard, jobs)` and returns that
    /// batch's outputs; all outputs are concatenated in unspecified order
    /// (callers re-sort by ticket).
    ///
    /// Workers exit after a full sweep observes every queue empty, so jobs
    /// pushed concurrently with a drain are picked up if any worker is
    /// still sweeping, and otherwise wait for the next drain.
    pub(crate) fn drain<R, F>(&self, threads: usize, process: F) -> Vec<R>
    where
        J: Send,
        R: Send,
        F: Fn(usize, VecDeque<J>) -> Vec<R> + Sync,
    {
        let shards = self.queues.len();
        if shards == 0 {
            return Vec::new();
        }
        let threads = threads.clamp(1, shards.max(1));
        let mut worker_results: Vec<Vec<R>> = Vec::with_capacity(threads);

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for w in 0..threads {
                let process = &process;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let mut advanced = false;
                        for off in 0..shards {
                            let shard = (w + off) % shards;
                            let jobs = self.take_shard(shard);
                            if jobs.is_empty() {
                                continue;
                            }
                            advanced = true;
                            self.batches.fetch_add(1, Ordering::Relaxed);
                            if off > 0 {
                                self.steals.fetch_add(1, Ordering::Relaxed);
                            }
                            self.served.fetch_add(jobs.len() as u64, Ordering::Relaxed);
                            out.extend(process(shard, jobs));
                        }
                        if !advanced {
                            return out;
                        }
                    }
                }));
            }
            for (w, h) in handles.into_iter().enumerate() {
                worker_results.push(h.join().unwrap_or_else(|_| {
                    panic!(
                        "scheduler worker {w}/{threads} panicked inside the `process` \
                         callback; its taken-but-unanswered jobs are lost — check the \
                         shard answer path for the panic source"
                    )
                }));
            }
        });

        worker_results.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn drain_coalesces_per_shard_batches() {
        let q: ShardQueues<u32> = ShardQueues::new(3);
        for i in 0..12u32 {
            q.push((i % 3) as usize, i);
        }
        assert_eq!(q.pending(), 12);
        // Single worker: each shard's 4 jobs must arrive as one batch.
        let out = q.drain(1, |shard, jobs| {
            assert_eq!(jobs.len(), 4, "shard {shard} batch not coalesced");
            jobs.into_iter().map(|j| (shard, j)).collect()
        });
        assert_eq!(out.len(), 12);
        assert_eq!(q.pending(), 0);
        let stats = q.stats();
        assert_eq!(stats.served, 12);
        assert_eq!(stats.batches, 3);
        // A lone worker "steals" every shard beyond its home position.
        assert_eq!(stats.steals, 2);
    }

    #[test]
    fn drain_returns_every_job_exactly_once_under_contention() {
        let q: ShardQueues<u64> = ShardQueues::new(4);
        for i in 0..400u64 {
            q.push((i % 4) as usize, i);
        }
        let out = q.drain(4, |_, jobs| jobs.into_iter().collect());
        let seen: HashSet<u64> = out.iter().copied().collect();
        assert_eq!(out.len(), 400, "no job may be dropped or duplicated");
        assert_eq!(seen.len(), 400);
    }

    #[test]
    fn idle_worker_steals_from_a_loaded_shard() {
        // One worker homed on (empty) shard 0; all the work sits on shard
        // 2, reachable only by stealing at sweep offset 2. Deterministic:
        // no thread race decides whether the steal happens.
        let q: ShardQueues<u32> = ShardQueues::new(3);
        for i in 0..5u32 {
            q.push(2, i);
        }
        let out = q.drain(1, |shard, jobs| {
            assert_eq!(shard, 2);
            jobs.into_iter().collect::<Vec<_>>()
        });
        assert_eq!(out.len(), 5);
        let stats = q.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.steals, 1, "offset-2 take must count as a steal");
    }

    #[test]
    fn empty_drain_terminates_immediately() {
        let q: ShardQueues<u32> = ShardQueues::new(2);
        let out = q.drain(8, |_, jobs| jobs.into_iter().collect::<Vec<_>>());
        assert!(out.is_empty());
        assert_eq!(q.stats().batches, 0);
    }
}
