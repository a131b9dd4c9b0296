//! The sharded worker pool: long-lived `std::thread` workers, one queue
//! per shard.
//!
//! Jobs are routed to an explicit shard; each worker owns per-shard state
//! (built once on its own thread by a state factory), so shard-affine
//! routing makes that state — the service's schedule and DDG caches — hot
//! without any cross-shard locking. Results come back over per-job
//! `mpsc` channels, so callers can block ([`ShardedPool::run_on`]), batch
//! in submission order ([`ShardedPool::map_batch`]), or pipeline
//! ([`ShardedPool::submit_to`]).
//!
//! The pool is also the workspace's one parallel-map substrate: the bench
//! sweeps that used to carry their own scoped-thread loops now run on it
//! (one shard per kernel reproduces their old one-worker-per-kernel
//! layout).
//!
//! ## Queue observability
//!
//! Every job is stamped at enqueue and dequeue, and the pool maintains,
//! per shard `i`: a depth gauge `grip_queue_depth_s<i>` and a queue-wait
//! histogram `grip_queue_wait_ns_s<i>` (enqueue→dequeue), plus the
//! aggregates `grip_queue_depth` / `grip_queue_wait_ns` and the inflight
//! gauge `grip_pool_inflight` (jobs dequeued but not yet finished).
//! Handles are resolved once at pool construction, so the hot path pays
//! two atomics per transition and no registry lookups. The stamps ride to
//! the work closure as a [`JobMeta`], which the service engine copies
//! into its flight-recorder records.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// The pool's timing stamps for one job, handed to the work closure and
/// (in the service) journaled into the flight recorder.
#[derive(Clone, Copy, Debug)]
pub struct JobMeta {
    /// When the job entered its shard queue.
    pub enqueued_at: Instant,
    /// When a worker popped it.
    pub dequeued_at: Instant,
}

impl JobMeta {
    /// Stamps for a job that never queued (both stamps "now") — direct
    /// engine calls in tests and single-threaded tools.
    pub fn immediate() -> JobMeta {
        let now = Instant::now();
        JobMeta { enqueued_at: now, dequeued_at: now }
    }

    /// Nanoseconds the job waited in its shard queue.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dequeued_at.saturating_duration_since(self.enqueued_at).as_nanos() as u64
    }
}

/// A fixed set of worker threads with one FIFO queue per shard.
pub struct ShardedPool<J: Send + 'static, R: Send + 'static> {
    inner: Arc<Inner<J, R>>,
    handles: Vec<JoinHandle<()>>,
}

struct Inner<J, R> {
    shards: Vec<ShardQueue<J, R>>,
    shutdown: AtomicBool,
    /// Aggregate queue metrics (cross-shard), resolved once.
    depth_all: grip_obs::Gauge,
    wait_all: grip_obs::Histogram,
    inflight: grip_obs::Gauge,
}

struct ShardQueue<J, R> {
    q: Mutex<VecDeque<(J, mpsc::Sender<R>, Instant)>>,
    cv: Condvar,
    /// Per-shard queue metrics, resolved once at pool construction.
    depth: grip_obs::Gauge,
    wait: grip_obs::Histogram,
}

/// Resolve the pool's aggregate metric handles (and describe them for the
/// Prometheus exposition).
fn aggregate_metrics() -> (grip_obs::Gauge, grip_obs::Histogram, grip_obs::Gauge) {
    let reg = grip_obs::metrics::global();
    reg.describe("grip_queue_depth", "Jobs waiting across all shard queues.");
    reg.describe("grip_queue_wait_ns", "Enqueue-to-dequeue wait across all shards, ns.");
    reg.describe("grip_pool_inflight", "Jobs dequeued but not yet finished, across all shards.");
    (
        reg.gauge("grip_queue_depth"),
        reg.histogram("grip_queue_wait_ns"),
        reg.gauge("grip_pool_inflight"),
    )
}

/// Resolve shard `i`'s metric handles.
fn shard_metrics(i: usize) -> (grip_obs::Gauge, grip_obs::Histogram) {
    let reg = grip_obs::metrics::global();
    let depth = format!("grip_queue_depth_s{i}");
    let wait = format!("grip_queue_wait_ns_s{i}");
    reg.describe(&depth, "Jobs waiting in this shard's queue.");
    reg.describe(&wait, "Enqueue-to-dequeue wait in this shard's queue, ns.");
    (reg.gauge(&depth), reg.histogram(&wait))
}

impl<J: Send + 'static, R: Send + 'static> ShardedPool<J, R> {
    /// Spawn `shards` workers. `state(i)` runs **on worker `i`'s thread**
    /// to build its private state; `work(i, &mut state, job, &meta)`
    /// handles one job (`meta` carries the queue timing stamps). Worker
    /// panics poison only their own shard's jobs (the caller's receiver
    /// disconnects); the pool itself keeps serving other shards. The
    /// blocking helpers ([`ShardedPool::run_on`] /
    /// [`ShardedPool::map_batch`]) surface such a loss as a panic in the
    /// *caller*; callers that must outlive worker crashes (the protocol
    /// server) use [`ShardedPool::submit_to`] and handle the recv error.
    pub fn new<S, FS, FW>(shards: usize, state: FS, work: FW) -> ShardedPool<J, R>
    where
        S: 'static,
        FS: Fn(usize) -> S + Send + Sync + 'static,
        FW: Fn(usize, &mut S, J, &JobMeta) -> R + Send + Sync + 'static,
    {
        assert!(shards >= 1, "a pool needs at least one shard");
        let (depth_all, wait_all, inflight) = aggregate_metrics();
        let inner = Arc::new(Inner {
            shards: (0..shards)
                .map(|i| {
                    let (depth, wait) = shard_metrics(i);
                    ShardQueue { q: Mutex::new(VecDeque::new()), cv: Condvar::new(), depth, wait }
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            depth_all,
            wait_all,
            inflight,
        });
        let state = Arc::new(state);
        let work = Arc::new(work);
        let handles = (0..shards)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let state = Arc::clone(&state);
                let work = Arc::clone(&work);
                std::thread::Builder::new()
                    .name(format!("grip-shard-{i}"))
                    .spawn(move || {
                        let mut s = state(i);
                        let shard = &inner.shards[i];
                        loop {
                            let job = {
                                let mut q = shard.q.lock().expect("shard queue poisoned");
                                loop {
                                    if let Some(j) = q.pop_front() {
                                        break Some(j);
                                    }
                                    if inner.shutdown.load(Ordering::Acquire) {
                                        break None;
                                    }
                                    q = shard.cv.wait(q).expect("shard queue poisoned");
                                }
                            };
                            match job {
                                Some((j, tx, enqueued_at)) => {
                                    let meta = JobMeta { enqueued_at, dequeued_at: Instant::now() };
                                    shard.depth.add(-1);
                                    inner.depth_all.add(-1);
                                    let wait = meta.queue_wait_ns();
                                    shard.wait.record(wait);
                                    inner.wait_all.record(wait);
                                    inner.inflight.add(1);
                                    // A dropped receiver just means the
                                    // caller stopped waiting.
                                    let _ = tx.send(work(i, &mut s, j, &meta));
                                    inner.inflight.add(-1);
                                }
                                None => return,
                            }
                        }
                    })
                    .expect("spawn shard worker")
            })
            .collect();
        ShardedPool { inner, handles }
    }

    /// Number of shards (== worker threads).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Jobs currently waiting in shard queues (not yet dequeued).
    pub fn queue_depth(&self) -> i64 {
        self.inner.depth_all.get()
    }

    /// Enqueue `job` on `shard` (modulo the shard count) and return the
    /// receiver its result will arrive on.
    pub fn submit_to(&self, shard: usize, job: J) -> mpsc::Receiver<R> {
        let (tx, rx) = mpsc::channel();
        let s = &self.inner.shards[shard % self.shards()];
        s.q.lock().expect("shard queue poisoned").push_back((job, tx, Instant::now()));
        s.depth.add(1);
        self.inner.depth_all.add(1);
        s.cv.notify_one();
        rx
    }

    /// Submit and block for the result.
    pub fn run_on(&self, shard: usize, job: J) -> R {
        self.submit_to(shard, job).recv().expect("shard worker dropped the job")
    }

    /// Submit every `(shard, job)` pair up front, then collect results in
    /// submission order — the parallel-map the bench sweeps run on.
    pub fn map_batch(&self, jobs: impl IntoIterator<Item = (usize, J)>) -> Vec<R> {
        let rxs: Vec<mpsc::Receiver<R>> =
            jobs.into_iter().map(|(shard, job)| self.submit_to(shard, job)).collect();
        rxs.into_iter().map(|rx| rx.recv().expect("shard worker dropped the job")).collect()
    }
}

impl<J: Send + 'static, R: Send + 'static> Drop for ShardedPool<J, R> {
    fn drop(&mut self) {
        // Set the flag and notify under each shard's queue lock: a worker
        // checks the flag and enters `cv.wait` under that same lock, so it
        // either sees the flag or is already waiting for this wakeup.
        for s in &self.inner.shards {
            let _q = s.q.lock().expect("shard queue poisoned");
            self.inner.shutdown.store(true, Ordering::Release);
            s.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        // Jobs abandoned in queues at shutdown would otherwise leave the
        // depth gauges skewed for the process lifetime.
        for s in &self.inner.shards {
            let dropped = s.q.lock().expect("shard queue poisoned").len() as i64;
            if dropped > 0 {
                s.depth.add(-dropped);
                self.inner.depth_all.add(-dropped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_batch_preserves_submission_order() {
        let pool: ShardedPool<u64, u64> = ShardedPool::new(4, |_| (), |_, _, j, _| j * 2);
        let out = pool.map_batch((0..100u64).map(|j| ((j % 4) as usize, j)));
        assert_eq!(out, (0..100u64).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn shard_state_is_private_and_persistent() {
        // Each shard counts its own jobs; affine routing must keep the
        // counts disjoint and cumulative.
        let pool: ShardedPool<(), usize> = ShardedPool::new(
            2,
            |_| 0usize,
            |_, seen, (), _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(pool.run_on(0, ()), 1);
        assert_eq!(pool.run_on(0, ()), 2);
        assert_eq!(pool.run_on(1, ()), 1, "shard 1 has its own state");
        assert_eq!(pool.run_on(5, ()), 2, "shard index wraps modulo the pool");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool: ShardedPool<u32, u32> = ShardedPool::new(3, |_| (), |_, _, j, _| j);
        let _ = pool.map_batch([(0, 1u32), (1, 2), (2, 3)]);
        drop(pool); // must not hang
    }

    #[test]
    fn job_meta_orders_stamps_and_measures_wait() {
        let pool: ShardedPool<(), u64> =
            ShardedPool::new(1, |_| (), |_, _, (), meta: &JobMeta| meta.queue_wait_ns());
        // Even an uncontended submit→pop transition takes nonzero time.
        let wait = pool.run_on(0, ());
        assert!(wait > 0, "queue wait is measured: {wait}");
        let m = JobMeta::immediate();
        assert_eq!(m.queue_wait_ns(), 0, "immediate meta waits zero");
    }

    #[test]
    fn queue_depth_drains_back_to_zero() {
        let pool: ShardedPool<u64, u64> = ShardedPool::new(2, |_| (), |_, _, j, _| j);
        let before = pool.queue_depth();
        let _ = pool.map_batch((0..64u64).map(|j| ((j % 2) as usize, j)));
        // All jobs dequeued: the aggregate depth gauge is back where it
        // started (other concurrently running pools share the gauge, so
        // compare against the entry value, not zero).
        assert_eq!(pool.queue_depth(), before);
    }
}
