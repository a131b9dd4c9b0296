//! Shutdown regression for `ShardedPool`: dropping a pool must never hang.
//!
//! `drop` once set the shutdown flag and notified without holding the
//! shard queue locks, so a worker between its shutdown check and
//! `cv.wait` could miss the wakeup and `drop` waited for it forever. The
//! window is a few instructions wide, so this test hammers it: four
//! concurrent loops each create, load and drop a 2-shard pool thousands of
//! times, with the drop landing at swept offsets into the load, and the
//! CPU contention preempts workers inside the window. It lives in its own
//! test binary because the queued load moves the process-wide queue-depth
//! gauges that the pool's unit tests read.

use grip_service::ShardedPool;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn repeated_drop_never_loses_the_shutdown_wakeup() {
    const LOOPS: usize = 4;
    let (done_tx, done_rx) = mpsc::channel();
    for _ in 0..LOOPS {
        let done_tx = done_tx.clone();
        std::thread::spawn(move || {
            for round in 0..4000u64 {
                let pool: ShardedPool<u64, u64> = ShardedPool::new(
                    2,
                    |_| (),
                    |_, _, spins, _| {
                        for _ in 0..spins {
                            std::hint::spin_loop();
                        }
                        spins
                    },
                );
                let _pending: Vec<_> =
                    (0..4u64).map(|j| pool.submit_to(j as usize, 50 * j)).collect();
                for _ in 0..(round * 37) % 1000 {
                    std::hint::spin_loop();
                }
                drop(pool);
            }
            done_tx.send(()).expect("watchdog listening");
        });
    }
    // The watchdog: a hung drop fails the test instead of stalling it.
    for _ in 0..LOOPS {
        done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("ShardedPool::drop hung (lost shutdown wakeup)");
    }
}
