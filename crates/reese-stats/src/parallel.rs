//! A std-only scoped-thread worker pool for deterministic fan-out.
//!
//! Fault campaigns and figure sweeps are embarrassingly parallel: every
//! trial (or kernel×variant cell) is an independent full simulator run.
//! [`par_map_indexed`] fans a slice of work items out over
//! `std::thread::scope` workers and returns the results **in input
//! order**, so any caller that pre-draws its random parameters serially
//! gets output bit-identical to a serial loop — parallelism changes
//! wall-clock time, never results.
//!
//! Every run also returns a [`ParallelStats`] with wall-clock time,
//! per-worker item counts, and per-worker busy time, which the
//! experiment binaries surface as throughput lines.
//!
//! # Example
//!
//! ```
//! use reese_stats::parallel::par_map_indexed;
//!
//! let inputs: Vec<u64> = (0..100).collect();
//! let (serial, _) = par_map_indexed(1, &inputs, |i, &x| x * x + i as u64);
//! let (parallel, stats) = par_map_indexed(4, &inputs, |i, &x| x * x + i as u64);
//! assert_eq!(serial, parallel); // order and values identical
//! assert_eq!(stats.items(), 100);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Returns the default worker count: the host's available parallelism.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What one worker did during a [`par_map_indexed`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// Items this worker processed.
    pub items: u64,
    /// Items this worker claimed one at a time from the shared tail
    /// region — steals that level out stragglers — as opposed to items
    /// handed out in bulk chunks. Always 0 on the serial path.
    pub steals: u64,
    /// Time spent inside the work closure.
    pub busy: Duration,
}

/// Throughput observability for one parallel (or serial) map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelStats {
    /// Workers used (1 = the serial path).
    pub jobs: usize,
    /// End-to-end wall-clock time of the whole map.
    pub wall: Duration,
    /// Per-worker utilization counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
}

impl ParallelStats {
    /// Total items processed across all workers.
    pub fn items(&self) -> u64 {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Total per-item tail claims (steals) across all workers.
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Items completed per wall-clock second; 0 for an instant run.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.items() as f64 / secs
        } else {
            0.0
        }
    }

    /// Mean fraction of the wall-clock the workers spent busy, in
    /// `[0, 1]`; 1.0 means perfect utilization. 0 when nothing ran —
    /// an empty run has no meaningful busy/wall ratio, only timer
    /// noise.
    pub fn utilisation(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.workers.is_empty() || self.items() == 0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / (wall * self.workers.len() as f64)).min(1.0)
    }
}

impl fmt::Display for ParallelStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} items in {:.3}s on {} worker{} — {:.0} items/s, {:.0}% utilization",
            self.items(),
            self.wall.as_secs_f64(),
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.items_per_sec(),
            self.utilisation() * 100.0
        )?;
        if self.jobs > 1 {
            write!(f, ", {} tail steals", self.steals())?;
            for w in &self.workers {
                write!(
                    f,
                    "\n  worker {}: {} items ({} stolen), busy {:.3}s",
                    w.worker,
                    w.items,
                    w.steals,
                    w.busy.as_secs_f64()
                )?;
            }
        }
        Ok(())
    }
}

/// A one-way latch: closed until [`Gate::open`], then open for good.
/// [`par_map_joined`] holds one worker back on it while one thread of
/// the caller's budget is busy elsewhere.
#[derive(Debug, Default)]
pub struct Gate {
    open: Mutex<bool>,
    changed: Condvar,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Opens the gate, waking every thread waiting on it.
    pub fn open(&self) {
        *self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking thread") = true;
        self.changed.notify_all();
    }

    /// Whether the gate has been opened.
    pub fn is_open(&self) -> bool {
        *self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking thread")
    }

    /// Wakes waiters to re-check their give-up condition.
    fn nudge(&self) {
        let _guard = self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking thread");
        self.changed.notify_all();
    }

    /// Blocks until the gate opens (returns `true`) or `give_up` holds
    /// (returns `false`). `give_up` is re-checked on every
    /// [`Gate::nudge`].
    fn wait(&self, give_up: impl Fn() -> bool) -> bool {
        let mut open = self
            .open
            .lock()
            .expect("gate lock poisoned by a panicking thread");
        loop {
            if *open {
                return true;
            }
            if give_up() {
                return false;
            }
            open = self
                .changed
                .wait(open)
                .expect("gate lock poisoned by a panicking thread");
        }
    }
}

/// Maps `f` over `items` with up to `jobs` scoped worker threads,
/// returning results in input order plus utilization counters.
///
/// `jobs == 1` (or a single item) runs inline on the calling thread —
/// the serial path — with identical results; more jobs only changes
/// timing. Workers steal index *ranges* from a shared atomic cursor —
/// one `fetch_add` per chunk instead of per item — and fall back to
/// per-item stealing over the final chunk's worth of indices so the
/// stragglers self-level.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn par_map_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_joined(jobs, None, items, |_| 1, f)
}

/// [`par_map_indexed`] under a thread budget one of whose threads may
/// still be busy elsewhere. While `busy` is closed and every one of the
/// `jobs` threads would be a worker, the last worker — the calling
/// thread, which otherwise only waits — waits on it instead of claiming
/// items, so at most `jobs` threads work at any time; once `busy` opens
/// it joins in, and it leaves without work if the others claim every
/// item first. Results are the same either way.
/// Each item counts as `weight(item)` in the [`WorkerStats`] (a batch
/// of trials counts as its trials).
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop.
pub fn par_map_joined<T, R, F>(
    jobs: usize,
    busy: Option<&Gate>,
    items: &[T],
    weight: impl Fn(&T) -> u64 + Sync,
    f: F,
) -> (Vec<R>, ParallelStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    let budget = jobs.max(1);
    let jobs = budget.min(items.len().max(1));
    // The budget's busy thread leaves room for every worker only when
    // fewer workers than threads are needed.
    let late = busy.filter(|g| jobs == budget && !g.is_open());
    if jobs == 1 {
        let t0 = Instant::now();
        let results: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let busy = t0.elapsed();
        let stats = ParallelStats {
            jobs: 1,
            wall: start.elapsed(),
            workers: vec![WorkerStats {
                worker: 0,
                items: items.iter().map(&weight).sum(),
                steals: 0,
                busy,
            }],
        };
        return (results, stats);
    }

    // Chunked handout: the bulk of the indices is claimed a chunk at a
    // time (one atomic RMW per chunk), while the last `jobs` chunks'
    // worth is claimed item by item so a slow final chunk cannot leave
    // the other workers idle. With few items `bulk` is 0 and this
    // degenerates to pure per-item stealing.
    const CHUNKS_PER_WORKER: usize = 8;
    let chunk = (items.len() / (jobs * CHUNKS_PER_WORKER)).max(1);
    let bulk = items.len() - (chunk * jobs).min(items.len());
    let bulk_cursor = AtomicUsize::new(0);
    let tail_cursor = AtomicUsize::new(bulk);
    let run_worker = |worker: usize| {
        let mut out: Vec<(usize, R)> = Vec::new();
        let mut busy = Duration::ZERO;
        let (mut done, mut steals) = (0u64, 0u64);
        let mut work = |i: usize, out: &mut Vec<(usize, R)>| {
            let t0 = Instant::now();
            let r = f(i, &items[i]);
            busy += t0.elapsed();
            out.push((i, r));
            let w = weight(&items[i]);
            done += w;
            w
        };
        loop {
            let lo = bulk_cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= bulk {
                break;
            }
            for i in lo..(lo + chunk).min(bulk) {
                work(i, &mut out);
            }
        }
        loop {
            let i = tail_cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            steals += work(i, &mut out);
        }
        if let Some(gate) = late {
            gate.nudge();
        }
        let stats = WorkerStats {
            worker,
            items: done,
            steals,
            busy,
        };
        (out, stats)
    };
    // The held-back worker is the calling thread itself, which would
    // otherwise only wait: a fresh thread would bring the allocator a
    // fresh arena while the busy thread still holds its own.
    let spawned = if late.is_some() { jobs - 1 } else { jobs };
    let per_worker: Vec<(Vec<(usize, R)>, WorkerStats)> = std::thread::scope(|s| {
        let run_worker = &run_worker;
        let handles: Vec<_> = (0..spawned)
            .map(|worker| s.spawn(move || run_worker(worker)))
            .collect();
        let mut per_worker = Vec::with_capacity(jobs);
        if let Some(gate) = late {
            // Every index is claimed once the tail cursor passes the end
            // (the tail is only entered once the bulk is spent).
            let claimed = || tail_cursor.load(Ordering::Relaxed) >= items.len();
            per_worker.push(if gate.wait(claimed) {
                run_worker(jobs - 1)
            } else {
                (
                    Vec::new(),
                    WorkerStats {
                        worker: jobs - 1,
                        items: 0,
                        steals: 0,
                        busy: Duration::ZERO,
                    },
                )
            });
        }
        per_worker.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked")),
        );
        per_worker
    });

    // Merge the per-worker results back into input order.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut workers = Vec::with_capacity(jobs);
    for (pairs, stats) in per_worker {
        for (i, r) in pairs {
            debug_assert!(slots[i].is_none(), "index {i} computed twice");
            slots[i] = Some(r);
        }
        workers.push(stats);
    }
    workers.sort_by_key(|w| w.worker);
    let results = slots
        .into_iter()
        .map(|o| o.expect("every index computed exactly once"))
        .collect();
    (
        results,
        ParallelStats {
            jobs,
            wall: start.elapsed(),
            workers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let (out, stats) = par_map_indexed(8, &items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        assert_eq!(stats.items(), 257);
        assert_eq!(stats.workers.len(), 8);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..100).collect();
        let (a, s1) = par_map_indexed(1, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        let (b, s4) = par_map_indexed(4, &items, |i, &x| x.wrapping_mul(i as u64 + 7));
        assert_eq!(a, b);
        assert_eq!(s1.jobs, 1);
        assert_eq!(s4.jobs, 4);
    }

    #[test]
    fn chunked_handout_covers_every_index_exactly_once() {
        // Sizes chosen to hit the edges of the chunk arithmetic: fewer
        // items than workers, exactly one chunk, a ragged final chunk,
        // and a large bulk region.
        for len in [0usize, 1, 2, 7, 8, 9, 63, 64, 65, 255, 1024, 1025] {
            for jobs in [2usize, 3, 8] {
                let items: Vec<usize> = (0..len).collect();
                let (out, stats) = par_map_indexed(jobs, &items, |i, &x| {
                    assert_eq!(i, x);
                    x
                });
                assert_eq!(out, items, "len {len} jobs {jobs}");
                assert_eq!(stats.items(), len as u64, "len {len} jobs {jobs}");
            }
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (out, stats) = par_map_indexed::<u8, u8, _>(4, &[], |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.items(), 0);
        assert_eq!(stats.jobs, 1, "no items needs no extra workers");
    }

    #[test]
    fn jobs_capped_to_items() {
        let (_, stats) = par_map_indexed(64, &[1, 2, 3], |_, &x| x);
        assert!(stats.jobs <= 3);
    }

    #[test]
    fn zero_jobs_means_one() {
        let (out, stats) = par_map_indexed(0, &[5u8], |_, &x| x);
        assert_eq!(out, vec![5]);
        assert_eq!(stats.jobs, 1);
    }

    #[test]
    fn every_worker_is_reported_once() {
        let items: Vec<u32> = (0..50).collect();
        let (_, stats) = par_map_indexed(4, &items, |_, &x| x);
        let ids: Vec<usize> = stats.workers.iter().map(|w| w.worker).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(stats.items(), 50);
    }

    #[test]
    fn tail_steals_are_accounted() {
        // Every index past the bulk region is claimed one at a time, so
        // total steals equals the tail size: items - bulk.
        let items: Vec<usize> = (0..257).collect();
        let jobs = 4;
        let (_, stats) = par_map_indexed(jobs, &items, |_, &x| x);
        let chunk = items.len() / (jobs * 8);
        let tail = (chunk * jobs).min(items.len());
        assert_eq!(stats.steals(), tail as u64);
        assert!(stats.to_string().contains("tail steals"));

        let (_, serial) = par_map_indexed(1, &items, |_, &x| x);
        assert_eq!(serial.steals(), 0, "serial path never steals");
    }

    #[test]
    fn a_closed_gate_holds_the_last_worker_back() {
        let gate = Gate::new();
        let items: Vec<u32> = (0..40).collect();
        let (out, stats) = par_map_joined(3, Some(&gate), &items, |_| 1, |_, &x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        assert_eq!(stats.jobs, 3);
        assert_eq!(stats.workers[2].items, 0, "the held worker never joined");
        assert_eq!(stats.items(), 40);
    }

    #[test]
    fn the_held_worker_joins_once_the_gate_opens() {
        use std::sync::atomic::AtomicBool;
        // Item 0 opens the gate, then waits for another thread to
        // finish an item: with two workers, one of them held back, only
        // the released worker can.
        let gate = Gate::new();
        let other_done = AtomicBool::new(false);
        let first = Mutex::new(None);
        let items: Vec<usize> = (0..16).collect();
        let (out, stats) = par_map_joined(
            2,
            Some(&gate),
            &items,
            |_| 1,
            |i, &x| {
                let me = std::thread::current().id();
                if i == 0 {
                    *first.lock().unwrap() = Some(me);
                    gate.open();
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while !other_done.load(Ordering::SeqCst) {
                        assert!(Instant::now() < deadline, "the held worker never joined");
                        std::thread::yield_now();
                    }
                } else if first.lock().unwrap().is_some_and(|t| t != me) {
                    other_done.store(true, Ordering::SeqCst);
                }
                x
            },
        );
        assert_eq!(out, items);
        assert!(stats.workers.iter().all(|w| w.items > 0), "{stats}");
    }

    #[test]
    fn an_open_gate_or_spare_threads_hold_nobody_back() {
        let open = Gate::new();
        open.open();
        let items: Vec<u32> = (0..64).collect();
        let (_, stats) = par_map_joined(
            2,
            Some(&open),
            &items,
            |&x| u64::from(x),
            |_, &x| {
                std::thread::sleep(Duration::from_micros(200));
                x
            },
        );
        assert!(stats.workers.iter().all(|w| w.items > 0), "{stats}");
        assert_eq!(stats.items(), (0..64).sum::<u64>(), "items count by weight");
        // Two items need two workers; a budget of three leaves the
        // third thread to the busy one, so nobody waits.
        let closed = Gate::new();
        let (out, stats) = par_map_joined(3, Some(&closed), &[1u8, 2], |_| 1, |_, &x| x);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(stats.jobs, 2);
    }

    #[test]
    fn display_mentions_throughput() {
        let (_, stats) = par_map_indexed(2, &[1u8, 2, 3, 4], |_, &x| x);
        let s = stats.to_string();
        assert!(s.contains("items"), "{s}");
        assert!(s.contains("utilization"), "{s}");
    }
}
