//! The deterministic scheduler: N tasks on real threads, exactly one
//! running at a time, with seeded switch decisions at
//! [`cqfit_env::Env::yield_point`]s.
//!
//! Each task runs exclusively between yield points, so `std` mutexes
//! inside the code under test are never contended *between registered
//! tasks* — which is what makes yielding safe under the call discipline
//! documented in `cqfit-env` (never yield while holding a lock another
//! registered task can block on).  Unregistered threads — the test
//! runner, and the concurrent appenders phase G spawns to force a group
//! commit — pass through yield points and run freely; the engine itself
//! spawns no threads, so every engine call runs inside its task's slice.
//!
//! The switch sequence derives entirely from the seed, so a failing
//! interleaving replays exactly from its seed.

use crate::splitmix;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Parked, eligible to be scheduled.
    Ready,
    /// The single task currently executing.
    Running,
    /// Finished (normally or by panic).
    Done,
}

#[derive(Debug, Default)]
struct Shared {
    states: Vec<TaskState>,
    current: Option<usize>,
    rng: u64,
}

impl Shared {
    /// Seeded pick among the ready tasks (possibly the one that just
    /// yielded).  `current` becomes `None` when nothing is ready.
    fn pick_next(&mut self) {
        let ready: Vec<usize> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TaskState::Ready)
            .map(|(i, _)| i)
            .collect();
        self.current = match ready.len() {
            0 => None,
            n => Some(ready[(splitmix(&mut self.rng) as usize) % n]),
        };
    }
}

thread_local! {
    /// `(scheduler identity, task id)` of the registered task running on
    /// this thread, if any.  Unregistered threads (the test runner, phase
    /// G's appenders) see `None` and never yield.
    static CURRENT_TASK: RefCell<Option<(usize, usize)>> = const { RefCell::new(None) };
}

/// The deterministic task scheduler.  Create one per simulated
/// execution, hand it to [`crate::SimEnv`], and drive tasks through
/// [`SimScheduler::run`].
#[derive(Debug)]
pub struct SimScheduler {
    shared: Mutex<Shared>,
    cv: Condvar,
}

impl SimScheduler {
    /// A scheduler whose every switch decision derives from `seed`.
    pub fn new(seed: u64) -> SimScheduler {
        SimScheduler {
            shared: Mutex::new(Shared {
                rng: seed ^ 0x5C4E_D01E,
                ..Shared::default()
            }),
            cv: Condvar::new(),
        }
    }

    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Runs the tasks to completion under deterministic interleaving.
    /// Panics inside tasks are caught (so the run always drains) and
    /// returned as messages.
    ///
    /// # Errors
    /// The panic messages of every task that panicked, in completion
    /// order.
    pub fn run(self: &Arc<Self>, tasks: Vec<Box<dyn FnOnce() + Send>>) -> Result<(), Vec<String>> {
        {
            let mut sh = self.shared.lock().expect("scheduler state");
            sh.states = vec![TaskState::Ready; tasks.len()];
            sh.current = None;
        }
        let panics: Mutex<Vec<String>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for (id, task) in tasks.into_iter().enumerate() {
                let sched = Arc::clone(self);
                let panics = &panics;
                scope.spawn(move || {
                    CURRENT_TASK.with(|c| *c.borrow_mut() = Some((sched.identity(), id)));
                    sched.wait_turn(id);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        panics
                            .lock()
                            .expect("panic list")
                            .push(format!("task {id}: {msg}"));
                    }
                    CURRENT_TASK.with(|c| *c.borrow_mut() = None);
                    sched.finish(id);
                });
            }
            // Every task parks in `wait_turn` until this first pick.
            let mut sh = self.shared.lock().expect("scheduler state");
            sh.pick_next();
            drop(sh);
            self.cv.notify_all();
        });
        let panics = panics.into_inner().expect("panic list");
        if panics.is_empty() {
            Ok(())
        } else {
            Err(panics)
        }
    }

    /// Called from [`cqfit_env::Env::yield_point`]: if the calling thread
    /// is a task registered with *this* scheduler, park it and let the
    /// seeded pick decide who runs next.  No-op on unregistered threads.
    pub fn maybe_yield(self: &Arc<Self>) {
        let me = self.identity();
        let id = CURRENT_TASK.with(|c| {
            c.borrow()
                .as_ref()
                .and_then(|&(owner, id)| (owner == me).then_some(id))
        });
        if let Some(id) = id {
            self.yield_now(id);
        }
    }

    fn wait_turn(&self, id: usize) {
        let mut sh = self.shared.lock().expect("scheduler state");
        while sh.current != Some(id) {
            sh = self.cv.wait(sh).expect("scheduler state");
        }
        sh.states[id] = TaskState::Running;
    }

    fn yield_now(&self, id: usize) {
        let mut sh = self.shared.lock().expect("scheduler state");
        debug_assert_eq!(sh.current, Some(id), "yield from a descheduled task");
        sh.states[id] = TaskState::Ready;
        sh.pick_next();
        if sh.current == Some(id) {
            sh.states[id] = TaskState::Running;
            return;
        }
        self.cv.notify_all();
        while sh.current != Some(id) {
            sh = self.cv.wait(sh).expect("scheduler state");
        }
        sh.states[id] = TaskState::Running;
    }

    fn finish(&self, id: usize) {
        let mut sh = self.shared.lock().expect("scheduler state");
        sh.states[id] = TaskState::Done;
        if sh.current == Some(id) {
            sh.pick_next();
        }
        drop(sh);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs three tasks that interleave at explicit yields and records
    /// the event order; the order must be seed-deterministic and must
    /// differ between (at least some) seeds.
    fn trace(seed: u64) -> Vec<u64> {
        let sched = Arc::new(SimScheduler::new(seed));
        let events = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..3u64)
            .map(|task| {
                let sched = Arc::clone(&sched);
                let events = Arc::clone(&events);
                Box::new(move || {
                    for step in 0..4u64 {
                        events.lock().unwrap().push(task * 10 + step);
                        sched.maybe_yield();
                    }
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        sched.run(tasks).expect("no panics");
        Arc::try_unwrap(events).unwrap().into_inner().unwrap()
    }

    #[test]
    fn interleavings_are_seed_deterministic_and_seed_sensitive() {
        let a1 = trace(7);
        let a2 = trace(7);
        assert_eq!(a1, a2, "same seed, same interleaving");
        assert_eq!(a1.len(), 12, "every step of every task ran");
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]);
        // Per-task order is preserved even though tasks interleave.
        for task in 0..3u64 {
            let steps: Vec<u64> = a1.iter().filter(|e| *e / 10 == task).copied().collect();
            assert_eq!(
                steps,
                vec![task * 10, task * 10 + 1, task * 10 + 2, task * 10 + 3]
            );
        }
        assert!(
            (0..32).any(|s| trace(s) != a1),
            "some seed must produce a different interleaving"
        );
    }

    #[test]
    fn unregistered_threads_pass_through_yields() {
        let sched = Arc::new(SimScheduler::new(1));
        sched.maybe_yield(); // test thread is unregistered: must not hang
        let inner_ran = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![{
            let sched = Arc::clone(&sched);
            let inner_ran = Arc::clone(&inner_ran);
            Box::new(move || {
                // A thread the task spawns itself is unregistered and
                // runs freely within the task's slice.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        sched.maybe_yield();
                        inner_ran.fetch_add(1, Ordering::SeqCst);
                    });
                });
                sched.maybe_yield();
                inner_ran.fetch_add(10, Ordering::SeqCst);
            })
        }];
        sched.run(tasks).expect("no panics");
        assert_eq!(inner_ran.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn a_panicking_task_is_reported_and_does_not_hang_the_run() {
        let sched = Arc::new(SimScheduler::new(3));
        let survivor = Arc::new(AtomicU64::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![Box::new(|| panic!("boom in task")), {
            let sched = Arc::clone(&sched);
            let survivor = Arc::clone(&survivor);
            Box::new(move || {
                sched.maybe_yield();
                survivor.store(1, Ordering::SeqCst);
            })
        }];
        let err = sched.run(tasks).expect_err("panic must surface");
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("boom in task"), "got {err:?}");
        assert_eq!(survivor.load(Ordering::SeqCst), 1, "other task completed");
    }
}
