//! The simulated environment: a [`SimFs`], a deterministic auto-ticking
//! clock, seeded randomness, and — when a [`SimScheduler`] is attached —
//! yield points that actually switch tasks.
//!
//! Hand an `Arc<SimEnv>` to `Store::open_with` and the entire stack built
//! on that store (the engine inherits the store's environment) performs
//! every effect through the simulation.

use crate::fs::SimFs;
use crate::net::SimNet;
use crate::sched::SimScheduler;
use crate::splitmix;
use cqfit_env::{Clock, Env, Fs, ManualClock, Net};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A fully simulated [`Env`]: everything a run observes — file contents,
/// clock readings, random draws, network transfers, scheduling decisions
/// — derives from the filesystem state, the seed, and nothing else.
#[derive(Debug)]
pub struct SimEnv {
    fs: Arc<SimFs>,
    clock: Arc<ManualClock>,
    sched: Option<Arc<SimScheduler>>,
    net: Option<Arc<SimNet>>,
    rng: AtomicU64,
}

impl SimEnv {
    /// An environment over `fs` with no scheduler (yield points are
    /// no-ops): single-threaded crash and fault exploration.
    pub fn new(fs: Arc<SimFs>, seed: u64) -> SimEnv {
        SimEnv {
            fs,
            // Auto-tick: every reading advances time by 1µs, so
            // duration-based code (uptime, drain deadlines) observes
            // strictly increasing, fully deterministic time.
            clock: Arc::new(ManualClock::with_auto_tick(Duration::from_micros(1))),
            sched: None,
            net: None,
            rng: AtomicU64::new(seed),
        }
    }

    /// An environment whose yield points switch between the scheduler's
    /// registered tasks: deterministic concurrency exploration.
    pub fn with_scheduler(fs: Arc<SimFs>, sched: Arc<SimScheduler>, seed: u64) -> SimEnv {
        SimEnv {
            sched: Some(sched),
            ..SimEnv::new(fs, seed)
        }
    }

    /// Attaches a simulated network: [`Env::net`] then resolves to it
    /// instead of the real one.  The caller builds the [`SimNet`] over
    /// this environment's clock ([`SimEnv::clock_handle`]) and scheduler
    /// so blocked reads, deadlines, and delivery yields all run on the
    /// same simulated time and task interleaving.
    pub fn with_net(mut self, net: Arc<SimNet>) -> SimEnv {
        self.net = Some(net);
        self
    }

    /// The simulated clock as a shareable handle (for building a
    /// [`SimNet`] over it, or advancing time from a test).
    pub fn clock_handle(&self) -> Arc<ManualClock> {
        Arc::clone(&self.clock)
    }

    /// The scheduler attached via [`SimEnv::with_scheduler`], if any.
    pub fn scheduler(&self) -> Option<Arc<SimScheduler>> {
        self.sched.clone()
    }
}

impl Env for SimEnv {
    fn fs(&self) -> &dyn Fs {
        self.fs.as_ref()
    }

    fn clock(&self) -> &dyn Clock {
        self.clock.as_ref()
    }

    fn yield_point(&self, _label: &str) {
        if let Some(sched) = &self.sched {
            sched.maybe_yield();
        }
    }

    fn net(&self) -> &dyn Net {
        match &self.net {
            Some(net) => net.as_ref(),
            None => cqfit_env::real_net(),
        }
    }

    fn rng_u64(&self) -> u64 {
        // Not a hot path in simulation: a mutex-free CAS loop would be
        // overkill, but stay lock-free anyway via fetch_update.
        let next = self
            .rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                let mut state = s;
                let _ = splitmix(&mut state);
                Some(state)
            })
            .expect("fetch_update with Some never fails");
        let mut state = next;
        splitmix(&mut state)
    }
}

/// A shared event log for assertions about interleavings — handy when a
/// harness wants to know *where* tasks switched, not just the outcome.
#[derive(Debug, Default)]
pub struct TraceLog {
    events: Mutex<Vec<String>>,
}

impl TraceLog {
    /// Appends one event.
    pub fn push(&self, event: impl Into<String>) {
        self.events.lock().expect("trace log").push(event.into());
    }

    /// All events so far, in order.
    pub fn events(&self) -> Vec<String> {
        self.events.lock().expect("trace log").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_env::OpenMode;
    use std::path::Path;

    #[test]
    fn sim_env_is_deterministic_per_seed() {
        let draws = |seed: u64| {
            let env = SimEnv::new(Arc::new(SimFs::new()), seed);
            (env.rng_u64(), env.rng_u64(), env.clock().monotonic())
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9).0, draws(10).0);
        let env = SimEnv::new(Arc::new(SimFs::new()), 0);
        let a = env.clock().monotonic();
        let b = env.clock().monotonic();
        assert!(b > a, "auto-tick makes time strictly increase");
        env.yield_point("no scheduler: must be a no-op");
    }

    #[test]
    fn env_routes_to_the_sim_fs() {
        let fs = Arc::new(SimFs::new());
        let env = SimEnv::new(Arc::clone(&fs), 0);
        env.fs().create_dir_all(Path::new("/d")).unwrap();
        let mut f = env
            .fs()
            .open(Path::new("/d/x"), OpenMode::CreateTruncate)
            .unwrap();
        f.write_all(b"hi").unwrap();
        assert_eq!(fs.read(Path::new("/d/x")).unwrap(), b"hi");
    }
}
