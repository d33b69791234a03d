//! The simulated network: in-memory seeded connections behind the
//! [`cqfit_env::Net`] seam.
//!
//! A [`SimNet`] holds named listeners (`sim:<name>` addresses) and hands
//! out connection endpoints backed by two in-memory byte pipes (one per
//! direction).  Every transfer is deterministic given the seed:
//!
//! * **partial frames** — `write_all` delivers in seeded 1–7-byte chunks
//!   with a scheduler yield between chunks, so a peer's reads observe
//!   every possible frame fragmentation;
//! * **drops at any byte boundary** — a [`NetFaultPlan::cut_at`] cuts the
//!   connection after exactly that many delivered payload bytes (counted
//!   across all connections, in delivery order): the prefix is delivered,
//!   the rest of the in-flight write is silently discarded (`write_all`
//!   still returns `Ok` — the sender cannot tell, which is precisely the
//!   ambiguity the resilient client must survive), and both directions
//!   close so later reads see EOF and later writes `BrokenPipe`;
//! * **stalls** — a connection nobody writes to simply never delivers;
//!   blocked reads honor their deadline against the shared
//!   [`ManualClock`], advancing it by a configurable wait tick per empty
//!   poll so timeouts fire without real time passing;
//! * **refused connects** — [`NetFaultPlan::refuse_connects`] makes the
//!   next N connects fail with `ConnectionRefused` (and connects to a
//!   dropped listener always do), driving the client's backoff path.
//!
//! Byte accounting is observable: [`SimNet::bytes_total`] counts every
//! delivered payload byte and [`SimNet::write_marks`] records the total
//! at each completed `write_all` — the frame boundaries a harness sweeps
//! its cuts over.

use crate::sched::SimScheduler;
use crate::splitmix;
use cqfit_env::{Clock, ManualClock, Net, NetConn, NetListener};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Clock advance per empty blocking poll (read with no data, accept with
/// no pending connection).  Large enough that deadline-based code (the
/// server's 200 ms shutdown poll, the client's per-request timeout)
/// converges in a few hundred iterations; override with
/// [`SimNet::set_wait_tick`] when a test wants near-frozen time.
const DEFAULT_WAIT_TICK: Duration = Duration::from_millis(1);

/// Maximum seeded chunk size of one delivery step.
const MAX_CHUNK: u64 = 7;

/// Seeded network faults, consumed as they trigger.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetFaultPlan {
    /// Refuse this many connects (each failure decrements the budget)
    /// before letting connects through again.
    pub refuse_connects: u64,
    /// Cut the connection that is delivering when the *total* delivered
    /// payload byte count crosses this value: bytes up to the cut are
    /// delivered, the remainder of the in-flight `write_all` is silently
    /// discarded, and both directions of that connection close.  `None`
    /// cuts nothing.
    pub cut_at: Option<u64>,
}

impl NetFaultPlan {
    /// A plan injecting no faults.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan::default()
    }
}

/// One direction of a connection: a byte queue plus a closed flag.
/// Buffered bytes stay readable after close (like a real socket: data
/// received before the FIN is still delivered); only then does the
/// reader see EOF.
#[derive(Debug, Default)]
struct Pipe {
    inner: Mutex<PipeBuf>,
}

#[derive(Debug, Default)]
struct PipeBuf {
    data: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn close(&self) {
        self.inner.lock().expect("pipe").closed = true;
    }
}

#[derive(Debug, Default)]
struct ListenerState {
    pending: VecDeque<SimConn>,
    closed: bool,
}

#[derive(Debug)]
struct NetState {
    rng: u64,
    refuse_remaining: u64,
    cut_remaining: Option<u64>,
    bytes_total: u64,
    write_marks: Vec<u64>,
    listeners: HashMap<String, Arc<Mutex<ListenerState>>>,
}

/// The simulated network (see the module docs for the fault model).
/// Share one per simulated execution between the environment of every
/// task; all its decisions derive from the seed and the plan.
#[derive(Debug)]
pub struct SimNet {
    clock: Arc<ManualClock>,
    sched: Mutex<Option<Arc<SimScheduler>>>,
    state: Mutex<NetState>,
    wait_tick: Mutex<Duration>,
    conn_counter: AtomicU64,
    /// Back-reference to the owning `Arc` (set by [`SimNet::new`]), so
    /// the object-safe `&self` methods of [`Net`] can hand connections
    /// and listeners a cloned handle to the whole network.
    this: std::sync::Weak<SimNet>,
}

impl SimNet {
    /// A simulated network over `clock`, yielding through `sched` at
    /// every delivery step (pass `None` for single-threaded tests), with
    /// chunk sizes seeded by `seed` and faults per `plan`.
    pub fn new(
        clock: Arc<ManualClock>,
        sched: Option<Arc<SimScheduler>>,
        seed: u64,
        plan: NetFaultPlan,
    ) -> Arc<SimNet> {
        Arc::new_cyclic(|this| SimNet {
            clock,
            sched: Mutex::new(sched),
            state: Mutex::new(NetState {
                rng: seed ^ 0x0005_1E70_F00D,
                refuse_remaining: plan.refuse_connects,
                cut_remaining: plan.cut_at,
                bytes_total: 0,
                write_marks: Vec::new(),
                listeners: HashMap::new(),
            }),
            wait_tick: Mutex::new(DEFAULT_WAIT_TICK),
            conn_counter: AtomicU64::new(0),
            this: this.clone(),
        })
    }

    fn arc(&self) -> Arc<SimNet> {
        self.this.upgrade().expect("SimNet is alive while in use")
    }

    /// Overrides the clock advance per empty blocking poll.
    /// `Duration::ZERO` leaves time to the clock's own auto-tick — the
    /// near-frozen-time mode the drain-grace tests use to keep a grace
    /// window open across many real-thread scheduling quanta.
    pub fn set_wait_tick(&self, tick: Duration) {
        *self.wait_tick.lock().expect("wait tick") = tick;
    }

    /// Total payload bytes delivered so far, across all connections.
    pub fn bytes_total(&self) -> u64 {
        self.state.lock().expect("net state").bytes_total
    }

    /// The delivered-byte totals at each completed `write_all` — the
    /// frame boundaries of the execution, in delivery order.
    pub fn write_marks(&self) -> Vec<u64> {
        self.state.lock().expect("net state").write_marks.clone()
    }

    /// One scheduling step inside a blocking network operation: yield to
    /// the deterministic scheduler when one is attached, otherwise to the
    /// OS (real-thread tests).
    fn step(&self) {
        let sched = self.sched.lock().expect("scheduler slot").clone();
        match sched {
            Some(s) => s.maybe_yield(),
            None => std::thread::yield_now(),
        }
    }

    /// Clock advance for one empty poll.
    fn wait(&self) {
        let tick = *self.wait_tick.lock().expect("wait tick");
        if tick > Duration::ZERO {
            self.clock.advance(tick);
        }
    }
}

/// One endpoint of a simulated connection.
#[derive(Debug)]
pub struct SimConn {
    net: Arc<SimNet>,
    /// Outgoing direction (our writes, the peer's reads).
    send: Arc<Pipe>,
    /// Incoming direction (the peer's writes, our reads).
    recv: Arc<Pipe>,
    peer: String,
    /// Set once this connection was cut by the fault plan or shut down;
    /// shared between both endpoints.
    cut: Arc<AtomicBool>,
}

impl SimConn {
    fn pair(net: &Arc<SimNet>, client_peer: &str, server_peer: &str) -> (SimConn, SimConn) {
        let c2s = Arc::new(Pipe::default());
        let s2c = Arc::new(Pipe::default());
        let cut = Arc::new(AtomicBool::new(false));
        let client = SimConn {
            net: Arc::clone(net),
            send: Arc::clone(&c2s),
            recv: Arc::clone(&s2c),
            peer: client_peer.to_string(),
            cut: Arc::clone(&cut),
        };
        let server = SimConn {
            net: Arc::clone(net),
            send: s2c,
            recv: c2s,
            peer: server_peer.to_string(),
            cut,
        };
        (client, server)
    }

    fn close_both(&self) {
        self.cut.store(true, Ordering::SeqCst);
        self.send.close();
        self.recv.close();
    }
}

impl NetConn for SimConn {
    fn read(&mut self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let deadline = timeout.map(|t| self.net.clock.monotonic() + t);
        loop {
            self.net.step();
            {
                let mut pipe = self.recv.inner.lock().expect("pipe");
                if !pipe.data.is_empty() {
                    let n = buf.len().min(pipe.data.len());
                    for slot in buf.iter_mut().take(n) {
                        *slot = pipe.data.pop_front().expect("n bytes available");
                    }
                    return Ok(n);
                }
                if pipe.closed {
                    return Ok(0); // EOF (buffered bytes already drained)
                }
            }
            if let Some(d) = deadline {
                if self.net.clock.monotonic() >= d {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "simulated read timed out",
                    ));
                }
            }
            self.net.wait();
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut offset = 0;
        // Empty writes still complete a (zero-byte) delivery — no mark.
        while offset < buf.len() {
            self.net.step();
            let mut st = self.net.state.lock().expect("net state");
            {
                let pipe = self.send.inner.lock().expect("pipe");
                if pipe.closed {
                    return Err(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "simulated connection closed",
                    ));
                }
            }
            let chunk = 1 + (splitmix(&mut st.rng) % MAX_CHUNK) as usize;
            let end = (offset + chunk).min(buf.len());
            let mut piece = &buf[offset..end];
            let mut cut_now = false;
            if let Some(remaining) = st.cut_remaining {
                if piece.len() as u64 >= remaining {
                    piece = &piece[..remaining as usize];
                    st.cut_remaining = None;
                    cut_now = true;
                } else {
                    st.cut_remaining = Some(remaining - piece.len() as u64);
                }
            }
            st.bytes_total += piece.len() as u64;
            self.send
                .inner
                .lock()
                .expect("pipe")
                .data
                .extend(piece.iter().copied());
            if cut_now {
                drop(st);
                // The ambiguous drop: the delivered prefix stays
                // readable, the remainder vanishes, and the sender gets
                // `Ok` — it cannot know how much arrived.
                self.close_both();
                return Ok(());
            }
            offset = end;
        }
        let mut st = self.net.state.lock().expect("net state");
        let total = st.bytes_total;
        st.write_marks.push(total);
        Ok(())
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.close_both();
        Ok(())
    }

    fn peer_addr(&self) -> String {
        self.peer.clone()
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        // Like a dropped TcpStream: both directions close; bytes already
        // delivered stay readable.
        self.close_both();
    }
}

/// A named simulated listener; dropping it refuses later connects.
#[derive(Debug)]
pub struct SimListener {
    net: Arc<SimNet>,
    addr: String,
    state: Arc<Mutex<ListenerState>>,
}

impl NetListener for SimListener {
    fn accept(&self) -> io::Result<Box<dyn NetConn>> {
        loop {
            self.net.step();
            {
                let mut st = self.state.lock().expect("listener state");
                if let Some(conn) = st.pending.pop_front() {
                    return Ok(Box::new(conn));
                }
                if st.closed {
                    return Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "simulated listener closed",
                    ));
                }
            }
            self.net.wait();
        }
    }

    fn local_addr(&self) -> io::Result<String> {
        Ok(self.addr.clone())
    }
}

impl Drop for SimListener {
    fn drop(&mut self) {
        self.state.lock().expect("listener state").closed = true;
    }
}

impl Net for SimNet {
    fn bind(&self, addr: &str) -> io::Result<Box<dyn NetListener>> {
        let mut st = self.state.lock().expect("net state");
        if let Some(existing) = st.listeners.get(addr) {
            if !existing.lock().expect("listener state").closed {
                return Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("simulated address `{addr}` already bound"),
                ));
            }
        }
        let listener_state = Arc::new(Mutex::new(ListenerState::default()));
        st.listeners
            .insert(addr.to_string(), Arc::clone(&listener_state));
        Ok(Box::new(SimListener {
            net: self.arc(),
            addr: addr.to_string(),
            state: listener_state,
        }))
    }

    fn connect(&self, addr: &str) -> io::Result<Box<dyn NetConn>> {
        let net = self.arc();
        net.step();
        let listener = {
            let mut st = self.state.lock().expect("net state");
            if st.refuse_remaining > 0 {
                st.refuse_remaining -= 1;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "simulated connect refused by fault plan",
                ));
            }
            st.listeners.get(addr).cloned()
        };
        let Some(listener) = listener else {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("nothing listening on simulated address `{addr}`"),
            ));
        };
        let n = self.conn_counter.fetch_add(1, Ordering::Relaxed);
        let (client, server) = SimConn::pair(&net, addr, &format!("sim:peer-{n}"));
        {
            let mut st = listener.lock().expect("listener state");
            if st.closed {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("simulated listener on `{addr}` is closed"),
                ));
            }
            // TCP-backlog style: the connect succeeds immediately; the
            // server picks the connection up at its next accept.
            st.pending.push_back(server);
        }
        Ok(Box::new(client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::SimEnv;
    use crate::fs::SimFs;
    use cqfit_data::Schema;
    use cqfit_engine::{
        Client, Engine, EngineConfig, ExamplePayload, Polarity, Request, Response, RetryPolicy,
        Server,
    };
    use cqfit_env::Env;

    fn manual_clock() -> Arc<ManualClock> {
        Arc::new(ManualClock::with_auto_tick(Duration::from_micros(1)))
    }

    fn read_exact_sim(conn: &mut dyn NetConn, want: usize) -> Vec<u8> {
        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        while got.len() < want {
            let n = conn
                .read(&mut buf, Some(Duration::from_secs(5)))
                .expect("read");
            assert!(n > 0, "EOF before {want} bytes (got {})", got.len());
            got.extend_from_slice(&buf[..n]);
        }
        got
    }

    #[test]
    fn sim_net_round_trips_bytes_and_records_marks_deterministically() {
        let run = |seed: u64| {
            let net = SimNet::new(manual_clock(), None, seed, NetFaultPlan::none());
            let listener = net.bind("sim:a").unwrap();
            let mut client = net.connect("sim:a").unwrap();
            client.write_all(b"hello, server\n").unwrap();
            let mut server = listener.accept().unwrap();
            let got = read_exact_sim(server.as_mut(), 14);
            assert_eq!(&got, b"hello, server\n");
            server.write_all(b"ok\n").unwrap();
            let reply = read_exact_sim(client.as_mut(), 3);
            assert_eq!(&reply, b"ok\n");
            assert!(!client.peer_addr().is_empty());
            assert!(!server.peer_addr().is_empty());
            (net.bytes_total(), net.write_marks())
        };
        let (total, marks) = run(7);
        assert_eq!(total, 17);
        assert_eq!(marks, vec![14, 17], "one mark per completed frame");
        assert_eq!(run(7), (total, marks), "same seed, same delivery");
    }

    #[test]
    fn bind_conflicts_and_refused_connects() {
        let net = SimNet::new(
            manual_clock(),
            None,
            1,
            NetFaultPlan {
                refuse_connects: 2,
                cut_at: None,
            },
        );
        let listener = net.bind("sim:a").unwrap();
        assert_eq!(
            net.bind("sim:a").unwrap_err().kind(),
            io::ErrorKind::AddrInUse
        );
        // The fault budget refuses the first two connects, then relents.
        for _ in 0..2 {
            assert_eq!(
                net.connect("sim:a").unwrap_err().kind(),
                io::ErrorKind::ConnectionRefused
            );
        }
        assert!(net.connect("sim:a").is_ok());
        // Nothing listening / listener dropped: refused.
        assert_eq!(
            net.connect("sim:nope").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        drop(listener);
        assert_eq!(
            net.connect("sim:a").unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
        // A dropped listener's name can be rebound.
        assert!(net.bind("sim:a").is_ok());
    }

    #[test]
    fn a_cut_delivers_the_prefix_then_closes_both_directions() {
        let net = SimNet::new(
            manual_clock(),
            None,
            3,
            NetFaultPlan {
                refuse_connects: 0,
                cut_at: Some(5),
            },
        );
        let listener = net.bind("sim:a").unwrap();
        let mut client = net.connect("sim:a").unwrap();
        // The ambiguous drop: write_all reports success even though only
        // 5 of 12 bytes made it.
        client.write_all(b"hello, world").unwrap();
        let mut server = listener.accept().unwrap();
        let got = read_exact_sim(server.as_mut(), 5);
        assert_eq!(&got, b"hello");
        let mut buf = [0u8; 16];
        assert_eq!(server.read(&mut buf, None).unwrap(), 0, "EOF after cut");
        assert_eq!(
            client.write_all(b"more").unwrap_err().kind(),
            io::ErrorKind::BrokenPipe,
            "the cut connection is dead for later writes"
        );
        assert_eq!(client.read(&mut buf, None).unwrap(), 0);
        assert_eq!(net.bytes_total(), 5);
        assert!(
            net.write_marks().is_empty(),
            "a cut frame never completed, so no mark"
        );
        // The network itself survives: new connections work.
        let mut c2 = net.connect("sim:a").unwrap();
        c2.write_all(b"x\n").unwrap();
        let mut s2 = listener.accept().unwrap();
        assert_eq!(read_exact_sim(s2.as_mut(), 2), b"x\n");
    }

    #[test]
    fn blocked_reads_honor_deadlines_on_the_simulated_clock() {
        let clock = manual_clock();
        let net = SimNet::new(Arc::clone(&clock), None, 9, NetFaultPlan::none());
        let _listener = net.bind("sim:a").unwrap();
        let mut client = net.connect("sim:a").unwrap();
        let before = std::time::Instant::now();
        let t0 = clock.monotonic();
        let mut buf = [0u8; 8];
        let err = client
            .read(&mut buf, Some(Duration::from_millis(250)))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(clock.monotonic() - t0 >= Duration::from_millis(250));
        assert!(
            before.elapsed() < Duration::from_secs(5),
            "simulated time, not wall time"
        );
    }

    /// Satellite regression: `Client::call` must not hang forever against
    /// a peer that accepts the connection and then goes silent — the
    /// per-request deadline fires (on simulated time) and retries are
    /// bounded.
    #[test]
    fn client_call_times_out_against_a_silent_peer() {
        let env = SimEnv::new(Arc::new(SimFs::new()), 11);
        let net = SimNet::new(env.clock_handle(), None, 11, NetFaultPlan::none());
        let env: Arc<dyn Env> = Arc::new(env.with_net(Arc::clone(&net)));
        // Bound but never accepted: connects park in the backlog and
        // writes vanish into the pipe — the classic stalled server.
        let _listener = net.bind("sim:silent").unwrap();
        let before = std::time::Instant::now();
        let mut client = Client::connect_with("sim:silent", Arc::clone(&env)).unwrap();
        client.set_call_timeout(Some(Duration::from_millis(50)));
        client.set_retry(RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(40),
        });
        let err = client.call(&Request::Ping).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            before.elapsed() < Duration::from_secs(10),
            "deadline fired on the simulated clock, not wall time"
        );
    }

    /// Satellite regression (drain-grace edge): a client that sends half
    /// a frame and then stalls is closed at the drain deadline without a
    /// reply — shutdown cannot be held open by a stalled peer, and a
    /// never-completed request gets no answer.
    #[test]
    fn half_frame_stall_is_closed_at_the_drain_deadline_without_reply() {
        let env = SimEnv::new(Arc::new(SimFs::new()), 5);
        let clock = env.clock_handle();
        let net = SimNet::new(Arc::clone(&clock), None, 5, NetFaultPlan::none());
        // Near-frozen time: an empty poll only draws the clock's 1µs
        // auto-tick, so the server's real connection thread and this
        // test's read loop advance time at the rate they poll, and a
        // thread that loses the CPU cannot come back to find seconds of
        // simulated time gone.
        net.set_wait_tick(Duration::ZERO);
        let env: Arc<dyn Env> = Arc::new(env.with_net(Arc::clone(&net)));
        let engine = Arc::new(Engine::with_env(EngineConfig::default(), Arc::clone(&env)));
        let server = Server::bind("sim:drain", engine).unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut stalled = net.connect("sim:drain").unwrap();
        stalled.write_all(b"{\"op\":\"ping\"").unwrap(); // half a frame, then silence
        let mut client = Client::connect_with("sim:drain", Arc::clone(&env)).unwrap();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        let t0 = clock.monotonic();
        // The stalled connection is closed once its grace window passes;
        // no reply bytes ever arrive for the half frame.
        let mut buf = [0u8; 64];
        let n = stalled
            .read(&mut buf, Some(Duration::from_secs(60)))
            .unwrap();
        assert_eq!(n, 0, "closed without a reply");
        let waited = clock.monotonic().saturating_sub(t0);
        assert!(
            waited >= Duration::from_millis(250),
            "closed only after a grace window, not immediately (waited {waited:?})"
        );
        assert!(
            waited <= Duration::from_secs(5),
            "closed near the deadline, not arbitrarily late (waited {waited:?})"
        );
        handle.join().unwrap();
    }

    /// Satellite regression (drain-grace edge): a frame that *completes*
    /// within the grace window is answered before the connection closes.
    #[test]
    fn frame_completing_within_the_grace_window_is_answered() {
        let env = SimEnv::new(Arc::new(SimFs::new()), 6);
        let net = SimNet::new(env.clock_handle(), None, 6, NetFaultPlan::none());
        // Near-frozen time: only the clock's 1µs auto-tick advances it,
        // so the 500 ms grace spans hundreds of thousands of poll
        // iterations — the completing write below cannot lose the race
        // against the deadline.
        net.set_wait_tick(Duration::ZERO);
        let env: Arc<dyn Env> = Arc::new(env.with_net(Arc::clone(&net)));
        let engine = Arc::new(Engine::with_env(EngineConfig::default(), Arc::clone(&env)));
        let server = Server::bind("sim:late", engine).unwrap();
        let handle = std::thread::spawn(move || server.run().unwrap());
        let mut late = net.connect("sim:late").unwrap();
        late.write_all(b"{\"op\":").unwrap(); // half a frame
        let mut client = Client::connect_with("sim:late", Arc::clone(&env)).unwrap();
        assert!(matches!(
            client.call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        ));
        // Complete the frame inside the grace window: it must be served.
        late.write_all(b"\"ping\"}\n").unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 256];
        while !got.contains(&b'\n') {
            let n = late.read(&mut buf, Some(Duration::from_secs(600))).unwrap();
            assert!(n > 0, "closed before answering the completed frame");
            got.extend_from_slice(&buf[..n]);
        }
        let line = std::str::from_utf8(&got).unwrap().trim();
        assert!(
            matches!(serde::from_str::<Response>(line), Ok(Response::Pong)),
            "expected a pong, got `{line}`"
        );
        drop(late); // EOF lets the draining connection finish
        handle.join().unwrap();
    }

    /// One scripted create→add→info session against a sequential server
    /// under the deterministic scheduler, optionally cutting the
    /// connection after `cut_at` delivered bytes.  Returns the frame
    /// marks and the response transcript (shutdown excluded).
    fn scripted_run(seed: u64, cut_at: Option<u64>) -> (Vec<u64>, Vec<String>) {
        let sched = Arc::new(SimScheduler::new(seed));
        let env = SimEnv::with_scheduler(Arc::new(SimFs::new()), Arc::clone(&sched), seed);
        let net = SimNet::new(
            env.clock_handle(),
            Some(Arc::clone(&sched)),
            seed,
            NetFaultPlan {
                refuse_connects: 0,
                cut_at,
            },
        );
        let env: Arc<dyn Env> = Arc::new(env.with_net(Arc::clone(&net)));
        let engine = Arc::new(Engine::with_env(EngineConfig::default(), Arc::clone(&env)));
        let server = Server::bind("sim:once", engine).unwrap();
        let transcript = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(move || {
                server.run_sequential().expect("server run");
            }),
            {
                let env = Arc::clone(&env);
                let transcript = Arc::clone(&transcript);
                Box::new(move || {
                    let mut client = Client::connect_retrying("sim:once", env, 8).unwrap();
                    client.set_call_timeout(Some(Duration::from_secs(2)));
                    client.set_retry(RetryPolicy {
                        attempts: 8,
                        base: Duration::from_millis(10),
                        cap: Duration::from_millis(160),
                    });
                    let script = [
                        Request::CreateWorkspace {
                            workspace: "w".into(),
                            schema: Schema::new([("R", 2)]).unwrap(),
                            arity: 0,
                        },
                        Request::AddExample {
                            workspace: "w".into(),
                            polarity: Polarity::Positive,
                            example: ExamplePayload::Text("R(a,b)".into()),
                        },
                        Request::WorkspaceInfo {
                            workspace: "w".into(),
                        },
                    ];
                    for request in &script {
                        let response = client.call(request).expect("scripted call");
                        transcript
                            .lock()
                            .expect("transcript")
                            .push(serde::to_string(&response));
                    }
                    // Drive shutdown to completion: a refused reconnect
                    // means the server already shut down (the ack was
                    // lost), which is success.
                    match client.call(&Request::Shutdown) {
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                        Err(e) => panic!("shutdown failed: {e}"),
                    }
                })
            },
        ];
        sched.run(tasks).expect("no task panicked");
        let transcript = Arc::try_unwrap(transcript)
            .expect("tasks done")
            .into_inner()
            .expect("transcript");
        (net.write_marks(), transcript)
    }

    /// Acceptance criterion: a mutation retried after an ambiguous drop
    /// — the add request fully delivered, the connection cut before its
    /// response — is applied exactly once.  The transcript (including
    /// the final workspace info with its revision) is byte-identical to
    /// the never-dropped oracle run's.
    #[test]
    fn retried_mutation_after_ambiguous_drop_applies_exactly_once() {
        let seed = 0xE0;
        let (marks, baseline) = scripted_run(seed, None);
        assert_eq!(
            scripted_run(seed, None),
            (marks.clone(), baseline.clone()),
            "seeded runs are deterministic"
        );
        assert!(baseline[2].contains("\"positives\":1"), "{baseline:?}");
        // Frames alternate request/response in the sequential session:
        // marks[2] is the end of the add-example *request* frame, so a
        // cut there delivers the mutation but kills the connection
        // before the acknowledgment — the ambiguous drop.
        assert!(marks.len() >= 6, "expected ≥3 frame pairs, got {marks:?}");
        let (_, with_cut) = scripted_run(seed, Some(marks[2]));
        assert_eq!(
            with_cut, baseline,
            "retry after the ambiguous drop must apply exactly once \
             (identical add ack and identical final revision)"
        );
    }
}
