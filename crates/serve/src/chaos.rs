//! Deterministic network chaos: a seeded in-process TCP proxy.
//!
//! [`irs::fault::FaultPlan`] injects failures *inside* the IRS; once the
//! IRS sits behind the wire ([`crate::replica`]), the network itself
//! becomes a failure domain — connections stall, reset, and truncate
//! independently of both endpoints. [`ChaosProxy`] simulates exactly
//! that: it listens on a loopback port, forwards every connection to an
//! upstream address, and misbehaves per a seeded [`ChaosPlan`]:
//!
//! * **Black hole** — accept the connection, never forward a byte, never
//!   answer. The client's only defences are its own timeouts and hedging.
//! * **Delay** — forward, but only after a fixed stall.
//! * **Reset** — close the client connection immediately, before any
//!   byte flows (an abrupt refusal).
//! * **Truncate** — forward the upstream's response but cut the
//!   connection after N bytes, tearing frames mid-payload.
//!
//! Determinism mirrors [`FaultPlan`]: each accepted connection ticks a
//! counter, and the fault applied to connection *n* is a pure function
//! of `(seed, n)` (splitmix64) plus the runtime [`ChaosPlan::force`]
//! override. Tests that open connections in a fixed order therefore see
//! a reproducible fault sequence for a fixed seed.
//!
//! [`FaultPlan`]: irs::fault::FaultPlan

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use irs::fault::splitmix64;

/// What the proxy does to one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Forward faithfully in both directions.
    Pass,
    /// Accept but never forward or answer; the connection stays open
    /// (and silent) until the proxy shuts down or the client gives up.
    Blackhole,
    /// Forward, but only after stalling this long first.
    Delay(Duration),
    /// Close the client connection immediately.
    Reset,
    /// Forward at most this many upstream→client bytes, then cut both
    /// directions (typically mid-frame).
    Truncate(usize),
}

/// Per-category salts so each fault category rolls an independent
/// deterministic dice per connection.
const SALT_RESET: u64 = 0x5265_7365;
const SALT_BLACKHOLE: u64 = 0x426c_6163;
const SALT_TRUNCATE: u64 = 0x5472_756e;
const SALT_DELAY: u64 = 0x4465_6c61;

fn threshold(rate: f64) -> u64 {
    let clamped = rate.clamp(0.0, 1.0);
    if clamped >= 1.0 {
        u64::MAX
    } else {
        (clamped * u64::MAX as f64) as u64
    }
}

/// A deterministic schedule of connection-level network faults.
///
/// Categories are checked in a fixed order per connection — reset,
/// black hole, truncate, delay — and the first whose seeded dice roll
/// fires decides the connection's fate. [`ChaosPlan::force`] overrides
/// everything at runtime (for scripted scenarios like "black-hole
/// replica A now").
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    reset_threshold: AtomicU64,
    blackhole_threshold: AtomicU64,
    truncate_threshold: AtomicU64,
    truncate_at: AtomicU64,
    delay_threshold: AtomicU64,
    delay_us: AtomicU64,
    /// Runtime override: `Some(mode)` applies `mode` to every new
    /// connection regardless of the seeded schedule.
    forced: Mutex<Option<ChaosMode>>,
    conns: AtomicU64,
    injected: AtomicU64,
}

impl ChaosPlan {
    /// A plan that forwards everything faithfully.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            seed,
            reset_threshold: AtomicU64::new(0),
            blackhole_threshold: AtomicU64::new(0),
            truncate_threshold: AtomicU64::new(0),
            truncate_at: AtomicU64::new(64),
            delay_threshold: AtomicU64::new(0),
            delay_us: AtomicU64::new(0),
            forced: Mutex::new(None),
            conns: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Reset each connection independently with probability `rate`.
    pub fn with_reset_rate(self, rate: f64) -> Self {
        self.reset_threshold
            .store(threshold(rate), Ordering::Relaxed);
        self
    }

    /// Black-hole each connection independently with probability `rate`.
    pub fn with_blackhole_rate(self, rate: f64) -> Self {
        self.blackhole_threshold
            .store(threshold(rate), Ordering::Relaxed);
        self
    }

    /// Truncate each connection's response stream after `at` bytes,
    /// independently with probability `rate`.
    pub fn with_truncate(self, rate: f64, at: usize) -> Self {
        self.truncate_threshold
            .store(threshold(rate), Ordering::Relaxed);
        self.truncate_at.store(at as u64, Ordering::Relaxed);
        self
    }

    /// Delay each connection by `delay` independently with probability
    /// `rate`.
    pub fn with_delay(self, rate: f64, delay: Duration) -> Self {
        self.delay_threshold
            .store(threshold(rate), Ordering::Relaxed);
        self.delay_us
            .store(delay.as_micros() as u64, Ordering::Relaxed);
        self
    }

    /// Override the schedule: apply `mode` to every new connection
    /// (`None` returns control to the seeded dice). Takes effect for
    /// connections accepted after the call.
    pub fn force(&self, mode: Option<ChaosMode>) {
        *self.forced.lock().unwrap_or_else(|e| e.into_inner()) = mode;
    }

    /// Connections the plan has decided so far.
    pub fn conns_seen(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }

    /// Connections that received a fault (anything but [`ChaosMode::Pass`]).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The mode for connection `conn` — pure in `(seed, conn)` given
    /// fixed rates and no override, so callers (and tests) can predict
    /// the schedule without opening sockets.
    pub fn mode_for(&self, conn: u64) -> ChaosMode {
        if let Some(mode) = *self.forced.lock().unwrap_or_else(|e| e.into_inner()) {
            return mode;
        }
        let roll = |salt: u64| splitmix64(self.seed ^ conn.wrapping_mul(0x9e37_79b9) ^ salt);
        if roll(SALT_RESET) < self.reset_threshold.load(Ordering::Relaxed) {
            return ChaosMode::Reset;
        }
        if roll(SALT_BLACKHOLE) < self.blackhole_threshold.load(Ordering::Relaxed) {
            return ChaosMode::Blackhole;
        }
        if roll(SALT_TRUNCATE) < self.truncate_threshold.load(Ordering::Relaxed) {
            return ChaosMode::Truncate(self.truncate_at.load(Ordering::Relaxed) as usize);
        }
        if roll(SALT_DELAY) < self.delay_threshold.load(Ordering::Relaxed) {
            return ChaosMode::Delay(Duration::from_micros(self.delay_us.load(Ordering::Relaxed)));
        }
        ChaosMode::Pass
    }

    /// Decide (and account) the next accepted connection's fate.
    fn next_mode(&self) -> ChaosMode {
        let conn = self.conns.fetch_add(1, Ordering::Relaxed);
        let mode = self.mode_for(conn);
        if mode != ChaosMode::Pass {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        mode
    }
}

/// How often forwarding loops and black holes poll the shutdown flag.
const POLL: Duration = Duration::from_millis(20);

/// A loopback TCP proxy that subjects every connection to a
/// [`ChaosPlan`] on its way to `upstream`.
pub struct ChaosProxy {
    plan: Arc<ChaosPlan>,
    local_addr: SocketAddr,
    shutting_down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ChaosProxy {
    /// Listen on an ephemeral loopback port and forward to `upstream`
    /// under `plan`.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let plan = Arc::new(plan);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let plan = Arc::clone(&plan);
            let shutting_down = Arc::clone(&shutting_down);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                accept_loop(listener, upstream, plan, shutting_down, conn_threads)
            })
        };
        Ok(ChaosProxy {
            plan,
            local_addr,
            shutting_down,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The proxy's listening address — what clients dial instead of the
    /// upstream.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The plan, for runtime overrides ([`ChaosPlan::force`]) and
    /// counters.
    pub fn plan(&self) -> &Arc<ChaosPlan> {
        &self.plan
    }

    /// Stop accepting, cut every proxied connection, join all threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let threads: Vec<JoinHandle<()>> = self
            .conn_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

impl fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("conns_seen", &self.plan.conns_seen())
            .field("injected", &self.plan.injected())
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: Arc<ChaosPlan>,
    shutting_down: Arc<AtomicBool>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (client, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) if shutting_down.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let mode = plan.next_mode();
        let flag = Arc::clone(&shutting_down);
        let handle = std::thread::spawn(move || handle_proxied(client, upstream, mode, flag));
        conn_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }
}

fn handle_proxied(client: TcpStream, upstream: SocketAddr, mode: ChaosMode, flag: Arc<AtomicBool>) {
    let mut limit: Option<usize> = None;
    match mode {
        ChaosMode::Reset => return, // drop = close before any byte flows
        ChaosMode::Blackhole => {
            // Hold the socket open and silent. Don't read: the client's
            // request bytes sit in kernel buffers and nothing ever
            // answers — indistinguishable from a hung peer.
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(POLL);
            }
            return;
        }
        ChaosMode::Delay(d) => {
            // Stall before even connecting upstream; a patient client
            // then gets a faithful (just late) exchange.
            let mut waited = Duration::ZERO;
            while waited < d && !flag.load(Ordering::SeqCst) {
                let step = POLL.min(d - waited);
                std::thread::sleep(step);
                waited += step;
            }
            if flag.load(Ordering::SeqCst) {
                return;
            }
        }
        ChaosMode::Truncate(n) => limit = Some(n),
        ChaosMode::Pass => {}
    }
    let Ok(server) = TcpStream::connect(upstream) else {
        return; // upstream gone: the client sees a closed connection
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Two pumps, one per direction; the upstream→client pump enforces
    // the truncation budget. When either direction ends, both sockets
    // are shut down so the other pump unblocks too.
    let up_flag = Arc::clone(&flag);
    let up = std::thread::spawn(move || {
        pump(client_r, server, None, &up_flag);
    });
    pump(server_r, client, limit, &flag);
    let _ = up.join();
}

/// Copy `from` into `to` until EOF, error, shutdown, or (when `limit`
/// is set) the byte budget runs out — then sever both sockets.
fn pump(mut from: TcpStream, mut to: TcpStream, limit: Option<usize>, flag: &AtomicBool) {
    let _ = from.set_read_timeout(Some(POLL));
    let mut remaining = limit;
    let mut buf = [0u8; 16 * 1024];
    loop {
        if flag.load(Ordering::SeqCst) {
            break;
        }
        match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let allowed = match &mut remaining {
                    Some(left) => {
                        let take = n.min(*left);
                        *left -= take;
                        take
                    }
                    None => n,
                };
                if allowed > 0 && to.write_all(&buf[..allowed]).is_err() {
                    break;
                }
                if matches!(remaining, Some(0)) {
                    break; // truncation budget spent: cut mid-stream
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = ChaosPlan::new(42)
            .with_blackhole_rate(0.3)
            .with_reset_rate(0.1);
        let b = ChaosPlan::new(42)
            .with_blackhole_rate(0.3)
            .with_reset_rate(0.1);
        let seq_a: Vec<ChaosMode> = (0..64).map(|i| a.mode_for(i)).collect();
        let seq_b: Vec<ChaosMode> = (0..64).map(|i| b.mode_for(i)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same schedule");
        let c = ChaosPlan::new(43)
            .with_blackhole_rate(0.3)
            .with_reset_rate(0.1);
        let seq_c: Vec<ChaosMode> = (0..64).map(|i| c.mode_for(i)).collect();
        assert_ne!(seq_a, seq_c, "different seed, different schedule");
        // The configured rates roughly show up in the schedule.
        let holes = seq_a
            .iter()
            .filter(|m| matches!(m, ChaosMode::Blackhole))
            .count();
        assert!(holes > 5 && holes < 40, "≈30% of 64, got {holes}");
    }

    #[test]
    fn force_overrides_and_releases() {
        let plan = ChaosPlan::new(7);
        assert_eq!(plan.mode_for(0), ChaosMode::Pass);
        plan.force(Some(ChaosMode::Blackhole));
        assert_eq!(plan.mode_for(0), ChaosMode::Blackhole);
        plan.force(None);
        assert_eq!(plan.mode_for(0), ChaosMode::Pass);
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let always = ChaosPlan::new(1).with_reset_rate(1.0);
        let never = ChaosPlan::new(1);
        for i in 0..32 {
            assert_eq!(always.mode_for(i), ChaosMode::Reset);
            assert_eq!(never.mode_for(i), ChaosMode::Pass);
        }
    }

    #[test]
    fn proxy_passes_bytes_through_faithfully() {
        // A tiny echo upstream.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).unwrap();
            conn.write_all(&buf).unwrap();
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosPlan::new(9)).unwrap();
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        assert_eq!(proxy.plan().conns_seen(), 1);
        assert_eq!(proxy.plan().injected(), 0);
        echo.join().unwrap();
        proxy.shutdown();
    }

    #[test]
    fn truncation_cuts_the_response_stream() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let srv = std::thread::spawn(move || {
            let (mut conn, _) = upstream.accept().unwrap();
            let _ = conn.write_all(&[0xAB; 100]);
            // Keep the socket open briefly so the cut is the proxy's.
            std::thread::sleep(Duration::from_millis(100));
        });
        let plan = ChaosPlan::new(3);
        plan.force(Some(ChaosMode::Truncate(10)));
        let proxy = ChaosProxy::start(upstream_addr, plan).unwrap();
        let mut conn = TcpStream::connect(proxy.local_addr()).unwrap();
        let mut got = Vec::new();
        let n = conn.read_to_end(&mut got).unwrap_or(got.len());
        assert!(n <= 10, "proxy forwarded {n} bytes past the 10-byte cut");
        srv.join().unwrap();
        proxy.shutdown();
    }
}
