//! The TCP transport: a readiness-driven event loop over `poll(2)`, a
//! fixed-size worker pool for request evaluation, and per-connection
//! framing with the robustness guarantees the protocol promises —
//! malformed requests, oversized payloads, stalls, and mid-request
//! disconnects each produce a structured error (or a clean close) on *that*
//! connection only; the daemon itself never crashes or wedges.
//!
//! ## Event-loop architecture
//!
//! One loop thread owns every socket. It polls the listener, a self-pipe,
//! and every connection for readiness, so **idle connections cost zero
//! wake-ups** — the seed transport parked one pool thread per connection
//! in a 100 ms `read_timeout` sleep loop, which put a 100 ms floor on
//! shutdown latency and a thread on every idle client. The loop answers a
//! read itself when nothing else waits, and hands every other request to a
//! [`ThreadPool`] of `config.threads` evaluation workers; finished
//! responses come back through a queue drained when the worker taps the
//! self-pipe. Flow control:
//!
//! * **Reads answered on the loop when nothing else waits** — a request
//!   that only reads published state (`query` under `auto`/`scan`, `ping`,
//!   `list`, `stats`) is answered on the loop thread, through the same
//!   `respond` a worker calls, when no request is with the pool and no
//!   other connection was readable or held a complete line at the last
//!   poll; its reply is flushed in the same iteration. That saves the two
//!   thread switches of the pool round trip. The price is that such a read
//!   delays other arrivals by its own duration, so the loop answers at most
//!   one request per poll: the observation of load it answered on is spent.
//!   Every other request, and any read that arrives while the pool is busy
//!   or another connection waits, goes to the pool, where reads run beside
//!   each other: a short read next to a connection asking long ones is not
//!   queued behind them (E19's `short-beside-long` rows). The loop parses a
//!   line only when it may answer it, and only up to `LOOP_PARSE_BYTES`;
//!   a worker parses the rest.
//! * **One request per read pass** — after a complete line the loop stops
//!   reading that connection until the next poll. A client that sends its
//!   next request the moment a reply arrives would otherwise be served
//!   again and again in one pass while every other connection waits.
//! * **In-order, per-connection backpressure** — at most one request per
//!   connection is in flight, and it stays in flight until its reply has
//!   left the connection's write buffer (responses must come back in
//!   request order, a single misbehaving pipeliner must not monopolise the
//!   pool, and a client that never reads its replies must not grow the
//!   daemon). Further pipelined lines wait in the connection buffer, and
//!   the read side stops draining the socket while a full line is already
//!   pending.
//! * **Admission control** — at `max_connections` live connections a new
//!   arrival gets an `overloaded` error and an immediate close instead of
//!   an unbounded slab slot.
//! * **Limit enforcement while reading** — a line's buffered bytes are
//!   checked against `max_request_bytes` after every chunk, so an
//!   oversized request fails at limit+1 bytes instead of ballooning
//!   memory until a newline shows up.
//! * **Wall-clock idle deadlines** — each connection carries an `Instant`
//!   deadline, reset when a complete request arrives (not on every byte:
//!   a slowloris trickling one byte per poll never completes a request
//!   and times out on schedule, where interval-accumulation drifted).

use crate::pool::ThreadPool;
use crate::protocol::{
    error_response, ErrorCode, ServiceError, DEFAULT_MAX_REQUEST_BYTES, DEFAULT_READ_TIMEOUT_MS,
};
use crate::registry::{only_reads, Control, Registry};
use datalog_json::Value;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Evaluation worker threads (the event loop itself is one more).
    pub threads: usize,
    /// Hard cap on a single request line, in bytes.
    pub max_request_bytes: usize,
    /// Close connections that send no complete request for this long.
    pub read_timeout: Duration,
    /// Admission control: connections beyond this are turned away with an
    /// `overloaded` error.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 4,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            read_timeout: Duration::from_millis(DEFAULT_READ_TIMEOUT_MS),
            max_connections: 1024,
        }
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    registry: Arc<Registry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Upper bound on one `poll(2)` sleep: the latency floor for noticing an
/// *externally* set shutdown flag and the granularity of idle-deadline
/// sweeps. Everything else — new data, new connections, finished
/// responses — wakes the loop immediately.
const MAX_POLL_SLEEP: Duration = Duration::from_millis(20);

/// How long the loop keeps flushing pending response bytes after a
/// shutdown request before closing the sockets regardless.
const SHUTDOWN_FLUSH_BUDGET: Duration = Duration::from_millis(500);

/// The longest request line the loop parses itself to see whether it only
/// reads. A read names a program, an atom and perhaps an id and a strategy,
/// a few dozen bytes; a longer line goes to a worker unparsed.
const LOOP_PARSE_BYTES: usize = 1024;

mod sys {
    //! Minimal `poll(2)` declaration — libc is always linked, no crate
    //! dependency needed.

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    pub type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = u32;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }
}

/// Safe wrapper: poll `fds`, retrying on EINTR.
fn poll(fds: &mut [sys::PollFd], timeout: Duration) -> std::io::Result<usize> {
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    loop {
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::NfdsT, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    /// Guards slab-slot reuse: a worker response for a dead generation is
    /// dropped instead of landing on whoever reused the slot.
    generation: u64,
    /// Read-side buffer: bytes received but not yet consumed as lines.
    buffer: Vec<u8>,
    /// Write-side buffer: response bytes not yet accepted by the socket.
    out: VecDeque<u8>,
    /// Is a request from this connection currently with a worker? (Its
    /// reply still counts as in flight until it has left `out`; see
    /// [`Conn::ready`].)
    in_flight: bool,
    /// Wall-clock idle deadline; armed anew when a complete request line
    /// arrives, *not* on every readable byte.
    deadline: Instant,
    /// Close once `out` drains (set after fatal per-connection errors).
    close_after_flush: bool,
    /// Error response flushed and write side shut down; now discarding
    /// inbound bytes until the peer closes (closing with unread data in
    /// the receive buffer would RST the connection and could destroy the
    /// error response before the client reads it).
    draining: bool,
}

impl Conn {
    /// May this connection start its next request? Not while one is with a
    /// worker, and not before the last reply has left `out`: a client that
    /// stops reading its replies stops being served, so it holds at most
    /// one request line and one reply in the daemon.
    fn ready(&self) -> bool {
        !self.in_flight && self.out.is_empty() && !self.close_after_flush
    }

    /// Take the next non-empty request line off the read buffer, re-arming
    /// the idle deadline for every line consumed — receiving a *complete
    /// request* is what counts as activity.
    fn next_line(&mut self, read_timeout: Duration) -> Option<String> {
        while let Some(pos) = self.buffer.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = self.buffer.drain(..=pos).collect();
            self.deadline = Instant::now() + read_timeout;
            let line = String::from_utf8_lossy(&line_bytes[..pos]);
            let line = line.trim();
            if !line.is_empty() {
                return Some(line.to_string());
            }
        }
        None
    }
}

/// A finished request travelling back from a worker to the loop.
struct Finished {
    slot: usize,
    generation: u64,
    response: Value,
    control: Control,
}

impl Server {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            registry: Arc::new(Registry::new()),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared registry, e.g. for pre-installing programs in-process.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// A flag that makes [`Server::run`] return when set (a `shutdown`
    /// request sets it too). Useful for embedding the server in tests.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serve until a `shutdown` request arrives (or the shutdown flag is
    /// set externally), then flush pending responses and return.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            registry,
            config,
            shutdown,
        } = self;
        listener.set_nonblocking(true)?;
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let wake_tx = Arc::new(wake_tx);
        let finished: Arc<Mutex<Vec<Finished>>> = Arc::new(Mutex::new(Vec::new()));
        let pool = ThreadPool::new(config.threads.max(1));

        let mut loop_ = EventLoop {
            listener,
            wake_rx,
            wake_tx,
            finished,
            pool,
            registry,
            config,
            shutdown,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            generation_counter: 0,
            with_pool: 0,
            waiting: None,
        };
        loop_.run();
        Ok(())
    }
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    wake_tx: Arc<UnixStream>,
    finished: Arc<Mutex<Vec<Finished>>>,
    pool: ThreadPool,
    registry: Arc<Registry>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    /// Connection slab; `None` slots are reusable (their index is in
    /// `free`).
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// Monotone source of connection generations, so a reused slab slot
    /// never matches a stale worker response.
    generation_counter: u64,
    /// Requests handed to the pool whose response the loop has not yet
    /// drained.
    with_pool: usize,
    /// The connections that were readable or held a complete line at the
    /// last poll; `None` once the loop has answered a request itself since,
    /// because that answer took time in which others may have arrived.
    waiting: Option<Vec<usize>>,
}

impl EventLoop {
    fn run(&mut self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut fds: Vec<sys::PollFd> = Vec::with_capacity(self.conns.len() + 2);
            // fds[0]: the self-pipe; fds[1]: the listener.
            fds.push(sys::PollFd {
                fd: fd_of(&self.wake_rx),
                events: sys::POLLIN,
                revents: 0,
            });
            fds.push(sys::PollFd {
                fd: fd_of(&self.listener),
                events: sys::POLLIN,
                revents: 0,
            });
            // Each polled slot, and whether it already holds a complete line.
            let mut slots: Vec<(usize, bool)> = Vec::with_capacity(self.conns.len());
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0i16;
                let holds_line = conn.buffer.contains(&b'\n');
                // Backpressure: stop draining the socket while a request
                // or its reply is in flight or a full line already waits
                // in the buffer — the kernel buffer then pushes back on the
                // client. A draining connection reads (and discards) freely.
                if conn.draining || (conn.ready() && !holds_line) {
                    events |= sys::POLLIN;
                }
                if !conn.out.is_empty() {
                    events |= sys::POLLOUT;
                }
                // A conn with events == 0 is still registered so that
                // POLLERR/POLLHUP are reported and a vanished peer frees
                // its slot.
                fds.push(sys::PollFd {
                    fd: fd_of(&conn.stream),
                    events,
                    revents: 0,
                });
                slots.push((slot, holds_line));
            }

            if poll(&mut fds, MAX_POLL_SLEEP).is_err() {
                // Transient poll failure: back off briefly, keep serving.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            let mut waiting = self.waiting.take().unwrap_or_default();
            waiting.clear();
            waiting.extend(
                fds[2..]
                    .iter()
                    .zip(&slots)
                    .filter(|(fd, &(_, holds_line))| {
                        holds_line || fd.revents & (sys::POLLIN | sys::POLLHUP) != 0
                    })
                    .map(|(_, &(slot, _))| slot),
            );
            self.waiting = Some(waiting);

            if fds[0].revents != 0 {
                self.drain_wake_pipe();
            }
            // Always drain finished responses — a worker may have pushed
            // between the queue check and the pipe write.
            if self.drain_finished() {
                break; // shutdown response queued; flush and exit
            }
            if fds[1].revents & sys::POLLIN != 0 {
                self.accept_ready();
            }
            for (fd, (slot, _)) in fds[2..].iter().zip(slots) {
                self.service_conn(slot, fd.revents);
            }
            self.sweep_idle_deadlines();
        }
        self.shutdown.store(true, Ordering::SeqCst);
        self.flush_and_close();
    }

    /// Accept until `WouldBlock`; over-capacity arrivals get a one-shot
    /// `overloaded` error instead of a slot.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(_) => return, // transient (EMFILE, aborted handshake)
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if self.live >= self.config.max_connections {
                let err = ServiceError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "connection limit ({}) reached; retry later",
                        self.config.max_connections
                    ),
                );
                let mut line = error_response(None, &err).to_compact();
                line.push('\n');
                // Best-effort: the line is far below any socket buffer, so
                // a single nonblocking write almost always delivers it.
                let mut stream = stream;
                let _ = stream.write(line.as_bytes());
                continue; // drop = close
            }
            self.generation_counter += 1;
            let conn = Conn {
                stream,
                generation: self.generation_counter,
                buffer: Vec::new(),
                out: VecDeque::new(),
                in_flight: false,
                deadline: Instant::now() + self.config.read_timeout,
                close_after_flush: false,
                draining: false,
            };
            match self.free.pop() {
                Some(slot) => self.conns[slot] = Some(conn),
                None => self.conns.push(Some(conn)),
            }
            self.live += 1;
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 256];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Move finished responses into their connections' write buffers.
    /// Returns true when a shutdown response was among them.
    fn drain_finished(&mut self) -> bool {
        let batch: Vec<Finished> = {
            let mut queue = self.finished.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *queue)
        };
        let mut saw_shutdown = false;
        for done in batch {
            self.with_pool -= 1;
            let Some(conn) = self.conns.get_mut(done.slot).and_then(Option::as_mut) else {
                continue; // connection died while the worker ran
            };
            if conn.generation != done.generation {
                continue; // slot was reused; response belongs to the dead conn
            }
            conn.in_flight = false;
            if done.control == Control::Shutdown {
                queue_line(conn, &done.response);
                conn.close_after_flush = true;
                saw_shutdown = true;
            } else {
                self.deliver(done.slot, &done.response);
            }
        }
        saw_shutdown
    }

    /// Handle poll readiness for one connection.
    fn service_conn(&mut self, slot: usize, revents: i16) {
        if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
            self.close(slot);
            return;
        }
        if revents & sys::POLLOUT != 0 {
            // A reply that leaves in full frees the connection's next line.
            self.flush_conn(slot);
            self.pump_requests(slot);
        }
        if revents & (sys::POLLIN | sys::POLLHUP) != 0 {
            self.read_conn(slot);
        }
    }

    /// Drain readable bytes, enforcing the payload limit per chunk, then
    /// dispatch at most one complete request.
    fn read_conn(&mut self, slot: usize) {
        let limit = self.config.max_request_bytes;
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.draining {
                // Discard everything until the peer closes.
                let mut sink = [0u8; 8192];
                loop {
                    match conn.stream.read(&mut sink) {
                        Ok(0) => {
                            self.close(slot);
                            return;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                        Err(_) => {
                            self.close(slot);
                            return;
                        }
                    }
                }
            }
            if !conn.ready() || conn.buffer.contains(&b'\n') {
                return; // backpressure: leave bytes in the kernel buffer
            }
            let mut chunk = [0u8; 8192];
            // Never read past the limit verdict: cap the chunk so the
            // buffer tops out at limit+1 bytes for an oversized line.
            let room = (limit + 1)
                .saturating_sub(conn.buffer.len())
                .min(chunk.len());
            match conn.stream.read(&mut chunk[..room.max(1)]) {
                Ok(0) => {
                    // Peer closed (possibly mid-request): drop quietly.
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    conn.buffer.extend_from_slice(&chunk[..n]);
                    // The limit is enforced *while* reading: a line that
                    // cannot complete within `limit` bytes fails now, at
                    // limit+1, not after ballooning to a newline.
                    match conn.buffer.iter().position(|&b| b == b'\n') {
                        Some(pos) if pos > limit => {
                            self.fail(slot, &oversize_error(limit));
                            return;
                        }
                        None if conn.buffer.len() > limit => {
                            self.fail(slot, &oversize_error(limit));
                            return;
                        }
                        Some(_) => {
                            // One request per wake-up: the next is read
                            // after a fresh poll, which is the observation
                            // of load that decides where it runs.
                            self.pump_requests(slot);
                            return;
                        }
                        None => continue,
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
    }

    /// Start the connection's next request, if it is ready for one. When
    /// nothing else waits (no request with the pool, no other connection
    /// readable or holding a line at the last poll) and the line is short
    /// enough to be a read, parse it here and, if it only reads published
    /// state, answer it. Everything else goes to the pool, parsed there
    /// unless it was parsed here, so no line is parsed twice and no write
    /// payload is parsed on the loop while others wait.
    fn pump_requests(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if !conn.ready() {
            return;
        }
        let Some(line) = conn.next_line(self.config.read_timeout) else {
            return;
        };
        let alone = self
            .waiting
            .as_ref()
            .is_some_and(|waiting| waiting.iter().all(|&s| s == slot));
        let parsed = (self.with_pool == 0 && alone && line.len() <= LOOP_PARSE_BYTES)
            .then(|| self.registry.parse_line(&line));
        match parsed {
            Some(Ok(request)) if only_reads(&request) => {
                self.waiting = None;
                let (response, _) = respond(&self.registry, Ok(request));
                self.registry.record_answered_on_loop();
                self.deliver(slot, &response);
            }
            parsed => {
                conn.in_flight = true;
                let generation = conn.generation;
                self.with_pool += 1;
                let registry = Arc::clone(&self.registry);
                let finished = Arc::clone(&self.finished);
                let wake = Arc::clone(&self.wake_tx);
                self.pool.execute(move || {
                    let parsed = parsed.unwrap_or_else(|| registry.parse_line(&line));
                    let (response, control) = respond(&registry, parsed);
                    finished
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Finished {
                            slot,
                            generation,
                            response,
                            control,
                        });
                    // Tap the self-pipe; a full pipe already guarantees a wake.
                    let _ = (&*wake).write(&[1]);
                });
            }
        }
    }

    /// Queue a reply, push out what the socket takes, and if all of it
    /// left, chase any pipelined follow-up request.
    fn deliver(&mut self, slot: usize, response: &Value) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        queue_line(conn, response);
        self.flush_conn(slot);
        self.pump_requests(slot);
    }

    /// Nonblocking flush of pending response bytes; closes the connection
    /// when a fatal error's response has fully drained.
    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        while !conn.out.is_empty() {
            let (front, _) = conn.out.as_slices();
            match conn.stream.write(front) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        if conn.out.is_empty() && conn.close_after_flush && !conn.draining {
            // The error response is out. Send FIN but keep reading: the
            // peer may still be mid-line, and closing with unread inbound
            // bytes would RST the response away before it is read.
            let _ = conn.stream.shutdown(std::net::Shutdown::Write);
            conn.draining = true;
            self.read_conn(slot);
        }
    }

    /// Queue a structured per-connection error and close once it flushes.
    fn fail(&mut self, slot: usize, err: &ServiceError) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        queue_line(conn, &error_response(None, err));
        conn.close_after_flush = true;
        // A draining peer that never closes must not hold the slot forever.
        conn.deadline = Instant::now() + self.config.read_timeout;
        self.flush_conn(slot);
    }

    /// Close connections whose wall-clock idle deadline passed without a
    /// complete request (and with no request in flight — an evaluating
    /// connection is busy, not idle).
    fn sweep_idle_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<(usize, bool)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(slot, conn)| {
                let conn = conn.as_ref()?;
                (!conn.in_flight && now >= conn.deadline).then_some((slot, conn.close_after_flush))
            })
            .collect();
        for (slot, already_failed) in expired {
            if already_failed {
                // Its error was sent long ago; stop waiting for the peer.
                self.close(slot);
                continue;
            }
            let err = ServiceError::new(
                ErrorCode::ReadTimeout,
                format!(
                    "no complete request within {} ms; closing connection",
                    self.config.read_timeout.as_millis()
                ),
            );
            self.fail(slot, &err);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot) {
            if conn.take().is_some() {
                self.live -= 1;
                self.free.push(slot);
            }
        }
    }

    /// Post-shutdown: give pending response bytes (most importantly the
    /// shutdown acknowledgement itself) a bounded window to drain, then
    /// drop everything. Idle connections hold no pending bytes, so a
    /// daemon with thousands of idle clients exits immediately.
    fn flush_and_close(&mut self) {
        let start = Instant::now();
        while start.elapsed() < SHUTDOWN_FLUSH_BUDGET {
            let pending: Vec<usize> = self
                .conns
                .iter()
                .enumerate()
                .filter_map(|(slot, conn)| {
                    conn.as_ref().filter(|c| !c.out.is_empty()).map(|_| slot)
                })
                .collect();
            if pending.is_empty() {
                break;
            }
            let mut fds: Vec<sys::PollFd> = Vec::with_capacity(pending.len());
            for &slot in &pending {
                let conn = self.conns[slot].as_ref().expect("pending slot live");
                fds.push(sys::PollFd {
                    fd: fd_of(&conn.stream),
                    events: sys::POLLOUT,
                    revents: 0,
                });
            }
            if poll(&mut fds, Duration::from_millis(10)).is_err() {
                break;
            }
            for &slot in &pending {
                self.flush_conn(slot);
            }
        }
        // Dropping the pool joins the workers; conns drop (and close) with
        // the loop.
        self.conns.clear();
    }
}

fn fd_of<T: std::os::unix::io::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

/// Append `response` to the connection's write buffer as one line.
fn queue_line(conn: &mut Conn, response: &Value) {
    let mut line = response.to_compact();
    line.push('\n');
    conn.out.extend(line.as_bytes());
}

/// Answer one parsed request line (a line that did not parse carries its
/// refusal), converting handler panics into a structured `internal` error
/// so one poisoned request cannot take a worker — or the loop — down.
fn respond(registry: &Registry, parsed: Result<Value, Value>) -> (Value, Control) {
    let request = match parsed {
        Ok(request) => request,
        Err(refusal) => return (refusal, Control::Continue),
    };
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.handle(&request)));
    match outcome {
        Ok(handled) => handled,
        Err(_) => {
            let err = ServiceError::new(ErrorCode::Internal, "request handler panicked");
            (error_response(request.get("id"), &err), Control::Continue)
        }
    }
}

fn oversize_error(limit: usize) -> ServiceError {
    ServiceError::new(
        ErrorCode::PayloadTooLarge,
        format!("request exceeds the {limit}-byte limit"),
    )
}
