//! The event-driven serving core: one epoll reactor thread owning the
//! listener and every connection (DESIGN.md §14).
//!
//! The reactor multiplexes all sockets over level-triggered epoll
//! ([`crate::sys`]) and never computes: parsed requests are dispatched to the
//! worker pool, and finished work comes back over a [`CompletionQueue`] whose
//! notify callback writes one byte into a wakeup pipe registered with the
//! same epoll — so a completion interrupts `epoll_wait` exactly like socket
//! readiness. The one exception is a read of a published session version
//! (`GET /session/{id}`): when the store can answer it without waiting
//! ([`hc_session::SessionStore::try_get`]), the reactor runs the attempt
//! itself and writes the shared document, one such read per connection per
//! event-loop pass.
//!
//! Connection state machine:
//!
//! ```text
//! accept → Reading ──parsed──> Dispatched ──Respond──> Writing ─┬─close──> Draining → closed
//!            ^                  │      ^                        │
//!            │                  Park   │ Wake / deadline        │keep-alive
//!            │                  v      │                        │
//!            │                 Waiting─┘                        │
//!            └──────────────────────────────────────────────────┘
//! ```
//!
//! * **Reading** — interest `EPOLLIN|EPOLLRDHUP`; bytes feed the resumable
//!   [`RequestParser`]. A complete head+body dispatches to the pool, or, for
//!   a session read the store resolves at once, goes straight to Writing.
//! * **Dispatched** — a worker owns the request; interest drops to `0`
//!   (errors and hangups are still delivered). The socket is untouched.
//! * **Waiting** — a parked `GET /session/{id}/watch` long-poll: the task is
//!   stored on the connection and a store waker re-dispatches it when the
//!   session changes; the sweep resumes it at its deadline.
//! * **Writing** — the rendered head and the response body (often an
//!   `Arc<[u8]>` straight from the result cache — zero copies) go out with
//!   vectored writes; `EPOLLOUT` is armed only after a partial write.
//! * **Draining** — a closing connection lingers briefly discarding input,
//!   so the kernel never RSTs a response out from under unread pipelined
//!   bytes; then the socket closes.
//!
//! Tokens are `slot_index | generation << 32`; the generation bumps on every
//! close so a stale epoll event or late completion for a recycled slot is
//! recognized and dropped instead of touching the wrong connection.

#![cfg(target_os = "linux")]

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_session::WatchWaker;

use crate::http::{render_head, Body, HttpError, Request, RequestParser, Response};
use crate::server::{next_request_id, run_attempt, AttemptOutcome, ReqTask, ServerState};
use crate::signal;
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::threadpool::CompletionQueue;

/// `epoll_wait` tick: the sweep (timeouts, deadlines, shutdown flag) runs at
/// least this often even with no socket activity.
const TICK_MS: i32 = 100;
/// Events collected per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 1024;
/// Read chunk size; a shorter read means the socket is drained.
const READ_CHUNK: usize = 16 * 1024;
/// How long a closing connection lingers discarding input so the kernel does
/// not RST the response away because of unread bytes.
const DRAIN_WINDOW: Duration = Duration::from_millis(250);
/// Longest wait for in-flight requests during graceful shutdown.
const DRAIN_GRACE: Duration = Duration::from_secs(5);
/// Overload control-loop cadence: the ladder/autoscale tick runs at most this
/// often, however busy the event loop is (and at least every `TICK_MS`).
const CONTROL_TICK: Duration = Duration::from_millis(50);

/// Token of the listener socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the completion-queue wakeup pipe.
const TOKEN_WAKEUP: u64 = u64::MAX - 1;

fn token_of(idx: usize, gen: u32) -> u64 {
    (idx as u64) | ((gen as u64) << 32)
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// A response in flight: rendered head + body, with progress offsets.
struct WriteBuf {
    head: Vec<u8>,
    body: Body,
    head_off: usize,
    body_off: usize,
    close_after: bool,
}

/// Where a connection is in its request cycle (see the module diagram).
enum ConnState {
    Reading,
    Dispatched,
    Waiting {
        task: Box<ReqTask>,
        waker: Arc<WatchWaker>,
        deadline: Instant,
    },
    Writing(WriteBuf),
    Draining {
        until: Instant,
    },
}

struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    state: ConnState,
    /// Currently armed epoll interest mask (modifies are skipped when equal).
    interest: u32,
    /// Last byte moved in either direction; drives idle and write timeouts.
    last_activity: Instant,
    /// When the current request began: accept for the first, first byte of
    /// the next request for keep-alive reuse. The latency clock.
    req_start: Instant,
    /// Requests answered on this connection.
    served: u64,
    /// Keep-alive decision parsed from the current request's headers.
    cur_keep_alive: bool,
    /// Event-loop pass in which this connection last had a read answered on
    /// the reactor: one per pass, so a pipelining client cannot hold it.
    inline_pass: u64,
}

/// What the worker pool hands back to the reactor.
enum Completion {
    /// A response to write to the connection `token` belongs to.
    Respond {
        token: u64,
        response: Response,
        started: Instant,
    },
    /// A watch long-poll parked on its session: hold the task until its
    /// waker fires or `deadline` passes.
    Parked {
        token: u64,
        task: Box<ReqTask>,
        waker: Arc<WatchWaker>,
        deadline: Instant,
    },
    /// A parked watcher's session changed: re-dispatch its task.
    Wake { token: u64 },
}

/// Arms a `500` completion for the lifetime of a pool job: if the job
/// unwinds anywhere outside [`run_attempt`]'s own catch, the drop still
/// answers the client and settles the in-flight slot instead of leaking the
/// connection in `Dispatched` forever.
struct CompletionGuard {
    completions: Arc<CompletionQueue<Completion>>,
    state: Arc<ServerState>,
    token: u64,
    started: Instant,
    armed: bool,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.state.faults.panics.fetch_add(1, Ordering::Relaxed);
        self.completions.push(Completion::Respond {
            token: self.token,
            response: dispatch_panic_response(),
            started: self.started,
        });
    }
}

/// The `500` for a panic that escaped [`run_attempt`]'s own catch.
fn dispatch_panic_response() -> Response {
    HttpError::typed(
        500,
        "internal_panic",
        "internal panic while dispatching request",
    )
    .to_response()
}

/// One sweep decision, computed under the connection borrow and acted on
/// after it ends.
enum SweepAction {
    None,
    Resume,
    IdleClose,
    Stalled,
    Close,
}

/// Outcome of one vectored write attempt.
enum WriteStep {
    Done { close: bool },
    Progress,
    Blocked,
    Failed,
}

/// Runs the reactor until shutdown; owns teardown (session drain, pool
/// shutdown, the tsdb collector's exit) even when reactor construction
/// itself fails.
pub fn run(listener: TcpListener, state: Arc<ServerState>) {
    match Reactor::new(listener, Arc::clone(&state)) {
        Ok(mut reactor) => reactor.event_loop(),
        Err(e) => {
            eprintln!("hcm serve: reactor init failed: {e}");
            state.sessions.drain();
            state.pool.shutdown();
        }
    }
    state.stop_collector();
}

struct Reactor {
    epoll: Epoll,
    state: Arc<ServerState>,
    /// Taken (closed) when draining begins, refusing new connections.
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Generation per slot, bumped on close; tokens carry the generation so
    /// stale events for recycled slots are dropped.
    gens: Vec<u32>,
    free: Vec<usize>,
    completions: Arc<CompletionQueue<Completion>>,
    wake_rx: UnixStream,
    draining_since: Option<Instant>,
    /// Last overload control-loop tick (throttles to [`CONTROL_TICK`]).
    last_control_tick: Instant,
    /// The one socket read buffer, shared by every connection.
    read_buf: Box<[u8]>,
    /// Event-loop passes so far (see [`Conn::inline_pass`]).
    pass: u64,
    /// Connections whose parser may hold a complete request that this pass
    /// did not take; the next pass polls them, without sleeping first.
    revisit: Vec<u64>,
}

impl Reactor {
    fn new(listener: TcpListener, state: Arc<ServerState>) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        // The notify side lives in the completion queue: every push writes
        // one byte, kicking epoll_wait. A full pipe buffer is fine — a byte
        // is already pending, so the reactor is waking anyway.
        let completions = Arc::new(CompletionQueue::new(move || {
            let _ = (&wake_tx).write(&[1]);
        }));
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKEUP)?;
        Ok(Self {
            epoll,
            state,
            listener: Some(listener),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            completions,
            wake_rx,
            draining_since: None,
            last_control_tick: Instant::now(),
            read_buf: vec![0; READ_CHUNK].into_boxed_slice(),
            pass: 0,
            revisit: Vec::new(),
        })
    }

    /// One overload control-loop step: tick the admission ladder with the
    /// current backlog, then apply its autoscale decision to the pool.
    fn control_tick(&mut self, now: Instant) {
        if now.duration_since(self.last_control_tick) < CONTROL_TICK {
            return;
        }
        self.last_control_tick = now;
        let queued = self.state.pool.queued();
        self.state.overload.tick(now, queued);
        let (min, max) = self.state.config.worker_bounds();
        let live = self.state.pool.worker_count();
        if let Some(target) = self.state.overload.autoscale(now, queued, live, min, max) {
            self.state.pool.set_target(target);
        }
    }

    fn event_loop(&mut self) {
        let mut events = vec![EpollEvent::default(); EVENTS_PER_WAIT];
        loop {
            let timeout = if self.revisit.is_empty() { TICK_MS } else { 0 };
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            self.pass += 1;
            // Buffered requests first: a connection answered from its buffer
            // does not read more from its socket in the same pass.
            for token in std::mem::take(&mut self.revisit) {
                let (idx, gen) = split_token(token);
                if self.valid(idx, gen) {
                    self.advance_parse(idx);
                }
            }
            for ev in &events[..n] {
                let (mask, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKEUP => self.drain_wakeup_pipe(),
                    _ => self.conn_event(token, mask),
                }
            }
            self.process_completions();
            let now = Instant::now();
            self.sweep(now);
            self.control_tick(now);
            if self.draining_since.is_none()
                && (self.state.shutdown.load(Ordering::SeqCst) || signal::triggered())
            {
                self.begin_drain(now);
            }
            if let Some(since) = self.draining_since {
                self.close_idle_for_drain();
                if self.live_conns() == 0 || since.elapsed() > DRAIN_GRACE {
                    break;
                }
            }
        }
        // Teardown. Order matters: flush watchers (idempotent), close every
        // socket, then drain the pool — its jobs all push completions first,
        // so the final drain below settles the in-flight count exactly.
        self.state.sessions.drain();
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
        self.state.pool.shutdown();
        for completion in self.completions.drain() {
            match completion {
                Completion::Respond { .. } => {
                    self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
                }
                Completion::Parked { waker, .. } => {
                    waker.cancel();
                    self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
                }
                Completion::Wake { .. } => {}
            }
        }
    }

    fn valid(&self, idx: usize, gen: u32) -> bool {
        idx < self.conns.len() && self.gens[idx] == gen && self.conns[idx].is_some()
    }

    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn alloc_slot(&mut self) -> usize {
        if let Some(idx) = self.free.pop() {
            idx
        } else {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let idx = self.alloc_slot();
                    let token = token_of(idx, self.gens[idx]);
                    if self.epoll.add(fd, EPOLLIN | EPOLLRDHUP, token).is_err() {
                        // Out of watch capacity; dropping the stream closes it.
                        self.free.push(idx);
                        continue;
                    }
                    let now = Instant::now();
                    self.conns[idx] = Some(Conn {
                        stream,
                        parser: RequestParser::new(self.state.config.max_body_bytes),
                        state: ConnState::Reading,
                        interest: EPOLLIN | EPOLLRDHUP,
                        last_activity: now,
                        req_start: now,
                        served: 0,
                        cur_keep_alive: true,
                        inline_pass: 0,
                    });
                    self.state
                        .conns
                        .accepted_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.state.conns.open.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED, EMFILE): yield to
                // the tick rather than spinning.
                Err(_) => return,
            }
        }
    }

    /// Empties the wakeup pipe. A short read means it is empty: the read
    /// that would say so (`WouldBlock`) is one syscall per wake saved, and
    /// level-triggered epoll reports any byte a late push leaves.
    fn drain_wakeup_pipe(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(n) if n == buf.len() => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, mask: u32) {
        let (idx, gen) = split_token(token);
        if !self.valid(idx, gen) {
            return;
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        enum Kind {
            Read,
            Write,
            Discard,
            Ignore,
        }
        let kind = match self.conns[idx].as_ref().map(|c| &c.state) {
            Some(ConnState::Reading) => Kind::Read,
            Some(ConnState::Writing(_)) if mask & EPOLLOUT != 0 => Kind::Write,
            Some(ConnState::Draining { .. }) => Kind::Discard,
            _ => Kind::Ignore,
        };
        match kind {
            Kind::Read => self.on_readable(idx),
            Kind::Write => self.continue_write(idx),
            Kind::Discard => self.discard_reads(idx),
            Kind::Ignore => {}
        }
    }

    fn set_interest(&mut self, idx: usize, interest: u32) {
        let token = token_of(idx, self.gens[idx]);
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.interest != interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), interest, token)
                .is_ok()
        {
            conn.interest = interest;
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        if let ConnState::Waiting { waker, .. } = conn.state {
            // The parked request can never be answered now: cancel the waker
            // and settle its in-flight slot here. (A Dispatched request's
            // completion still arrives and is settled then.)
            waker.cancel();
            self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
        }
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.state.conns.open.fetch_sub(1, Ordering::Relaxed);
    }

    fn on_readable(&mut self, idx: usize) {
        loop {
            let read = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                // A connection that had a read answered this pass reads on
                // the next one: level-triggered epoll reports it again.
                if !matches!(conn.state, ConnState::Reading) || conn.inline_pass == self.pass {
                    return;
                }
                conn.stream.read(&mut self.read_buf)
            };
            match read {
                Ok(0) => {
                    let Some(conn) = self.conns[idx].as_ref() else {
                        return;
                    };
                    if conn.parser.is_idle() {
                        // Clean keep-alive close between requests.
                        self.close_conn(idx);
                    } else {
                        let err = conn.parser.eof_error();
                        self.refuse(idx, err);
                    }
                    return;
                }
                Ok(n) => {
                    {
                        let conn = self.conns[idx].as_mut().unwrap();
                        let now = Instant::now();
                        if conn.parser.is_idle() && conn.served > 0 {
                            // First byte of the next keep-alive request: the
                            // latency clock starts here, not at accept — idle
                            // reuse time is not queue time.
                            conn.req_start = now;
                        }
                        conn.last_activity = now;
                        conn.parser.feed(&self.read_buf[..n]);
                    }
                    self.advance_parse(idx);
                    if n < READ_CHUNK {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Polls the parser; a complete request dispatches, a malformed one
    /// answers its typed error and closes. A connection that had a read
    /// answered on the reactor this pass is polled on the next pass instead,
    /// so pipelined reads run in a loop, not a recursion, and take turns
    /// with every other connection.
    fn advance_parse(&mut self, idx: usize) {
        let polled = {
            let Some(conn) = self.conns[idx].as_mut() else {
                return;
            };
            if !matches!(conn.state, ConnState::Reading) || conn.parser.is_idle() {
                return;
            }
            if conn.inline_pass == self.pass {
                self.revisit.push(token_of(idx, self.gens[idx]));
                return;
            }
            conn.parser.poll()
        };
        match polled {
            Ok(None) => {}
            Ok(Some((request, keep_alive))) => {
                let (started, parse_us) = {
                    let conn = self.conns[idx].as_mut().unwrap();
                    conn.cur_keep_alive = keep_alive;
                    (conn.req_start, conn.req_start.elapsed().as_micros() as u64)
                };
                self.dispatch_request(idx, request, started, parse_us);
            }
            Err(e) => self.refuse(idx, e),
        }
    }

    /// Answers a request the connection did not deliver whole and well
    /// formed (a framing error, an EOF or a stall mid-request) with its typed
    /// error, counted under `_http_error`, and closes the connection: after
    /// such an error the byte stream cannot be trusted.
    fn refuse(&mut self, idx: usize, error: HttpError) {
        let Some(conn) = self.conns[idx].as_ref() else {
            return;
        };
        let started = conn.req_start;
        self.state.metrics.record(
            "_http_error",
            true,
            false,
            started.elapsed(),
            Duration::ZERO,
        );
        let resp = error
            .to_response()
            .with_header("X-Request-Id", &next_request_id());
        self.write_response(idx, resp, true, started);
    }

    fn dispatch_request(
        &mut self,
        idx: usize,
        mut request: Request,
        started: Instant,
        parse_us: u64,
    ) {
        let route = crate::router::find(&request.path);
        let admit_state = self.state.overload.current_state();
        let mut class = crate::overload::classify(route, request.body.len());
        // Fixed-depth backstop first (the only shed when adaptive admission
        // is off): the queue is literally full, so shed without building the
        // job. Adaptive admission is consulted only past the ok rung; a
        // request the cache can answer is upgraded to Critical — serving it
        // costs no solver work and keeps monitoring clients alive through
        // overload.
        let mut shed = self.state.pool.would_shed();
        if !shed && admit_state != crate::overload::STATE_OK {
            if class != crate::overload::Class::Critical
                && crate::router::would_hit_cache(&self.state, route, &request)
            {
                class = crate::overload::Class::Critical;
            }
            shed = self.state.overload.admit(class).is_err();
        }
        if shed {
            // The flight record explains the refusal; the 503's
            // `X-Request-Id` joins it, and the response closes so the slot
            // frees up.
            let id =
                crate::server::record_shed(&self.state, &mut request, class, admit_state, started);
            self.state
                .metrics
                .record("_shed", true, false, started.elapsed(), Duration::ZERO);
            let resp = Response::overloaded(self.state.overload.retry_after_s())
                .with_header("X-Request-Id", &id);
            self.write_response(idx, resp, true, started);
            return;
        }
        // A read of a published session version, when the store can say
        // without waiting what it sees, is answered right here.
        let read = if route.reads_session(&request.method) {
            crate::session::try_resolve_read(&self.state.sessions, route.id(&request.path))
        } else {
            None
        };
        let task = Box::new(ReqTask {
            request,
            route,
            started,
            parse_us,
            dispatched: Instant::now(),
            park_deadline: None,
            class,
            admit_state,
            read,
        });
        if task.read.is_some() {
            self.answer_inline(idx, task);
            return;
        }
        self.state.in_flight.fetch_add(1, Ordering::Relaxed);
        self.set_interest(idx, 0);
        self.submit(idx, task);
    }

    /// Hands a task to the pool, the connection waiting on it. A pool that
    /// refuses it (a race with shutdown, or a refill after `would_shed` said
    /// go; `try_execute` counted the shed) answers `503` and closes.
    fn submit(&mut self, idx: usize, task: Box<ReqTask>) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        conn.state = ConnState::Dispatched;
        let started = task.started;
        let job = self.make_job(token_of(idx, self.gens[idx]), task);
        if self.state.pool.try_execute(job).is_err() {
            self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
            let resp = Response::overloaded(self.state.overload.retry_after_s())
                .with_header("X-Request-Id", &next_request_id());
            self.write_response(idx, resp, true, started);
        }
    }

    /// Runs a resolved session read on the reactor and writes its answer: it
    /// takes no queue slot, no worker and no completion, and it feeds the
    /// overload controller nothing (DESIGN.md §14–15). `run_attempt` catches
    /// a handler panic; anything escaping it answers as [`CompletionGuard`]
    /// would, and the loop goes on.
    fn answer_inline(&mut self, idx: usize, mut task: Box<ReqTask>) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.inline_pass = self.pass;
        }
        let started = task.started;
        let state = &self.state;
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_attempt(state, &mut task)
        }));
        match attempt {
            Ok(AttemptOutcome::Respond(response)) => {
                self.write_response(idx, response, false, started)
            }
            // Only a watch parks; a read that did would run on the pool.
            Ok(AttemptOutcome::Park(intent)) => {
                self.state.in_flight.fetch_add(1, Ordering::Relaxed);
                self.set_interest(idx, 0);
                self.redispatch(idx, task, intent.deadline);
            }
            Err(_) => {
                self.state.faults.panics.fetch_add(1, Ordering::Relaxed);
                self.write_response(idx, dispatch_panic_response(), false, started);
            }
        }
    }

    /// Builds the pool job for one attempt: run, then either push the
    /// response or park the watch — re-running immediately when the session
    /// changed between the handler's check and the park.
    fn make_job(&self, token: u64, mut task: Box<ReqTask>) -> crate::threadpool::Job {
        let st = Arc::clone(&self.state);
        let completions = Arc::clone(&self.completions);
        Box::new(move || {
            let mut guard = CompletionGuard {
                completions: Arc::clone(&completions),
                state: Arc::clone(&st),
                token,
                started: task.started,
                armed: true,
            };
            loop {
                match run_attempt(&st, &mut task) {
                    AttemptOutcome::Respond(response) => {
                        guard.armed = false;
                        completions.push(Completion::Respond {
                            token,
                            response,
                            started: task.started,
                        });
                        return;
                    }
                    AttemptOutcome::Park(intent) => {
                        let cq = Arc::clone(&completions);
                        let waker = Arc::new(WatchWaker::new(move || {
                            cq.push(Completion::Wake { token });
                        }));
                        match st
                            .sessions
                            .add_waker(&intent.id, intent.since, Arc::clone(&waker))
                        {
                            Ok(true) => {
                                guard.armed = false;
                                completions.push(Completion::Parked {
                                    token,
                                    task,
                                    waker,
                                    deadline: intent.deadline,
                                });
                                return;
                            }
                            // The session changed (or died, or the store is
                            // draining) between try_watch and add_waker: run
                            // again right away — this attempt will observe it.
                            Ok(false) | Err(_) => {
                                task.park_deadline = Some(intent.deadline);
                                task.dispatched = Instant::now();
                            }
                        }
                    }
                }
            }
        })
    }

    fn process_completions(&mut self) {
        for completion in self.completions.drain() {
            match completion {
                Completion::Respond {
                    token,
                    response,
                    started,
                } => {
                    self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
                    // Drain-rate numerator: a worker finished real work (the
                    // connection may be gone, but capacity was still spent).
                    self.state.overload.on_response();
                    let (idx, gen) = split_token(token);
                    if !self.valid(idx, gen) {
                        // The connection died while the worker computed; the
                        // response has nowhere to go.
                        continue;
                    }
                    self.write_response(idx, response, false, started);
                }
                Completion::Parked {
                    token,
                    task,
                    waker,
                    deadline,
                } => {
                    let (idx, gen) = split_token(token);
                    if !self.valid(idx, gen) {
                        waker.cancel();
                        self.state.in_flight.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    if waker.is_cancelled() {
                        // The wake raced ahead of this park notice (fired
                        // between add_waker and the push): re-run now.
                        self.redispatch(idx, task, deadline);
                        continue;
                    }
                    let conn = self.conns[idx].as_mut().unwrap();
                    conn.state = ConnState::Waiting {
                        task,
                        waker,
                        deadline,
                    };
                }
                Completion::Wake { token } => {
                    let (idx, gen) = split_token(token);
                    if !self.valid(idx, gen) {
                        continue;
                    }
                    if matches!(
                        self.conns[idx].as_ref().unwrap().state,
                        ConnState::Waiting { .. }
                    ) {
                        self.resume_waiting(idx);
                    }
                }
            }
        }
    }

    /// Takes a Waiting connection's task and re-dispatches it (session
    /// change or deadline expiry — the attempt itself tells them apart).
    fn resume_waiting(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().unwrap();
        match std::mem::replace(&mut conn.state, ConnState::Dispatched) {
            ConnState::Waiting {
                task,
                waker,
                deadline,
            } => {
                waker.cancel();
                self.redispatch(idx, task, deadline);
            }
            other => {
                self.conns[idx].as_mut().unwrap().state = other;
            }
        }
    }

    /// Re-runs a previously parked task, marking it resumed so the watch
    /// handler keeps its original deadline and metrics count it once.
    fn redispatch(&mut self, idx: usize, mut task: Box<ReqTask>, deadline: Instant) {
        task.park_deadline = Some(deadline);
        task.dispatched = Instant::now();
        self.submit(idx, task);
    }

    /// Starts writing a response, deciding keep-alive vs close, and records
    /// the request's SLO observation — the one record site for every path
    /// (worker responses, sheds, parse errors, timeouts).
    fn write_response(
        &mut self,
        idx: usize,
        response: Response,
        force_close: bool,
        started: Instant,
    ) {
        self.state.slo.record(response.status, started.elapsed());
        let max = self.state.config.max_requests_per_conn;
        let draining = self.draining_since.is_some();
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        // Overload sheds and input rejections close unconditionally: the
        // connection's queue position (503) or parser state (413/422) is not
        // worth preserving, and closing frees the slot fastest.
        let close = force_close
            || !conn.cur_keep_alive
            || matches!(response.status, 413 | 422 | 503)
            || draining
            || (max > 0 && conn.served + 1 >= max);
        let head = render_head(&response, close).into_bytes();
        conn.served += 1;
        if conn.served > 1 {
            self.state
                .conns
                .keepalive_requests_total
                .fetch_add(1, Ordering::Relaxed);
        }
        conn.state = ConnState::Writing(WriteBuf {
            head,
            body: response.body,
            head_off: 0,
            body_off: 0,
            close_after: close,
        });
        conn.last_activity = Instant::now();
        self.continue_write(idx);
    }

    fn continue_write(&mut self, idx: usize) {
        loop {
            let step = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                let ConnState::Writing(buf) = &mut conn.state else {
                    return;
                };
                let body_len = buf.body.as_slice().len();
                if buf.head_off >= buf.head.len() && buf.body_off >= body_len {
                    WriteStep::Done {
                        close: buf.close_after,
                    }
                } else {
                    // Head and body go out in one vectored write; the body is
                    // borrowed in place (for cache hits an `Arc<[u8]>` shared
                    // with the cache — zero copies end to end).
                    let slices = [
                        IoSlice::new(&buf.head[buf.head_off..]),
                        IoSlice::new(&buf.body.as_slice()[buf.body_off..]),
                    ];
                    match conn.stream.write_vectored(&slices) {
                        Ok(0) => WriteStep::Failed,
                        Ok(mut n) => {
                            let head_adv = n.min(buf.head.len() - buf.head_off);
                            buf.head_off += head_adv;
                            n -= head_adv;
                            buf.body_off += n;
                            conn.last_activity = Instant::now();
                            WriteStep::Progress
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => WriteStep::Blocked,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => WriteStep::Progress,
                        Err(_) => WriteStep::Failed,
                    }
                }
            };
            match step {
                WriteStep::Done { close } => {
                    self.finish_request(idx, close);
                    return;
                }
                WriteStep::Progress => {}
                WriteStep::Blocked => {
                    self.set_interest(idx, EPOLLOUT);
                    return;
                }
                WriteStep::Failed => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// The response is fully written: close (via the draining linger) or
    /// return to Reading — where a pipelined next request may already be
    /// buffered and dispatches immediately.
    fn finish_request(&mut self, idx: usize, close: bool) {
        if close {
            {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                // FIN first, then discard input for a beat: closing with
                // unread bytes would RST the response we just wrote.
                let _ = conn.stream.shutdown(Shutdown::Write);
                conn.state = ConnState::Draining {
                    until: Instant::now() + DRAIN_WINDOW,
                };
            }
            self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
            return;
        }
        {
            let conn = self.conns[idx].as_mut().unwrap();
            conn.state = ConnState::Reading;
            conn.req_start = Instant::now();
            conn.last_activity = conn.req_start;
        }
        self.set_interest(idx, EPOLLIN | EPOLLRDHUP);
        self.advance_parse(idx);
    }

    fn discard_reads(&mut self, idx: usize) {
        let mut chunk = [0u8; 4096];
        loop {
            let read = {
                let Some(conn) = self.conns[idx].as_mut() else {
                    return;
                };
                conn.stream.read(&mut chunk)
            };
            match read {
                Ok(0) => {
                    self.close_conn(idx);
                    return;
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
    }

    /// Time-driven transitions, at least once per tick: watch deadlines,
    /// idle keep-alive reaping, stalled mid-request reads, write timeouts,
    /// and the post-close drain window.
    fn sweep(&mut self, now: Instant) {
        let read_timeout = self.state.config.read_timeout;
        let write_timeout = self.state.config.write_timeout;
        let idle_ms = self.state.config.idle_conn_timeout_ms;
        for idx in 0..self.conns.len() {
            let action = {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                match &conn.state {
                    ConnState::Waiting { deadline, .. } if now >= *deadline => SweepAction::Resume,
                    ConnState::Waiting { .. } | ConnState::Dispatched => SweepAction::None,
                    ConnState::Reading if conn.parser.is_idle() => {
                        if idle_ms > 0
                            && now.duration_since(conn.last_activity)
                                >= Duration::from_millis(idle_ms)
                        {
                            SweepAction::IdleClose
                        } else {
                            SweepAction::None
                        }
                    }
                    ConnState::Reading => {
                        // Mid-request with no bytes for a whole read-timeout:
                        // the same stall the old per-read socket timeout caught.
                        if now.duration_since(conn.last_activity) >= read_timeout {
                            SweepAction::Stalled
                        } else {
                            SweepAction::None
                        }
                    }
                    ConnState::Writing(_) => {
                        if now.duration_since(conn.last_activity) >= write_timeout {
                            SweepAction::Close
                        } else {
                            SweepAction::None
                        }
                    }
                    ConnState::Draining { until } => {
                        if now >= *until {
                            SweepAction::Close
                        } else {
                            SweepAction::None
                        }
                    }
                }
            };
            match action {
                SweepAction::None => {}
                SweepAction::Resume => self.resume_waiting(idx),
                SweepAction::IdleClose => {
                    self.state
                        .conns
                        .idle_timeouts_total
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_conn(idx);
                }
                SweepAction::Stalled => self.refuse(
                    idx,
                    HttpError::bad("read error or timeout: connection stalled mid-request"),
                ),
                SweepAction::Close => self.close_conn(idx),
            }
        }
    }

    /// Entered once when shutdown is requested: stop accepting, flush
    /// session watchers (parked long-polls answer a typed `503 draining`),
    /// and let in-flight requests finish under [`DRAIN_GRACE`].
    fn begin_drain(&mut self, now: Instant) {
        self.draining_since = Some(now);
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        self.state.sessions.drain();
    }

    /// During drain, connections idle between requests have nothing left to
    /// serve — close them instead of waiting out their keep-alive timeouts.
    fn close_idle_for_drain(&mut self) {
        for idx in 0..self.conns.len() {
            let idle = matches!(
                self.conns[idx]
                    .as_ref()
                    .map(|c| (&c.state, c.parser.is_idle())),
                Some((ConnState::Reading, true))
            );
            if idle {
                self.close_conn(idx);
            }
        }
    }
}
