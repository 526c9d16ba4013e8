//! Socket-level tests of the reads the reactor answers itself
//! (`GET /session/{id}`, DESIGN.md §14): they never wait for a worker, a
//! session a write holds falls back to the pool and answers the version the
//! write made, a panic costs the request a typed 500 and not the event loop,
//! the queue phase reads zero, the flight recorder keeps the request, and
//! pipelined reads answer in order, one per connection per event-loop pass.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use hc_serve::{failpoints, start, Config, ServerHandle};

/// Failpoints are process-global, so a test that arms them must not overlap
/// with any other server in this binary: every test takes this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// One worker, so a slow write holds the whole pool.
fn one_worker() -> ServerHandle {
    start(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 16,
        ..Config::default()
    })
    .expect("start server")
}

const SAMPLE: &str = "task,m1,m2,m3\nt1,2.0,8.0,4.0\nt2,6.0,3.0,5.0\nt3,4.0,4.0,4.5\n";

/// The bytes of one request; `headers` go before `Content-Length`.
fn request_bytes(method: &str, target: &str, headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: inline\r\n");
    for (name, value) in headers {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    req.into_bytes()
}

/// A response split into status, head and body.
struct Reply {
    status: u16,
    head: String,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The head without the headers that differ between two answers of the
    /// same version: the request id, the trace context and the timings.
    fn stable_head(&self) -> String {
        self.head
            .lines()
            .filter(|l| {
                let name = l.split(':').next().unwrap_or_default();
                !["x-request-id", "traceparent", "server-timing"]
                    .iter()
                    .any(|v| name.eq_ignore_ascii_case(v))
            })
            .collect::<Vec<_>>()
            .join("\r\n")
    }
}

/// Reads framed responses off one stream, keeping bytes past the last one.
struct Reader {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Reader {
    fn new(stream: TcpStream) -> Self {
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Reader {
            stream,
            pending: Vec::new(),
        }
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "connection closed mid-response: {:?}", self.pending);
        self.pending.extend_from_slice(&chunk[..n]);
    }

    fn next(&mut self) -> Reply {
        let head_end = loop {
            if let Some(at) = self.pending.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            self.fill();
        };
        let head = String::from_utf8_lossy(&self.pending[..head_end]).into_owned();
        let mut reply = Reply {
            status: 0,
            head,
            body: Vec::new(),
        };
        let len: usize = reply
            .header("Content-Length")
            .and_then(|v| v.parse().ok())
            .expect("Content-Length");
        while self.pending.len() < head_end + 4 + len {
            self.fill();
        }
        reply.body = self.pending[head_end + 4..head_end + 4 + len].to_vec();
        self.pending.drain(..head_end + 4 + len);
        reply.status = reply
            .head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status code");
        reply
    }
}

/// One exchange on its own connection.
fn exchange(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Reply {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(&request_bytes(method, target, headers, body))
        .expect("write request");
    Reader::new(stream).next()
}

/// Creates a session and returns its id and its first document.
fn create(addr: SocketAddr) -> (String, String) {
    let reply = exchange(addr, "POST", "/session", &[], SAMPLE);
    assert_eq!(reply.status, 200, "{}", reply.text());
    let body = reply.text();
    let at = body.find("\"id\":\"").expect("id field") + 6;
    (body[at..].chars().take_while(|c| *c != '"').collect(), body)
}

/// While a slow PATCH holds the only worker, reads of another session are
/// answered at once without the pool; a read of the session being written
/// goes to the pool, waits for the write, and answers the version it made.
#[test]
fn reads_skip_a_worker_held_by_a_slow_patch() {
    let _serial = serial();
    let handle = one_worker();
    let addr = handle.local_addr();
    let (a, _) = create(addr);
    let (b, b_doc) = create(addr);
    let st = handle.state();

    failpoints::arm("sinkhorn.iteration:delay:400");
    let target = format!("/session/{a}/etc");
    let patcher = std::thread::spawn(move || {
        exchange(
            addr,
            "PATCH",
            &target,
            &[("If-Match", "1")],
            "cell,t1,m2,7.5\n",
        )
    });
    // The worker has the PATCH once nothing is queued and one is in flight;
    // give it a moment to reach the recompute, where it holds the session.
    let t0 = Instant::now();
    while !(st.in_flight.load(Ordering::Relaxed) == 1 && st.pool.queued() == 0) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "PATCH never started"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(50));

    let completed = st.pool.completed_total();
    for _ in 0..3 {
        let t = Instant::now();
        let reply = exchange(addr, "GET", &format!("/session/{b}"), &[], "");
        let took = t.elapsed();
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(reply.text(), b_doc, "a read answers its version's bytes");
        assert!(took < Duration::from_millis(200), "read took {took:?}");
    }
    assert_eq!(
        st.pool.completed_total(),
        completed,
        "reads on the reactor run no pool job"
    );
    assert!(
        !patcher.is_finished(),
        "the PATCH must still hold the worker, or the reads proved nothing"
    );

    // The session the PATCH holds: the read waits for it on the pool.
    let read_a = exchange(addr, "GET", &format!("/session/{a}"), &[], "");
    let patched = patcher.join().expect("PATCH thread");
    failpoints::reset();
    assert_eq!(patched.status, 200, "{}", patched.text());
    assert_eq!(read_a.status, 200, "{}", read_a.text());
    assert!(
        read_a.text().contains("\"version\":2,"),
        "{}",
        read_a.text()
    );
    assert_eq!(
        read_a.body, patched.body,
        "the read answers the PATCH's version"
    );

    handle.shutdown();
    handle.join();
}

/// A panic in an inline read costs that request a typed 500 carrying its
/// request id; the event loop goes on answering.
#[test]
fn an_inline_read_that_panics_answers_a_typed_500() {
    let _serial = serial();
    let handle = one_worker();
    let addr = handle.local_addr();
    let (b, b_doc) = create(addr);
    let st = handle.state();
    let (panics, completed) = (
        st.faults.panics.load(Ordering::Relaxed),
        st.pool.completed_total(),
    );

    failpoints::arm("handler:panic");
    let reply = exchange(
        addr,
        "GET",
        &format!("/session/{b}"),
        &[("X-Request-Id", "inline-panic-1")],
        "",
    );
    failpoints::reset();
    assert_eq!(reply.status, 500, "{}", reply.text());
    assert_eq!(reply.header("X-Request-Id"), Some("inline-panic-1"));
    assert!(
        reply.text().contains("\"code\":\"internal_panic\""),
        "{}",
        reply.text()
    );
    assert_eq!(st.faults.panics.load(Ordering::Relaxed), panics + 1);
    assert_eq!(
        st.pool.completed_total(),
        completed,
        "answered on the reactor"
    );

    let next = exchange(addr, "GET", &format!("/session/{b}"), &[], "");
    assert_eq!(next.status, 200, "{}", next.text());
    assert_eq!(next.text(), b_doc);

    handle.shutdown();
    handle.join();
}

/// An inline read waits in no queue, and the flight recorder keeps it like
/// any other request.
#[test]
fn an_inline_read_has_no_queue_phase_and_a_flight_record() {
    let _serial = serial();
    let handle = one_worker();
    let addr = handle.local_addr();
    let (b, _) = create(addr);

    let reply = exchange(
        addr,
        "GET",
        &format!("/session/{b}"),
        &[("X-Request-Id", "inline-timing-1")],
        "",
    );
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.header("Cache-Control"), Some("no-store"));
    assert!(reply.header("traceparent").is_some(), "{}", reply.head);
    let timing = reply.header("Server-Timing").expect("Server-Timing");
    assert!(timing.starts_with("queue;dur=0.000, "), "{timing}");

    let record = exchange(addr, "GET", "/debug/requests/inline-timing-1", &[], "");
    assert_eq!(record.status, 200, "{}", record.text());
    let text = record.text();
    assert!(
        text.contains(&format!("\"path\":\"/session/{b}\"")),
        "{text}"
    );
    assert!(text.contains("\"status\":200,"), "{text}");
    assert!(text.contains("\"phases_us\":{\"queue\":0,"), "{text}");

    handle.shutdown();
    handle.join();
}

/// A thousand reads pipelined in one write answer in order, each with the
/// bytes a read on its own connection answers, and none takes a worker.
#[test]
fn pipelined_reads_answer_in_order_like_sequential_reads() {
    let _serial = serial();
    let handle = one_worker();
    let addr = handle.local_addr();
    let (b, _) = create(addr);
    let target = format!("/session/{b}");

    let mut alone = Reader::new(TcpStream::connect(addr).expect("connect"));
    alone
        .stream
        .write_all(&request_bytes("GET", &target, &[], ""))
        .unwrap();
    let want = alone.next();
    assert_eq!(want.status, 200, "{}", want.text());

    const N: usize = 1000;
    let completed = handle.state().pool.completed_total();
    let mut burst = Vec::new();
    for i in 0..N {
        burst.extend(request_bytes(
            "GET",
            &target,
            &[("X-Request-Id", &format!("piped-{i}"))],
            "",
        ));
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    // Written from another thread, so the replies never back up behind it.
    let sender = std::thread::spawn(move || writer.write_all(&burst));
    let mut reader = Reader::new(stream);
    for i in 0..N {
        let got = reader.next();
        assert_eq!(got.header("X-Request-Id"), Some(&*format!("piped-{i}")));
        assert_eq!(got.status, 200, "reply {i}: {}", got.text());
        assert_eq!(got.stable_head(), want.stable_head(), "reply {i}");
        assert_eq!(got.body, want.body, "reply {i}");
    }
    sender.join().unwrap().expect("write the burst");
    assert_eq!(handle.state().pool.completed_total(), completed);

    handle.shutdown();
    handle.join();
}
