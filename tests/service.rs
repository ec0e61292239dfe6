//! End-to-end tests of `datalog serve`: the real binary on an ephemeral
//! port, driven by real TCP clients — concurrent readers racing a writer,
//! optimize-on-install reporting, stats, robustness against malformed and
//! hostile input, and clean shutdown.

use sagiv_datalog::prelude::*;
use sagiv_datalog::service::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A program straight out of the paper's Fig. 1/2 setting: a duplicated
/// body atom and a rule subsumed by the doubling recursion. §VII
/// minimization removes one atom and one whole rule.
const REDUNDANT_TC: &str = "g(X, Z) :- a(X, Z), a(X, Z). \
     g(X, Z) :- g(X, Y), g(Y, Z). \
     g(X, Z) :- a(X, Y), a(Y, Z).";

/// A spawned `datalog serve`, killed and reaped when dropped, so that a test
/// that fails before its `shutdown` does not leave the daemon running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl std::ops::Deref for Daemon {
    type Target = Child;
    fn deref(&self) -> &Child {
        &self.0
    }
}

impl std::ops::DerefMut for Daemon {
    fn deref_mut(&mut self) -> &mut Child {
        &mut self.0
    }
}

fn spawn_daemon(extra: &[&str]) -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn datalog serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();
    (Daemon(child), addr)
}

/// Wait for the daemon to exit cleanly, killing it if it wedges.
fn expect_clean_exit(mut child: Daemon) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("daemon did not shut down within 10s");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

fn request(client: &mut Client, line: &str) -> datalog_json::Value {
    let response = client.request_line(line).expect("request");
    datalog_json::Value::parse(&response).expect("response parses")
}

fn assert_ok(v: &datalog_json::Value) {
    assert_eq!(
        v.get("ok").and_then(datalog_json::Value::as_bool),
        Some(true),
        "{v}"
    );
}

/// Parse answers like `"g(1, 2)"` into integer pairs.
fn pairs(v: &datalog_json::Value) -> Vec<(i64, i64)> {
    v.get("answers")
        .and_then(datalog_json::Value::as_array)
        .expect("answers array")
        .iter()
        .map(|a| {
            let s = a.as_str().expect("answer string");
            let inner = &s[s.find('(').unwrap() + 1..s.rfind(')').unwrap()];
            let mut it = inner.split(',').map(|t| t.trim().parse::<i64>().unwrap());
            (it.next().unwrap(), it.next().unwrap())
        })
        .collect()
}

#[test]
fn concurrent_clients_with_writer_and_minimizing_install() {
    let (child, addr) = spawn_daemon(&["--threads", "8"]);
    let mut admin = Client::connect(&addr).expect("connect");

    // Install: the report must show a strictly smaller program after §VII.
    let resp = request(
        &mut admin,
        &format!("{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{REDUNDANT_TC}\"}}"),
    );
    assert_ok(&resp);
    let rules_before = resp.get("rules_before").unwrap().as_u64().unwrap();
    let rules_after = resp.get("rules_after").unwrap().as_u64().unwrap();
    let atoms_before = resp.get("body_atoms_before").unwrap().as_u64().unwrap();
    let atoms_after = resp.get("body_atoms_after").unwrap().as_u64().unwrap();
    assert!(rules_after < rules_before, "{resp}");
    assert!(atoms_after < atoms_before, "{resp}");
    assert!(resp.get("atoms_removed").unwrap().as_u64().unwrap() >= 1);
    assert!(resp.get("rules_removed").unwrap().as_u64().unwrap() >= 1);

    // Seed a chain, then race one writer against five readers.
    assert_ok(&request(
        &mut admin,
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(0,1). a(1,2). a(2,3). a(3,4).\"}",
    ));

    let writer_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&writer_addr).expect("writer connect");
        // Deterministic batch stream; `final_base` below replays it.
        for i in 4..20i64 {
            let resp = request(
                &mut c,
                &format!(
                    "{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a({i},{}).\"}}",
                    i + 1
                ),
            );
            assert_ok(&resp);
            if i % 3 == 0 {
                let resp = request(
                    &mut c,
                    &format!(
                        "{{\"op\":\"remove\",\"program\":\"tc\",\"facts\":\"a({},{}).\"}}",
                        i - 2,
                        i - 1
                    ),
                );
                assert_ok(&resp);
            }
        }
    });

    let readers: Vec<_> = (0..5)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("reader connect");
                for _ in 0..40 {
                    // Each answer set comes from one published snapshot, so
                    // it must be transitively closed — a torn (mid-batch)
                    // read would violate this.
                    let resp = request(
                        &mut c,
                        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}",
                    );
                    assert_ok(&resp);
                    let g: std::collections::BTreeSet<(i64, i64)> =
                        pairs(&resp).into_iter().collect();
                    for &(x, y) in &g {
                        assert!(x < y, "chain edges only go forward: g({x}, {y})");
                        for &(y2, z) in &g {
                            if y2 == y {
                                assert!(
                                    g.contains(&(x, z)),
                                    "snapshot not transitively closed: g({x},{y}), g({y},{z})"
                                );
                            }
                        }
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }

    // Replay the writer's batches to know the final base, evaluate fresh
    // (unoptimized source program), and demand identical served answers.
    let mut base = parse_database("a(0,1). a(1,2). a(2,3). a(3,4).").unwrap();
    for i in 4..20i64 {
        base.insert(fact("a", [i, i + 1]));
        if i % 3 == 0 {
            base.remove(&fact("a", [i - 2, i - 1]));
        }
    }
    let program = parse_program(REDUNDANT_TC).unwrap();
    let (expected, _) = evaluate(&program, &base).unwrap();
    for pred in ["a", "g"] {
        let resp = request(
            &mut admin,
            &format!("{{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"{pred}(X, Y)\"}}"),
        );
        assert_ok(&resp);
        let served: std::collections::BTreeSet<(i64, i64)> = pairs(&resp).into_iter().collect();
        let fresh: std::collections::BTreeSet<(i64, i64)> = expected
            .relation(Pred::new(pred))
            .map(|t| {
                let mut it = t.iter();
                let x = format!("{}", it.next().unwrap()).parse().unwrap();
                let y = format!("{}", it.next().unwrap()).parse().unwrap();
                (x, y)
            })
            .collect();
        assert_eq!(served, fresh, "served {pred} differs from fresh evaluation");
    }

    // Stats must expose nonzero request counts and engine work counters.
    let resp = request(&mut admin, "{\"op\":\"stats\",\"program\":\"tc\"}");
    assert_ok(&resp);
    let metrics = resp.get("metrics").unwrap();
    assert!(metrics.get("requests_total").unwrap().as_u64().unwrap() > 200);
    assert!(
        metrics
            .get("eval")
            .unwrap()
            .get("derivations")
            .unwrap()
            .as_u64()
            .unwrap()
            > 0,
        "{metrics}"
    );
    let resp = request(&mut admin, "{\"op\":\"stats\"}");
    assert_ok(&resp);
    assert!(
        resp.get("server")
            .unwrap()
            .get("requests_total")
            .unwrap()
            .as_u64()
            .unwrap()
            > 200
    );

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// Races readers of one bound query against a writer that grows (and once
/// cuts) a chain, and checks that no committed batch is ever missing from a
/// later answer, and that every served answer set is consistent with *some*
/// published prefix of the write stream. `strategy` is the request field:
/// `None` is the default path (a read of the published view); `"magic"`
/// evaluates from the published base facts on every ask, so what this test
/// is after there is a base paired with the wrong fixpoint or version.
fn point_queries_racing_a_writer(strategy: Option<&'static str>) -> (Daemon, Client) {
    let (child, addr) = spawn_daemon(&["--threads", "8"]);
    let mut admin = Client::connect(&addr).expect("connect");
    assert_ok(&request(
        &mut admin,
        "{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).\"}",
    ));
    assert_ok(&request(
        &mut admin,
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(0,1).\"}",
    ));
    let query = format!(
        "{{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(0, X)\"{}}}",
        strategy.map_or(String::new(), |s| format!(",\"strategy\":\"{s}\""))
    );
    // What the reply must say of itself.
    let reported = strategy.unwrap_or("scan");

    // The writer grows the chain 0→1→…→17 and, after every committed
    // batch, asks on the same connection: the response is served at a
    // version ≥ its own commit, so a stale answer would surface as a
    // missing one right here.
    let writer_addr = addr.clone();
    let writer_query = query.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&writer_addr).expect("writer connect");
        for i in 1..=16i64 {
            assert_ok(&request(
                &mut c,
                &format!(
                    "{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a({i},{}).\"}}",
                    i + 1
                ),
            ));
            let resp = request(&mut c, &writer_query);
            assert_ok(&resp);
            assert_eq!(resp.get("strategy").unwrap().as_str(), Some(reported));
            assert_eq!(
                resp.get("count").unwrap().as_u64(),
                Some((i + 1) as u64),
                "after inserting a({i},{}) the answer misses some: {resp}",
                i + 1
            );
        }
        // DRed removal must show too: cutting the chain at 8→9 shrinks
        // g(0, X) to exactly the surviving prefix.
        assert_ok(&request(
            &mut c,
            "{\"op\":\"remove\",\"program\":\"tc\",\"facts\":\"a(8,9).\"}",
        ));
        let resp = request(&mut c, &writer_query);
        assert_eq!(resp.get("count").unwrap().as_u64(), Some(8), "{resp}");
    });

    // Readers hammer the same bound query. The base is always a prefix
    // chain from 0, so every served answer set must be {(0,1)..(0,k)} for
    // some k — a torn or stale-mixed set would have gaps.
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            let query = query.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("reader connect");
                for _ in 0..40 {
                    let resp = request(&mut c, &query);
                    assert_ok(&resp);
                    assert_eq!(resp.get("strategy").unwrap().as_str(), Some(reported));
                    assert!(resp.get("cache").is_none(), "{resp}");
                    let g: std::collections::BTreeSet<(i64, i64)> =
                        pairs(&resp).into_iter().collect();
                    let k = g.len() as i64;
                    for j in 1..=k {
                        assert!(
                            g.contains(&(0, j)),
                            "answers are not a chain prefix (missing g(0, {j})): {resp}"
                        );
                    }
                }
            })
        })
        .collect();

    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }
    // Quiescent: the exact final closure.
    let resp = request(&mut admin, &query);
    assert_ok(&resp);
    assert_eq!(resp.get("count").unwrap().as_u64(), Some(8));
    (child, admin)
}

/// The top-down path under the race, then a narrowed ask: every `magic`
/// ask is a fresh evaluation, and its plans show in `stats`.
#[test]
fn magic_point_queries_racing_a_writer_evaluate_published_bases() {
    let (child, mut admin) = point_queries_racing_a_writer(Some("magic"));
    let resp = request(
        &mut admin,
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(0, 3)\",\"strategy\":\"magic\"}",
    );
    assert_eq!(pairs(&resp), [(0, 3)], "{resp}");

    let resp = request(&mut admin, "{\"op\":\"stats\",\"program\":\"tc\"}");
    assert_ok(&resp);
    // g(0, X) and g(0, 3): one plan per adornment.
    assert_eq!(resp.get("plans").unwrap().as_u64(), Some(2), "{resp}");
    assert!(resp.get("query_cache").is_none(), "{resp}");

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// The default path under the same race: every answer is a read of one
/// published fixpoint, so the chain-prefix invariants hold without any
/// evaluation — and no plan is compiled.
#[test]
fn default_point_queries_racing_a_writer_read_published_views() {
    let (child, mut admin) = point_queries_racing_a_writer(None);
    let resp = request(&mut admin, "{\"op\":\"stats\",\"program\":\"tc\"}");
    assert_ok(&resp);
    assert_eq!(resp.get("plans").unwrap().as_u64(), Some(0), "{resp}");
    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

#[test]
fn robustness_against_malformed_and_hostile_input() {
    let (child, addr) = spawn_daemon(&[
        "--threads",
        "3",
        "--max-bytes",
        "4096",
        "--timeout-ms",
        "600",
    ]);

    // Malformed JSON gets a structured error and the connection survives.
    let mut c = Client::connect(&addr).expect("connect");
    let resp = request(&mut c, "this is { not json");
    assert_eq!(resp.get("code").unwrap().as_str(), Some("bad_json"));
    let resp = request(&mut c, "[1, 2, 3]");
    assert_eq!(resp.get("code").unwrap().as_str(), Some("bad_json"));
    let resp = request(&mut c, "{\"op\":\"frobnicate\"}");
    assert_eq!(resp.get("code").unwrap().as_str(), Some("unknown_op"));
    let resp = request(
        &mut c,
        "{\"op\":\"query\",\"program\":\"nope\",\"atom\":\"g(X)\"}",
    );
    assert_eq!(resp.get("code").unwrap().as_str(), Some("unknown_program"));
    assert_ok(&request(&mut c, "{\"op\":\"ping\"}"));

    // Oversized request: structured error with a stable code, then close.
    let mut big = Client::connect(&addr).expect("connect");
    let huge = format!(
        "{{\"op\":\"install\",\"program\":\"x\",\"rules\":\"{}\"}}",
        "a".repeat(8000)
    );
    let resp = big.request_line(&huge).expect("oversize response");
    assert!(resp.contains("\"code\":\"payload_too_large\""), "{resp}");

    // Mid-request disconnect: a partial line, then the socket vanishes.
    {
        let mut partial = TcpStream::connect(&addr).expect("connect raw");
        partial
            .write_all(b"{\"op\":\"insert\",\"program\":\"tc\",\"fa")
            .expect("partial write");
        // Dropped here without a newline.
    }

    // A stalled connection is closed with a read_timeout error…
    let mut stalled = TcpStream::connect(&addr).expect("connect raw");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut closing_line = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match stalled.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => closing_line.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) => panic!("expected timeout close, got {e}"),
        }
    }
    assert!(
        closing_line.contains("\"code\":\"read_timeout\""),
        "{closing_line:?}"
    );

    // …and none of the above affected other connections: the daemon still
    // serves fresh clients correctly.
    let mut fresh = Client::connect(&addr).expect("connect after abuse");
    assert_ok(&request(&mut fresh, "{\"op\":\"ping\"}"));
    assert_ok(&request(
        &mut fresh,
        "{\"op\":\"install\",\"program\":\"p\",\"rules\":\"g(X, Z) :- a(X, Z).\"}",
    ));
    assert_ok(&request(
        &mut fresh,
        "{\"op\":\"insert\",\"program\":\"p\",\"facts\":\"a(1,2).\"}",
    ));
    let resp = request(
        &mut fresh,
        "{\"op\":\"query\",\"program\":\"p\",\"atom\":\"g(1, X)\"}",
    );
    assert_eq!(resp.get("count").unwrap().as_u64(), Some(1));

    // The line that was not JSON and the one that was no object both show
    // in the server's counters.
    let resp = request(&mut fresh, "{\"op\":\"stats\"}");
    let server = resp.get("server").unwrap();
    let invalid = server.get("requests").unwrap().get("invalid");
    assert_eq!(invalid.and_then(|n| n.as_u64()), Some(2), "{server}");

    assert_ok(&request(&mut fresh, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// Regression: the seed transport parked one thread per connection in a
/// 100 ms `read_timeout` sleep loop, so shutdown had to wait for every
/// idle connection's next wake-up. The event loop notices shutdown
/// immediately; with a pile of idle connections the daemon must still
/// exit in well under 50 ms.
#[test]
fn shutdown_with_idle_connections_is_immediate() {
    let (mut child, addr) = spawn_daemon(&["--threads", "2"]);

    // Park a crowd of idle connections (no thread each under the event
    // loop; each would have pinned a 100 ms-wakeup thread in the seed).
    let idle: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    let mut admin = Client::connect(&addr).expect("connect");
    assert_ok(&request(&mut admin, "{\"op\":\"ping\"}"));

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    let t0 = Instant::now();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                break;
            }
            None => {
                assert!(
                    t0.elapsed() < Duration::from_millis(50),
                    "shutdown took ≥50 ms with {} idle connections",
                    idle.len()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    drop(idle);
}

/// Regression: the payload limit must be enforced *while* reading. The
/// seed buffered an oversized line until a newline (or until the limit
/// plus a full extra chunk) before failing; now a line that cannot
/// complete within the limit is rejected at limit+1 bytes, newline or not.
#[test]
fn oversize_line_fails_at_limit_plus_one_while_reading() {
    let (child, addr) = spawn_daemon(&["--max-bytes", "4096"]);

    let mut s = TcpStream::connect(&addr).expect("connect raw");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    // One byte past the limit, and no newline in sight: the server must
    // not wait for one.
    s.write_all(&vec![b'x'; 4097]).expect("write oversize");
    let mut response = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) => panic!("expected oversize error then close, got {e}"),
        }
    }
    assert!(
        response.contains("\"code\":\"payload_too_large\""),
        "{response:?}"
    );
    assert!(response.contains("4096-byte limit"), "{response:?}");

    // The daemon is unaffected.
    let mut fresh = Client::connect(&addr).expect("connect after oversize");
    assert_ok(&request(&mut fresh, "{\"op\":\"ping\"}"));
    assert_ok(&request(&mut fresh, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// Regression: the idle timeout is a wall-clock deadline reset only by a
/// *complete request*. The seed reset its idle counter on every readable
/// chunk, so a slowloris trickling one byte per poll interval was never
/// timed out (and the counter itself accumulated poll intervals instead
/// of measuring time).
#[test]
fn slowloris_trickle_still_times_out_on_wall_clock() {
    let (child, addr) = spawn_daemon(&["--timeout-ms", "600"]);

    let s = TcpStream::connect(&addr).expect("connect raw");
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut reader = s.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        let mut s = s;
        // Trickle bytes (never a newline) well past the 600 ms deadline;
        // errors just mean the server already closed on us, as it should.
        for _ in 0..40 {
            if s.write_all(b"x").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(75));
        }
    });

    let t0 = Instant::now();
    let mut response = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "server never timed out the trickling connection"
                );
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
        if response.contains('\n') && !response.is_empty() {
            break;
        }
    }
    assert!(
        response.contains("\"code\":\"read_timeout\""),
        "{response:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(500),
        "timed out too early ({:?}) — deadline must be wall-clock from the last complete request",
        t0.elapsed()
    );
    writer.join().expect("writer thread");

    let mut fresh = Client::connect(&addr).expect("connect after slowloris");
    assert_ok(&request(&mut fresh, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// Admission control: connections beyond `--max-conns` get a structured
/// `overloaded` error and an immediate close instead of a slab slot.
#[test]
fn connections_beyond_the_limit_are_turned_away() {
    let (child, addr) = spawn_daemon(&["--max-conns", "2"]);

    let mut c1 = Client::connect(&addr).expect("connect 1");
    let mut c2 = Client::connect(&addr).expect("connect 2");
    assert_ok(&request(&mut c1, "{\"op\":\"ping\"}"));
    assert_ok(&request(&mut c2, "{\"op\":\"ping\"}"));

    let mut turned_away = TcpStream::connect(&addr).expect("connect 3");
    turned_away
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut response = String::new();
    let mut buf = [0u8; 1024];
    loop {
        match turned_away.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => response.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(e) => panic!("expected overloaded error then close, got {e}"),
        }
    }
    assert!(response.contains("\"code\":\"overloaded\""), "{response:?}");

    // Admitted connections are unaffected, and a freed slot readmits.
    assert_ok(&request(&mut c1, "{\"op\":\"ping\"}"));
    drop(c2);
    std::thread::sleep(Duration::from_millis(50));
    let mut readmitted = Client::connect(&addr).expect("connect after free");
    assert_ok(&request(&mut readmitted, "{\"op\":\"ping\"}"));

    assert_ok(&request(&mut c1, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// A daemon at its default flags maintains its views, and refuses facts at
/// the wrong arity before they reach one.
#[test]
fn default_daemon_checks_fact_arities_and_maintains_views() {
    let (child, addr) = spawn_daemon(&[]);
    let mut c = Client::connect(&addr).expect("connect");
    const TC: &str = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).";
    assert_ok(&request(
        &mut c,
        &format!("{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{TC}\"}}"),
    ));
    let mut mutate = |op: &str, facts: &str| {
        let line = format!("{{\"op\":\"{op}\",\"program\":\"tc\",\"facts\":\"{facts}\"}}");
        request(&mut c, &line)
    };
    let resp = mutate("insert", "a(1,2).");
    assert_eq!(resp.get("db_atoms").unwrap().as_u64(), Some(2), "{resp}");

    // EDB and IDB predicates alike, too wide and too narrow; the one
    // well-formed fact in a batch must not go in either.
    for (op, facts) in [
        ("insert", "a(1,2,3). g(5). a(7)."),
        ("insert", "a(2,3). g(5)."),
        ("remove", "a(1,2). a(1,2,3)."),
    ] {
        let resp = mutate(op, facts);
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false), "{resp}");
        assert_eq!(
            resp.get("code").unwrap().as_str(),
            Some("validation_error"),
            "{resp}"
        );
        // A predicate the program never mentions is just an extra base
        // fact; re-inserting it is how this loop reads `db_atoms`.
        let resp = mutate("insert", "note(1,2,3).");
        assert_eq!(resp.get("db_atoms").unwrap().as_u64(), Some(3), "{resp}");
    }

    // The view is not wedged: well-formed batches still go through.
    let resp = mutate("insert", "a(2,3). a(3,4).");
    assert_eq!(resp.get("added").unwrap().as_u64(), Some(7), "{resp}");
    let resp = mutate("remove", "a(2,3).");
    assert_eq!(resp.get("removed").unwrap().as_u64(), Some(5), "{resp}");

    // A query atom is held to the same arities, whatever the strategy.
    for (atom, strategy) in [("g(1)", "auto"), ("g(1, X, Y)", "magic"), ("a(X)", "magic")] {
        let line = format!(
            "{{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"{atom}\",\"strategy\":\"{strategy}\"}}"
        );
        let resp = request(&mut c, &line);
        assert_eq!(
            resp.get("code").and_then(|c| c.as_str()),
            Some("validation_error"),
            "{resp}"
        );
    }

    // The well-formed batches did real work, and `stats` reports it.
    let resp = request(&mut c, "{\"op\":\"stats\",\"program\":\"tc\"}");
    let eval = resp.get("metrics").unwrap().get("eval").unwrap();
    assert!(
        eval.get("derivations").unwrap().as_u64().unwrap() > 0,
        "{eval}"
    );

    assert_ok(&request(&mut c, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// `guarded_tc(8)` through `install`, whose Fig. 2 run holds the registry
/// lock. Asserted by what the install reports, not by time — a §VI test
/// that loses its goal is a test that does not come back.
#[test]
fn install_of_guarded_tc_8_minimizes_under_the_registry_lock() {
    let (child, addr) = spawn_daemon(&[]);
    let mut c = Client::connect(&addr).expect("connect");
    let rules = datalog_bench::guarded_tc(8).to_string().replace('\n', " ");
    let resp = request(
        &mut c,
        &format!("{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{rules}\"}}"),
    );
    assert_ok(&resp);
    let field = |name: &str| resp.get(name).and_then(datalog_json::Value::as_u64);
    // Fig. 2 drops seven of the eight guards (the last needs §X-XI).
    assert_eq!(field("atoms_removed"), Some(7), "{resp}");
    assert_eq!(field("body_atoms_before"), Some(11), "{resp}");
    assert_eq!(field("body_atoms_after"), Some(4), "{resp}");
    assert_eq!(field("rules_after"), Some(2), "{resp}");

    assert_ok(&request(
        &mut c,
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2). a(2,3). a(3,4).\"}",
    ));
    let resp = request(
        &mut c,
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(1, X)\"}",
    );
    assert_eq!(pairs(&resp), [(1, 2), (1, 3), (1, 4)], "{resp}");

    assert_ok(&request(&mut c, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// Under a racing writer every served snapshot is transitively closed, and
/// the final answers equal a fresh evaluation of the final base.
#[test]
fn daemon_matches_fresh_evaluation_under_racing_writer() {
    let (child, addr) = spawn_daemon(&["--threads", "8"]);
    let mut admin = Client::connect(&addr).expect("connect");
    const TC: &str = "g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).";
    assert_ok(&request(
        &mut admin,
        &format!("{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{TC}\"}}"),
    ));

    let writer_addr = addr.clone();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(&writer_addr).expect("writer connect");
        for i in 0..20i64 {
            assert_ok(&request(
                &mut c,
                &format!(
                    "{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a({i},{}).\"}}",
                    i + 1
                ),
            ));
            if i % 4 == 3 {
                assert_ok(&request(
                    &mut c,
                    &format!(
                        "{{\"op\":\"remove\",\"program\":\"tc\",\"facts\":\"a({},{}).\"}}",
                        i - 2,
                        i - 1
                    ),
                ));
            }
        }
    });
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("reader connect");
                for _ in 0..30 {
                    let resp = request(
                        &mut c,
                        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}",
                    );
                    assert_ok(&resp);
                    let g: std::collections::BTreeSet<(i64, i64)> =
                        pairs(&resp).into_iter().collect();
                    for &(x, y) in &g {
                        for &(y2, z) in &g {
                            if y2 == y {
                                assert!(g.contains(&(x, z)), "snapshot not transitively closed");
                            }
                        }
                    }
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }

    // Replay the writer's deterministic batches; the service must serve
    // exactly the fixpoint of the final base.
    let mut base = Database::new();
    for i in 0..20i64 {
        base.insert(fact("a", [i, i + 1]));
        if i % 4 == 3 {
            base.remove(&fact("a", [i - 2, i - 1]));
        }
    }
    let program = parse_program(TC).unwrap();
    let (expected, _) = evaluate(&program, &base).unwrap();
    let resp = request(
        &mut admin,
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}",
    );
    assert_ok(&resp);
    let served: std::collections::BTreeSet<(i64, i64)> = pairs(&resp).into_iter().collect();
    let fresh: std::collections::BTreeSet<(i64, i64)> = expected
        .relation(Pred::new("g"))
        .map(|t| {
            let mut it = t.iter();
            let x = format!("{}", it.next().unwrap()).parse().unwrap();
            let y = format!("{}", it.next().unwrap()).parse().unwrap();
            (x, y)
        })
        .collect();
    assert_eq!(served, fresh, "service diverged from fresh eval");

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

#[test]
fn client_subcommand_round_trips() {
    let (child, addr) = spawn_daemon(&[]);

    // Successful session through `datalog client`.
    let out = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args([
            "client",
            &addr,
            "{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"g(X, Z) :- a(X, Z), a(X, Z).\"}",
            "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2).\"}",
            "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}",
        ])
        .output()
        .expect("run client");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"atoms_removed\":1"), "{stdout}");
    assert!(stdout.contains("g(1, 2)"), "{stdout}");

    // A failing response flips the exit code to 2.
    let out = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(["client", &addr, "{\"op\":\"nope\"}"])
        .output()
        .expect("run client");
    assert_eq!(out.status.code(), Some(2));

    // Requests on stdin work too; shutdown ends the daemon.
    let mut piped = Command::new(env!("CARGO_BIN_EXE_datalog"))
        .args(["client", &addr])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn client");
    piped
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"{\"op\":\"ping\"}\n{\"op\":\"shutdown\"}\n")
        .unwrap();
    let out = piped.wait_with_output().expect("client output");
    assert!(out.status.success());
    expect_clean_exit(child);
}

/// A raw connection for tests that pipeline: several request lines in one
/// write, replies read back one line at a time.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let writer = TcpStream::connect(addr).expect("connect raw");
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Raw { writer, reader }
    }

    fn send(&mut self, lines: &[&str]) {
        let mut bytes = lines.join("\n");
        bytes.push('\n');
        self.writer.write_all(bytes.as_bytes()).expect("send");
    }

    fn reply(&mut self) -> datalog_json::Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        datalog_json::Value::parse(line.trim_end()).expect("reply parses")
    }

    /// Whether a reply byte is already waiting, without blocking for one.
    fn reply_waiting(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        self.writer.set_nonblocking(true).unwrap();
        let waiting = matches!(self.writer.peek(&mut [0u8; 1]), Ok(n) if n > 0);
        self.writer.set_nonblocking(false).unwrap();
        waiting
    }
}

/// The server-wide `stats` counters at `path`.
fn server_count(client: &mut Client, path: &[&str]) -> u64 {
    let resp = request(client, "{\"op\":\"stats\"}");
    let server = resp.get("server").expect("server metrics");
    let leaf = path.iter().try_fold(server, |v, key| v.get(key));
    leaf.and_then(datalog_json::Value::as_u64).unwrap_or(0)
}

/// Install the right-linear closure over an `n`-node chain, so that
/// `g(X, Y)` has n(n+1)/2 answers.
fn install_chain_view(client: &mut Client, n: usize) {
    assert_ok(&request(
        client,
        "{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"g(X, Z) :- a(X, Z). g(X, Z) :- a(X, Y), g(Y, Z).\"}",
    ));
    let facts: String = (0..n).map(|i| format!("a({i},{}). ", i + 1)).collect();
    let resp = request(
        client,
        &format!("{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"{facts}\"}}"),
    );
    assert_ok(&resp);
}

/// A client that pipelines queries and never reads its replies is served
/// only as fast as it reads: its next request waits until the last reply
/// has left the daemon, so the daemon holds one request line and one reply
/// for it, not every reply it could compute — hundreds of megabytes within
/// seconds at this reply size.
#[test]
fn unread_replies_stop_their_connection() {
    let (child, addr) = spawn_daemon(&[]);
    let mut admin = Client::connect(&addr).expect("connect");
    install_chain_view(&mut admin, 200);

    // About 250 KB per reply; thousands of requests, none read back.
    let line = "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\"}\n";
    let flood = line.repeat(5000);
    let mut flooder = TcpStream::connect(&addr).expect("connect flooder");
    flooder
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let mut written = 0;
    while written < flood.len() {
        match flooder.write(&flood.as_bytes()[written..]) {
            Ok(n) => written += n,
            Err(_) => break, // the socket buffers are full: pushed back
        }
    }
    let sent = (written / line.len()) as u64;
    assert!(sent >= 1000, "only {sent} requests went out");

    // The answered count stops, far below what was sent.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut answered = server_count(&mut admin, &["requests", "query"]);
    loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = server_count(&mut admin, &["requests", "query"]);
        if now == answered {
            break;
        }
        answered = now;
        assert!(
            Instant::now() < deadline,
            "the daemon kept answering a client that reads nothing ({answered} of {sent})"
        );
    }
    assert!(
        answered * 10 < sent,
        "answered {answered} of {sent} unread requests"
    );

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
    drop(flooder);
}

/// One write carrying an insert and two queries gets three replies in
/// request order, and both queries see the inserted facts: a read queued
/// behind a write on its connection waits for it.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (child, addr) = spawn_daemon(&[]);
    let mut admin = Client::connect(&addr).expect("connect");
    assert_ok(&request(
        &mut admin,
        "{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"g(X, Z) :- a(X, Z). g(X, Z) :- g(X, Y), g(Y, Z).\"}",
    ));
    let mut raw = Raw::connect(&addr);
    raw.send(&[
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(1,2). a(2,3).\",\"id\":1}",
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(1, X)\",\"id\":2}",
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, Y)\",\"id\":3}",
    ]);
    let replies: Vec<_> = (0..3).map(|_| raw.reply()).collect();
    let ids: Vec<_> = replies
        .iter()
        .map(|r| r.get("id").and_then(datalog_json::Value::as_u64))
        .collect();
    assert_eq!(ids, [Some(1), Some(2), Some(3)], "{replies:?}");
    assert_eq!(replies[0].get("added").unwrap().as_u64(), Some(5));
    assert_eq!(pairs(&replies[1]), [(1, 2), (1, 3)], "{}", replies[1]);
    assert_eq!(
        pairs(&replies[2]),
        [(1, 2), (1, 3), (2, 3)],
        "{}",
        replies[2]
    );

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// A lone client's reads are answered on the event loop, every one of
/// them; its writes, and a `magic` query, go to the pool.
#[test]
fn a_lone_clients_reads_are_answered_on_the_loop() {
    let (child, addr) = spawn_daemon(&[]);
    let mut c = Client::connect(&addr).expect("connect");
    install_chain_view(&mut c, 4);
    assert_eq!(server_count(&mut c, &["answered_on_loop"]), 0);
    // The `stats` just sent was answered on the loop, after it counted.
    for line in [
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(0, X)\"}",
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(X, 4)\",\"strategy\":\"scan\"}",
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(1, X)\",\"strategy\":\"auto\"}",
        "{\"op\":\"ping\"}",
        "{\"op\":\"list\"}",
        "{\"op\":\"stats\",\"program\":\"tc\"}",
    ] {
        assert_ok(&request(&mut c, line));
    }
    assert_eq!(server_count(&mut c, &["answered_on_loop"]), 7);
    for line in [
        "{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(0, X)\",\"strategy\":\"magic\"}",
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(4,5).\"}",
        "{\"op\":\"remove\",\"program\":\"tc\",\"facts\":\"a(4,5).\"}",
    ] {
        assert_ok(&request(&mut c, line));
    }
    // Only the previous `stats` joined the count.
    assert_eq!(server_count(&mut c, &["answered_on_loop"]), 8);

    assert_ok(&request(&mut c, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}

/// While a long write runs on the pool, a read on another connection goes
/// to the pool too — beside the write, not behind it — and is answered
/// first.
#[test]
fn a_read_beside_a_pooled_write_goes_to_the_pool() {
    let (child, addr) = spawn_daemon(&[]);
    let mut admin = Client::connect(&addr).expect("connect");
    let rules = datalog_bench::portable_source(&bloated_tc(6, 1)).replace('\n', " ");
    assert_ok(&request(
        &mut admin,
        &format!(
            "{{\"op\":\"install\",\"program\":\"tc\",\"rules\":\"{rules}\",\"optimize\":false}}"
        ),
    ));
    assert_ok(&request(
        &mut admin,
        "{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"a(0,1).\"}",
    ));

    // Closing a 600-node chain under bloated_tc(6): about 140 ms in a
    // release build on a 2-vCPU host, ten times that in a debug build.
    let facts: String = (1..600).map(|i| format!("a({i},{}). ", i + 1)).collect();
    let mut writer = Raw::connect(&addr);
    let mut reader = Raw::connect(&addr);
    writer.send(&[&format!(
        "{{\"op\":\"insert\",\"program\":\"tc\",\"facts\":\"{facts}\"}}"
    )]);
    // Ask `stats` until one is not answered on the loop: from then on the
    // write is with the pool. Each reply counts the loop's answers before
    // its own, so `on_loop` ends up counting every one of these that was.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut on_loop = server_count(&mut admin, &["answered_on_loop"]);
    loop {
        let now = server_count(&mut admin, &["answered_on_loop"]);
        if now == on_loop {
            break;
        }
        on_loop = now;
        assert!(
            Instant::now() < deadline,
            "the write never reached the pool"
        );
    }
    reader.send(&["{\"op\":\"query\",\"program\":\"tc\",\"atom\":\"g(0, X)\"}"]);
    let read = reader.reply();
    assert_ok(&read);
    assert!(
        !writer.reply_waiting(),
        "the write finished before the read beside it"
    );
    assert_ok(&writer.reply());

    // The read went to the pool: the count did not move.
    assert_eq!(server_count(&mut admin, &["answered_on_loop"]), on_loop);

    assert_ok(&request(&mut admin, "{\"op\":\"shutdown\"}"));
    expect_clean_exit(child);
}
