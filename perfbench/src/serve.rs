//! The `serve-sessions` workload: closed-loop clients driving the
//! `gcube serve` daemon over its Unix socket, and the `server.*` layer,
//! which sends the same request stream through `Server::handle_line`
//! in-process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gcube_sim::proto::{config_to_json, parse_json, quote, JsonValue};
use gcube_sim::server::Server;
use gcube_sim::{Metrics, ServerConfig, Simulator};
use perfbench::stats::{median, tail};
use perfbench::workload::{session_config, SESSION_POOL, STEP_CYCLES};
use perfbench::Workload;

use crate::{engine, peak_rss_mib, Args, Outcome};

/// Scratch directory, relative to the working directory, for the socket
/// and the snapshot files. Relative keeps the socket path short.
const RUN_DIR: &str = ".bench_run";
/// Closed-loop client connections.
const CLIENTS: u64 = 2;
/// Daemon start-ups timed per run; `setup_s` is their median.
const DAEMON_SETUP_REPS: usize = 9;
/// How long to wait for the daemon to accept or to exit.
const DAEMON_WAIT: Duration = Duration::from_secs(20);
/// The request kinds of a session, in the order a session sends them.
const OPS: [&str; 5] = ["open", "step", "snapshot", "restore", "close"];

/// One way to send a request line and get the reply line.
trait Transport {
    fn call(&mut self, line: &str) -> Result<String, String>;
}

struct Socket {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Socket {
    fn connect(path: &Path) -> Result<Socket, String> {
        let stream = UnixStream::connect(path).map_err(|e| format!("connect {path:?}: {e}"))?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Socket {
            reader: BufReader::new(stream),
            writer,
        })
    }
}

impl Transport for Socket {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

impl Transport for &Server {
    fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.handle_line(line).text)
    }
}

/// A `gcube serve` process on [`RUN_DIR`]'s socket; killed and reaped on
/// drop if it has not exited by then.
struct Daemon {
    child: Child,
}

impl Daemon {
    fn socket() -> &'static Path {
        Path::new(".bench_run/gcube.sock")
    }

    fn spawn(gcube: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("create {RUN_DIR}: {e}"))?;
        let child = Command::new(gcube)
            .args(["serve", "--socket"])
            .arg(Daemon::socket())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("start {gcube:?}: {e}"))?;
        Ok(Daemon { child })
    }

    /// Connect as soon as the daemon accepts.
    fn connect(&mut self) -> Result<Socket, String> {
        let start = Instant::now();
        loop {
            match Socket::connect(Daemon::socket()) {
                Ok(s) => return Ok(s),
                Err(e) if start.elapsed() > DAEMON_WAIT => return Err(e),
                Err(_) => {}
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("gcube serve exited early: {status}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(&self.child.id().to_string())
    }

    /// Ask the daemon to stop and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut s = self.connect()?;
        s.call("{\"op\":\"shutdown\"}")?;
        let start = Instant::now();
        while start.elapsed() < DAEMON_WAIT {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("gcube serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("gcube serve did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The final counters a `close` reply reports.
#[derive(Debug, PartialEq)]
struct Closed {
    cycles: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    route_failures: u64,
    in_flight_at_end: u64,
}

impl Closed {
    fn from_reply(v: &JsonValue) -> Option<Closed> {
        let f = |k: &str| v.get(k).and_then(JsonValue::as_u64);
        Some(Closed {
            cycles: f("cycles")?,
            injected: f("injected")?,
            delivered: f("delivered")?,
            dropped: f("dropped")?,
            route_failures: f("route_failures")?,
            in_flight_at_end: f("in_flight_at_end")?,
        })
    }

    fn from_metrics(m: &Metrics) -> Closed {
        Closed {
            cycles: m.cycles,
            injected: m.injected,
            delivered: m.delivered,
            dropped: m.dropped,
            route_failures: m.route_failures,
            in_flight_at_end: m.in_flight_at_end,
        }
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Round-trip time per request in microseconds, by index into [`OPS`].
    rtt_us: [Vec<f64>; OPS.len()],
    sent: u64,
    not_ok: u64,
    overloaded: u64,
    /// Fastest round trip, in microseconds, of each request of the
    /// stream with its index into [`OPS`], keyed by session-pool index and
    /// position in the session. Every session of one pool index sends
    /// identical requests.
    fastest_us: BTreeMap<(u64, u32), (usize, f64)>,
    /// Cycles a session of each pool index runs.
    session_cycles: BTreeMap<u64, u64>,
    /// Session-pool index and final counters of every closed session.
    closed: Vec<(u64, Option<Closed>)>,
    /// Malformed replies and transport errors.
    errors: Vec<String>,
}

impl ClientLog {
    /// The fastest round trips of the distinct requests of kind `op`
    /// (all kinds for `None`).
    fn fastest(&self, op: Option<usize>) -> Vec<f64> {
        self.fastest_us
            .values()
            .filter(|(o, _)| op.is_none_or(|op| op == *o))
            .map(|&(_, us)| us)
            .collect()
    }

    fn merge(&mut self, other: ClientLog) {
        for (a, b) in self.rtt_us.iter_mut().zip(other.rtt_us) {
            a.extend(b);
        }
        self.sent += other.sent;
        self.not_ok += other.not_ok;
        self.overloaded += other.overloaded;
        for (key, (op, us)) in other.fastest_us {
            let f = self.fastest_us.entry(key).or_insert((op, us));
            f.1 = f.1.min(us);
        }
        self.session_cycles.extend(other.session_cycles);
        self.closed.extend(other.closed);
        self.errors.extend(other.errors);
    }

    /// Send one request; `None` on a transport error, a malformed reply
    /// or an `ok:false` answer.
    fn request(
        &mut self,
        t: &mut impl Transport,
        key: &mut (u64, u32),
        op: usize,
        line: &str,
    ) -> Option<JsonValue> {
        let start = Instant::now();
        let reply = t.call(line);
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.rtt_us[op].push(us);
        let f = self.fastest_us.entry(*key).or_insert((op, us));
        f.1 = f.1.min(us);
        key.1 += 1;
        self.sent += 1;
        let reply = match reply {
            Ok(r) => r,
            Err(e) => {
                self.errors.push(e);
                return None;
            }
        };
        let v = match parse_json(&reply) {
            Ok(v) => v,
            Err(e) => {
                self.errors
                    .push(format!("malformed {} reply {reply:?}: {e}", OPS[op]));
                return None;
            }
        };
        if v.get("ok").and_then(JsonValue::as_bool) == Some(true) {
            return Some(v);
        }
        self.not_ok += 1;
        if v.get("code").and_then(JsonValue::as_str) == Some("overloaded") {
            self.overloaded += 1;
        }
        None
    }
}

/// One closed-loop client: open a session, step it [`STEP_CYCLES`] at a
/// time to completion with a snapshot and a restore onto itself at
/// mid-run, close it; repeat until `deadline`.
fn client_loop(t: &mut impl Transport, client: u64, seed: u64, deadline: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    let checkpoint = quote(&format!("{RUN_DIR}/ck-{client}.txt"));
    let mut k = 0;
    while Instant::now() < deadline && log.errors.is_empty() {
        let index = (k * CLIENTS + client) % SESSION_POOL;
        let cfg = session_config(seed, index);
        let id = quote(&format!("c{client}-{k}"));
        k += 1;
        let key = &mut (index, 0);
        let open = format!(
            "{{\"op\":\"open\",\"session\":{id},\"config\":{},\"strategy\":\"auto\"}}",
            config_to_json(&cfg)
        );
        if log.request(t, key, 0, &open).is_none() {
            continue;
        }
        let step = format!("{{\"op\":\"step\",\"session\":{id},\"cycles\":{STEP_CYCLES}}}");
        let (mut cycle, mut snapshotted, mut refused) = (0, false, 0);
        loop {
            if !snapshotted && cycle >= cfg.inject_cycles / 2 {
                snapshotted = true;
                let snap =
                    format!("{{\"op\":\"snapshot\",\"session\":{id},\"path\":{checkpoint}}}");
                let restore =
                    format!("{{\"op\":\"restore\",\"session\":{id},\"path\":{checkpoint}}}");
                if log.request(t, key, 2, &snap).is_some() {
                    log.request(t, key, 3, &restore);
                }
            }
            let Some(v) = log.request(t, key, 1, &step) else {
                refused += 1;
                if refused > 100 || !log.errors.is_empty() {
                    break;
                }
                continue;
            };
            let now = v.get("cycle").and_then(JsonValue::as_u64).unwrap_or(cycle);
            cycle = now;
            if v.get("done").and_then(JsonValue::as_bool) != Some(false) {
                break;
            }
        }
        log.session_cycles.insert(index, cycle);
        let close = format!("{{\"op\":\"close\",\"session\":{id}}}");
        let closed = log.request(t, key, 4, &close);
        log.closed
            .push((index, closed.as_ref().and_then(Closed::from_reply)));
    }
    log
}

/// Run [`CLIENTS`] client loops, one thread each, over the transports
/// `connect` makes; returns the merged log and the wall time.
fn drive<T: Transport + Send>(
    connect: impl Fn() -> Result<T, String>,
    seed: u64,
    budget: Duration,
) -> Result<(ClientLog, f64), String> {
    let mut transports = (0..CLIENTS)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + budget;
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .iter_mut()
            .enumerate()
            .map(|(c, t)| s.spawn(move || client_loop(t, c as u64, seed, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut log = ClientLog::default();
    for l in logs {
        log.merge(l);
    }
    Ok((log, wall))
}

/// Final metrics of each pool session, run in-process as a library user
/// would run them.
fn references(seed: u64) -> Vec<Metrics> {
    let algo = Workload::ServeSessions.strategy(seed);
    Workload::ServeSessions
        .configs(seed)
        .into_iter()
        .map(|cfg| Simulator::new(cfg, algo.as_ref()).session().run().metrics)
        .collect()
}

/// Checks every request stream must pass: transport and JSON errors,
/// refused requests, and each closed session's counters against the
/// same run made through the library.
fn check_log(out: &mut Outcome, log: &ClientLog, refs: &[Metrics]) {
    out.check("replies_well_formed", log.errors.is_empty(), || {
        log.errors.join("; ")
    });
    out.check("requests_ok", log.not_ok == 0, || {
        format!("{} of {} requests answered ok:false", log.not_ok, log.sent)
    });
    for (index, closed) in &log.closed {
        let want = Closed::from_metrics(&refs[*index as usize]);
        out.check(
            "daemon_matches_library",
            closed.as_ref() == Some(&want),
            || {
                format!(
                    "session {index}: daemon closed with {closed:?}, library run gives {want:?}"
                )
            },
        );
    }
    out.attempted += log.sent;
    out.failed += log.not_ok;
}

/// Time from starting the daemon to the reply of the first `open`.
fn setup_once(args: &Args) -> Result<f64, String> {
    let start = Instant::now();
    let mut daemon = Daemon::spawn(&args.gcube)?;
    let mut s = daemon.connect()?;
    let cfg = session_config(args.seed, 0);
    let open = format!(
        "{{\"op\":\"open\",\"session\":\"setup\",\"config\":{},\"strategy\":\"auto\"}}",
        config_to_json(&cfg)
    );
    let reply = s.call(&open)?;
    let setup = start.elapsed().as_secs_f64();
    let ok = parse_json(&reply)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool));
    if ok != Some(true) {
        return Err(format!("first open refused: {reply}"));
    }
    drop(s);
    daemon.shutdown()?;
    Ok(setup)
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        let configs = Workload::ServeSessions.configs(args.seed);
        let algo = Workload::ServeSessions.strategy(args.seed);
        engine::layers(&configs, 1, algo.as_ref(), args.seconds, out);
        return server_layer(args, out);
    }
    let mut daemon = Daemon::spawn(&args.gcube)?;
    daemon.connect()?;
    let (log, wall) = drive(
        || Socket::connect(Daemon::socket()),
        args.seed,
        args.seconds,
    )?;
    let rss = daemon.peak_rss_mib();
    daemon.shutdown()?;
    let setup = (0..DAEMON_SETUP_REPS)
        .map(|_| setup_once(args))
        .collect::<Result<Vec<_>, _>>()?;

    let refs = references(args.seed);
    check_log(out, &log, &refs);

    // Each request's fastest round trip over the run's repetitions of it,
    // so time taken by other tenants of the host drops out; the closed
    // loop's throughput follows from those by Little's law, N / R.
    let rtt = log.fastest(None);
    let pass_s = rtt.iter().sum::<f64>() / 1e6 / CLIENTS as f64;
    let cycles: u64 = log.session_cycles.values().sum();
    let hops: u64 = log
        .session_cycles
        .keys()
        .map(|&i| refs[i as usize].forwarded_hops_total)
        .sum();
    let latency: u64 = refs.iter().map(|m| m.total_latency).sum();
    let delivered: u64 = refs.iter().map(|m| m.delivered).sum();
    let sessions = log.closed.len();
    println!(
        "# {sessions} sessions over {} pool configurations in {wall:.3} s; {} requests, {} distinct",
        log.session_cycles.len(),
        log.sent,
        rtt.len()
    );

    out.metric("setup_s", median(&setup), "s", setup.len());
    out.metric("cycles_per_s", cycles as f64 / pass_s, "1/s", sessions);
    out.metric("hops_per_s", hops as f64 / pass_s, "1/s", sessions);
    out.metric(
        "mean_latency_cycles",
        latency as f64 / delivered.max(1) as f64,
        "cycles",
        delivered as usize,
    );
    out.metric(
        "success_ratio",
        (log.sent - log.not_ok) as f64 / log.sent.max(1) as f64,
        "ratio",
        log.sent as usize,
    );
    out.metric("peak_rss_mib", rss.unwrap_or(f64::NAN), "MiB", 1);
    out.metric(
        "req_per_s",
        rtt.len() as f64 / pass_s,
        "1/s",
        log.sent as usize,
    );
    out.metric("rtt_p50_us", median(&rtt), "us", rtt.len());
    let (p, v) = tail(&rtt);
    println!(
        "# rtt tail percentile p{p} over {} distinct requests",
        rtt.len()
    );
    out.metric("rtt_p99_us", v, "us", rtt.len());
    for (op, samples) in OPS.iter().zip(&log.rtt_us) {
        println!(
            "# op {op} rtt p50 {} us over all {} sent",
            median(samples),
            samples.len()
        );
    }
    Ok(())
}

/// server.*: the `serve-sessions` request stream through
/// `Server::handle_line` in-process, then over the daemon's socket for
/// the transport's share. Every traced run measures it.
pub fn server_layer(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let budget = (args.seconds / 8).max(Duration::from_secs(1));
    let refs = references(args.seed);

    let server = Server::new(ServerConfig::default());
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("create {RUN_DIR}: {e}"))?;
    let (local, _) = drive(|| Ok(&server), args.seed, budget)?;
    check_log(out, &local, &refs);

    let mut daemon = Daemon::spawn(&args.gcube)?;
    daemon.connect()?;
    let (remote, _) = drive(|| Socket::connect(Daemon::socket()), args.seed, budget)?;
    daemon.shutdown()?;
    check_log(out, &remote, &refs);

    // Medians of each distinct request's fastest round trip, so that
    // co-tenant load drops out of the in-process and socket figures alike.
    for (i, op) in OPS.iter().enumerate() {
        let fastest = local.fastest(Some(i));
        out.metric(
            &format!("server.handle_us_p50.{op}"),
            median(&fastest),
            "us",
            fastest.len(),
        );
    }
    let step = |log: &ClientLog| median(&log.fastest(Some(1)));
    out.metric(
        "server.transport_us_p50",
        step(&remote) - step(&local),
        "us",
        remote.fastest(Some(1)).len(),
    );
    out.metric(
        "server.overloaded",
        (local.overloaded + remote.overloaded) as f64,
        "count",
        (local.sent + remote.sent) as usize,
    );
    Ok(())
}
