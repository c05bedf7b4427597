//! The served side: the release `modref serve` daemon driven over
//! loopback, and the same request streams replayed in process through
//! `QueryEngine` for the per-layer split.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modref_core::{Analyzer, Guard, Trace};
use modref_incr::render::{render_json, render_json_proc, render_json_site_answer};
use modref_incr::{IncrStats, IncrementalExt, QueryEngine, Script, SiteSets};
use modref_ir::{CallSiteId, Program};
use modref_serve::{Client, QueryTarget, Request, Status};

use crate::stats::{ms, Tally};
use crate::traffic::{Op, Rec, Snapshots, Stream};

/// Environment variables the program reads for its own knobs (threads,
/// fault and crash injection, replay seeds). The daemon runs without them,
/// on its defaults.
pub const PROGRAM_ENV: [&str; 4] = [
    "MODREF_THREADS",
    "MODREF_FAULT",
    "MODREF_CRASH",
    "MODREF_SEED",
];

/// A running `modref serve --addr 127.0.0.1:0`.
pub struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the daemon and waits for its listen line.
    pub fn boot(bin: &Path) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        for var in PROGRAM_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = lines.read_line(&mut line).unwrap_or(0);
            if read == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("modref serve exited before listening".to_owned());
            }
            if let Some(addr) = line.trim().strip_prefix("modref-serve listening on ") {
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("listen line `{addr}`: {e}"))?;
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr = std::thread::spawn(move || drain(lines));
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

fn drain(mut r: BufReader<ChildStderr>) {
    let mut sink = Vec::new();
    let _ = r.read_to_end(&mut sink);
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Opens a session and returns the connection it was opened on. Driving
/// the session on that same connection keeps it on one daemon thread (the
/// daemon serves each connection on a thread of its own), so the session's
/// state is built and edited in one allocator arena: with a fresh
/// connection per phase, which arena the editing thread got depended on
/// which set-up thread exited first, and the daemon's peak memory moved
/// between 50 and 68 MB from run to run.
pub fn open(addr: SocketAddr, session: &str, source: &str, lazy: bool) -> Result<Client, String> {
    let mut client = Client::connect(addr)?;
    let resp = client.request(Request::Open {
        session: session.to_owned(),
        program: source.to_owned(),
        lazy,
    })?;
    if resp.status != Status::Ok {
        let why = resp.str_field("error").or_else(|| resp.str_field("reason"));
        return Err(format!("open {session}: {}", why.unwrap_or("not ok")));
    }
    Ok(client)
}

/// How long the closed loops run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// The measured window.
    pub window: Duration,
    /// Edits each session makes at the least, even past the window (up to
    /// four windows), so edit percentiles have their samples.
    pub min_edits: usize,
}

/// One session's closed-loop client: the connection the session was
/// opened on, sending the stream's next request once the previous one is
/// answered. A request the server drops (the connection closes without an
/// answer) is a failure; the client reconnects and goes on.
struct Driver {
    addr: SocketAddr,
    session: &'static str,
    client: Option<Client>,
    stream: Stream,
    log: Vec<Rec>,
    edits: usize,
    tally: Tally,
}

impl Driver {
    fn new(addr: SocketAddr, session: &'static str, client: Client, stream: Stream) -> Driver {
        Driver {
            addr,
            session,
            client: Some(client),
            stream,
            log: Vec::new(),
            edits: 0,
            tally: Tally::default(),
        }
    }

    /// Sends the stream's next request and logs the answer.
    fn step(&mut self) {
        let op = self.stream.next_op();
        let request = match &op {
            Op::Edit(line) => {
                self.edits += 1;
                Request::Edit {
                    session: self.session.to_owned(),
                    script: line.clone(),
                }
            }
            Op::Site(n) => query(self.session, QueryTarget::Site(*n)),
            Op::Proc(name) => query(self.session, QueryTarget::Proc(name.clone())),
        };
        let index = self.tally.attempt();
        let t = Instant::now();
        let answer = match self.client.as_mut() {
            Some(c) => c.request(request),
            None => Err("not connected".to_owned()),
        };
        let took = ms(t.elapsed());
        let (ok, report) = match answer {
            Ok(resp) => (
                resp.status == Status::Ok,
                resp.str_field("report").map(str::to_owned),
            ),
            Err(_) => {
                self.client = Client::connect(self.addr).ok();
                (false, None)
            }
        };
        if !ok {
            self.tally.fail(index);
        }
        self.log.push(Rec {
            op,
            ms: took,
            core_ms: took,
            report,
            tally: index,
        });
    }
}

fn query(session: &str, target: QueryTarget) -> Request {
    Request::Query {
        session: session.to_owned(),
        target,
    }
}

/// The daemon's own request counters, from its `stats` op.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerCounts {
    /// Requests parsed.
    pub requests: u64,
    /// Requests answered `error`.
    pub errors: u64,
    /// Requests answered `degraded`.
    pub degraded: u64,
}

/// Asks the daemon for its counters.
pub fn server_counts(addr: SocketAddr) -> Result<ServerCounts, String> {
    let resp = Client::connect(addr)?.request(Request::Stats)?;
    let field = |k: &str| resp.uint_field(k).ok_or(format!("stats lacks `{k}`"));
    Ok(ServerCounts {
        requests: field("requests")?,
        errors: field("errors")?,
        degraded: field("degraded")?,
    })
}

/// What the in-process replay of one session measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// The request log, checkable like a wire log.
    pub log: Vec<Rec>,
    /// The stream's kept replicas.
    pub snapshots: Snapshots,
    /// `IncrStats` after each eager apply.
    pub applies: Vec<IncrStats>,
    /// Paper-unit operations of each lazy point query.
    pub query_ops: Vec<u64>,
}

/// Replays the eager or the `lazy` session's stream of run `seed` through
/// an in-process `QueryEngine` — eager (a warm incremental engine) or lazy
/// (demand-driven) — doing the library work
/// the daemon does per request: parse and resolve the script line and
/// apply it, or answer and render a point query. Runs until `window` has
/// passed and at least `min_ops` requests were made. Every span goes to
/// `trace`.
pub fn replay(
    program: &Program,
    seed: u64,
    lazy: bool,
    window: Duration,
    min_ops: usize,
    trace: &Trace,
    tally: &mut Tally,
) -> Replay {
    let mut stream = Stream::new(program.clone(), stream_seed(seed, u64::from(lazy)));
    let mut engine = if lazy {
        QueryEngine::new_lazy(program.clone())
    } else {
        QueryEngine::new_full(Analyzer::new().incremental(program.clone()))
    };
    let guard = Guard::unlimited();
    let mut out = Replay::default();
    let start = Instant::now();
    while start.elapsed() < window || out.log.len() < min_ops {
        let op = stream.next_op();
        let index = tally.attempt();
        let t = Instant::now();
        let mut core_ms = 0.0;
        let ok;
        let report = match &op {
            Op::Edit(line) => {
                let edit = Script::parse(line)
                    .ok()
                    .and_then(|s| s.steps()[0].resolve(engine.program()).ok());
                match edit {
                    Some(edit) => {
                        let _span = trace.span(if lazy { "lazy.apply" } else { "incr.apply" });
                        let c = Instant::now();
                        let applied = engine.apply_guarded(&edit, &guard);
                        core_ms = ms(c.elapsed());
                        ok = matches!(applied, Ok(ref o) if !o.is_degraded());
                        if let Some(e) = engine.engine() {
                            out.applies.push(*e.stats());
                        }
                    }
                    None => ok = false,
                }
                None
            }
            Op::Site(n) => {
                let s = CallSiteId::new(*n);
                let _span = trace.span(if lazy { "demand.query" } else { "incr.query" });
                let c = Instant::now();
                let answer = engine.site_answer(s, &guard);
                core_ms = ms(c.elapsed());
                ok = answer.degraded.is_none();
                if lazy {
                    out.query_ops
                        .push(answer.ops.bitvec_steps + answer.ops.bool_steps);
                }
                let a = answer.answer;
                Some(render_json_site_answer(
                    engine.program(),
                    s,
                    &a.mods,
                    &a.uses,
                    &a.dmod,
                ))
            }
            Op::Proc(name) => {
                let p = engine
                    .program()
                    .procs()
                    .find(|&p| engine.program().proc_name(p) == name);
                match p {
                    Some(p) => {
                        let _span = trace.span(if lazy { "demand.query" } else { "incr.query" });
                        let c = Instant::now();
                        let answer = engine.proc_answer(p, &guard);
                        core_ms = ms(c.elapsed());
                        ok = answer.degraded.is_none();
                        if lazy {
                            out.query_ops
                                .push(answer.ops.bitvec_steps + answer.ops.bool_steps);
                        }
                        let a = answer.answer;
                        Some(render_json_proc(engine.program(), name, &a.gmod, &a.guse))
                    }
                    None => {
                        ok = false;
                        None
                    }
                }
            }
        };
        let took = ms(t.elapsed());
        if !ok {
            tally.fail(index);
        }
        out.log.push(Rec {
            op,
            ms: took,
            core_ms,
            report,
            tally: index,
        });
    }
    out.snapshots = stream.into_snapshots();
    out
}

/// The log's edits (`edits`) or point queries (`!edits`), in order.
pub fn of_kind(log: &[Rec], edits: bool) -> impl Iterator<Item = &Rec> {
    log.iter().filter(move |r| match r.op {
        Op::Edit(_) => edits,
        Op::Site(_) | Op::Proc(_) => !edits,
    })
}

/// The stream seed of session `index` (0 eager, 1 lazy) of a run.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index + 1)
}

/// Both sessions' logs and tallies from one measured window.
pub struct Window {
    /// The eager session's log.
    pub eager: Vec<Rec>,
    /// The lazy session's log.
    pub lazy: Vec<Rec>,
    /// Per-session tallies, in the same order.
    pub tallies: [Tally; 2],
    /// Per-session kept replicas, in the same order.
    pub snapshots: [Snapshots; 2],
    /// The eager session's program as the window left it.
    pub eager_program: Program,
}

impl Window {
    /// Latencies of both sessions' edits (`edits`) or point queries.
    pub fn pooled_ms(&self, edits: bool) -> Vec<f64> {
        [&self.eager, &self.lazy]
            .iter()
            .flat_map(|l| of_kind(l, edits).map(|r| r.ms))
            .collect()
    }
}

/// Drives the `eager` and `lazy` sessions of the daemon at `addr` under
/// `load`, each on the connection it was opened on (`clients`, in that
/// order), from this one thread: one request to each session in turn, so
/// the daemon serves one request at a time and the two sessions never
/// compete for the machine's two cores. Both sessions hold `program`, as
/// the daemon parsed it.
pub fn drive_both(
    addr: SocketAddr,
    clients: [Client; 2],
    program: &Program,
    seed: u64,
    load: Load,
) -> Window {
    let [eager, lazy] = clients;
    let stream = |index| Stream::new(program.clone(), stream_seed(seed, index));
    let mut sessions = [
        Driver::new(addr, "eager", eager, stream(0)),
        Driver::new(addr, "lazy", lazy, stream(1)),
    ];
    let start = Instant::now();
    while start.elapsed() < load.window
        || (sessions.iter().any(|d| d.edits < load.min_edits) && start.elapsed() < load.window * 4)
    {
        for d in &mut sessions {
            d.step();
        }
    }
    let [eager, lazy] = sessions;
    let eager_program = eager.stream.replica().clone();
    Window {
        tallies: [eager.tally, lazy.tally],
        eager: eager.log,
        lazy: lazy.log,
        snapshots: [eager.stream.into_snapshots(), lazy.stream.into_snapshots()],
        eager_program,
    }
}

/// What the one `query all` after the window got (see [`probe_all`]).
pub struct AllProbe {
    /// Round-trip time, until the report or the dropped connection.
    pub ms: f64,
    /// `true` when the daemon answered `ok` with a report.
    pub answered: bool,
    /// `false` when an answered report differs from the reference.
    pub correct: bool,
}

/// Sends one `query all` to the eager session, whose program is `program`,
/// and checks an answered report against `Analyzer::analyze` of it.
///
/// At this commit the daemon cannot frame the 30 MB report (the 1 MiB
/// `MAX_FRAME_LEN`) and drops the connection: the known failure. It is
/// sent after the window and after the daemon's counters and peak memory
/// are read, and kept out of `attempted` and `failed`, so the measured
/// traffic has no failing operation; the run reports the probe on a line
/// of its own, and the traced run as `serve.query_all_dropped`.
pub fn probe_all(addr: SocketAddr, program: &Program) -> Result<AllProbe, String> {
    let mut client = Client::connect(addr)?;
    let t = Instant::now();
    let answer = client.request(query("eager", QueryTarget::All));
    let took = ms(t.elapsed());
    let report = match answer {
        Ok(resp) if resp.status == Status::Ok => resp.str_field("report").map(str::to_owned),
        _ => None,
    };
    let correct = report.as_ref().is_none_or(|r| {
        let summary = Analyzer::new().analyze(program);
        *r == render_json(program, &SiteSets::from_summary(program, &summary))
    });
    Ok(AllProbe {
        ms: took,
        answered: report.is_some(),
        correct,
    })
}

impl AllProbe {
    /// The probe's information line.
    pub fn note(&self) -> String {
        let outcome = match (self.answered, self.correct) {
            (false, _) => "dropped (known failure: report above MAX_FRAME_LEN)",
            (true, true) => "answered, matches the reference",
            (true, false) => "answered, DIFFERS from the reference",
        };
        format!("query_all probe: {outcome}, {} ms", self.ms)
    }
}

/// Checks both logs of `w` against their kept replicas; returns the merged
/// tally, whether every checked answer matched, and how many were checked.
pub fn check_window(w: &Window) -> (Tally, bool, usize) {
    let mut tallies = w.tallies.clone();
    let (mut checked, mut wrong) = (0, 0);
    let logs = [(&w.eager, &w.snapshots[0]), (&w.lazy, &w.snapshots[1])];
    for ((log, snapshots), tally) in logs.into_iter().zip(tallies.iter_mut()) {
        let (c, x) = crate::traffic::check_log(log, snapshots, tally);
        checked += c;
        wrong += x;
    }
    let mut total = Tally::default();
    for t in &tallies {
        total.absorb(t);
    }
    (total, wrong == 0, checked)
}

/// The served workload's end-to-end run. Set-up — generate and print the
/// program, boot the daemon, open the eager and the lazy session — is
/// repeated [`crate::SETUP_REPS`] times; the last daemon is measured. Both
/// sessions then run closed loops for `window`. The end-to-end slots are
/// filled with the sessions' own traffic: `analyze_ms_p50` is the eager
/// session's edit round trip (an edit until the daemon holds the updated
/// summary), and `report_ms_p50` the point-query round trip pooled over
/// both sessions (a rendered report). The pooled edit median is printed
/// but not a slot: the lazy session's edits are about a fifth of the eager
/// ones' latency, so the pooled median sits between the two kinds and
/// moves with the mix. The `query all` probe follows the window.
pub fn run(
    bin: &Path,
    config: &modref_progen::GenConfig,
    seed: u64,
    window: Duration,
) -> Result<crate::Report, String> {
    use crate::stats::{median, tail_percentile};
    let mut setup_s = Vec::new();
    let mut live: Option<(Daemon, [Client; 2])> = None;
    let mut source = String::new();
    for _ in 0..crate::SETUP_REPS {
        drop(live.take());
        let t = Instant::now();
        let (_, text, _) = crate::generate(config, seed);
        let d = Daemon::boot(bin)?;
        let eager = open(d.addr(), "eager", &text, false)?;
        let lazy = open(d.addr(), "lazy", &text, true)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((d, [eager, lazy]));
        source = text;
    }
    let (daemon, clients) = live.expect("SETUP_REPS > 0");
    let program = modref_frontend::parse_program(&source)
        .map_err(|e| format!("generated text does not parse: {e}"))?;
    let load = Load {
        window,
        min_edits: 0,
    };
    let w = drive_both(daemon.addr(), clients, &program, seed, load);
    let counts = server_counts(daemon.addr())?;
    let peak = daemon
        .peak_rss_mb()
        .ok_or("cannot read the daemon's VmHWM")?;
    let probe = probe_all(daemon.addr(), &w.eager_program)?;
    drop(daemon);

    let (tally, correct, checked) = check_window(&w);
    let (edits, queries) = (w.pooled_ms(true), w.pooled_ms(false));
    let eager_edits: Vec<f64> = of_kind(&w.eager, true).map(|r| r.ms).collect();
    let show = |v: Option<f64>| v.map_or("unmeasured".to_owned(), |v| v.to_string());
    let notes = vec![
        format!(
            "requests eager={} lazy={} eager_edits={} checked={checked}",
            w.eager.len(),
            w.lazy.len(),
            eager_edits.len(),
        ),
        format!(
            "edit_ms_p50={} edit_ms_p90={} (n={}) query_ms_p50={} query_ms_p90={} (n={})",
            show(median(&edits)),
            show(tail_percentile(&edits, 90.0)),
            edits.len(),
            show(median(&queries)),
            show(tail_percentile(&queries, 90.0)),
            queries.len()
        ),
        format!(
            "server requests={} errors={} degraded={}",
            counts.requests, counts.errors, counts.degraded
        ),
        probe.note(),
    ];
    Ok(crate::Report {
        correct: correct && probe.correct,
        tally,
        metrics: vec![
            crate::Metric::new("analyze_ms_p50", median(&eager_edits), "ms"),
            crate::Metric::new("report_ms_p50", median(&queries), "ms"),
            crate::Metric::new("peak_rss_mb", Some(peak), "MB"),
            crate::Metric::new("setup_s", median(&setup_s), "s"),
        ],
        notes,
    })
}
