//! The traced run: the same program taken through every layer, each call
//! into a layer wrapped in a benchmark-side span, for the per-layer
//! metrics and a Chrome trace.
//!
//! Phases, in order, each with its own share of the window:
//! 1. set-up (progen and printing), [`crate::SETUP_REPS`] times;
//! 2. untraced text → `Summary` through `Analyzer::analyze`, the baseline
//!    for `trace.overhead_frac`;
//! 3. the composed pipeline (`layers::compose`) from text to report;
//! 4. the request streams replayed in process through an eager and a lazy
//!    `QueryEngine`;
//! 5. the same streams over loopback against the `modref serve` daemon,
//!    then one `query all` (see [`crate::served::probe_all`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use modref_core::{Analyzer, Trace};
use modref_frontend::parse_program;
use modref_incr::render::render_json;
use modref_progen::GenConfig;
use modref_trace::EventKind;

use crate::batch::report_differs;
use crate::layers::{answer_bytes, compose, differs_from, Counts, Oracle};
use crate::served::{
    check_window, drive_both, of_kind, open, probe_all, replay, server_counts, Daemon, Load,
};
use crate::stats::{median, ms, self_times, tail_percentile, SpanRec, Tally};
use crate::traffic::check_log;
use crate::{generate, Metric, Report, SETUP_REPS};

/// The layer spans inside one composed op, in pipeline order.
const LAYERS: [&str; 11] = [
    "frontend.parse",
    "local",
    "callgraph.build",
    "binding.build",
    "rmod",
    "imod_plus",
    "gmod",
    "dmod",
    "alias",
    "modsets",
    "render",
];

/// Each replay runs until it has this many requests, enough for a p90
/// of its edits and queries under the ten-beyond rule.
const REPLAY_MIN_OPS: usize = 700;

/// Repetitions of the untraced and the composed op, at the least.
const MIN_REPS: usize = 3;

const MB: f64 = 1024.0 * 1024.0;

/// One traced run of the workload's program; see the module docs.
pub fn run(
    bin: &Path,
    config: &GenConfig,
    name: &str,
    seed: u64,
    window: Duration,
) -> Result<Report, String> {
    let trace = Trace::enabled();
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // 1. Set-up.
    let mut generate_ms = Vec::new();
    let mut source = String::new();
    for _ in 0..SETUP_REPS {
        let _s = trace.span("setup");
        let (_, text, ms) = generate(config, seed);
        generate_ms.push(ms);
        source = text;
    }
    let program =
        parse_program(&source).map_err(|e| format!("generated text does not parse: {e}"))?;

    // 2. Untraced text → Summary.
    let mut untraced_ms = Vec::new();
    let start = Instant::now();
    let mut summary = None;
    while start.elapsed() < window.mul_f64(0.1) || untraced_ms.len() < MIN_REPS {
        let t = Instant::now();
        let p = parse_program(&source).map_err(|e| e.to_string())?;
        let s = Analyzer::new().analyze(&p);
        untraced_ms.push(ms(t.elapsed()));
        summary.get_or_insert(s);
    }
    let summary = summary.expect("MIN_REPS > 0");

    // 3. The composed pipeline, text → report, inside one "op" span each.
    let mut correct = true;
    let mut traced_ms = Vec::new();
    let mut first: Option<(String, Counts)> = None;
    let start = Instant::now();
    while start.elapsed() < window.mul_f64(0.3) || traced_ms.len() < MIN_REPS {
        let index = tally.attempt();
        let op = trace.span("op");
        let t = Instant::now();
        let p = {
            let _s = trace.span("frontend.parse");
            parse_program(&source).map_err(|e| e.to_string())?
        };
        let composed = compose(&p, &trace);
        traced_ms.push(ms(t.elapsed()));
        let json = {
            let _s = trace.span("render");
            render_json(&p, &composed.site_sets())
        };
        drop(op);
        match &first {
            Some((j, _)) if *j != json => tally.fail(index),
            Some(_) => {}
            None => {
                if let Some(d) = differs_from(&p, &composed, &summary) {
                    correct = false;
                    notes.push(format!(
                        "composed pipeline differs from Analyzer::analyze: {d}"
                    ));
                    tally.fail(index);
                }
                first = Some((json, composed.counts));
            }
        }
    }
    let (first_json, counts) = first.expect("MIN_REPS > 0");
    let oracle = Oracle::solve(&program);
    if let Some(d) = oracle
        .differs_from(&program, &summary)
        .or_else(|| report_differs(&program, &first_json, &oracle))
    {
        correct = false;
        notes.push(format!("reference mismatch: {d}"));
        for i in 0..tally.attempted() as usize {
            tally.fail(i);
        }
    }
    let layer_ms = layer_self_ms(&trace);
    let self_of = |name: &str| median(&layer_ms[name]);
    let coverage: Vec<f64> = (0..layer_ms["op"].len())
        .map(|i| LAYERS.iter().map(|l| layer_ms[l][i]).sum::<f64>() / layer_ms["op"][i])
        .collect();

    // 4. In-process replays.
    let replay_window = window.mul_f64(0.1);
    let mut eager_tally = Tally::default();
    let eager = replay(
        &program,
        seed,
        false,
        replay_window,
        REPLAY_MIN_OPS,
        &trace,
        &mut eager_tally,
    );
    let mut lazy_tally = Tally::default();
    let lazy = replay(
        &program,
        seed,
        true,
        replay_window,
        REPLAY_MIN_OPS,
        &trace,
        &mut lazy_tally,
    );
    for (r, t) in [(&eager, &mut eager_tally), (&lazy, &mut lazy_tally)] {
        let (_, wrong) = check_log(&r.log, &r.snapshots, t);
        if wrong > 0 {
            correct = false;
            notes.push(format!(
                "{wrong} in-process answers differ from the reference"
            ));
        }
        tally.absorb(t);
    }
    let apply_ms: Vec<f64> = of_kind(&eager.log, true).map(|r| r.core_ms).collect();
    let demand_ms: Vec<f64> = of_kind(&lazy.log, false).map(|r| r.core_ms).collect();
    let sum =
        |f: fn(&modref_incr::IncrStats) -> usize| eager.applies.iter().map(f).sum::<usize>() as f64;
    let applies = eager.applies.len().max(1) as f64;
    let reused = sum(|s| s.sites_reused)
        + sum(|s| s.gmod_components_reused)
        + sum(|s| s.rmod_components_reused);
    let redone = sum(|s| s.sites_recomputed)
        + sum(|s| s.gmod_components_recomputed)
        + sum(|s| s.rmod_components_recomputed);

    // 5. Over loopback.
    let daemon = Daemon::boot(bin)?;
    let clients = [
        open(daemon.addr(), "eager", &source, false)?,
        open(daemon.addr(), "lazy", &source, true)?,
    ];
    let load = Load {
        window: window.mul_f64(0.3),
        min_edits: 60,
    };
    let w = drive_both(daemon.addr(), clients, &program, seed, load);
    let server = server_counts(daemon.addr())?;
    let probe = probe_all(daemon.addr(), &w.eager_program)?;
    drop(daemon);
    if !probe.correct {
        correct = false;
    }
    notes.push(probe.note());
    let (wire_tally, wire_ok, _) = check_window(&w);
    if !wire_ok {
        correct = false;
        notes.push("served answers differ from the reference".to_owned());
    }
    tally.absorb(&wire_tally);
    let wire_edits = w.pooled_ms(true);
    let wire_queries = w.pooled_ms(false);
    let overhead = |edits: bool| {
        let pairs: Vec<f64> = [(&w.eager, &eager.log), (&w.lazy, &lazy.log)]
            .iter()
            .flat_map(|(wire, lib)| {
                of_kind(wire, edits)
                    .zip(of_kind(lib, edits))
                    .map(|(a, b)| a.ms - b.ms)
            })
            .collect();
        median(&pairs)
    };

    std::fs::create_dir_all(".bench_out").map_err(|e| format!("cannot create .bench_out: {e}"))?;
    let trace_path = format!(".bench_out/trace-{name}-seed{seed}.json");
    std::fs::write(&trace_path, trace.export_chrome())
        .map_err(|e| format!("cannot write {trace_path}: {e}"))?;
    notes.push(format!(
        "composed_ops={} replay_requests eager={} lazy={} wire_requests eager={} lazy={} trace={trace_path}",
        traced_ms.len(),
        eager.log.len(),
        lazy.log.len(),
        w.eager.len(),
        w.lazy.len()
    ));

    let source_bytes = source.len() as f64;
    let parse_ms = self_of("frontend.parse");
    let render_ms = self_of("render");
    let per_s = |bytes: f64, ms: Option<f64>| ms.map(|ms| bytes / MB / (ms / 1e3));
    let demand_ops: Vec<f64> = lazy.query_ops.iter().map(|&o| o as f64).collect();
    let metrics = vec![
        Metric::new("progen.generate_ms", median(&generate_ms), "ms"),
        Metric::new("progen.source_bytes", Some(source_bytes), "bytes"),
        Metric::new("frontend.parse_ms", parse_ms, "ms"),
        Metric::new("frontend.mb_per_s", per_s(source_bytes, parse_ms), "MB/s"),
        Metric::new("local.ms", self_of("local"), "ms"),
        Metric::new("callgraph.build_ms", self_of("callgraph.build"), "ms"),
        Metric::new("binding.build_ms", self_of("binding.build"), "ms"),
        Metric::new("rmod.ms", self_of("rmod"), "ms"),
        Metric::new(
            "rmod.bool_steps",
            Some(counts.rmod_bool_steps as f64),
            "count",
        ),
        Metric::new("beta.nodes", Some(counts.beta_nodes as f64), "count"),
        Metric::new("beta.edges", Some(counts.beta_edges as f64), "count"),
        Metric::new("imod_plus.ms", self_of("imod_plus"), "ms"),
        Metric::new(
            "imod_plus.bool_steps",
            Some(counts.imod_plus_bool_steps as f64),
            "count",
        ),
        Metric::new("gmod.ms", self_of("gmod"), "ms"),
        Metric::new(
            "gmod.bitvec_steps",
            Some(counts.gmod_bitvec_steps as f64),
            "count",
        ),
        Metric::new("dmod.ms", self_of("dmod"), "ms"),
        Metric::new(
            "dmod.bitvec_steps",
            Some(counts.dmod_bitvec_steps as f64),
            "count",
        ),
        Metric::new("alias.ms", self_of("alias"), "ms"),
        Metric::new("alias.pairs", Some(counts.alias_pairs as f64), "count"),
        Metric::new("modsets.ms", self_of("modsets"), "ms"),
        Metric::new(
            "modsets.bitvec_steps",
            Some(counts.modsets_bitvec_steps as f64),
            "count",
        ),
        Metric::new(
            "bitset.answer_bytes",
            Some(answer_bytes(&program, &summary) as f64),
            "bytes",
        ),
        Metric::new("render.ms", render_ms, "ms"),
        Metric::new("render.bytes", Some(first_json.len() as f64), "bytes"),
        Metric::new(
            "render.mb_per_s",
            per_s(first_json.len() as f64, render_ms),
            "MB/s",
        ),
        Metric::new("incr.apply_ms_p50", median(&apply_ms), "ms"),
        Metric::new("incr.apply_ms_p90", tail_percentile(&apply_ms, 90.0), "ms"),
        Metric::new(
            "incr.sites_recomputed",
            Some(sum(|s| s.sites_recomputed) / applies),
            "count",
        ),
        Metric::new(
            "incr.gmod_components_recomputed",
            Some(sum(|s| s.gmod_components_recomputed) / applies),
            "count",
        ),
        Metric::new(
            "incr.reuse_frac",
            (reused + redone > 0.0).then(|| reused / (reused + redone)),
            "ratio",
        ),
        Metric::new("demand.query_ms_p50", median(&demand_ms), "ms"),
        Metric::new(
            "demand.query_ms_p90",
            tail_percentile(&demand_ms, 90.0),
            "ms",
        ),
        Metric::new("demand.ops_per_query", mean(&demand_ops), "count"),
        Metric::new("serve.edit_overhead_ms_p50", overhead(true), "ms"),
        Metric::new("serve.query_overhead_ms_p50", overhead(false), "ms"),
        Metric::new("serve.requests", Some(server.requests as f64), "count"),
        Metric::new("serve.errors", Some(server.errors as f64), "count"),
        Metric::new("serve.degraded", Some(server.degraded as f64), "count"),
        Metric::new(
            "serve.query_all_dropped",
            Some(f64::from(u8::from(!probe.answered))),
            "count",
        ),
        Metric::new("edit_ms_p50", median(&wire_edits), "ms"),
        Metric::new("edit_ms_p90", tail_percentile(&wire_edits, 90.0), "ms"),
        Metric::new("query_ms_p50", median(&wire_queries), "ms"),
        Metric::new("query_ms_p90", tail_percentile(&wire_queries, 90.0), "ms"),
        Metric::new("failed_frac", Some(tally.failed_frac()), "ratio"),
        Metric::new(
            "trace.overhead_frac",
            median(&traced_ms)
                .zip(median(&untraced_ms))
                .map(|(t, u)| t / u - 1.0),
            "ratio",
        ),
        Metric::new("layers.coverage_frac", median(&coverage), "ratio"),
    ];
    Ok(Report {
        correct,
        tally,
        metrics,
        notes,
    })
}

/// Per layer, its self time in ms inside each "op" span, plus the op
/// spans' own durations under `op`.
fn layer_self_ms(trace: &Trace) -> BTreeMap<&'static str, Vec<f64>> {
    let spans: Vec<SpanRec> = trace
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| SpanRec {
            name: e.name,
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
        })
        .collect();
    let selfs = self_times(&spans);
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    out.insert("op", Vec::new());
    for name in LAYERS {
        out.insert(name, Vec::new());
    }
    for op in spans.iter().filter(|s| s.name == "op") {
        out.get_mut("op")
            .expect("inserted")
            .push(op.dur_ns as f64 / 1e6);
        let mut per_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(&selfs) {
            let inside =
                s.start_ns >= op.start_ns && s.start_ns + s.dur_ns <= op.start_ns + op.dur_ns;
            if inside && s.name != "op" {
                *per_layer.entry(s.name).or_default() += self_ns;
            }
        }
        for name in LAYERS {
            let ns = per_layer.get(name).copied().unwrap_or(0);
            out.get_mut(name).expect("inserted").push(ns as f64 / 1e6);
        }
    }
    out
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}
