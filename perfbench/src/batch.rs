//! The batch workloads: program text → `parse_program` → `Analyzer::analyze`
//! → `SiteSets::from_summary` + `render_json`, the `modref analyze --json`
//! path, repeated for the measured window.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use modref_core::{Analyzer, Summary};
use modref_frontend::parse_program;
use modref_incr::render::{render_json, set_names};
use modref_incr::SiteSets;
use modref_ir::Program;
use modref_progen::GenConfig;
use modref_trace::{parse_json, Json};

use crate::layers::Oracle;
use crate::stats::{median, ms, peak_rss_mb, Tally};
use crate::{generate, Metric, Report, SETUP_REPS};

/// Fewer ops than this make a median too coarse, whatever the window.
const MIN_OPS: usize = 5;

/// One batch run: set up [`SETUP_REPS`] times, then repeat the op until
/// `window` has passed. Every op's output must equal the first op's, and
/// the first op's is checked against the exhaustive oracle.
pub fn run(config: &GenConfig, seed: u64, window: Duration) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut source = String::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (_, text, _) = generate(config, seed);
        setup_s.push(t.elapsed().as_secs_f64());
        source = text;
    }

    let mut tally = Tally::default();
    let mut analyze_ms = Vec::new();
    let mut report_ms = Vec::new();
    let mut first: Option<(Program, Summary, String)> = None;
    let start = Instant::now();
    while start.elapsed() < window || analyze_ms.len() < MIN_OPS {
        let index = tally.attempt();
        let t = Instant::now();
        let program =
            parse_program(&source).map_err(|e| format!("generated text does not parse: {e}"))?;
        let summary = Analyzer::new().analyze(&program);
        analyze_ms.push(ms(t.elapsed()));
        let json = render_json(&program, &SiteSets::from_summary(&program, &summary));
        report_ms.push(ms(t.elapsed()));
        match &first {
            None => first = Some((program, summary, json)),
            Some((_, s0, j0)) => {
                let same = *j0 == json
                    && s0.gmod_all() == summary.gmod_all()
                    && s0.guse_all() == summary.guse_all()
                    && s0.dmod_all() == summary.dmod_all();
                if !same {
                    tally.fail(index);
                }
            }
        }
    }
    // Read the peak before the oracle runs: it is the reference's memory,
    // not the program's.
    let peak = peak_rss_mb("/proc/self/status").ok_or("cannot read VmHWM")?;

    let (program, summary, json) = first.expect("at least one op ran");
    let oracle = Oracle::solve(&program);
    let mismatch = oracle
        .differs_from(&program, &summary)
        .or_else(|| report_differs(&program, &json, &oracle));
    let mut notes = vec![format!(
        "ops={} procs={} sites={} vars={} report_bytes={}",
        analyze_ms.len(),
        program.num_procs(),
        program.num_sites(),
        program.num_vars(),
        json.len()
    )];
    if let Some(what) = &mismatch {
        // Every op equal to the first carries the same wrong answer.
        for i in 0..analyze_ms.len() {
            tally.fail(i);
        }
        notes.push(format!("reference mismatch: {what}"));
    }
    Ok(Report {
        correct: mismatch.is_none(),
        tally,
        metrics: vec![
            Metric::new("analyze_ms_p50", median(&analyze_ms), "ms"),
            Metric::new("report_ms_p50", median(&report_ms), "ms"),
            Metric::new("peak_rss_mb", Some(peak), "MB"),
            Metric::new("setup_s", median(&setup_s), "s"),
        ],
        notes,
    })
}

/// Checks the rendered JSON report independently of the renderer's input:
/// one entry per site with the right caller and callee, `dmod` equal to
/// the oracle's `DMOD`, and `mod` containing `dmod`.
pub fn report_differs(program: &Program, json: &str, oracle: &Oracle) -> Option<String> {
    let doc = match parse_json(json) {
        Ok(doc) => doc,
        Err(e) => return Some(format!("report is not JSON: {e}")),
    };
    let Some(entries) = doc.get("sites").and_then(Json::as_array) else {
        return Some("report has no `sites` array".to_owned());
    };
    if entries.len() != program.num_sites() {
        return Some(format!(
            "report lists {} of {} sites",
            entries.len(),
            program.num_sites()
        ));
    }
    let names = |e: &Json, key: &str| -> Option<Vec<String>> {
        e.get(key)?
            .as_array()?
            .iter()
            .map(|n| n.as_str().map(str::to_owned))
            .collect()
    };
    for (s, e) in program.sites().zip(entries) {
        let info = program.site(s);
        let site_ok = e.get("id").and_then(Json::as_num) == Some(s.index() as f64)
            && e.get("caller").and_then(Json::as_str) == Some(program.proc_name(info.caller()))
            && e.get("callee").and_then(Json::as_str) == Some(program.proc_name(info.callee()));
        let (Some(mut dmod), Some(mods)) = (names(e, "dmod"), names(e, "mod")) else {
            return Some(format!("site {} entry is malformed", s.index()));
        };
        dmod.sort_unstable();
        let mods: BTreeSet<String> = mods.into_iter().collect();
        let expected = set_names(program, oracle.dmod_site(s));
        let got = if dmod.is_empty() {
            "∅".to_owned()
        } else {
            format!("{{{}}}", dmod.join(", "))
        };
        if !site_ok || got != expected || !dmod.iter().all(|d| mods.contains(d)) {
            return Some(format!("report entry of site {}", s.index()));
        }
    }
    None
}
