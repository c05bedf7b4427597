//! Shared renderers for per-site result sets.
//!
//! Three consumers print the same `MOD`/`DMOD`/`USE` report: the CLI's
//! batch `analyze`, its incremental `analyze --edits`, and the analysis
//! server's `query` responses (`modref-serve`). Report formatting is part
//! of the machine-readable contract — scripts and the protocol soak suite
//! compare output byte for byte — so there is exactly one renderer, here,
//! and every consumer goes through it. [`SiteSets`] collects the three
//! set families in call-site index order from either a batch
//! [`Summary`](modref_core::Summary) or a live [`IncrementalEngine`];
//! [`SiteSets::conservative`] is the sound widened fallback a degraded
//! request reports (the same shape the engine's own degradation path
//! uses, so "exact ⊆ reported" holds everywhere).

use std::fmt::Write as _;

use modref_bitset::BitSet;
use modref_ir::{CallSiteId, Program, VarId};
use modref_trace::escape_json;

use crate::engine::IncrementalEngine;

/// The three per-site set families every analyze-style report prints,
/// collected in call-site index order so the batch
/// [`Summary`](modref_core::Summary) and the incremental engine can feed
/// the same renderers.
#[derive(Debug, Clone)]
pub struct SiteSets {
    /// Final alias-factored `MOD` per call site.
    pub mods: Vec<BitSet>,
    /// Final alias-factored `USE` per call site.
    pub uses: Vec<BitSet>,
    /// Direct (pre-alias) `DMOD` per call site.
    pub dmods: Vec<BitSet>,
}

impl SiteSets {
    /// Collects the sets from a batch analysis summary.
    pub fn from_summary(program: &Program, summary: &modref_core::Summary) -> Self {
        SiteSets {
            mods: program.sites().map(|s| summary.mod_site(s).clone()).collect(),
            uses: program.sites().map(|s| summary.use_site(s).clone()).collect(),
            dmods: program
                .sites()
                .map(|s| summary.dmod_site(s).clone())
                .collect(),
        }
    }

    /// Collects the sets from a live incremental engine.
    pub fn from_engine(engine: &IncrementalEngine) -> Self {
        let program = engine.program();
        SiteSets {
            mods: program
                .sites()
                .map(|s| engine.mod_site(s).clone())
                .collect(),
            uses: program
                .sites()
                .map(|s| engine.use_site(s).clone())
                .collect(),
            dmods: program
                .sites()
                .map(|s| engine.dmod_site(s).clone())
                .collect(),
        }
    }

    /// The sound conservative fallback: every set at a site widened to the
    /// caller's visible set — the same per-site shape the engine's
    /// degradation path reports, so anything observable at run time is
    /// inside these sets regardless of what a cut-short analysis knew.
    pub fn conservative(program: &Program) -> Self {
        let visible = program.visible_sets();
        let per_site: Vec<BitSet> = program
            .sites()
            .map(|s| visible[program.site(s).caller().index()].clone())
            .collect();
        SiteSets {
            mods: per_site.clone(),
            uses: per_site.clone(),
            dmods: per_site,
        }
    }
}

/// Renders a variable set as the report's sorted `{a, b}` form (`∅` when
/// empty).
pub fn set_names(program: &Program, set: &BitSet) -> String {
    let mut v: Vec<&str> = set
        .iter()
        .map(|i| program.var_name(VarId::new(i)))
        .collect();
    v.sort_unstable();
    if v.is_empty() {
        "∅".to_owned()
    } else {
        format!("{{{}}}", v.join(", "))
    }
}

/// The per-site text report shared by plain and `--edits` analyses (and
/// the server's text-mode clients). One line group per call site.
pub fn render_text(program: &Program, sets: &SiteSets, no_use: bool, no_alias: bool) -> String {
    let mut out = String::new();
    for site in program.sites() {
        let info = program.site(site);
        let _ = writeln!(
            out,
            "site {site}: call {} (in {})",
            program.proc_name(info.callee()),
            program.proc_name(info.caller())
        );
        let _ = writeln!(out, "  MOD  = {}", set_names(program, &sets.mods[site.index()]));
        if !no_alias {
            let _ = writeln!(out, "  DMOD = {}", set_names(program, &sets.dmods[site.index()]));
        }
        if !no_use {
            let _ = writeln!(out, "  USE  = {}", set_names(program, &sets.uses[site.index()]));
        }
    }
    out
}

/// Hand-rolled JSON report over all sites (identifiers are
/// `[A-Za-z0-9_]`, but escape anyway). Ends with a newline; `analyze
/// --json` prints this verbatim and the server embeds it verbatim, which
/// is what makes query responses byte-comparable to batch output.
pub fn render_json(program: &Program, sets: &SiteSets) -> String {
    render_json_filtered(program, sets, None)
}

/// [`render_json`] restricted to a single call site (`{"sites":[…one…]}`).
pub fn render_json_site(program: &Program, sets: &SiteSets, site: CallSiteId) -> String {
    render_json_filtered(program, sets, Some(site))
}

/// The single-site object rendered directly from one answer's sets —
/// byte-identical to [`render_json_site`] over a full [`SiteSets`] with
/// the same values, which is what lets the demand-driven query path and
/// the exhaustive path share one output contract.
pub fn render_json_site_answer(
    program: &Program,
    site: CallSiteId,
    mods: &BitSet,
    uses: &BitSet,
    dmod: &BitSet,
) -> String {
    let esc = escape_json;
    let info = program.site(site);
    format!(
        "{{\"sites\":[{{\"id\":{},\"caller\":\"{}\",\"callee\":\"{}\",\"mod\":{},\"use\":{},\"dmod\":{}}}]}}\n",
        site.index(),
        esc(program.proc_name(info.caller())),
        esc(program.proc_name(info.callee())),
        set_names_json(program, mods),
        set_names_json(program, uses),
        set_names_json(program, dmod),
    )
}

/// `{"proc":…,"gmod":[…],"guse":[…]}` with the same sorted-quoted-name
/// arrays the site report uses. One renderer for the CLI's `--query
/// proc:NAME` and the server's `query proc` responses.
pub fn render_json_proc(program: &Program, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
    format!(
        "{{\"proc\":\"{}\",\"gmod\":{},\"guse\":{}}}\n",
        escape_json(name),
        set_names_json(program, gmod),
        set_names_json(program, guse)
    )
}

/// The sorted `["a","b"]` JSON array every renderer uses for a set.
fn set_names_json(program: &Program, set: &BitSet) -> String {
    let mut parts: Vec<String> = set
        .iter()
        .map(|i| format!("\"{}\"", escape_json(program.var_name(VarId::new(i)))))
        .collect();
    parts.sort();
    format!("[{}]", parts.join(","))
}

fn render_json_filtered(program: &Program, sets: &SiteSets, only: Option<CallSiteId>) -> String {
    let esc = escape_json;
    let names = |set: &BitSet| set_names_json(program, set);
    let mut out = String::from("{\"sites\":[");
    let mut emitted = 0usize;
    for site in program.sites() {
        if only.is_some_and(|s| s != site) {
            continue;
        }
        if emitted > 0 {
            out.push(',');
        }
        emitted += 1;
        let info = program.site(site);
        let _ = write!(
            out,
            "{{\"id\":{},\"caller\":\"{}\",\"callee\":\"{}\",\"mod\":{},\"use\":{},\"dmod\":{}}}",
            site.index(),
            esc(program.proc_name(info.caller())),
            esc(program.proc_name(info.callee())),
            names(&sets.mods[site.index()]),
            names(&sets.uses[site.index()]),
            names(&sets.dmods[site.index()]),
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_core::Analyzer;
    use modref_ir::{Expr, ProgramBuilder};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[g]);
        b.finish().expect("valid")
    }

    #[test]
    fn engine_and_summary_renders_agree() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let engine = IncrementalEngine::new(program.clone());
        let from_summary = SiteSets::from_summary(&program, &summary);
        let from_engine = SiteSets::from_engine(&engine);
        assert_eq!(
            render_json(&program, &from_summary),
            render_json(&program, &from_engine)
        );
        assert_eq!(
            render_text(&program, &from_summary, false, false),
            render_text(&program, &from_engine, false, false)
        );
    }

    #[test]
    fn single_site_filter_matches_full_report_slice() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let sets = SiteSets::from_summary(&program, &summary);
        let site = program.sites().next().expect("one site");
        let one = render_json_site(&program, &sets, site);
        let all = render_json(&program, &sets);
        // The lone site's object appears verbatim inside the full report.
        let body = one
            .trim_end()
            .strip_prefix("{\"sites\":[")
            .and_then(|s| s.strip_suffix("]}"))
            .expect("shape");
        assert!(all.contains(body), "{all} should contain {body}");
    }

    #[test]
    fn conservative_sets_contain_exact_sets() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let exact = SiteSets::from_summary(&program, &summary);
        let wide = SiteSets::conservative(&program);
        for s in program.sites() {
            let i = s.index();
            assert!(exact.mods[i].is_subset(&wide.mods[i]));
            assert!(exact.uses[i].is_subset(&wide.uses[i]));
            assert!(exact.dmods[i].is_subset(&wide.dmods[i]));
        }
    }
}
