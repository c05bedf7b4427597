//! The seeded request stream of the served workload, and the reference
//! check of every answer it gets.
//!
//! A [`Stream`] yields edits and point queries for one session, about one
//! edit to four queries. Edits come from `modref_incr::EditGen`'s
//! structural diet (`next_structural_edit`: every kind, set-local edits
//! one in ten) and are sent as lines of the `--edits` script grammar, so
//! the server parses and resolves them exactly as a client's script. The
//! diet keeps an eager edit's median inside one cost cluster: set-local
//! applies take about a third of a structural one, and at the general mix
//! (45% set-local) the median fell in the gap between the two, moving
//! 21–35 ms between quarters of one run. The stream keeps a replica
//! of the program it edits; the sequence depends only on the seed, never
//! on timing, so the wire run and the in-process replay issue the same
//! requests in the same order. The replica is also the reference: the
//! stream keeps a copy of it at a seeded sample of edit epochs (the
//! stretches between two edits), and every answer given in a kept epoch
//! is checked against `Analyzer::analyze` of that copy.

use std::collections::BTreeMap;

use modref_check::Rng;
use modref_core::Analyzer;
use modref_incr::render::{render_json_proc, render_json_site_answer};
use modref_incr::{EditGen, Script};
use modref_ir::{Actual, CallSiteId, Edit, Expr, ProcId, Program};

use crate::stats::Tally;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// An edit script line.
    Edit(String),
    /// `query site:<n>`.
    Site(usize),
    /// `query proc:<name>`.
    Proc(String),
}

/// Edit epochs per checked epoch. Each checked epoch costs one
/// from-scratch analysis of the replica after the window.
pub const CHECK_EVERY: usize = 32;

/// The replica as it stood in each checked epoch, by epoch number.
pub type Snapshots = BTreeMap<usize, Program>;

/// One session's request stream (see the module docs).
pub struct Stream {
    rng: Rng,
    edits: EditGen,
    replica: Program,
    epoch: usize,
    check_offset: usize,
    snapshots: Snapshots,
}

impl Stream {
    /// A stream over `program` — the program as the server parsed it, so
    /// ids and names agree with the server's copy.
    pub fn new(program: Program, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let edits = EditGen::new(rng.next_u64());
        let check_offset = rng.gen_range(0..CHECK_EVERY);
        let mut stream = Stream {
            rng,
            edits,
            replica: program,
            epoch: 0,
            check_offset,
            snapshots: Snapshots::new(),
        };
        if check_offset == 0 {
            stream.snapshot();
        }
        stream
    }

    /// Keeps the replica of the current epoch, so its answers are checked.
    fn snapshot(&mut self) {
        if !self.snapshots.contains_key(&self.epoch) {
            self.snapshots.insert(self.epoch, self.replica.clone());
        }
    }

    /// The program as the stream's edits have left it.
    pub fn replica(&self) -> &Program {
        &self.replica
    }

    /// The kept replicas.
    pub fn into_snapshots(self) -> Snapshots {
        self.snapshots
    }

    /// The next edit or point query; edits are applied to the replica.
    pub fn next_op(&mut self) -> Op {
        if self.rng.gen_range(0..5) == 0 {
            if let Some(line) = self.next_edit() {
                return Op::Edit(line);
            }
        }
        let sites = self.replica.num_sites();
        if sites > 0 && self.rng.gen_bool(0.5) {
            Op::Site(self.rng.gen_range(0..sites))
        } else {
            let p = ProcId::new(self.rng.gen_range(0..self.replica.num_procs()));
            Op::Proc(self.replica.proc_name(p).to_owned())
        }
    }

    /// A generated edit whose script line resolves back to the same edit
    /// and applies. `EditGen` makes no validity promise, so a few draws
    /// may be skipped; `None` after that many misses.
    fn next_edit(&mut self) -> Option<String> {
        for _ in 0..16 {
            let edit = self.edits.next_structural_edit(&self.replica);
            let Some(line) = script_line(&self.replica, &edit) else {
                continue;
            };
            let Ok(script) = Script::parse(&line) else {
                continue;
            };
            match script.steps()[0].resolve(&self.replica) {
                Ok(resolved) if resolved == edit => {}
                _ => continue,
            }
            let Ok((next, _)) = self.replica.apply_edit(&edit) else {
                continue;
            };
            self.replica = next;
            self.epoch += 1;
            if self.epoch % CHECK_EVERY == self.check_offset {
                self.snapshot();
            }
            return Some(line);
        }
        None
    }
}

/// `edit` in the script grammar, or `None` when an actual has no script
/// form (only constants and scalar references do).
fn script_line(program: &Program, edit: &Edit) -> Option<String> {
    let var = |v: &modref_ir::VarId| program.var_name(*v).to_owned();
    let list = |key: &str, names: Vec<String>| {
        if names.is_empty() {
            String::new()
        } else {
            format!(" {key}={}", names.join(","))
        }
    };
    let actual = |a: &Actual| match a {
        Actual::Value(Expr::Const(c)) => Some(c.to_string()),
        Actual::Ref(r) if r.subs.is_empty() => Some(var(&r.var)),
        _ => None,
    };
    Some(match edit {
        Edit::SetLocalEffects { proc_, mods, uses } => format!(
            "set-local {}{}{}",
            program.proc_name(*proc_),
            list("mod", mods.iter().map(var).collect()),
            list("use", uses.iter().map(var).collect())
        ),
        Edit::AddCallSite {
            caller,
            callee,
            args,
        } => format!(
            "add-call {} {}{}",
            program.proc_name(*caller),
            program.proc_name(*callee),
            list("args", args.iter().map(actual).collect::<Option<_>>()?)
        ),
        Edit::RemoveCallSite { site } => format!("remove-call {}", site.index()),
        Edit::AddProcedure {
            name,
            parent,
            formals,
        } => format!(
            "add-proc {name} parent={}{}",
            program.proc_name(*parent),
            list("formals", formals.clone())
        ),
        Edit::RemoveProcedure { proc_ } => format!("remove-proc {}", program.proc_name(*proc_)),
        Edit::RebindActual {
            site,
            position,
            actual: a,
        } => format!("rebind {} {position} {}", site.index(), actual(a)?),
    })
}

/// One answered (or failed) request of a session's log.
#[derive(Debug, Clone)]
pub struct Rec {
    /// What was asked.
    pub op: Op,
    /// Round-trip (wire) or call (library) latency in milliseconds.
    pub ms: f64,
    /// The library call alone, without script parsing or rendering
    /// (library replay only; equals `ms` on the wire).
    pub core_ms: f64,
    /// The report string of an answered query.
    pub report: Option<String>,
    /// Index in the session's [`Tally`].
    pub tally: usize,
}

/// Checks every answer `log` got in a kept epoch against
/// `Analyzer::analyze` of that epoch's replica. Mismatches are marked
/// failed in `tally`; returns how many answers were checked and how many
/// of them were wrong.
pub fn check_log(log: &[Rec], snapshots: &Snapshots, tally: &mut Tally) -> (usize, usize) {
    let mut epoch = 0usize;
    let mut analyzed: Option<(usize, modref_core::Summary)> = None;
    let (mut checked, mut wrong) = (0, 0);
    for rec in log {
        if let Op::Edit(_) = rec.op {
            epoch += 1;
            continue;
        }
        let (Some(report), Some(replica)) = (&rec.report, snapshots.get(&epoch)) else {
            continue;
        };
        if analyzed.as_ref().is_none_or(|(e, _)| *e != epoch) {
            analyzed = Some((epoch, Analyzer::new().analyze(replica)));
        }
        let (_, summary) = analyzed.as_ref().expect("just analyzed");
        let expected = match &rec.op {
            Op::Site(n) if *n < replica.num_sites() => {
                let s = CallSiteId::new(*n);
                render_json_site_answer(
                    replica,
                    s,
                    summary.mod_site(s),
                    summary.use_site(s),
                    summary.dmod_site(s),
                )
            }
            Op::Proc(name) => match replica.procs().find(|&p| replica.proc_name(p) == name) {
                Some(p) => render_json_proc(replica, name, summary.gmod(p), summary.guse(p)),
                None => String::new(),
            },
            _ => String::new(),
        };
        checked += 1;
        if *report != expected {
            wrong += 1;
            tally.fail(rec.tally);
        }
    }
    (checked, wrong)
}
