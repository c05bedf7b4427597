//! The analysis pipeline composed from outside, one public phase function
//! at a time in `Analyzer`'s order, with a benchmark-side span around each
//! call. The result is checked bit-identical to `Analyzer::analyze`, so
//! the traced run times the same program the end-to-end run does.

use modref_baselines::OracleSolution;
use modref_binding::{solve_rmod, BindingGraph};
use modref_bitset::{BitSet, EffectSet};
use modref_core::dmod::{compute_dmod, DmodSolution};
use modref_core::modsets::{compute_mod, ModSolution};
use modref_core::{
    compute_imod_plus, solve_gmod_multi_fused, solve_gmod_one_level, AliasPairs, GmodSolution,
    Summary, Trace,
};
use modref_incr::SiteSets;
use modref_ir::{CallGraph, LocalEffects, Program};

/// Paper-unit work and sizes of one composed run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Figure 1 boolean steps, both halves.
    pub rmod_bool_steps: u64,
    /// Binding multi-graph size.
    pub beta_nodes: u64,
    /// See [`Counts::beta_nodes`].
    pub beta_edges: u64,
    /// Equation (5) boolean steps, both halves (the phase charges one per
    /// actual, not per vector).
    pub imod_plus_bool_steps: u64,
    /// Figure 2 / multi-level bit-vector steps, both halves.
    pub gmod_bitvec_steps: u64,
    /// Equation (2) bit-vector steps, both halves.
    pub dmod_bitvec_steps: u64,
    /// §5 alias pairs over all procedures.
    pub alias_pairs: u64,
    /// §5 factoring bit-vector steps, both halves.
    pub modsets_bitvec_steps: u64,
}

/// One half (`MOD` or `USE`) of the composed pipeline.
pub struct Half {
    rmod: Vec<BitSet>,
    plus: Vec<BitSet>,
    gmod: GmodSolution,
    dmod: DmodSolution,
    sites: ModSolution,
}

/// Everything the composed pipeline computed.
pub struct Composed {
    mod_half: Half,
    use_half: Half,
    aliases: AliasPairs,
    /// Work counters.
    pub counts: Counts,
}

impl Composed {
    /// The per-site sets the report renders.
    pub fn site_sets(&self) -> SiteSets {
        SiteSets {
            mods: self.mod_half.sites.all().to_vec(),
            uses: self.use_half.sites.all().to_vec(),
            dmods: self.mod_half.dmod.all().to_vec(),
        }
    }
}

/// Runs the pipeline phase by phase, each call inside a span of `trace`
/// named after its layer. Single-threaded, dense sets, and the `GMOD`
/// algorithm `GmodAlgorithm::Auto` resolves to on one thread.
pub fn compose(program: &Program, trace: &Trace) -> Composed {
    let mut counts = Counts::default();
    let effects = {
        let _s = trace.span("local");
        LocalEffects::compute(program)
    };
    let call_graph = {
        let _s = trace.span("callgraph.build");
        CallGraph::build(program)
    };
    let beta = {
        let _s = trace.span("binding.build");
        BindingGraph::build(program)
    };
    counts.beta_nodes = beta.num_nodes() as u64;
    counts.beta_edges = beta.num_edges() as u64;
    let locals = program.local_sets();
    let mut half = |initial: &[BitSet]| {
        let rmod = {
            let _s = trace.span("rmod");
            solve_rmod(program, initial, &beta)
        };
        counts.rmod_bool_steps += rmod.stats().bool_steps;
        let (plus, plus_ops) = {
            let _s = trace.span("imod_plus");
            compute_imod_plus(program, initial, &rmod)
        };
        counts.imod_plus_bool_steps += plus_ops.bool_steps;
        let gmod = {
            let _s = trace.span("gmod");
            if program.max_level() <= 1 {
                solve_gmod_one_level(program, call_graph.graph(), &plus, &locals)
            } else {
                solve_gmod_multi_fused(program, call_graph.graph(), &plus, &locals)
            }
        };
        counts.gmod_bitvec_steps += gmod.stats().bitvec_steps;
        let dmod = {
            let _s = trace.span("dmod");
            compute_dmod(program, gmod.gmod_all())
        };
        counts.dmod_bitvec_steps += dmod.stats().bitvec_steps;
        (rmod.rmod_all().to_vec(), plus, gmod, dmod)
    };
    let (m_rmod, m_plus, m_gmod, m_dmod) = half(effects.imod_all());
    let (u_rmod, u_plus, u_gmod, u_dmod) = half(effects.iuse_all());
    let aliases = {
        let _s = trace.span("alias");
        AliasPairs::compute(program)
    };
    counts.alias_pairs = program.procs().map(|p| aliases.pair_count(p) as u64).sum();
    let (m_sites, u_sites) = {
        let _s = trace.span("modsets");
        (
            compute_mod(program, &m_dmod, &aliases),
            compute_mod(program, &u_dmod, &aliases),
        )
    };
    counts.modsets_bitvec_steps = m_sites.stats().bitvec_steps + u_sites.stats().bitvec_steps;
    Composed {
        mod_half: Half {
            rmod: m_rmod,
            plus: m_plus,
            gmod: m_gmod,
            dmod: m_dmod,
            sites: m_sites,
        },
        use_half: Half {
            rmod: u_rmod,
            plus: u_plus,
            gmod: u_gmod,
            dmod: u_dmod,
            sites: u_sites,
        },
        aliases,
        counts,
    }
}

/// Names the first set where the composed run differs from
/// `Analyzer::analyze`, or `None` when every set is bit-identical.
pub fn differs_from(program: &Program, c: &Composed, s: &Summary) -> Option<String> {
    for p in program.procs() {
        let i = p.index();
        let pairs = [
            ("RMOD", &c.mod_half.rmod[i], s.rmod(p)),
            ("RUSE", &c.use_half.rmod[i], s.ruse(p)),
            ("IMOD+", &c.mod_half.plus[i], s.imod_plus(p)),
            ("IUSE+", &c.use_half.plus[i], s.iuse_plus(p)),
            ("GMOD", c.mod_half.gmod.gmod(p), s.gmod(p)),
            ("GUSE", c.use_half.gmod.gmod(p), s.guse(p)),
        ];
        for (what, ours, theirs) in pairs {
            if ours != theirs {
                return Some(format!("{what} of {}", program.proc_name(p)));
            }
        }
        if c.aliases.pair_count(p) != s.aliases().pair_count(p) {
            return Some(format!("alias pairs of {}", program.proc_name(p)));
        }
    }
    for site in program.sites() {
        let pairs = [
            ("DMOD", c.mod_half.dmod.dmod_site(site), s.dmod_site(site)),
            ("DUSE", c.use_half.dmod.dmod_site(site), s.duse_site(site)),
            ("MOD", c.mod_half.sites.mod_site(site), s.mod_site(site)),
            ("USE", c.use_half.sites.mod_site(site), s.use_site(site)),
        ];
        for (what, ours, theirs) in pairs {
            if ours != theirs {
                return Some(format!("{what} at site {}", site.index()));
            }
        }
    }
    None
}

/// The exhaustive equation-(1) oracle for both halves of `program`.
pub struct Oracle {
    mod_side: OracleSolution,
    use_side: OracleSolution,
}

impl Oracle {
    /// Solves the oracle from the program's local effects.
    pub fn solve(program: &Program) -> Oracle {
        let effects = LocalEffects::compute(program);
        Oracle {
            mod_side: OracleSolution::solve(program, effects.imod_all()),
            use_side: OracleSolution::solve(program, effects.iuse_all()),
        }
    }

    /// Names the first `GMOD`/`GUSE`/`RMOD`/`RUSE`/`DMOD`/`DUSE` set where
    /// `summary` differs from the oracle, or `None` when all agree.
    pub fn differs_from(&self, program: &Program, summary: &Summary) -> Option<String> {
        for p in program.procs() {
            let name = program.proc_name(p);
            if summary.gmod(p) != self.mod_side.gmod(p) {
                return Some(format!("GMOD of {name}"));
            }
            if summary.guse(p) != self.use_side.gmod(p) {
                return Some(format!("GUSE of {name}"));
            }
            if *summary.rmod(p) != self.mod_side.rmod(program, p) {
                return Some(format!("RMOD of {name}"));
            }
            if *summary.ruse(p) != self.use_side.rmod(program, p) {
                return Some(format!("RUSE of {name}"));
            }
        }
        for s in program.sites() {
            if summary.dmod_site(s) != self.mod_side.dmod_site(s) {
                return Some(format!("DMOD at site {}", s.index()));
            }
            if summary.duse_site(s) != self.use_side.dmod_site(s) {
                return Some(format!("DUSE at site {}", s.index()));
            }
        }
        None
    }

    /// `DMOD` of a site as the oracle computed it.
    pub fn dmod_site(&self, s: modref_ir::CallSiteId) -> &BitSet {
        self.mod_side.dmod_site(s)
    }
}

/// Heap bytes of every set a `Summary` answers with.
pub fn answer_bytes(program: &Program, s: &Summary) -> u64 {
    let mut total = 0usize;
    for p in program.procs() {
        for set in [
            s.rmod(p),
            s.ruse(p),
            s.imod_plus(p),
            s.iuse_plus(p),
            s.gmod(p),
            s.guse(p),
        ] {
            total += set.heap_bytes();
        }
    }
    for site in program.sites() {
        for set in [
            s.dmod_site(site),
            s.duse_site(site),
            s.mod_site(site),
            s.use_site(site),
        ] {
            total += set.heap_bytes();
        }
    }
    total as u64
}
