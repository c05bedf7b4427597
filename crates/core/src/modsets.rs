//! `MOD` from `DMOD` plus aliases — §5 step (2).

use modref_bitset::{BitSet, OpCounter};
use modref_guard::{Interrupt, SolveCtx};
use modref_ir::{CallSiteId, Program};

use crate::alias::AliasPairs;
use crate::dmod::{map_sites, DmodSolution};

/// Per-call-site final `MOD` (or `USE`) sets.
#[derive(Debug, Clone)]
pub struct ModSolution {
    per_site: Vec<BitSet>,
    stats: OpCounter,
}

impl ModSolution {
    /// `MOD(s)` for call site `s`.
    pub fn mod_site(&self, s: CallSiteId) -> &BitSet {
        &self.per_site[s.index()]
    }

    /// All per-site sets, indexed by call site.
    pub fn all(&self) -> &[BitSet] {
        &self.per_site
    }

    /// Work performed: linear in `Σ(|DMOD(s)| + |ALIAS(p)|)`, as §5
    /// argues any alias-factoring method must be.
    pub fn stats(&self) -> OpCounter {
        self.stats
    }

    pub(crate) fn into_sets(self) -> Vec<BitSet> {
        self.per_site
    }

    /// Wraps already-widened per-site sets (the degraded-path fallback).
    pub(crate) fn conservative(per_site: Vec<BitSet>) -> Self {
        ModSolution {
            per_site,
            stats: OpCounter::new(),
        }
    }
}

/// For each call site `s` in procedure `p`:
/// `MOD(s) = DMOD(s) ∪ { y : x ∈ DMOD(s), ⟨x, y⟩ ∈ ALIAS(p) }`.
pub fn compute_mod(program: &Program, dmod: &DmodSolution, aliases: &AliasPairs) -> ModSolution {
    SolveCtx::unlimited(|ctx| compute_mod_with(ctx, program, dmod, aliases))
}

/// [`compute_mod`] under a [`SolveCtx`]: checkpoint `"modsets"`, then the
/// per-site alias factoring through the shared per-site fan-out — fanned out over the
/// pool (sites are independent, so the result is identical at any thread
/// count) and charged one bit-vector step per site.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips mid-factoring; partial per-site sets are discarded.
pub fn compute_mod_with(
    ctx: &SolveCtx<'_>,
    program: &Program,
    dmod: &DmodSolution,
    aliases: &AliasPairs,
) -> Result<ModSolution, Interrupt> {
    ctx.guard.checkpoint("modsets")?;
    let mut stats = OpCounter::new();
    stats.bitvec_steps += program.num_sites() as u64;
    let per_site = map_sites(ctx, program, |s| {
        let caller = program.site(s).caller();
        aliases.extend_with_aliases(caller, dmod.dmod_site(s))
    })?;
    Ok(ModSolution { per_site, stats })
}

#[cfg(test)]
mod tests {

    use crate::pipeline::Analyzer;
    use modref_ir::{Expr, ProgramBuilder};

    #[test]
    fn alias_partner_of_modified_formal_enters_mod() {
        // q(x, y) writes only x, but main passes g for both: MOD of the
        // site must contain g either way; more interestingly, inside p
        // where the aliasing is visible, writing one formal MODs the
        // other.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x", "y"]);
        let q = b.proc_("q", &["u"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let s_inner = b.call(p, q, &[b.formal(p, 0)]); // q modifies x
        let main = b.main();
        let s_outer = b.call(main, p, &[g, g]); // x and y alias g
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);

        // Inside p: the call to q directly modifies x; y is an alias.
        let x = b.formal(p, 0);
        let y = b.formal(p, 1);
        assert!(summary.dmod_site(s_inner).contains(x.index()));
        assert!(!summary.dmod_site(s_inner).contains(y.index()));
        assert!(summary.mod_site(s_inner).contains(y.index()));
        assert!(summary.mod_site(s_inner).contains(g.index()));

        // At the outer site, g is modified via the binding already.
        assert!(summary.dmod_site(s_outer).contains(g.index()));
        assert!(summary.mod_site(s_outer).contains(g.index()));
    }

    #[test]
    fn without_aliases_mod_equals_dmod() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        b.assign(p, h, Expr::constant(2));
        let main = b.main();
        let s = b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let summary = Analyzer::new().analyze(&program);
        // Note: g IS aliased to x inside p, but at *main's* site the DMOD
        // set {g, h} has no alias partners in main's ALIAS set.
        assert_eq!(summary.mod_site(s), summary.dmod_site(s));
    }
}
