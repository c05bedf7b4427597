//! Alias-pair analysis — the `ALIAS(p)` sets §5 assumes are "available".
//!
//! The paper factors aliasing out of the main computation and adds it back
//! at the end; it cites Banning's formulation for producing the pairs.
//! This module implements the classic conservative pair propagation for
//! reference-parameter languages (Banning 1979 / Cooper's dissertation):
//!
//! * at a call site `e = (p, q)`, two formals of `q` become potential
//!   aliases if the corresponding actuals may denote the same location —
//!   they are the same variable, or already aliased in `p`;
//! * a formal of `q` becomes a potential alias of any variable `w` that is
//!   visible inside `q` and may be the actual's location (`w` is the
//!   actual itself, or an alias partner of the actual that survives into
//!   `q`'s scope);
//! * pairs propagate through chains of calls to a fixpoint.
//!
//! Pairs are symmetric and irreflexive. The result plugs directly into
//! step (2) of §5: `∀x ∈ DMOD(s): ⟨x, y⟩ ∈ ALIAS(p) ⇒ y ∈ MOD(s)`.

use std::collections::{HashMap, VecDeque};

use modref_bitset::BitSet;
use modref_guard::{Guard, Interrupt, SolveCtx};
use modref_ir::{Actual, ProcId, Program, VarId};

/// The alias pairs of every procedure.
///
/// # Examples
///
/// ```
/// use modref_core::AliasPairs;
/// use modref_ir::{Expr, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// // call p(g, g): inside p, x and y alias each other and g.
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let p = b.proc_("p", &["x", "y"]);
/// let main = b.main();
/// b.call(main, p, &[g, g]);
/// let program = b.finish()?;
/// let aliases = AliasPairs::compute(&program);
/// assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
/// assert!(aliases.are_aliased(p, b.formal(p, 0), g));
/// assert!(!aliases.are_aliased(b.main(), g, g)); // irreflexive
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AliasPairs {
    /// `partners[p][v]` = the variables `v` may alias inside `p`, in
    /// ascending order. Rows are sparse: a procedure holds one short list
    /// per variable that has a partner, not one universe-wide set.
    partners: Vec<HashMap<VarId, Vec<VarId>>>,
}

impl AliasPairs {
    /// Computes `ALIAS(p)` for every procedure by worklist iteration over
    /// the call sites. Terminates because pair sets only grow and are
    /// bounded by `|V|²` per procedure (in practice tiny — "programs with
    /// complex aliasing patterns are difficult to write", §5).
    pub fn compute(program: &Program) -> Self {
        SolveCtx::unlimited(|ctx| Self::compute_with(ctx, program))
    }

    /// [`AliasPairs::compute`] under a [`SolveCtx`]: checkpoint `"alias"`,
    /// then a worklist loop that polls the guard every few dozen popped
    /// sites and charges one boolean step per site processed. The
    /// worklist is sequential and records no spans of its own.
    ///
    /// # Errors
    ///
    /// Returns the guard's [`Interrupt`] if a deadline, budget, or
    /// cancellation trips before the fixpoint; the partial relation is
    /// discarded.
    pub fn compute_with(ctx: &SolveCtx<'_>, program: &Program) -> Result<Self, Interrupt> {
        ctx.guard.checkpoint("alias")?;
        let mut result = Self::empty_impl(program);
        let all = vec![true; program.num_procs()];
        result.solve_closure_guarded(program, &all, ctx.guard)?;
        Ok(result)
    }

    /// The relation the demand engine computes for a caller-closed set of
    /// procedures: the worklist of [`AliasPairs::compute`] restricted to
    /// call sites whose callee lies in `in_closure`. When every caller of
    /// a member is itself a member, `ALIAS(p)` is exact for every member
    /// `p`; procedures outside the closure hold a subset of their pairs.
    ///
    /// # Panics
    ///
    /// Panics if `in_closure.len() != program.num_procs()`.
    pub fn compute_closure(program: &Program, in_closure: &[bool]) -> Self {
        assert_eq!(in_closure.len(), program.num_procs(), "one flag per procedure");
        let mut result = Self::empty_impl(program);
        result
            .solve_closure_guarded(program, in_closure, &Guard::unlimited())
            .expect("an unlimited guard never trips");
        result
    }

    /// Runs the worklist restricted to call sites whose callee lies in
    /// `in_closure`, mutating `self` toward the fixpoint. When `in_closure`
    /// is closed under "callers of" (every procedure that can call a member
    /// is itself a member), the restricted system is *closed*: a site's
    /// update reads only the caller's pairs, and every such caller is in
    /// the closure. The least fixpoint of the restricted system therefore
    /// coincides with the full-program `ALIAS` relation on every closure
    /// member — this is what lets the demand engine answer one caller's
    /// alias query without touching unrelated procedures. Any
    /// already-accumulated pairs in `self` must be sound (⊆ the full
    /// fixpoint); iteration from such a state still converges to the exact
    /// fixpoint because the rules are monotone. Returns the number of
    /// sites popped, for op accounting.
    pub(crate) fn solve_closure_guarded(
        &mut self,
        program: &Program,
        in_closure: &[bool],
        guard: &Guard,
    ) -> Result<u64, Interrupt> {
        let result = self;
        // sites_of_caller[p] = the call sites textually inside p.
        let mut sites_of_caller: Vec<Vec<usize>> = vec![Vec::new(); program.num_procs()];
        for s in program.sites() {
            sites_of_caller[program.site(s).caller().index()].push(s.index());
        }

        let mut queue: VecDeque<usize> = (0..program.num_sites())
            .filter(|&s| in_closure[program.site(modref_ir::CallSiteId::new(s)).callee().index()])
            .collect();
        let mut queued = vec![false; program.num_sites()];
        for &s in &queue {
            queued[s] = true;
        }
        let mut popped: u64 = 0;
        while let Some(site_idx) = queue.pop_front() {
            popped += 1;
            if popped % 64 == 0 {
                guard.charge(0, 64);
                guard.check()?;
            }
            queued[site_idx] = false;
            let site = program.site(modref_ir::CallSiteId::new(site_idx));
            let caller = site.caller();
            let callee = site.callee();
            let formals = program.proc_(callee).formals().to_vec();

            let ref_actuals: Vec<Option<VarId>> =
                site.args().iter().map(Actual::as_ref_var).collect();

            let mut changed = false;
            for (i, &ai) in ref_actuals.iter().enumerate() {
                let Some(ai) = ai else { continue };
                let fi = formals[i];
                // Formal-formal pairs.
                for (j, &aj) in ref_actuals.iter().enumerate().skip(i + 1) {
                    let Some(aj) = aj else { continue };
                    let same = ai == aj || result.are_aliased(caller, ai, aj);
                    if same {
                        changed |= result.add_pair(callee, fi, formals[j]);
                    }
                }
                // Formal-visible pairs: the actual itself …
                if program.visible_in(ai, callee) && ai != fi {
                    changed |= result.add_pair(callee, fi, ai);
                }
                // … and its surviving partners.
                let survivors: Vec<VarId> = result
                    .partners_of(caller, ai)
                    .filter(|&w| program.visible_in(w, callee) && w != fi)
                    .collect();
                for w in survivors {
                    changed |= result.add_pair(callee, fi, w);
                }
            }

            // Inherited pairs: any pair of the caller whose *both* members
            // survive into the callee's scope still holds there. With
            // two-level scoping this is vacuous (a caller's formal is
            // invisible in the callee), but a procedure nested in the
            // caller sees the caller's formals — and their aliases — as
            // free variables.
            let inherited: Vec<(VarId, VarId)> = result.partners[caller.index()]
                .iter()
                .flat_map(|(&x, row)| row.iter().map(move |&y| (x, y)))
                .filter(|&(x, y)| program.visible_in(x, callee) && program.visible_in(y, callee))
                .collect();
            for (x, y) in inherited {
                changed |= result.add_pair(callee, x, y);
            }

            if changed {
                for &s2 in &sites_of_caller[callee.index()] {
                    let s2_callee = program.site(modref_ir::CallSiteId::new(s2)).callee();
                    if !queued[s2] && in_closure[s2_callee.index()] {
                        queued[s2] = true;
                        queue.push_back(s2);
                    }
                }
            }
        }
        guard.charge(0, popped % 64);
        guard.check()?;
        Ok(popped)
    }

    /// `true` if `⟨a, b⟩ ∈ ALIAS(p)`. Irreflexive: `are_aliased(p, v, v)`
    /// is `false`.
    pub fn are_aliased(&self, p: ProcId, a: VarId, b: VarId) -> bool {
        self.partners[p.index()]
            .get(&a)
            .is_some_and(|row| row.binary_search(&b).is_ok())
    }

    /// The alias partners of `v` inside `p`, in ascending order.
    pub fn partners_of(&self, p: ProcId, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        self.partners[p.index()]
            .get(&v)
            .into_iter()
            .flat_map(|row| row.iter().copied())
    }

    /// Number of (unordered) pairs in `ALIAS(p)`.
    pub fn pair_count(&self, p: ProcId) -> usize {
        let total: usize = self.partners[p.index()].values().map(Vec::len).sum();
        total / 2
    }

    /// §5 step (2): extends `set` with every alias partner (in `p`) of its
    /// members. Returns the extended set; linear in `|set| + |ALIAS(p)|`.
    pub fn extend_with_aliases(&self, p: ProcId, set: &BitSet) -> BitSet {
        let mut out = set.clone();
        for (v, row) in &self.partners[p.index()] {
            if set.contains(v.index()) {
                for w in row {
                    out.insert(w.index());
                }
            }
        }
        out
    }

    /// An all-empty alias relation (used when alias analysis is disabled).
    pub(crate) fn empty_impl(program: &Program) -> Self {
        AliasPairs {
            partners: vec![HashMap::new(); program.num_procs()],
        }
    }

    fn add_pair(&mut self, p: ProcId, a: VarId, b: VarId) -> bool {
        if a == b {
            return false;
        }
        let map = &mut self.partners[p.index()];
        let x = insert_sorted(map.entry(a).or_default(), b);
        let y = insert_sorted(map.entry(b).or_default(), a);
        x | y
    }
}

/// Inserts `v` into the ascending `row`; returns `true` if it was absent.
fn insert_sorted(row: &mut Vec<VarId>, v: VarId) -> bool {
    match row.binary_search(&v) {
        Ok(_) => false,
        Err(at) => {
            row.insert(at, v);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::ProgramBuilder;

    #[test]
    fn no_calls_no_aliases() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert_eq!(aliases.pair_count(b.main()), 0);
        assert!(!aliases.are_aliased(b.main(), g, g));
    }

    #[test]
    fn global_passed_as_formal_aliases_it() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        let main = b.main();
        b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert_eq!(aliases.pair_count(p), 1);
    }

    #[test]
    fn local_passed_as_formal_does_not_alias_in_callee() {
        // The caller's local is not visible inside a *sibling* callee, so
        // no formal-visible pair is introduced.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let q = b.proc_("q", &["x"]);
        b.call(p, q, &[t]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert_eq!(aliases.pair_count(q), 0);
    }

    #[test]
    fn ancestor_local_passed_into_nested_callee_aliases() {
        // p's local is visible inside p's nested procedure; passing it by
        // reference introduces the pair there.
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &[]);
        let t = b.local(p, "t");
        let inner = b.nested_proc(p, "inner", &["x"]);
        b.call(p, inner, &[t]);
        let main = b.main();
        b.call(main, p, &[]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(inner, b.formal(inner, 0), t));
    }

    #[test]
    fn same_variable_twice_aliases_formals() {
        let mut b = ProgramBuilder::new();
        let p = b.proc_("p", &["x", "y"]);
        let main = b.main();
        let m = b.local(main, "m");
        b.call(main, p, &[m, m]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        // Top-level procedures are nested in main, so main's local *is*
        // visible in p and the formal-visible pair is introduced too.
        assert!(aliases.are_aliased(p, b.formal(p, 0), m));
    }

    #[test]
    fn pairs_propagate_through_chains() {
        // main: call p(g, g)  →  p: call q(x, y)  ⇒ q's formals alias.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["u", "v"]);
        let p = b.proc_("p", &["x", "y"]);
        b.call(p, q, &[b.formal(p, 0), b.formal(p, 1)]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(q, b.formal(q, 0), b.formal(q, 1)));
        assert!(aliases.are_aliased(q, b.formal(q, 0), g));
        assert!(aliases.are_aliased(q, b.formal(q, 1), g));
    }

    #[test]
    fn distinct_actuals_do_not_alias() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x", "y"]);
        let main = b.main();
        b.call(main, p, &[g, h]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(!aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert!(aliases.are_aliased(p, b.formal(p, 1), h));
        assert!(!aliases.are_aliased(p, b.formal(p, 0), h));
    }

    #[test]
    fn recursive_alias_reaches_fixpoint() {
        // p(x, y) calls p(y, x): pairs swap positions; the fixpoint must
        // be reached and stay symmetric.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let _h = b.global("h");
        let p = b.proc_("p", &["x", "y"]);
        b.call(p, p, &[b.formal(p, 1), b.formal(p, 0)]);
        let main = b.main();
        b.call(main, p, &[g, g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        assert!(aliases.are_aliased(p, b.formal(p, 0), b.formal(p, 1)));
        assert!(aliases.are_aliased(p, b.formal(p, 0), g));
        assert!(aliases.are_aliased(p, b.formal(p, 1), g));
    }

    #[test]
    fn extend_with_aliases_implements_step_two() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &["x"]);
        let main = b.main();
        b.call(main, p, &[g]);
        let program = b.finish().expect("valid");
        let aliases = AliasPairs::compute(&program);
        let mut dmod = BitSet::new(program.num_vars());
        dmod.insert(b.formal(p, 0).index());
        let extended = aliases.extend_with_aliases(p, &dmod);
        assert!(extended.contains(g.index()));
        assert!(!extended.contains(h.index()));
        assert!(extended.contains(b.formal(p, 0).index()));
    }
}
