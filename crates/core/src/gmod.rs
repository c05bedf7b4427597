//! `findgmod` — Figure 2 of the paper: the global-variable side-effect
//! problem solved by an adaptation of Tarjan's SCC algorithm.
//!
//! With reference-parameter effects already folded into `IMOD⁺`, equation
//! (4) says `GMOD(p) = IMOD⁺(p) ∪ ⋃_{(p,q)} (GMOD(q) ∖ LOCAL(q))`. The
//! algorithm computes the least solution in one depth-first pass over the
//! call multi-graph:
//!
//! * each node is seeded with `IMOD⁺` (line 8);
//! * returning over a tree edge, or meeting a forward/cross edge into an
//!   already-closed component, applies equation (4) once (line 17);
//! * when the root of a strongly-connected component is found, the root's
//!   set — provably complete at that moment (Theorem 1) — is broadcast to
//!   the members, filtered of the root's locals (line 22).
//!
//! Total: `O(E_C + N_C)` bit-vector steps (Theorem 2).
//!
//! **Scope**: exact for two-level (C/FORTRAN) scoping, i.e. programs whose
//! procedures all sit at nesting level ≤ 1. For deeper lexical nesting use
//! [`crate::gmod_nested`], which runs one *problem per nesting level*
//! (§4's multi-level extension); this module exposes the shared core.

use modref_bitset::{BitSet, OpCounter, SetMatrix};
use modref_graph::DiGraph;
use modref_guard::{Guard, Interrupt, SolveCtx};
use modref_ir::{ProcId, Program};

use crate::meter::Meter;

/// The `GMOD` (or `GUSE`) sets of every procedure, with work counters.
#[derive(Debug, Clone)]
pub struct GmodSolution {
    gmod: Vec<BitSet>,
    stats: OpCounter,
}

impl GmodSolution {
    pub(crate) fn new(gmod: Vec<BitSet>, stats: OpCounter) -> Self {
        GmodSolution { gmod, stats }
    }

    /// `GMOD(p)`: all variables that may be modified by an invocation of
    /// `p` — its own side effects and those of everything it can call.
    pub fn gmod(&self, p: ProcId) -> &BitSet {
        &self.gmod[p.index()]
    }

    /// All sets, indexed by procedure.
    pub fn gmod_all(&self) -> &[BitSet] {
        &self.gmod
    }

    /// Work performed, in bit-vector steps (Theorem 2's unit).
    pub fn stats(&self) -> OpCounter {
        self.stats
    }

    pub(crate) fn into_parts(self) -> (Vec<BitSet>, OpCounter) {
        (self.gmod, self.stats)
    }
}

/// How line 22 filters the root's set during SCC closure.
#[derive(Debug, Clone)]
pub(crate) enum ClosureFilter {
    /// `GMOD[u] ∪= GMOD[root] ∖ LOCAL[root]` — the one-level algorithm.
    NotLocalOfRoot,
    /// `GMOD[u] ∪= GMOD[root] ∩ mask` — the multi-level problems use the
    /// set of variables declared at levels `< i`.
    Mask(BitSet),
}

/// Solves the one-level global problem (Figure 2) over the call
/// multi-graph.
///
/// `seeds[p]` must be `IMOD⁺(p)` (or `IUSE⁺(p)`); `locals[p]` is
/// `LOCAL(p)`. Exact when `program.max_level() ≤ 1`; for deeper nesting it
/// is still the paper's verbatim Figure 2 but only the multi-level driver
/// of [`crate::gmod_nested`] yields the exact nested answer.
///
/// # Panics
///
/// Panics if the slice lengths differ from `program.num_procs()`.
///
/// # Examples
///
/// ```
/// use modref_core::{compute_imod_plus, solve_gmod_one_level};
/// use modref_binding::{solve_rmod, BindingGraph};
/// use modref_ir::{CallGraph, Expr, LocalEffects, ProgramBuilder};
///
/// # fn main() -> Result<(), modref_ir::ValidationError> {
/// let mut b = ProgramBuilder::new();
/// let g = b.global("g");
/// let q = b.proc_("q", &[]);
/// b.assign(q, g, Expr::constant(1)); // q writes the global
/// let p = b.proc_("p", &[]);
/// b.call(p, q, &[]);
/// let main = b.main();
/// b.call(main, p, &[]);
/// let program = b.finish()?;
///
/// let fx = LocalEffects::compute(&program);
/// let beta = BindingGraph::build(&program);
/// let rmod = solve_rmod(&program, fx.imod_all(), &beta);
/// let (plus, _) = compute_imod_plus(&program, fx.imod_all(), &rmod);
/// let cg = CallGraph::build(&program);
/// let sol = solve_gmod_one_level(&program, cg.graph(), &plus, &program.local_sets());
/// assert!(sol.gmod(p).contains(g.index()));    // transitively
/// assert!(sol.gmod(main).contains(g.index())); // footnote 3: main too
/// # Ok(())
/// # }
/// ```
pub fn solve_gmod_one_level(
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[BitSet],
    locals: &[BitSet],
) -> GmodSolution {
    SolveCtx::unlimited(|ctx| solve_gmod_one_level_with(ctx, program, call_graph, seeds, locals))
}

/// [`solve_gmod_one_level`] under a [`SolveCtx`]: polls the guard at the
/// `"gmod"` entry checkpoint and at traversal strides, charging
/// bit-vector steps against the budget. The depth-first pass is
/// inherently sequential and records no spans of its own.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] on a trip; the partial result is
/// discarded.
pub fn solve_gmod_one_level_with(
    ctx: &SolveCtx<'_>,
    program: &Program,
    call_graph: &DiGraph,
    seeds: &[BitSet],
    locals: &[BitSet],
) -> Result<GmodSolution, Interrupt> {
    let guard = ctx.guard;
    assert_eq!(seeds.len(), program.num_procs(), "one seed per procedure");
    assert_eq!(locals.len(), program.num_procs(), "one LOCAL per procedure");
    guard.checkpoint("gmod")?;
    findgmod(
        call_graph,
        program.num_vars(),
        seeds,
        locals,
        |_| true,
        &ClosureFilter::NotLocalOfRoot,
        guard,
    )
}

/// The shared Figure 2 engine, parameterised for the multi-level driver:
/// `edge_enabled` restricts the graph (problem `i` ignores edges into
/// procedures at level `< i`) and `closure` selects the line 22 filter.
///
/// Iterative: explicit DFS frames, no recursion. Roots at node 0 (main)
/// first, then any node left undiscovered (procedures unreachable from
/// main still receive correct sets).
pub(crate) fn findgmod(
    graph: &DiGraph,
    num_vars: usize,
    seeds: &[BitSet],
    locals: &[BitSet],
    edge_enabled: impl Fn(usize) -> bool,
    closure: &ClosureFilter,
    guard: &Guard,
) -> Result<GmodSolution, Interrupt> {
    let n = graph.num_nodes();
    let mut stats = OpCounter::new();
    let mut meter = Meter::new(256);

    const UNVISITED: usize = usize::MAX;
    let mut dfn = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_dfn = 0usize;

    // GMOD lives in a matrix so that row-to-row unions borrow-check.
    let mut gmod: SetMatrix = SetMatrix::new(n, num_vars);
    // Frames: (node, successor cursor).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if dfn[root] != UNVISITED {
            continue;
        }
        // Line 7-10: discover the root.
        dfn[root] = next_dfn;
        lowlink[root] = next_dfn;
        next_dfn += 1;
        gmod.or_row_with_set(root, &seeds[root]); // line 8
        stats.bitvec_steps += 1;
        stats.nodes_visited += 1;
        stack.push(root);
        on_stack[root] = true;
        frames.push((root, 0));

        while let Some(&mut (p, ref mut cursor)) = frames.last_mut() {
            meter.tick(guard, &stats)?;
            let succs = graph.successors_slice(p);
            if *cursor < succs.len() {
                let (q, edge_id) = succs[*cursor];
                *cursor += 1;
                if !edge_enabled(edge_id) {
                    continue;
                }
                stats.edges_visited += 1;
                if dfn[q] == UNVISITED {
                    // Tree edge: discover q and descend. Equation (4) is
                    // applied when the child frame pops (see below).
                    dfn[q] = next_dfn;
                    lowlink[q] = next_dfn;
                    next_dfn += 1;
                    gmod.or_row_with_set(q, &seeds[q]);
                    stats.bitvec_steps += 1;
                    stats.nodes_visited += 1;
                    stack.push(q);
                    on_stack[q] = true;
                    frames.push((q, 0));
                } else if dfn[q] < dfn[p] && on_stack[q] {
                    // Back or cross edge within the open component
                    // (lines 14-15): lowlink only.
                    lowlink[p] = lowlink[p].min(dfn[q]);
                } else {
                    // Line 17: forward edge, or cross edge into a closed
                    // component — apply equation (4).
                    gmod.or_rows_minus(p, q, &locals[q]);
                    stats.bitvec_steps += 1;
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    // Returning over the tree edge parent → p:
                    // line 14 (lowlink merge) and line 17 (equation 4).
                    lowlink[parent] = lowlink[parent].min(lowlink[p]);
                    gmod.or_rows_minus(parent, p, &locals[p]);
                    stats.bitvec_steps += 1;
                }
                // Lines 19-25: close the component rooted at p.
                if lowlink[p] == dfn[p] {
                    loop {
                        let u = stack.pop().expect("findgmod stack underflow");
                        on_stack[u] = false;
                        if u == p {
                            break;
                        }
                        match closure {
                            ClosureFilter::NotLocalOfRoot => {
                                gmod.or_rows_minus(u, p, &locals[p]);
                            }
                            ClosureFilter::Mask(mask) => {
                                gmod.or_rows_masked(u, p, mask);
                            }
                        }
                        stats.bitvec_steps += 1;
                    }
                }
            }
        }
    }

    meter.settle(guard, &stats)?;
    Ok(GmodSolution::new(gmod.into_rows(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_binding::{solve_rmod, BindingGraph};
    use modref_ir::{CallGraph, Expr, LocalEffects, ProgramBuilder};

    /// Full §2-§4 pipeline up to GMOD, one-level.
    fn gmod_of(b: &ProgramBuilder) -> (Program, GmodSolution) {
        let program = b.finish().expect("valid");
        let fx = LocalEffects::compute(&program);
        let beta = BindingGraph::build(&program);
        let rmod = solve_rmod(&program, fx.imod_all(), &beta);
        let (plus, _) = crate::imod_plus::compute_imod_plus(&program, fx.imod_all(), &rmod);
        let cg = CallGraph::build(&program);
        let sol = solve_gmod_one_level(&program, cg.graph(), &plus, &program.local_sets());
        (program, sol)
    }

    #[test]
    fn locals_do_not_escape() {
        let mut b = ProgramBuilder::new();
        let q = b.proc_("q", &[]);
        let t = b.local(q, "t");
        b.assign(q, t, Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, sol) = gmod_of(&b);
        assert!(sol.gmod(q).contains(t.index())); // q's own set has it
        assert!(!sol.gmod(p).contains(t.index())); // but it never escapes
    }

    #[test]
    fn globals_flow_up_chains() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let r = b.proc_("r", &[]);
        b.assign(r, g, Expr::constant(1));
        let q = b.proc_("q", &[]);
        b.call(q, r, &[]);
        let p = b.proc_("p", &[]);
        b.call(p, q, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, sol) = gmod_of(&b);
        for node in [r, q, p, main] {
            assert!(sol.gmod(node).contains(g.index()), "missing in {node}");
        }
    }

    #[test]
    fn recursion_cycle_shares_globals() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let h = b.global("h");
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        b.assign(p, g, Expr::constant(1));
        b.assign(q, h, Expr::constant(2));
        b.call(p, q, &[]);
        b.call(q, p, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, sol) = gmod_of(&b);
        for node in [p, q] {
            assert!(sol.gmod(node).contains(g.index()));
            assert!(sol.gmod(node).contains(h.index()));
        }
    }

    #[test]
    fn cross_edge_into_closed_component() {
        // main → a, main → b, a → c, b → c; c modifies g. Whichever of
        // a/b is explored second reaches c by a cross edge into a closed
        // component (the line 17 case).
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let c = b.proc_("c", &[]);
        b.assign(c, g, Expr::constant(1));
        let pa = b.proc_("a", &[]);
        b.call(pa, c, &[]);
        let pb = b.proc_("b", &[]);
        b.call(pb, c, &[]);
        let main = b.main();
        b.call(main, pa, &[]);
        b.call(main, pb, &[]);
        let (_, sol) = gmod_of(&b);
        assert!(sol.gmod(pa).contains(g.index()));
        assert!(sol.gmod(pb).contains(g.index()));
    }

    #[test]
    fn irreducible_call_graph_is_fine() {
        // main → p, main → q, p ⇄ q: no single loop header.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &[]);
        let q = b.proc_("q", &[]);
        b.assign(q, g, Expr::constant(1));
        b.call(p, q, &[]);
        b.call(q, p, &[]);
        let main = b.main();
        b.call(main, p, &[]);
        b.call(main, q, &[]);
        let (_, sol) = gmod_of(&b);
        assert!(sol.gmod(p).contains(g.index()));
        assert!(sol.gmod(main).contains(g.index()));
    }

    #[test]
    fn reference_parameter_effects_reach_gmod_via_imod_plus() {
        // q(y) writes y; p passes global g: g must be in GMOD(p) and
        // GMOD(main).
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let q = b.proc_("q", &["y"]);
        b.assign(q, b.formal(q, 0), Expr::constant(1));
        let p = b.proc_("p", &[]);
        b.call(p, q, &[g]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, sol) = gmod_of(&b);
        assert!(sol.gmod(p).contains(g.index()));
        assert!(sol.gmod(main).contains(g.index()));
        // q itself modifies only its formal, not g.
        assert!(!sol.gmod(q).contains(g.index()));
    }

    #[test]
    fn unreachable_procedures_still_summarised() {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let dead = b.proc_("dead", &[]);
        b.assign(dead, g, Expr::constant(1));
        let main = b.main();
        b.print(main, Expr::load(g));
        let (_, sol) = gmod_of(&b);
        assert!(sol.gmod(dead).contains(g.index()));
        // `dead` is lexically a child of main, and the §3.3 extension
        // treats nested bodies as extensions of the parent's body (the
        // paper assumes unreachable procedures were pruned first), so
        // main's set conservatively includes g too.
        assert!(sol.gmod(main).contains(g.index()));
    }

    #[test]
    fn uncalled_sibling_does_not_leak_into_other_procs() {
        // While main absorbs every top-level IMOD (see above), a *sibling*
        // procedure must not.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let dead = b.proc_("dead", &[]);
        b.assign(dead, g, Expr::constant(1));
        let p = b.proc_("p", &[]);
        let main = b.main();
        b.call(main, p, &[]);
        let (_, sol) = gmod_of(&b);
        assert!(!sol.gmod(p).contains(g.index()));
    }

    #[test]
    fn work_is_linear_in_the_call_graph() {
        fn steps(n: usize) -> u64 {
            let mut b = ProgramBuilder::new();
            let g = b.global("g");
            let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &[])).collect();
            b.assign(procs[n - 1], g, Expr::constant(1));
            for i in 0..n - 1 {
                b.call(procs[i], procs[i + 1], &[]);
            }
            b.call(procs[n - 1], procs[0], &[]); // close one big cycle
            let main = b.main();
            b.call(main, procs[0], &[]);
            let (_, sol) = gmod_of(&b);
            sol.stats().bitvec_steps
        }
        let (s1, s2) = (steps(60), steps(600));
        let ratio = s2 as f64 / s1 as f64;
        assert!(
            (8.0..12.0).contains(&ratio),
            "expected ~10x steps for 10x nodes, got {ratio:.2} ({s1} → {s2})"
        );
    }

    #[test]
    fn theorem2_step_bound_holds() {
        // bitvec steps ≤ init(N) + line17(≤ E + tree returns ≤ E + N) +
        // line22(≤ N)  ⇒  ≤ 2N + 2E roughly; check a generous bound.
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let procs: Vec<_> = (0..20).map(|i| b.proc_(&format!("p{i}"), &[])).collect();
        b.assign(procs[0], g, Expr::constant(1));
        for i in 0..20 {
            for j in 0..20 {
                if i != j && (i + j) % 3 == 0 {
                    b.call(procs[i], procs[j], &[]);
                }
            }
        }
        let main = b.main();
        b.call(main, procs[0], &[]);
        let program = b.finish().expect("valid");
        let n = program.num_procs() as u64;
        let e = program.num_sites() as u64;
        let (_, sol) = gmod_of(&b);
        assert!(
            sol.stats().bitvec_steps <= 2 * n + 2 * e,
            "steps {} exceed 2N+2E = {}",
            sol.stats().bitvec_steps,
            2 * n + 2 * e
        );
    }
}
