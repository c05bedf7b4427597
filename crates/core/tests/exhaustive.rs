//! Exhaustive small-world equivalence of every `GMOD` solver.
//!
//! The property suites sample; this file *enumerates*. For every call
//! multi-graph over up to four procedures — every subset of the possible
//! call edges, self-loops included where the count stays tractable — and
//! three body/binding configurations, all production solvers
//! (`findgmod`-style one-level where applicable, the naive and fused
//! multi-level drivers, and the level-scheduled parallel solver) must
//! agree bit-for-bit with the brute-force iterative baseline on
//! pipeline-derived seeds. The oracle is finite and fully covered — a
//! disagreement on *any* ≤4-procedure topology fails here, no sampling
//! luck involved.
//!
//! The ≤3-procedure corpus doubles as a **thread-count wall**: the full
//! pipeline at 4 threads must be bit-identical to the 1-thread run on
//! every enumerated topology.

use modref_bitset::BitSet;
use modref_core::{
    solve_gmod_levels, solve_gmod_multi_fused, solve_gmod_multi_naive, solve_gmod_one_level,
    Analyzer, Summary,
};
use modref_ir::{CallGraph, LocalEffects, Program};
use modref_par::ThreadPool;

mod common;
use common::{binding_program, edge_slots, edges_of, flat_program, nested_program};

/// Pipeline-derived seeds (`IMOD⁺`) and `LOCAL` sets — the same inputs
/// the analyzer hands its `GMOD` stage.
fn seeds_of(program: &Program) -> (Vec<BitSet>, Vec<BitSet>) {
    let fx = LocalEffects::compute(program);
    let beta = modref_binding::BindingGraph::build(program);
    let rmod = modref_binding::solve_rmod(program, fx.imod_all(), &beta);
    let (plus, _) = modref_core::compute_imod_plus(program, fx.imod_all(), &rmod);
    (plus, program.local_sets())
}

/// Checks every solver against the iterative baseline on one program.
/// `ctx` names the instance for failure messages.
fn assert_solvers_agree(program: &Program, pool: &ThreadPool, ctx: &str) {
    let (seeds, locals) = seeds_of(program);
    let cg = CallGraph::build(program);
    let baseline = modref_baselines::iterative_gmod(program, cg.graph(), &seeds, &locals);
    let naive = solve_gmod_multi_naive(program, cg.graph(), &seeds, &locals);
    let fused = solve_gmod_multi_fused(program, cg.graph(), &seeds, &locals);
    let levels = solve_gmod_levels(program, cg.graph(), &seeds, &locals, pool);
    let one_level = (program.max_level() <= 1)
        .then(|| solve_gmod_one_level(program, cg.graph(), &seeds, &locals));
    for p in program.procs() {
        let want = baseline.gmod(p);
        assert_eq!(naive.gmod(p), want, "{ctx}: naive differs at {p}");
        assert_eq!(fused.gmod(p), want, "{ctx}: fused differs at {p}");
        assert_eq!(levels.gmod(p), want, "{ctx}: level-scheduled differs at {p}");
        if let Some(one) = &one_level {
            assert_eq!(one.gmod(p), want, "{ctx}: findgmod differs at {p}");
        }
    }
}

#[test]
fn all_call_graphs_up_to_three_procs_with_self_loops_flat() {
    let pool = ThreadPool::with_threads(Some(2));
    let mut instances = 0usize;
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            let program = flat_program(n, &edges);
            assert_solvers_agree(&program, &pool, &format!("flat n={n} mask={mask:#x}"));
            instances += 1;
        }
    }
    // 2 + 16 + 512: the enumeration itself is part of the contract.
    assert_eq!(instances, 530, "the small-world enumeration shrank");
}

#[test]
fn all_call_graphs_of_four_procs_flat() {
    let pool = ThreadPool::with_threads(Some(2));
    let slots = edge_slots(4, false);
    assert_eq!(slots.len(), 12);
    for mask in 0..(1u64 << slots.len()) {
        let edges = edges_of(&slots, mask);
        let program = flat_program(4, &edges);
        assert_solvers_agree(&program, &pool, &format!("flat n=4 mask={mask:#x}"));
    }
}

#[test]
fn all_call_graphs_up_to_three_procs_with_self_loops_binding() {
    let pool = ThreadPool::with_threads(Some(2));
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            let program = binding_program(n, &edges);
            assert_solvers_agree(&program, &pool, &format!("binding n={n} mask={mask:#x}"));
        }
    }
}

#[test]
fn all_call_graphs_of_four_procs_binding() {
    let pool = ThreadPool::with_threads(Some(2));
    let slots = edge_slots(4, false);
    for mask in 0..(1u64 << slots.len()) {
        let edges = edges_of(&slots, mask);
        let program = binding_program(4, &edges);
        assert_solvers_agree(&program, &pool, &format!("binding n=4 mask={mask:#x}"));
    }
}

#[test]
fn all_visible_call_graphs_up_to_three_procs_nested() {
    let pool = ThreadPool::with_threads(Some(2));
    let mut valid = 0usize;
    let mut skipped = 0usize;
    for n in 2..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            match nested_program(n, &edges) {
                Some(program) => {
                    assert_solvers_agree(&program, &pool, &format!("nested n={n} mask={mask:#x}"));
                    valid += 1;
                }
                None => skipped += 1,
            }
        }
    }
    // In a strict lexical chain only p0 → p2 is invisible (n = 3), so at
    // least the n = 2 enumeration (all 16) and the n = 3 masks avoiding
    // that one slot (2^9 − 2^8 = 256) must validate. If this floor is
    // missed, the visibility validator changed out from under the test.
    assert!(
        valid >= 16 + 256,
        "only {valid} nested instances validated ({skipped} skipped)"
    );
    assert!(skipped > 0, "some nested edges must be invisible");
}

// ── Thread-count wall ───────────────────────────────────────────────────
//
// Everything below runs the *whole* pipeline at one and at four threads
// and demands bit-identity on every set either summary exposes.

/// Asserts every set the two summaries expose is identical.
fn assert_summaries_identical(want: &Summary, got: &Summary, program: &Program, ctx: &str) {
    for p in program.procs() {
        assert_eq!(want.rmod(p), got.rmod(p), "{ctx}: RMOD({p}) differs");
        assert_eq!(want.ruse(p), got.ruse(p), "{ctx}: RUSE({p}) differs");
        assert_eq!(want.imod_plus(p), got.imod_plus(p), "{ctx}: IMOD+({p}) differs");
        assert_eq!(want.iuse_plus(p), got.iuse_plus(p), "{ctx}: IUSE+({p}) differs");
        assert_eq!(want.gmod(p), got.gmod(p), "{ctx}: GMOD({p}) differs");
        assert_eq!(want.guse(p), got.guse(p), "{ctx}: GUSE({p}) differs");
    }
    for s in program.sites() {
        assert_eq!(want.dmod_site(s), got.dmod_site(s), "{ctx}: DMOD({s}) differs");
        assert_eq!(want.duse_site(s), got.duse_site(s), "{ctx}: DUSE({s}) differs");
        assert_eq!(want.mod_site(s), got.mod_site(s), "{ctx}: MOD({s}) differs");
        assert_eq!(want.use_site(s), got.use_site(s), "{ctx}: USE({s}) differs");
    }
}

/// Runs the pipeline at one and at four threads, asserting bit-identity.
fn assert_thread_counts_agree(program: &Program, ctx: &str) {
    let one = Analyzer::new().threads(1).analyze(program);
    let four = Analyzer::new().threads(4).analyze(program);
    assert_summaries_identical(&one, &four, program, &format!("{ctx} threads=4"));
}

#[test]
fn thread_counts_agree_on_all_small_topologies() {
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            assert_thread_counts_agree(
                &flat_program(n, &edges),
                &format!("flat n={n} mask={mask:#x}"),
            );
            assert_thread_counts_agree(
                &binding_program(n, &edges),
                &format!("binding n={n} mask={mask:#x}"),
            );
            if n >= 2 {
                if let Some(program) = nested_program(n, &edges) {
                    assert_thread_counts_agree(&program, &format!("nested n={n} mask={mask:#x}"));
                }
            }
        }
    }
}
