//! E12 demand scaling: one `MOD(site)` query answered by the
//! demand-driven engine vs the exhaustive whole-program solve, on 1k-
//! and 10k-procedure progen workloads.
//!
//! Two kinds of rows per workload:
//!
//! * **Timed** — `query_site` is a cold single-site demand query (fresh
//!   [`DemandMemo`] per iteration, so nothing is amortized away);
//!   `exhaustive` is a full `Analyzer::analyze`.
//! * **Recorded** — `query_site_ops` / `exhaustive_ops` carry the
//!   deterministic operation counts in the paper's own cost units
//!   (bit-vector steps, boolean steps, nodes, edges). These feed the
//!   sublinearity gate: `bench_gate --pair query_site_ops:exhaustive_ops
//!   … 0.10` fails CI if a point query ever costs ≥ 10% of the solve it
//!   replaces (see docs/QUERY.md for why the ratio shrinks with program
//!   size).
//!
//! The queried site is a *leaf* call (its callee calls nothing) when one
//! exists — the paper's motivating case, where the demanded slice is a
//! sliver of the program — falling back to the last site otherwise.
//! `MODREF_SEED=<n>` replays a different workload seed.

use modref_check::{BenchGroup, BenchOptions};
use modref_core::demand::{query_site_with, DemandMemo};
use modref_core::{Analyzer, Guard, SolveCtx};
use modref_ir::{CallSiteId, Program};
use modref_par::ThreadPool;
use modref_progen::{generate, GenConfig};

/// A call site whose callee makes no further calls (its `GMOD` slice is
/// one procedure), preferring a caller that is itself called as little
/// as possible (its §5 ancestor closure is as small as possible) — the
/// sliver-slice case the demand engine exists for. Falls back to the
/// last site when no callee is a leaf.
fn leaf_site(program: &Program) -> CallSiteId {
    let mut outgoing = vec![0usize; program.num_procs()];
    let mut incoming = vec![0usize; program.num_procs()];
    for s in program.sites() {
        outgoing[program.site(s).caller().index()] += 1;
        incoming[program.site(s).callee().index()] += 1;
    }
    program
        .sites()
        .filter(|&s| outgoing[program.site(s).callee().index()] == 0)
        .min_by_key(|&s| incoming[program.site(s).caller().index()])
        .or_else(|| program.sites().last())
        .expect("generated programs have call sites")
}

fn main() {
    let mut opts = BenchOptions::from_env();
    let seed: u64 = opts
        .seed
        .as_deref()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    opts.seed = Some(seed.to_string());
    let mut group = BenchGroup::with_options("demand", opts).samples(5);

    let workloads: Vec<(String, GenConfig)> = vec![
        ("fortran_1k".into(), GenConfig::fortran_like(1000)),
        ("fortran_10k".into(), GenConfig::fortran_like(10_000)),
    ];

    let (pool, guard) = (ThreadPool::new(1), Guard::unlimited());
    let trace = modref_core::Trace::disabled();
    let ctx = SolveCtx::new(&pool, &guard, &trace);
    for (param, cfg) in workloads {
        let program = generate(&cfg, seed);
        let site = leaf_site(&program);

        // Cold demand query: the memo is rebuilt every iteration, so the
        // row prices exactly one query from nothing.
        group.bench_with_setup(
            "query_site",
            &param,
            || DemandMemo::new(&program),
            |mut memo| {
                query_site_with(&ctx, &program, &mut memo, site)
                    .expect("unlimited queries cannot be interrupted")
            },
        );

        // What the query replaces: the whole-program exhaustive solve.
        group.bench("exhaustive", &param, || Analyzer::new().analyze(&program));

        // Deterministic op counts, same units on both sides (the
        // exhaustive total sums every pipeline phase's counters).
        let mut memo = DemandMemo::new(&program);
        let (_, ops) = query_site_with(&ctx, &program, &mut memo, site)
            .expect("unlimited queries cannot be interrupted");
        group.record("query_site_ops", &param, u128::from(ops.total()));
        let exhaustive_ops = Analyzer::new().analyze(&program).stats().total().total();
        group.record("exhaustive_ops", &param, u128::from(exhaustive_ops));
    }
    group.finish();
}
