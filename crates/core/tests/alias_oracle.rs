//! The §5 alias relation against an independent reference.
//!
//! [`AliasPairs::compute`] runs a site worklist over sparse per-variable
//! partner lists. The oracle here knows neither: it keeps each
//! procedure's relation as one ordered set of `(a, b)` pairs and
//! re-applies the three rules of `alias.rs` at every call site, reading
//! only the previous round's relation, until a whole round adds nothing.
//!
//! * **formal–formal** — at `s = (p, q)`, the formals bound to two
//!   reference actuals alias in `q` if the actuals are the same variable
//!   or alias in `p`;
//! * **formal–visible** — a formal aliases its actual, and every partner
//!   of the actual in `p`, that is visible in `q`;
//! * **inherited** — a pair of `p` whose members are both visible in `q`
//!   holds in `q`.
//!
//! Both the exhaustive relation and the demand engine's closure-restricted
//! one ([`AliasPairs::compute_closure`] on a random caller-closed set)
//! must match the oracle pair for pair. Replay a sweep failure with
//! `MODREF_SEED=<seed> cargo test -p modref-core --test alias_oracle`.

use std::collections::BTreeSet;

use modref_check::prelude::*;
use modref_check::runner::CaseResult;
use modref_check::Rng;
use modref_core::AliasPairs;
use modref_ir::{Actual, Program, VarId};
use modref_progen::{generate, GenConfig};

mod common;
use common::{binding_program, edge_slots, edges_of, flat_program, nested_program};

/// `rel[p]` holds both orientations of every pair of `ALIAS(p)`.
type Relation = Vec<BTreeSet<(VarId, VarId)>>;

/// Adds the unordered pair `{a, b}` to `set`; a variable never aliases
/// itself.
fn add(set: &mut BTreeSet<(VarId, VarId)>, a: VarId, b: VarId) {
    if a != b {
        set.insert((a, b));
        set.insert((b, a));
    }
}

/// Round-robin fixpoint of the three rules over the whole relation.
fn oracle(program: &Program) -> Relation {
    let mut rel: Relation = vec![BTreeSet::new(); program.num_procs()];
    loop {
        let prev = rel.clone();
        for s in program.sites() {
            let site = program.site(s);
            let (p, q) = (site.caller().index(), site.callee());
            let formals = program.proc_(q).formals();
            let actuals: Vec<Option<VarId>> = site.args().iter().map(Actual::as_ref_var).collect();
            let mut new = BTreeSet::new();
            for (i, ai) in actuals.iter().enumerate() {
                let Some(ai) = *ai else { continue };
                for (j, aj) in actuals.iter().enumerate() {
                    let Some(aj) = *aj else { continue };
                    if i != j && (ai == aj || prev[p].contains(&(ai, aj))) {
                        add(&mut new, formals[i], formals[j]);
                    }
                }
                if program.visible_in(ai, q) {
                    add(&mut new, formals[i], ai);
                }
                for &(x, w) in &prev[p] {
                    if x == ai && program.visible_in(w, q) {
                        add(&mut new, formals[i], w);
                    }
                }
            }
            for &(x, y) in &prev[p] {
                if program.visible_in(x, q) && program.visible_in(y, q) {
                    add(&mut new, x, y);
                }
            }
            rel[q.index()].extend(new);
        }
        if rel == prev {
            return rel;
        }
    }
}

/// The oracle's partners of `v` in procedure `p`, ascending.
fn oracle_partners(rel: &Relation, p: usize, v: VarId) -> Vec<VarId> {
    rel[p]
        .range((v, VarId::new(0))..=(v, VarId::new(u32::MAX as usize)))
        .map(|&(_, w)| w)
        .collect()
}

/// Compares `pairs` with the oracle on every procedure `keep` selects:
/// `pair_count`, `partners_of` ascending and equal for every variable,
/// and `are_aliased` between every variable and each one that has a
/// partner in the oracle (every other pair is false on both sides once
/// the partner lists agree).
fn check_relation(
    program: &Program,
    rel: &Relation,
    pairs: &AliasPairs,
    keep: &dyn Fn(usize) -> bool,
    ctx: &str,
) -> CaseResult {
    let vars: Vec<VarId> = (0..program.num_vars()).map(VarId::new).collect();
    for p in program.procs() {
        if !keep(p.index()) {
            continue;
        }
        prop_assert_eq!(
            pairs.pair_count(p),
            rel[p.index()].len() / 2,
            "{}: pair_count({})",
            ctx,
            p
        );
        let keyed: BTreeSet<VarId> = rel[p.index()].iter().map(|&(a, _)| a).collect();
        for &v in &vars {
            let got: Vec<VarId> = pairs.partners_of(p, v).collect();
            let want = oracle_partners(rel, p.index(), v);
            prop_assert_eq!(&got, &want, "{}: partners_of({}, {:?})", ctx, p, v);
            for &w in &keyed {
                prop_assert_eq!(
                    pairs.are_aliased(p, v, w),
                    rel[p.index()].contains(&(v, w)),
                    "{}: are_aliased({}, {:?}, {:?})",
                    ctx,
                    p,
                    v,
                    w
                );
            }
        }
    }
    CaseResult::Pass
}

/// A random set of procedures closed under "callers of": every caller of
/// a member is a member.
fn caller_closed(program: &Program, rng: &mut Rng) -> Vec<bool> {
    let mut closure: Vec<bool> = program.procs().map(|_| rng.gen_bool(0.3)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for s in program.sites() {
            let site = program.site(s);
            if closure[site.callee().index()] && !closure[site.caller().index()] {
                closure[site.caller().index()] = true;
                changed = true;
            }
        }
    }
    closure
}

/// The exhaustive relation and a closure-restricted one against the
/// oracle.
fn check_program(program: &Program, seed: u64, ctx: &str) -> CaseResult {
    let rel = oracle(program);
    let full = AliasPairs::compute(program);
    match check_relation(program, &rel, &full, &|_| true, ctx) {
        CaseResult::Pass => {}
        other => return other,
    }
    let closure = caller_closed(program, &mut Rng::seed_from_u64(seed));
    let demand = AliasPairs::compute_closure(program, &closure);
    check_relation(
        program,
        &rel,
        &demand,
        &|p| closure[p],
        &format!("{ctx} closure"),
    )
}

fn expect_pass(result: CaseResult) {
    match result {
        CaseResult::Pass => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn oracle_matches_on_all_small_topologies() {
    let mut nested = 0usize;
    for n in 1..=3usize {
        let slots = edge_slots(n, true);
        for mask in 0..(1u64 << slots.len()) {
            let edges = edges_of(&slots, mask);
            let ctx = format!("n={n} mask={mask:#x}");
            expect_pass(check_program(
                &flat_program(n, &edges),
                mask,
                &format!("flat {ctx}"),
            ));
            expect_pass(check_program(
                &binding_program(n, &edges),
                mask,
                &format!("binding {ctx}"),
            ));
            if let Some(program) = nested_program(n, &edges) {
                nested += 1;
                expect_pass(check_program(&program, mask, &format!("nested {ctx}")));
            }
        }
    }
    assert!(nested > 0, "some nested instances must be valid");
}

#[test]
fn oracle_sees_pairs_the_worklist_must_find() {
    // call p(g, g) → p: call q(x, y); the chain and the formal–visible
    // rule both fire, so an empty relation cannot pass.
    let mut b = modref_ir::ProgramBuilder::new();
    let g = b.global("g");
    let q = b.proc_("q", &["u", "v"]);
    let p = b.proc_("p", &["x", "y"]);
    b.call(p, q, &[b.formal(p, 0), b.formal(p, 1)]);
    let main = b.main();
    b.call(main, p, &[g, g]);
    let program = b.finish().expect("valid");
    let rel = oracle(&program);
    assert!(rel[q.index()].contains(&(b.formal(q, 0), b.formal(q, 1))));
    assert!(rel[q.index()].contains(&(b.formal(q, 1), g)));
    expect_pass(check_program(&program, 1, "chain"));
}

property! {
    #![cases = 24]

    fn oracle_matches_on_generated_pascal(
        seed in any_u64(),
        n in ints(2..61usize),
    ) {
        let program = generate(&GenConfig::pascal_like(n, 4), seed);
        match check_program(&program, seed, &format!("pascal_like({n}, 4) seed {seed}")) {
            CaseResult::Pass => {}
            other => return other,
        }
    }

    fn oracle_matches_on_generated_binding_heavy(
        seed in any_u64(),
        n in ints(2..41usize),
        params in ints(1..4usize),
    ) {
        let program = generate(&GenConfig::binding_heavy(n, params), seed);
        match check_program(&program, seed, &format!("binding_heavy({n}, {params}) seed {seed}")) {
            CaseResult::Pass => {}
            other => return other,
        }
    }
}
