//! Fault and budget coverage of the incremental apply path.
//!
//! Three contracts, mirroring the batch pipeline's (`modref-core`'s
//! `guarded` suite) at every new checkpoint site:
//!
//! 1. an armed fault (injected panic) or exhausted budget yields
//!    [`IncrOutcome::Degraded`], never an escaped panic or a hang;
//! 2. the degraded sets are **sound**: the exact sets of the edited
//!    program are subsets of everything the engine reports;
//! 3. the cache is left coherent — the failed apply drops it, and the
//!    next clean apply is again bit-identical to a from-scratch run.

use modref_core::{Analyzer, Budget, FaultPlan, Guard, Interrupt};
use modref_incr::{Edit, IncrDegradeReason, IncrOutcome, IncrementalEngine};
use modref_ir::{Actual, Expr, ProcId, Program, VarId};
use modref_progen::{generate, GenConfig};

/// Fault-injection sites every apply path checkpoints (set-local, patch,
/// and full rebuild alike).
const INCR_SITES: [&str; 7] = [
    "incr",
    "incr.local",
    "incr.rmod",
    "incr.plus",
    "incr.gmod",
    "incr.gmod.sweep",
    "incr.final",
];

/// Sites only the structural-patch path reaches — inside the dynamic
/// condensation maintenance itself.
const PATCH_SITES: [&str; 2] = ["incr.dyncond", "incr.gmod.patch"];

fn demo_program(seed: u64) -> Program {
    generate(&GenConfig::tiny(10, 3), seed)
}

/// A `set-local` edit that perturbs the first procedure after main, built
/// against the engine's current program so it always validates.
fn perturbing_edit(program: &Program) -> Edit {
    let p = program.procs().nth(1).expect("generated programs have procs");
    let mods: Vec<VarId> = program
        .visible_set(p)
        .iter()
        .map(VarId::new)
        .filter(|&v| program.var(v).rank() == 0)
        .take(2)
        .collect();
    Edit::SetLocalEffects {
        proc_: p,
        mods,
        uses: vec![],
    }
}

/// A *structural* edit (a new call with by-value actuals) that keeps the
/// variable universe and every id, so it takes the dynamic-condensation
/// patch path when a cache is present.
fn structural_edit(program: &Program) -> Edit {
    let callee = program
        .procs()
        .find(|&p| p != ProcId::MAIN && program.proc_(p).parent() == Some(ProcId::MAIN))
        .expect("generated programs have top-level procedures");
    let args: Vec<Actual> = program
        .proc_(callee)
        .formals()
        .iter()
        .map(|_| Actual::Value(Expr::constant(1)))
        .collect();
    Edit::AddCallSite {
        caller: ProcId::MAIN,
        callee,
        args,
    }
}

/// `exact ⊆ reported` for everything the engine exposes, against the
/// scratch pipeline.
fn assert_superset(engine: &IncrementalEngine, ctx: &str) {
    let program = engine.program();
    let exact = Analyzer::new().analyze(program);
    for p in program.procs() {
        assert!(
            exact.gmod(p).is_subset(engine.gmod(p)),
            "{ctx}: GMOD({p}) lost bits: exact {:?} ⊄ reported {:?}",
            exact.gmod(p),
            engine.gmod(p)
        );
        assert!(
            exact.guse(p).is_subset(engine.guse(p)),
            "{ctx}: GUSE({p}) lost bits"
        );
        assert!(
            exact.rmod(p).is_subset(engine.rmod(p)),
            "{ctx}: RMOD({p}) lost bits"
        );
        assert!(
            exact.imod_plus(p).is_subset(engine.imod_plus(p)),
            "{ctx}: IMOD+({p}) lost bits"
        );
    }
    for s in program.sites() {
        assert!(
            exact.mod_site(s).is_subset(engine.mod_site(s)),
            "{ctx}: MOD({s}) lost bits: exact {:?} ⊄ reported {:?}",
            exact.mod_site(s),
            engine.mod_site(s)
        );
        assert!(
            exact.use_site(s).is_subset(engine.use_site(s)),
            "{ctx}: USE({s}) lost bits"
        );
        assert!(
            exact.dmod_site(s).is_subset(engine.dmod_site(s)),
            "{ctx}: DMOD({s}) lost bits"
        );
    }
}

/// Bit-identity of the engine against scratch (the recovery half of the
/// coherence contract).
fn assert_bit_identical(engine: &IncrementalEngine, ctx: &str) {
    let program = engine.program();
    let exact = Analyzer::new().analyze(program);
    for p in program.procs() {
        assert_eq!(engine.gmod(p), exact.gmod(p), "{ctx}: GMOD({p})");
        assert_eq!(engine.guse(p), exact.guse(p), "{ctx}: GUSE({p})");
        assert_eq!(engine.rmod(p), exact.rmod(p), "{ctx}: RMOD({p})");
    }
    for s in program.sites() {
        assert_eq!(engine.mod_site(s), exact.mod_site(s), "{ctx}: MOD({s})");
        assert_eq!(engine.use_site(s), exact.use_site(s), "{ctx}: USE({s})");
    }
}

#[test]
fn injected_panic_at_every_incr_site_degrades_soundly_and_recovers() {
    for (i, &site) in INCR_SITES.iter().enumerate() {
        let seed = 100 + i as u64;
        let mut engine = IncrementalEngine::new(demo_program(seed));
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("site `{site}`: armed fault must degrade the apply");
        };
        assert!(
            matches!(&reason, IncrDegradeReason::Panic(m) if m.contains(site)),
            "site `{site}`: unexpected degrade reason {reason}"
        );
        assert!(engine.stats().degraded, "site `{site}`: stats must say so");
        // Sound over-approximation of the *edited* program.
        assert_superset(&engine, &format!("fault at `{site}`"));
        // Cache coherence: the next clean apply rebuilds and is exact.
        let next = perturbing_edit(engine.program());
        let outcome = engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit");
        assert!(
            matches!(outcome, IncrOutcome::Clean(_)),
            "site `{site}`: clean apply after a fault must succeed"
        );
        assert!(
            engine.stats().full_rebuild,
            "site `{site}`: the post-fault apply must rebuild from scratch"
        );
        assert!(!engine.stats().degraded, "site `{site}`: recovered");
        assert_bit_identical(&engine, &format!("recovery after `{site}`"));
    }
}

#[test]
fn batch_phase_sites_never_fire_inside_an_apply() {
    // The engine reuses batch kernels (equation (5) among them) but names
    // its own checkpoints: a fault armed at a batch pipeline phase site
    // must not reach a set-local apply.
    for site in ["rmod", "imod_plus", "gmod", "dmod", "modsets"] {
        let mut engine = IncrementalEngine::new(demo_program(400));
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        assert!(
            matches!(outcome, IncrOutcome::Clean(_)),
            "batch site `{site}` fired inside an incremental apply"
        );
        assert_bit_identical(&engine, &format!("fault armed at `{site}`"));
    }
}

#[test]
fn injected_panic_inside_patch_path_degrades_soundly_and_recovers() {
    // `incr.dyncond` / `incr.gmod.patch` only fire on the structural-patch
    // path, which needs a live cache — so fault a *structural* edit right
    // after the initial build.
    for (i, &site) in PATCH_SITES.iter().enumerate() {
        let seed = 300 + i as u64;
        let mut engine = IncrementalEngine::new(demo_program(seed));
        let edit = structural_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at(site));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        let IncrOutcome::Degraded { reason } = outcome else {
            panic!("site `{site}`: armed fault must degrade the apply");
        };
        assert!(
            matches!(&reason, IncrDegradeReason::Panic(m) if m.contains(site)),
            "site `{site}`: unexpected degrade reason {reason}"
        );
        // Sound over-approximation of the edited (call-added) program.
        assert_superset(&engine, &format!("fault at `{site}`"));
        // Recovery: the next clean apply rebuilds from scratch…
        let next = perturbing_edit(engine.program());
        match engine
            .apply_guarded(&next, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("site `{site}`: clean apply degraded: {reason}")
            }
        }
        assert!(engine.stats().full_rebuild, "site `{site}`: must rebuild");
        assert_bit_identical(&engine, &format!("recovery after `{site}`"));
        // …and the rebuilt cache is again *patchable*: a further
        // structural edit succeeds incrementally and stays exact.
        let again = structural_edit(engine.program());
        match engine
            .apply_guarded(&again, &Guard::unlimited())
            .expect("valid edit")
        {
            IncrOutcome::Clean(_) => {}
            IncrOutcome::Degraded { reason } => {
                panic!("site `{site}`: patch apply degraded: {reason}")
            }
        }
        assert!(
            !engine.stats().full_rebuild,
            "site `{site}`: the rebuilt cache must be reusable"
        );
        assert_bit_identical(&engine, &format!("patch after recovery `{site}`"));
    }
}

#[test]
fn zero_budget_apply_degrades_soundly_and_recovers() {
    let mut engine = IncrementalEngine::new(demo_program(7));
    let edit = perturbing_edit(engine.program());
    let guard = Guard::new(&Budget::unlimited().with_ops(0));
    let outcome = engine
        .apply_guarded(&edit, &guard)
        .expect("the edit itself is valid");
    let IncrOutcome::Degraded { reason } = outcome else {
        panic!("zero budget must degrade the apply");
    };
    assert!(
        matches!(
            reason,
            IncrDegradeReason::Interrupted(Interrupt::BitvecBudget | Interrupt::BoolBudget)
        ),
        "unexpected degrade reason {reason}"
    );
    assert_superset(&engine, "zero-budget");
    let next = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&next, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, "recovery after zero-budget");
}

#[test]
fn rejected_edit_under_guard_is_a_no_op() {
    let mut engine = IncrementalEngine::new(demo_program(11));
    let before: Vec<_> = engine.gmod_all().to_vec();
    let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at("incr"));
    // Removing main is rejected before any recomputation starts, so the
    // armed fault never fires and nothing changes.
    let err = engine
        .apply_guarded(
            &Edit::RemoveProcedure {
                proc_: modref_ir::ProcId::MAIN,
            },
            &guard,
        )
        .expect_err("removing main is rejected");
    assert!(matches!(err, modref_incr::EditError::RemoveMain));
    assert_eq!(engine.gmod_all(), &before[..]);
    assert!(!engine.stats().degraded);
    assert_bit_identical(&engine, "after rejected edit");
}

#[test]
fn faults_keep_firing_across_consecutive_applies() {
    // Two faulted applies in a row: the second must behave exactly like
    // the first (degraded, sound), not trip over the poisoned state.
    let mut engine = IncrementalEngine::new(demo_program(23));
    for round in 0..2 {
        let edit = perturbing_edit(engine.program());
        let guard = Guard::unlimited().with_faults(FaultPlan::new().panic_at("incr.gmod"));
        let outcome = engine
            .apply_guarded(&edit, &guard)
            .expect("the edit itself is valid");
        assert!(
            outcome.is_degraded(),
            "round {round}: armed fault must degrade"
        );
        assert_superset(&engine, &format!("round {round}"));
    }
    let edit = perturbing_edit(engine.program());
    match engine
        .apply_guarded(&edit, &Guard::unlimited())
        .expect("valid edit")
    {
        IncrOutcome::Clean(_) => {}
        IncrOutcome::Degraded { reason } => panic!("clean apply degraded: {reason}"),
    }
    assert_bit_identical(&engine, "recovery after repeated faults");
}
