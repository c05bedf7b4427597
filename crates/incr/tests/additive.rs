//! Additive local-effect edits — a procedure keeps every effect it had and
//! gains one more — applied through the incremental engine. Each case
//! checks the sets the edit must flip and then bit-identity with a
//! from-scratch analysis of the edited program.

use modref_core::Analyzer;
use modref_incr::{Edit, EditError, IncrDelta, IncrementalEngine};
use modref_ir::{flat_effects_of, ProcId, Program, VarId};
use modref_progen::{generate, GenConfig};

fn parse(source: &str) -> Program {
    modref_frontend::parse_program(source).expect("parses")
}

fn proc_named(program: &Program, name: &str) -> ProcId {
    program
        .procs()
        .find(|&p| program.proc_name(p) == name)
        .expect("procedure exists")
}

fn var_named(program: &Program, name: &str) -> VarId {
    program
        .vars()
        .find(|&v| program.var_name(v) == name)
        .expect("variable exists")
}

/// `p`'s current local effects plus a write (or read) of `v`.
fn additive(program: &Program, p: ProcId, v: VarId, write: bool) -> Edit {
    let (flat_mod, flat_use) = flat_effects_of(program, p);
    let mut mods: Vec<VarId> = flat_mod.iter().map(VarId::new).collect();
    let mut uses: Vec<VarId> = flat_use.iter().map(VarId::new).collect();
    if write {
        mods.push(v);
    } else {
        uses.push(v);
    }
    Edit::SetLocalEffects {
        proc_: p,
        mods,
        uses,
    }
}

fn add_write(engine: &mut IncrementalEngine, p: ProcId, v: VarId) -> IncrDelta {
    let edit = additive(engine.program(), p, v, true);
    engine.apply(&edit).expect("edit applies")
}

fn assert_matches_full(engine: &IncrementalEngine) {
    let program = engine.program();
    let full = Analyzer::new().analyze(program);
    for p in program.procs() {
        assert_eq!(engine.gmod(p), full.gmod(p), "GMOD at {p}");
        assert_eq!(engine.guse(p), full.guse(p), "GUSE at {p}");
        assert_eq!(engine.rmod(p), full.rmod(p), "RMOD at {p}");
        assert_eq!(engine.imod_plus(p), full.imod_plus(p), "IMOD+ at {p}");
    }
    for s in program.sites() {
        assert_eq!(engine.mod_site(s), full.mod_site(s), "MOD at {s}");
        assert_eq!(engine.use_site(s), full.use_site(s), "USE at {s}");
    }
}

#[test]
fn global_write_propagates_up() {
    let program = parse(
        "var g, h;
         proc leaf() { g = 1; }
         proc mid() { call leaf(); }
         main { call mid(); }",
    );
    let h = var_named(&program, "h");
    let leaf = proc_named(&program, "leaf");
    let mut engine = IncrementalEngine::new(program);
    let delta = add_write(&mut engine, leaf, h);
    assert_eq!(delta.changed_procs.len(), 3);
    assert_eq!(delta.changed_sites.len(), 2);
    assert_matches_full(&engine);
}

#[test]
fn formal_write_flips_rmod_and_callers() {
    let program = parse(
        "var g;
         proc sink(y) { print y; }
         proc mid(x) { call sink(x); }
         main { call mid(g); }",
    );
    let sink = proc_named(&program, "sink");
    let mid = proc_named(&program, "mid");
    let y = program.proc_(sink).formals()[0];
    let x = program.proc_(mid).formals()[0];
    let g = var_named(&program, "g");

    let mut engine = IncrementalEngine::new(program);
    assert!(!engine.rmod(sink).contains(y.index()));
    add_write(&mut engine, sink, y);
    // RMOD flipped for sink AND (via β) for mid; g lands in GMOD(main).
    assert!(engine.rmod(sink).contains(y.index()));
    assert!(engine.rmod(mid).contains(x.index()));
    assert!(engine.gmod(ProcId::MAIN).contains(g.index()));
    assert_matches_full(&engine);
}

#[test]
fn out_of_scope_edit_is_rejected() {
    let program = parse(
        "proc p() { var t; t = 1; }
         proc q() { }
         main { call p(); call q(); }",
    );
    let p = proc_named(&program, "p");
    let t = program.proc_(p).locals()[0];
    let q = proc_named(&program, "q");
    let mut engine = IncrementalEngine::new(program);
    let edit = additive(engine.program(), q, t, true);
    let err = engine.apply(&edit).expect_err("t is not visible in q");
    assert!(matches!(err, EditError::Invalid(_)));
    assert_matches_full(&engine);
}

#[test]
fn random_edit_sequences_match_full_reanalysis() {
    for seed in 0..12u64 {
        let program = generate(&GenConfig::tiny(8, 3), seed);
        let Some(g) = program
            .vars()
            .find(|&v| program.var(v).is_global() && program.var(v).rank() == 0)
        else {
            continue;
        };
        let procs: Vec<ProcId> = program.procs().collect();
        let mut engine = IncrementalEngine::new(program);
        // Each of the first procedures gains a write or a read of g.
        for (k, &p) in procs.iter().enumerate().take(4) {
            let edit = additive(engine.program(), p, g, k % 2 == 0);
            engine.apply(&edit).expect("edit applies");
        }
        assert_matches_full(&engine);
    }
}

#[test]
fn nested_edit_respects_the_section_3_3_extension() {
    let program = parse(
        "proc outer() {
           var t;
           proc inner() { }
           call inner();
           print t;
         }
         main { call outer(); }",
    );
    let outer = proc_named(&program, "outer");
    let inner = proc_named(&program, "inner");
    let t = program.proc_(outer).locals()[0];
    let mut engine = IncrementalEngine::new(program);
    add_write(&mut engine, inner, t);
    assert!(engine.gmod(inner).contains(t.index()));
    assert!(engine.gmod(outer).contains(t.index()));
    assert!(!engine.gmod(ProcId::MAIN).contains(t.index()));
    assert_matches_full(&engine);
}
