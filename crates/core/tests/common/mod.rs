//! The enumerated small-world corpus shared by the exhaustive solver
//! wall and the alias oracle: every call multi-graph over a few
//! procedures, in three body/binding configurations.

use modref_ir::{Expr, Program, ProgramBuilder};

/// All directed edge slots among `n` procedures (ordered pairs), with or
/// without self-loops.
pub fn edge_slots(n: usize, self_loops: bool) -> Vec<(usize, usize)> {
    let mut slots = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if self_loops || i != j {
                slots.push((i, j));
            }
        }
    }
    slots
}

/// The edges selected by `mask` over `slots`.
pub fn edges_of(slots: &[(usize, usize)], mask: u64) -> Vec<(usize, usize)> {
    slots
        .iter()
        .enumerate()
        .filter(|&(k, _)| mask & (1 << k) != 0)
        .map(|(_, &e)| e)
        .collect()
}

/// Flat configuration: `n` parameterless procedures, each writing its own
/// global; edge `(i, j)` is a no-argument call `pi → pj`.
pub fn flat_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &[])).collect();
    for (i, &p) in procs.iter().enumerate() {
        b.assign(p, globals[i], Expr::constant(1));
    }
    let main = b.main();
    for &p in &procs {
        b.call(main, p, &[]);
    }
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[]);
    }
    b.finish().expect("flat instances are always valid")
}

/// Binding configuration: each procedure takes one reference formal and
/// writes it; edge `(i, j)` passes `pi`'s formal on to `pj`, so `RMOD`
/// must chase bindings through every cycle shape the mask encodes.
pub fn binding_program(n: usize, edges: &[(usize, usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let procs: Vec<_> = (0..n).map(|i| b.proc_(&format!("p{i}"), &["x"])).collect();
    for (i, &p) in procs.iter().enumerate() {
        // Only the *last* of the n procedures writes its formal: a mod
        // bit must travel the binding chain to be observed at all, which
        // is what distinguishes the graph shapes from one another.
        if i == n - 1 {
            b.assign(p, b.formal(p, 0), Expr::constant(1));
        }
    }
    let main = b.main();
    for (i, &p) in procs.iter().enumerate() {
        b.call(main, p, &[globals[i]]);
    }
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[b.formal(procs[i], 0)]);
    }
    b.finish().expect("binding instances are always valid")
}

/// Nested configuration: a lexical chain `main ⊃ p0 ⊃ p1 ⊃ …`, each
/// procedure writing one global and one local. Edges that violate
/// nesting visibility make the instance invalid — those are skipped, and
/// the test asserts the valid count so a validator regression (suddenly
/// rejecting or accepting everything) cannot pass silently.
pub fn nested_program(n: usize, edges: &[(usize, usize)]) -> Option<Program> {
    let mut b = ProgramBuilder::new();
    let globals: Vec<_> = (0..n).map(|i| b.global(&format!("g{i}"))).collect();
    let mut procs = Vec::with_capacity(n);
    let mut parent = b.main();
    for i in 0..n {
        let p = b.nested_proc(parent, &format!("p{i}"), &[]);
        procs.push(p);
        parent = p;
    }
    for (i, &p) in procs.iter().enumerate() {
        b.assign(p, globals[i], Expr::constant(1));
    }
    let main = b.main();
    b.call(main, procs[0], &[]);
    for &(i, j) in edges {
        b.call(procs[i], procs[j], &[]);
    }
    b.finish().ok()
}
