//! The modref benchmark. See NOTES.md for the workloads, the metrics and
//! the layer → metric → workload map.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flat_batch|nested_batch|served_session \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones and writes a Chrome trace under
//! `.bench_out/`. Every line is stamped with the workload and seed except
//! the last, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every reference check passed.
//!
//! `BENCHMARK.json` lists `flat_batch` and `served_session`. `nested_batch`
//! runs by hand only: its figures swing too far between runs for a bound
//! (NOTES.md, "Steadiness").

mod batch;
mod layers;
mod served;
mod stats;
mod traced;
mod traffic;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use modref_incr::EditGen;
use modref_ir::{Edit, Program};
use modref_progen::GenConfig;

use crate::stats::Tally;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One named metric of a run.
pub struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
}

impl Metric {
    /// A metric; `None` when the run could not measure it.
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one run reports.
pub struct Report {
    /// `false` when any output disagreed with its reference.
    pub correct: bool,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Extra information lines (sizes, counts, sample sizes).
    pub notes: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FlatBatch,
    NestedBatch,
    ServedSession,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "flat_batch" => Some(Workload::FlatBatch),
            "nested_batch" => Some(Workload::NestedBatch),
            "served_session" => Some(Workload::ServedSession),
            _ => None,
        }
    }

    /// The generator configuration. Flat programs are the paper's §1 cost
    /// model (globals ∝ procedures); the nested one makes the §5 alias
    /// closure the dominant phase.
    fn config(self) -> GenConfig {
        match self {
            Workload::FlatBatch | Workload::ServedSession => GenConfig::fortran_like(1000),
            Workload::NestedBatch => GenConfig::pascal_like(500, 4),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_owned()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = workload.ok_or("--workload is required")?;
        let seconds = seconds.unwrap_or(10);
        if seconds == 0 {
            return Err("--seconds must be positive".to_owned());
        }
        Ok(Args {
            workload: Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?,
            name,
            seed: seed.unwrap_or(42),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The progen seed of every workload's base program: the programs the
/// repository's measured shares were taken on. Progen seeds alone move the
/// cost of `pascal_like(500, 4)` threefold (its alias pairs vary that
/// much), far beyond any usable regression bound, so the run seed varies
/// the program by edits instead (see [`generate`]).
pub const PROGEN_SEED: u64 = 42;

/// Seeded edits applied to the base program in set-up.
pub const SEEDED_EDITS: usize = 32;

/// Set-up: generates the workload's base program, applies
/// [`SEEDED_EDITS`] `set-local` edits drawn from `seed`, and prints it to
/// MiniProc text. Returns the program, its text and the generator's own
/// time in ms. Every seed gives its own program text and answers, while
/// the call structure — and with it the alias closure, the dominant cost
/// of the nested workload — stays that of the base program.
pub fn generate(config: &GenConfig, seed: u64) -> (Program, String, f64) {
    let t = Instant::now();
    let mut program = modref_progen::generate(config, PROGEN_SEED);
    let generate_ms = stats::ms(t.elapsed());
    let mut edits = EditGen::new(seed);
    let mut applied = 0;
    while applied < SEEDED_EDITS {
        let edit = edits.next_edit(&program);
        if !matches!(edit, Edit::SetLocalEffects { .. }) {
            continue;
        }
        program = program
            .apply_edit(&edit)
            .expect("a set-local edit of visible scalars always applies")
            .0;
        applied += 1;
    }
    let text = program.to_source();
    (program, text, generate_ms)
}

/// Builds the release `modref` binary from the checkout and returns its
/// path. Every run does this, so the first run of any workload pays for
/// the build and later ones find it fresh.
fn build_cli() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "modref-cli",
            "--bin",
            "modref",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building modref failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    Ok(target.join("release").join("modref"))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stamp = format!("[{} seed={}]", args.name, args.seed);
    // The program runs on its defaults: one thread, no injected faults.
    for var in served::PROGRAM_ENV {
        std::env::remove_var(var);
    }
    let threads = modref_par::ThreadPool::with_threads(None).threads();
    let window = Duration::from_secs(args.seconds);
    let config = args.workload.config();
    let result = build_cli().and_then(|bin| match (args.workload, args.trace) {
        (Workload::ServedSession, false) => served::run(&bin, &config, args.seed, window),
        (_, false) => batch::run(&config, args.seed, window),
        (_, true) => traced::run(&bin, &config, &args.name, args.seed, window),
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{stamp} error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{stamp} threads={threads} seconds={}", args.seconds);
    for note in &report.notes {
        println!("{stamp} {note}");
    }
    let mut json = Vec::new();
    for m in &report.metrics {
        match m.value {
            Some(v) if v.is_finite() => {
                println!("{stamp} {} = {v} {}", m.name, m.unit);
                json.push(format!(
                    "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                    m.name, m.unit
                ));
            }
            _ => println!("{stamp} {} = unmeasured ({})", m.name, m.unit),
        }
    }
    println!(
        "{stamp} attempted={} failed={} failed_frac={}",
        report.tally.attempted(),
        report.tally.failed(),
        report.tally.failed_frac()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.tally.attempted(),
        report.tally.failed(),
        json.join(",")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
