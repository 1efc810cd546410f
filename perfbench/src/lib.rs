//! # llva-perfbench — the repository benchmark
//!
//! One command drives three workloads through the LLVA stack's public
//! entry points and prints every end-to-end metric by name and unit
//! (`--trace 0`), or the per-layer metrics of a traced run (`--trace 1`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

pub mod compare;
pub mod json;
pub mod kernel;
pub mod rng;
pub mod serve;
pub mod serve_churn;
pub mod serve_exec;
pub mod stats;
pub mod toolchain;
pub mod trace;

use std::fmt::Write as _;
use std::time::Instant;

use crate::trace::Tracer;

/// Set-up is repeated this many times per run and its median reported,
/// so that `setup_s` is steady.
pub const SETUP_REPEATS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve-exec", "serve-churn", "toolchain"];

/// The end-to-end metrics, `(name, unit)` in `BENCHMARK.json` order.
/// Every workload prints all of them with `--trace 0`, each taken over the
/// workload's own operation: a `Call` (serve-exec), a module `Load`
/// (serve-churn), or one program compiled, translated and run (toolchain).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")];

/// The per-layer metrics, `(name, unit)` in `BENCHMARK.json` order. Every
/// traced run prints all of them; a layer the workload's operations never
/// reach prints 0 (no time spent, nothing counted there), and a note
/// names those layers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.wire_call_p50_ms", "ms"),
    ("serve.service_call_p50_ms", "ms"),
    ("engine.supervisor_call_p50_ms", "ms"),
    ("engine.manager_new_ms", "ms"),
    ("machine.sim_mips.x86", "MIPS"),
    ("engine.tier_served.translated", "count"),
    ("engine.tier_served.traced", "count"),
    ("engine.tier_served.fast-interp", "count"),
    ("engine.tier_served.interp", "count"),
    ("engine.translate_hits", "count"),
    ("engine.translate_misses", "count"),
    ("engine.image_hits", "count"),
    ("engine.translate_hit_ratio", "ratio"),
    ("engine.tier_faults", "count"),
    ("serve.calls_degraded", "count"),
    ("serve.rejected", "count"),
    ("serve.session_open_ms", "ms"),
    ("serve.service_load_cold_p50_ms", "ms"),
    ("serve.service_load_warm_p50_ms", "ms"),
    ("serve.wire_load_p50_ms", "ms"),
    ("serve.load_cold_p50_ms", "ms"),
    ("serve.load_warm_p50_ms", "ms"),
    ("core.parse_ms", "ms"),
    ("engine.image_attach_us", "us"),
    ("engine.image_build_ms", "ms"),
    ("engine.predecode_ms", "ms"),
    ("engine.translate_ms.x86", "ms"),
    ("engine.translate_ms.sparc", "ms"),
    ("engine.translate_ms.riscv", "ms"),
    ("minic.compile_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.bytecode_encode_ms", "ms"),
    ("core.bytecode_decode_ms", "ms"),
    ("opt.pipeline_ms", "ms"),
    ("opt.internalize_ms", "ms"),
    ("opt.inline_ms", "ms"),
    ("opt.globaldce_ms", "ms"),
    ("opt.mem2reg_ms", "ms"),
    ("opt.constfold_ms", "ms"),
    ("opt.licm_ms", "ms"),
    ("opt.gvn_ms", "ms"),
    ("opt.loadelim_ms", "ms"),
    ("opt.dce_ms", "ms"),
    ("opt.simplifycfg_ms", "ms"),
    ("opt.internalize_applied", "count"),
    ("opt.inline_applied", "count"),
    ("opt.globaldce_applied", "count"),
    ("opt.mem2reg_applied", "count"),
    ("opt.constfold_applied", "count"),
    ("opt.licm_applied", "count"),
    ("opt.gvn_applied", "count"),
    ("opt.loadelim_applied", "count"),
    ("opt.dce_applied", "count"),
    ("opt.simplifycfg_applied", "count"),
    ("opt.insts_after", "insts"),
    ("backend.native_insts.x86", "insts"),
    ("backend.native_insts.sparc", "insts"),
    ("backend.native_insts.riscv", "insts"),
    ("backend.x86_spills", "count"),
    ("backend.native_bytes", "bytes"),
    ("machine.cycles.x86", "cycles"),
    ("machine.cycles.sparc", "cycles"),
    ("machine.cycles.riscv", "cycles"),
    ("machine.insts.x86", "insts"),
    ("machine.insts.sparc", "insts"),
    ("machine.insts.riscv", "insts"),
    ("engine.visa_insts", "insts"),
    ("engine.fast_interp_mips", "MIPS"),
    ("remainder_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Threads the benchmark runs its own work on (clients, workers, set-up):
/// one per core, at most two. Spread over both cores, a run's times move
/// less with the speed of any one core of a shared host.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// `f` over `items` on [`threads`] scoped threads (item `i` on thread
/// `i % threads()`), results in item order.
///
/// # Panics
///
/// When `f` panics.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = threads();
    let f = &f;
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|k| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(n)
                        .map(|(i, t)| (i, f(t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Whole rounds every timed phase completes however short `--seconds` is
/// (in a traced run: in each half).
pub const MIN_ROUNDS: usize = 3;

/// A timed phase in whole rounds: it lasts `--seconds` and at least
/// [`MIN_ROUNDS`] rounds. A traced run records spans only in its second
/// half, so the first half measures the same operations untraced.
#[derive(Debug)]
pub struct Timed {
    start: Instant,
    seconds: f64,
    trace: bool,
    rounds: usize,
    untraced: usize,
}

impl Timed {
    /// Starts the phase now.
    #[must_use]
    pub fn start(args: &RunArgs) -> Timed {
        Timed {
            start: Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            rounds: 0,
            untraced: 0,
        }
    }

    /// Called before each round: turns `tracer` on at half time of a
    /// traced run, and answers whether another round is due.
    pub fn next_round(&mut self, tracer: &mut Tracer) -> bool {
        let elapsed = self.elapsed();
        if self.trace
            && !tracer.enabled()
            && elapsed >= self.seconds / 2.0
            && self.rounds >= MIN_ROUNDS
        {
            tracer.set_enabled(true);
            self.untraced = self.rounds;
        }
        let enough = if self.trace {
            tracer.enabled() && self.rounds - self.untraced >= MIN_ROUNDS
        } else {
            self.rounds >= MIN_ROUNDS
        };
        if elapsed >= self.seconds && enough {
            return false;
        }
        self.rounds += 1;
        true
    }

    /// Seconds since the phase started.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One run's arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl RunArgs {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message for a missing, unknown or malformed argument.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    });
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload} (one of {WORKLOADS:?})"
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Runs one workload.
#[must_use]
pub fn run(args: &RunArgs) -> Report {
    let mut report = match args.workload.as_str() {
        "serve-exec" => serve_exec::run(args),
        "serve-churn" => serve_churn::run(args),
        _ => toolchain::run(args),
    };
    report.finish(args.trace);
    report
}

/// What a run prints: its operation accounting, metrics and notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// False when set-up broke or a check could not be made at all.
    pub broken: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// A report for a run that could not be carried out.
    #[must_use]
    pub fn broken(why: &str) -> Report {
        Report {
            broken: true,
            notes: vec![why.to_string()],
            ..Report::default()
        }
    }

    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation (after its [`Report::attempt`]).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Puts the metrics in manifest order and makes the set complete: a
    /// traced run gets a 0 for each per-layer metric its workload did not
    /// produce; an end-to-end run that lacks one of its metrics, or any
    /// run with a metric outside its list, is broken (a benchmark bug).
    pub fn finish(&mut self, trace: bool) {
        if self.broken {
            self.metrics.clear();
            return;
        }
        let wanted: &[(&str, &str)] = if trace { PER_LAYER } else { &END_TO_END };
        let mut ordered = Vec::with_capacity(wanted.len());
        let mut absent = Vec::new();
        for &(name, unit) in wanted {
            match self.metrics.iter().position(|(n, _, _)| n == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None if trace => {
                    absent.push(name);
                    ordered.push((name.to_string(), 0.0, unit.to_string()));
                }
                None => {
                    self.broken = true;
                    self.notes
                        .push(format!("end-to-end metric {name} not measured"));
                }
            }
        }
        for (name, _, _) in &self.metrics {
            self.broken = true;
            self.notes
                .push(format!("metric {name} is not in the manifest"));
        }
        if !absent.is_empty() {
            self.notes.push(format!(
                "off this workload's path, printed as 0: {}",
                absent.join(", ")
            ));
        }
        self.metrics = ordered;
    }

    /// Adds a note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Merges another report's accounting and notes into this one.
    pub fn absorb(&mut self, other: Report) {
        self.broken |= other.broken;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        !self.broken && self.failed == 0 && self.attempted > 0
    }

    /// The report as printed: notes, a metric table, then the JSON line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "# {line}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<36} {value:>18.6} {unit}");
        }
        let _ = writeln!(
            out,
            "# operations: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}
