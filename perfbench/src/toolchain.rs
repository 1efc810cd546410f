//! The `toolchain` workload: the 17 Table 2 programs go from minic
//! source through the link-time pipeline, bytecode encode and decode,
//! and translation for x86, SPARC and RISC-V; each then runs once on the
//! three simulators and, every round, on the `FastInterpreter`. The serve
//! layer is not involved. The timed phase runs one worker per core (at
//! most two), like a parallel build; an operation is one program
//! compiled, translated and run.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use llva_backend::{compile_x86, spill_count};
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_engine::{ExecutionManager, FastInterpreter, Interpreter, PreModule, TargetIsa};
use llva_workloads::Workload;

use crate::rng::Rounds;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Report, RunArgs, Timed, SETUP_REPEATS};

/// Entry points kept external by the link-time pipeline.
const ENTRY_POINTS: [&str; 1] = ["main"];

/// One corpus program with its reference results, made in set-up.
struct Program {
    workload: Workload,
    /// Bytecode of the set-up's link-time-optimised module (the one the
    /// simulators run).
    bytecode: Vec<u8>,
    /// The structural interpreter's value and V-ISA instruction count.
    value: u64,
    insts: u64,
}

/// Set-up: compile every program once and run it on the structural
/// interpreter, the oracle every later result is checked against.
fn setup() -> Result<Vec<Program>, String> {
    crate::par_map(&llva_workloads::all(), prepare)
        .into_iter()
        .collect()
}

/// One program's set-up: its optimised module's bytecode and the
/// structural interpreter's results.
fn prepare(workload: &Workload) -> Result<Program, String> {
    let module = front_end(workload)?;
    let mut oracle = Interpreter::new(&module);
    let value = oracle
        .run("main", &[])
        .map_err(|e| format!("{}: structural interpreter: {e:?}", workload.name))?;
    Ok(Program {
        workload: *workload,
        bytecode: llva_core::bytecode::encode_module(&module),
        value,
        insts: oracle.insts_executed(),
    })
}

/// minic, the link-time pipeline and the verifier, untimed.
fn front_end(workload: &Workload) -> Result<Module, String> {
    let mut module = llva_minic::compile(workload.source, workload.name, TargetConfig::default())
        .map_err(|e| format!("{}: {e}", workload.name))?;
    llva_opt::link_time_pipeline(&ENTRY_POINTS).run(&mut module);
    llva_core::verifier::verify_module(&module).map_err(|e| format!("{}: {e}", workload.name))?;
    Ok(module)
}

/// Per-ISA results of the single simulated run of the corpus.
#[derive(Default, Clone, Copy)]
struct SimTotals {
    cycles: u64,
    insts: u64,
    native_insts: u64,
    native_bytes: u64,
    host_s: f64,
}

/// Per-round stage times, ms, summed over the corpus.
#[derive(Default, Clone)]
struct Round {
    compile: f64,
    translate: f64,
    interp_run: f64,
    minic: f64,
    verify: f64,
    encode: f64,
    pipeline: f64,
    passes: BTreeMap<&'static str, f64>,
    decode: f64,
    manager_new: f64,
    translate_isa: [f64; 3],
    predecode: f64,
    fast_run: f64,
    fast_insts: u64,
    wall: f64,
    /// Each program's compile, translate and run, in round order.
    ops: Vec<f64>,
}

impl Round {
    fn stages(&self) -> f64 {
        self.minic
            + self.pipeline
            + self.verify
            + self.encode
            + self.decode
            + self.manager_new
            + self.translate_isa.iter().sum::<f64>()
            + self.predecode
            + self.fast_run
    }
}

/// Static facts gathered once per run from the timed pipeline's output.
#[derive(Default)]
struct Static {
    applied: BTreeMap<&'static str, u64>,
    insts_after: u64,
}

/// The seeded program order of each round.
#[must_use]
pub fn program_rounds(seed: u64, n: usize) -> Rounds {
    Rounds::new(seed, 0x7001, n)
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new();
    let mut setup_times = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        programs = match setup() {
            Ok(p) => p,
            Err(e) => return Report::broken(&format!("set-up failed: {e}")),
        };
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let visa_insts: u64 = programs.iter().map(|p| p.insts).sum();

    // The simulators run once: their counts are exact.
    let mut sims = [SimTotals::default(); 3];
    let mut spills = 0u64;
    for (run, program_spills, totals) in crate::par_map(&programs, simulate) {
        report.absorb(run);
        spills += program_spills;
        for (sum, t) in sims.iter_mut().zip(totals) {
            sum.cycles += t.cycles;
            sum.insts += t.insts;
            sum.native_insts += t.native_insts;
            sum.native_bytes += t.native_bytes;
            sum.host_s += t.host_s;
        }
    }

    // One worker per core (at most two), each building whole rounds of
    // the corpus in its own seeded order, like a parallel build.
    let origin = Instant::now();
    let outs: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..crate::threads())
            .map(|k| {
                let programs = &programs;
                scope.spawn(move || worker(args, programs, k, origin))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Worker {
                    report: Report::broken("toolchain worker panicked"),
                    ..Worker::default()
                })
            })
            .collect()
    });
    let mut rounds: Vec<Round> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut statics = Static::default();
    let mut tracers = Vec::new();
    let mut end = 0.0f64;
    for (k, w) in outs.into_iter().enumerate() {
        report.absorb(w.report);
        rounds.extend(w.rounds);
        untraced_walls.extend(w.untraced_walls);
        if k == 0 {
            statics = w.statics;
        }
        tracers.extend(w.tracer);
        end = end.max(w.end);
    }
    let med = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let x86 = &sims[0];

    if args.trace {
        report.metric("minic.compile_ms", med(&|r| r.minic), "ms");
        report.metric("core.verify_ms", med(&|r| r.verify), "ms");
        report.metric("core.bytecode_encode_ms", med(&|r| r.encode), "ms");
        report.metric("opt.pipeline_ms", med(&|r| r.pipeline), "ms");
        let pass_names: Vec<&'static str> = llva_opt::link_time_pass_list(&ENTRY_POINTS)
            .iter()
            .map(|p| p.name())
            .collect();
        let mut seen = Vec::new();
        for name in pass_names {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name);
            let ms = med(&|r| r.passes.get(name).copied().unwrap_or(0.0));
            report.metric(&format!("opt.{name}_ms"), ms, "ms");
            let applied = statics.applied.get(name).copied().unwrap_or(0);
            report.metric(&format!("opt.{name}_applied"), applied as f64, "count");
        }
        report.metric("opt.insts_after", statics.insts_after as f64, "insts");
        report.metric("core.bytecode_decode_ms", med(&|r| r.decode), "ms");
        report.metric("engine.manager_new_ms", med(&|r| r.manager_new), "ms");
        for (k, isa) in TargetIsa::ALL.into_iter().enumerate() {
            report.metric(
                &format!("engine.translate_ms.{isa}"),
                med(&|r| r.translate_isa[k]),
                "ms",
            );
        }
        for (k, isa) in TargetIsa::ALL.into_iter().enumerate() {
            report.metric(
                &format!("backend.native_insts.{isa}"),
                sims[k].native_insts as f64,
                "insts",
            );
        }
        report.metric("backend.x86_spills", spills as f64, "count");
        let bytes: u64 = sims.iter().map(|s| s.native_bytes).sum();
        report.metric("backend.native_bytes", bytes as f64, "bytes");
        report.metric("engine.visa_insts", visa_insts as f64, "insts");
        for (k, isa) in TargetIsa::ALL.into_iter().enumerate() {
            report.metric(
                &format!("machine.cycles.{isa}"),
                sims[k].cycles as f64,
                "cycles",
            );
            report.metric(
                &format!("machine.insts.{isa}"),
                sims[k].insts as f64,
                "insts",
            );
        }
        report.metric(
            "machine.sim_mips.x86",
            x86.insts as f64 / x86.host_s.max(1e-9) / 1e6,
            "MIPS",
        );
        report.metric("engine.predecode_ms", med(&|r| r.predecode), "ms");
        let fast_mips = |r: &Round| r.fast_insts as f64 / (r.fast_run / 1e3).max(1e-9) / 1e6;
        report.metric("engine.fast_interp_mips", med(&fast_mips), "MIPS");
        report.metric("remainder_ms", med(&|r| r.wall - r.stages()), "ms");
        let traced_wall = med(&|r| r.wall);
        let untraced_wall = median(&untraced_walls).unwrap_or(traced_wall);
        report.metric(
            "trace.overhead_pct",
            100.0 * (traced_wall - untraced_wall) / untraced_wall.max(1e-9),
            "%",
        );
        report.note(format!(
            "rounds: {} traced, {} untraced; spans recorded: {}",
            rounds.len(),
            untraced_walls.len(),
            tracers.iter().map(|t| t.spans().len()).sum::<usize>()
        ));
        let refs: Vec<&Tracer> = tracers.iter().collect();
        match crate::trace::write_out("toolchain", args.seed, &refs) {
            Ok(path) => report.note(format!("spans written to {path}")),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    } else {
        // an operation is one program compiled, translated and run
        let ops: Vec<f64> = rounds.iter().flat_map(|r| r.ops.iter().copied()).collect();
        report.metric("setup_s", median(&setup_times).unwrap_or(0.0), "s");
        report.metric("op_p50_ms", percentile(&ops, 50.0).unwrap_or(0.0), "ms");
        report.metric("op_p90_ms", percentile(&ops, 90.0).unwrap_or(0.0), "ms");
        let cycles: u64 = sims.iter().map(|s| s.cycles).sum();
        let bytes: u64 = sims.iter().map(|s| s.native_bytes).sum();
        report.note(format!(
            "Table 2 counts: {cycles} simulated cycles and {bytes} native bytes over three \
             ISAs, {visa_insts} V-ISA instructions executed"
        ));
        report.note(format!(
            "{} rounds of {} programs from {} workers in {end:.3} s ({:.3} programs/s; \
             op_p90_ms over {} samples); per-round medians: compile {:.3} ms, \
             translate {:.3} ms, interp_run {:.3} ms",
            rounds.len(),
            programs.len(),
            crate::threads(),
            ops.len() as f64 / end.max(1e-9),
            ops.len(),
            med(&|r| r.compile),
            med(&|r| r.translate),
            med(&|r| r.interp_run)
        ));
    }
    report
}

/// What one worker returns.
#[derive(Default)]
struct Worker {
    report: Report,
    rounds: Vec<Round>,
    untraced_walls: Vec<f64>,
    statics: Static,
    tracer: Option<Tracer>,
    end: f64,
}

/// One program on the three simulators, each checked against the
/// oracle, and the x86 back end's spill count: its accounting, spills and
/// per-ISA totals.
fn simulate(p: &Program) -> (Report, u64, [SimTotals; 3]) {
    let mut report = Report::new();
    let mut totals = [SimTotals::default(); 3];
    let mut spills = 0u64;
    let module = match llva_core::bytecode::decode_module(&p.bytecode) {
        Ok(m) => m,
        Err(e) => {
            report.attempt();
            report.fail(format!("{}: decode: {e}", p.workload.name));
            return (report, spills, totals);
        }
    };
    for (k, isa) in TargetIsa::ALL.into_iter().enumerate() {
        report.attempt();
        let mut mgr = ExecutionManager::new(module.clone(), isa);
        let t = Instant::now();
        let outcome = mgr.translate_all().and_then(|()| mgr.run("main", &[]));
        let host_s = t.elapsed().as_secs_f64();
        match outcome {
            Ok(out) if out.value == p.value => {
                totals[k] = SimTotals {
                    cycles: out.stats.cycles,
                    insts: out.stats.instructions,
                    native_insts: mgr.installed_insts() as u64,
                    native_bytes: mgr.installed_bytes() as u64,
                    host_s,
                };
            }
            other => report.fail(format!(
                "{} on {isa}: expected {}, got {other:?}",
                p.workload.name, p.value
            )),
        }
    }
    let mut ia32 = module;
    ia32.set_target(TargetConfig::ia32());
    for fid in ia32.function_ids() {
        if !ia32.function(fid).is_declaration() {
            spills += spill_count(&compile_x86(&ia32, fid)) as u64;
        }
    }
    (report, spills, totals)
}

/// Worker `k`'s timed phase: whole rounds of the corpus in its seeded
/// order until the time is up. Worker 0 also gathers the static facts of
/// the pipeline's output, from its first round.
fn worker(args: &RunArgs, programs: &[Program], k: usize, origin: Instant) -> Worker {
    let mut out = Worker::default();
    let mut plan = program_rounds(args.seed ^ ((k as u64) << 32), programs.len());
    let mut tracer = Tracer::new(origin, false);
    let mut timed = Timed::start(args);
    let mut op = (k as u64) << 32;
    let mut first = k == 0;
    while timed.next_round(&mut tracer) {
        let order = plan.next_round().to_vec();
        let round = run_round(
            programs,
            &order,
            &mut tracer,
            &mut op,
            &mut out.report,
            first.then_some(&mut out.statics),
        );
        first = false;
        if args.trace && !tracer.enabled() {
            out.untraced_walls.push(round.wall);
        } else {
            out.rounds.push(round);
        }
    }
    out.end = timed.elapsed();
    out.tracer = Some(tracer);
    out
}

/// One round over the corpus in `order`: compile, translate for every
/// ISA, pre-decode and run on the `FastInterpreter`, checking each step.
fn run_round(
    programs: &[Program],
    order: &[usize],
    tracer: &mut Tracer,
    next_op: &mut u64,
    report: &mut Report,
    mut statics: Option<&mut Static>,
) -> Round {
    let mut r = Round::default();
    let round_start = Instant::now();
    for &i in order {
        let p = &programs[i];
        let name = p.workload.name;
        let op = *next_op;
        *next_op += 1;
        let root = tracer.begin("toolchain.program", None, op);
        let op_start = Instant::now();

        // compile: minic -> link-time pipeline -> verifier -> bytecode
        report.attempt();
        let compile_start = Instant::now();
        let (compiled, ms) = tracer.time("minic.compile", Some(root), op, || {
            llva_minic::compile(p.workload.source, name, TargetConfig::default())
        });
        r.minic += ms;
        let mut module = match compiled {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("{name}: minic: {e}"));
                tracer.end(root);
                continue;
            }
        };
        let (stats, ms) = tracer.time("opt.pipeline", Some(root), op, || {
            llva_opt::link_time_pipeline(&ENTRY_POINTS).run(&mut module)
        });
        r.pipeline += ms;
        let mut changed: BTreeMap<&'static str, bool> = BTreeMap::new();
        for s in &stats {
            *r.passes.entry(s.name).or_default() += s.duration.as_secs_f64() * 1e3;
            *changed.entry(s.name).or_default() |= s.changed;
        }
        let (verified, ms) = tracer.time("core.verify", Some(root), op, || {
            llva_core::verifier::verify_module(&module)
        });
        r.verify += ms;
        let (bytecode, ms) = tracer.time("core.bytecode_encode", Some(root), op, || {
            llva_core::bytecode::encode_module(&module)
        });
        r.encode += ms;
        r.compile += compile_start.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = verified {
            report.fail(format!("{name}: verifier: {e}"));
        }
        if let Some(s) = statics.as_deref_mut() {
            for (pass, did) in changed {
                *s.applied.entry(pass).or_default() += u64::from(did);
            }
            s.insts_after += module.total_insts() as u64;
        }
        drop(module);

        // translate: bytecode -> installed native code for each ISA
        report.attempt();
        let (decoded, ms) = tracer.time("core.bytecode_decode", Some(root), op, || {
            llva_core::bytecode::decode_module(&bytecode)
        });
        r.decode += ms;
        r.translate += ms;
        let module = match decoded {
            Ok(m) => m,
            Err(e) => {
                report.fail(format!("{name}: decode: {e}"));
                tracer.end(root);
                continue;
            }
        };
        for (k, isa) in TargetIsa::ALL.into_iter().enumerate() {
            let (mut mgr, ms) = tracer.time("engine.manager_new", Some(root), op, || {
                ExecutionManager::new(module.clone(), isa)
            });
            r.manager_new += ms;
            let (done, ms) =
                tracer.time("engine.translate", Some(root), op, || mgr.translate_all());
            r.translate_isa[k] += ms;
            r.translate += ms;
            if let Err(e) = done {
                report.fail(format!("{name}: translate {isa}: {e}"));
            }
        }

        // run: pre-decode, then the FastInterpreter
        report.attempt();
        let run_start = Instant::now();
        let (pre, ms) = tracer.time("engine.predecode", Some(root), op, || {
            let pre = Rc::new(PreModule::new(&module));
            pre.decode_all();
            pre
        });
        r.predecode += ms;
        let mut fast = FastInterpreter::with_predecoded(pre);
        let (value, ms) = tracer.time("engine.fast_interp", Some(root), op, || {
            fast.run("main", &[])
        });
        r.fast_run += ms;
        r.interp_run += run_start.elapsed().as_secs_f64() * 1e3;
        r.fast_insts += fast.insts_executed();
        match value {
            Ok(v) if v == p.value && fast.insts_executed() == p.insts => {}
            other => report.fail(format!(
                "{name}: FastInterpreter gave {other:?} in {} insts, oracle {} in {}",
                fast.insts_executed(),
                p.value,
                p.insts
            )),
        }
        tracer.end(root);
        r.ops.push(op_start.elapsed().as_secs_f64() * 1e3);
    }
    r.wall = round_start.elapsed().as_secs_f64() * 1e3;
    r
}
