//! The `serve-exec` workload: one client per tenant (at most two, and
//! never more than the machine's cores) runs a closed loop of `main`
//! calls, in a seeded order, to the short and mid-sized Table 2 programs
//! its tenant loaded during set-up. Nothing is loaded or compiled during
//! the timed phase, so the time is spent in the rung that answers.

use std::time::Instant;

use llva_serve::server::Client;
use llva_serve::{ExecService, Request, ServeConfig, TenantQuota};

use crate::rng::Rounds;
use crate::serve::{
    check_outcome, check_value, oracle, program_text, replay_load, replay_storage,
    replay_translated, tier_names, Served, ServiceCounters,
};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{Report, RunArgs, Timed, SETUP_REPEATS};

/// The programs called: those whose served call costs about 5–35 ms
/// (Table 2 order of cost).
pub const PROGRAMS: [&str; 9] = [
    "ptrdist-bc",
    "197.parser",
    "255.vortex",
    "ptrdist-yacr2",
    "186.crafty",
    "ptrdist-anagram",
    "ptrdist-ft",
    "179.art",
    "164.gzip",
];

/// Tenant name of client `i`.
fn tenant(i: usize) -> String {
    format!("exec-{i}")
}

/// A program as a client sees it.
#[derive(Clone)]
struct Program {
    name: &'static str,
    text: String,
    expected: u64,
}

/// The programs client `i` of `n` loads and calls.
fn share(programs: &[Program], i: usize, n: usize) -> Vec<Program> {
    programs.iter().skip(i).step_by(n).cloned().collect()
}

/// Set-up: module texts and their oracle values, the server, and each
/// tenant's loads over the wire.
fn setup(n: usize) -> Result<(Vec<Program>, Served, Vec<Client>), String> {
    let programs = crate::par_map(&PROGRAMS, |&name| {
        let text = program_text(name);
        let expected =
            oracle(&text, "main", &[]).ok_or_else(|| format!("{name}: no oracle value"))?;
        Ok(Program {
            name,
            text,
            expected,
        })
    })
    .into_iter()
    .collect::<Result<Vec<Program>, String>>()?;
    let served = Served::start().map_err(|e| format!("server: {e}"))?;
    let mut clients = Vec::new();
    for i in 0..n {
        let mut client =
            Client::connect(served.addr, &tenant(i)).map_err(|e| format!("connect: {e}"))?;
        for p in share(&programs, i, n) {
            let reply = client
                .request(&Request::Load {
                    module: p.name.to_string(),
                    source: p.text.clone(),
                })
                .map_err(|e| format!("load {}: {e}", p.name))?;
            if !matches!(reply, llva_serve::Response::Loaded { .. }) {
                return Err(format!("load {}: {reply:?}", p.name));
            }
        }
        clients.push(client);
    }
    Ok((programs, served, clients))
}

/// One call's measurements. The in-process fields are filled only in
/// the traced half of a traced run.
#[derive(Debug, Clone, Default)]
struct CallRecord {
    wire_ms: f64,
    traced: bool,
    service_ms: f64,
    supervisor_ms: f64,
    manager_new_ms: Option<f64>,
    run_ms: Option<f64>,
    sim_insts: u64,
    degraded: bool,
}

/// What one client thread returns.
#[derive(Default)]
struct ClientOutcome {
    report: Report,
    calls: Vec<CallRecord>,
    end: f64,
    tracer: Option<Tracer>,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let n = crate::threads();
    let mut setup_times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let made = setup(n);
        setup_times.push(t.elapsed().as_secs_f64());
        match made {
            Ok(s) if rep + 1 == SETUP_REPEATS => kept = Some(s),
            Ok((_, served, clients)) => {
                drop(clients);
                served.stop();
            }
            Err(e) => return Report::broken(&format!("set-up failed: {e}")),
        }
    }
    let Some((programs, served, clients)) = kept else {
        return Report::broken("set-up produced nothing");
    };

    // The traced run replays every call one depth down: through an
    // in-process service holding the same tenants and modules.
    let inproc = args.trace.then(|| ExecService::new(ServeConfig::default()));
    if let Some(service) = &inproc {
        for i in 0..n {
            if let Err(e) = service.add_tenant(&tenant(i), TenantQuota::default()) {
                return Report::broken(&format!("in-process tenant: {e}"));
            }
            for p in share(&programs, i, n) {
                if let Err(e) = service.load_module(&tenant(i), p.name, &p.text) {
                    return Report::broken(&format!("in-process load {}: {e}", p.name));
                }
            }
        }
    }
    let storage = replay_storage();

    let origin = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, client)| {
                let mine = share(&programs, i, n);
                let inproc = inproc.clone();
                let storage = storage.clone();
                scope.spawn(move || {
                    client_loop(args, i, client, &mine, inproc.as_ref(), &storage, origin)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ClientOutcome {
                    report: Report::broken("client thread panicked"),
                    ..ClientOutcome::default()
                })
            })
            .collect()
    });

    let tenants: Vec<String> = (0..n).map(tenant).collect();
    let counters = ServiceCounters::read(&served.service, &tenants);
    served.stop();
    if let Some(service) = inproc {
        service.shutdown();
    }

    let mut report = Report::new();
    let mut calls = Vec::new();
    let mut end = 0.0f64;
    let mut tracers = Vec::new();
    for o in outcomes {
        report.absorb(o.report);
        calls.extend(o.calls);
        end = end.max(o.end);
        tracers.extend(o.tracer);
    }
    let untraced: Vec<f64> = calls
        .iter()
        .filter(|c| !c.traced)
        .map(|c| c.wire_ms)
        .collect();
    if args.trace {
        let traced: Vec<&CallRecord> = calls.iter().filter(|c| c.traced).collect();
        per_layer(
            &mut report,
            &traced,
            &untraced,
            &counters,
            calls.iter().filter(|c| c.degraded).count(),
        );
        let refs: Vec<&Tracer> = tracers.iter().collect();
        match crate::trace::write_out("serve-exec", args.seed, &refs) {
            Ok(path) => report.note(format!("spans written to {path}")),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    } else {
        // an operation is one `Call`, from request sent to reply decoded
        report.metric("setup_s", median(&setup_times).unwrap_or(0.0), "s");
        report.metric(
            "op_p50_ms",
            percentile(&untraced, 50.0).unwrap_or(0.0),
            "ms",
        );
        report.metric(
            "op_p90_ms",
            percentile(&untraced, 90.0).unwrap_or(0.0),
            "ms",
        );
        report.note(format!(
            "{} calls from {n} clients in {end:.3} s ({:.3} calls/s); op_p90_ms over {} samples",
            untraced.len(),
            untraced.len() as f64 / end.max(1e-9),
            untraced.len()
        ));
    }
    report
}

/// The seeded call order of client `i` over its `n` programs.
#[must_use]
pub fn call_rounds(seed: u64, i: usize, n: usize) -> Rounds {
    Rounds::new(seed, 0xE0 + i as u64, n)
}

/// One client's closed loop: whole rounds of its programs in a seeded
/// order until the time is up.
fn client_loop(
    args: &RunArgs,
    i: usize,
    mut client: Client,
    programs: &[Program],
    inproc: Option<&ExecService>,
    storage: &llva_engine::storage::ShardedStorage<llva_serve::BoxedStorage>,
    origin: Instant,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut tracer = Tracer::new(origin, false);
    let mut plan = call_rounds(args.seed, i, programs.len());
    let tenant = tenant(i);
    // The traced half needs each module replayed in this thread.
    let mut replayed = Vec::new();
    if args.trace {
        for p in programs {
            match replay_load(storage, &p.text, &mut tracer, None, 0) {
                Ok(r) => replayed.push(r),
                Err(e) => {
                    out.report = Report::broken(&format!("replay load {}: {e}", p.name));
                    return out;
                }
            }
        }
    }
    let mut timed = Timed::start(args);
    let mut op = (i as u64) << 32;
    while timed.next_round(&mut tracer) {
        for &k in plan.next_round() {
            let p = &programs[k];
            op += 1;
            out.report.attempt();
            let call = Request::Call {
                module: p.name.to_string(),
                entry: "main".to_string(),
                args: Vec::new(),
                fuel: 0,
            };
            let (reply, wire_ms) =
                tracer.time("serve.wire_call", None, op, || client.request(&call));
            let answer = match reply
                .map_err(|e| e.to_string())
                .and_then(|r| check_value(&r, p.expected))
            {
                Ok(a) => a,
                Err(e) => {
                    out.report.fail(format!("{}: {e}", p.name));
                    continue;
                }
            };
            let mut rec = CallRecord {
                wire_ms,
                degraded: answer.degraded,
                ..CallRecord::default()
            };
            if tracer.enabled() {
                rec.traced = true;
                if let Err(e) = replay_call(
                    &mut tracer,
                    op,
                    &tenant,
                    p,
                    &answer.tier,
                    inproc,
                    &mut replayed[k],
                    storage,
                    &mut rec,
                ) {
                    out.report.fail(format!("{} replay: {e}", p.name));
                    continue;
                }
            }
            out.calls.push(rec);
        }
    }
    out.end = timed.elapsed();
    if args.trace {
        out.tracer = Some(tracer);
    }
    out
}

/// Replays one call one depth down: the in-process service, a direct
/// supervisor run, and (when the translated rung answered) that rung's
/// own steps.
#[allow(clippy::too_many_arguments)]
fn replay_call(
    tracer: &mut Tracer,
    op: u64,
    tenant: &str,
    p: &Program,
    tier: &str,
    inproc: Option<&ExecService>,
    module: &mut crate::serve::Replayed,
    storage: &llva_engine::storage::ShardedStorage<llva_serve::BoxedStorage>,
    rec: &mut CallRecord,
) -> Result<(), String> {
    let service = inproc.ok_or("no in-process service")?;
    let (result, ms) = tracer.time("serve.service_call", None, op, || {
        service.call(tenant, p.name, "main", &[])
    });
    rec.service_ms = ms;
    check_outcome(result.map_err(|e| e.to_string())?.outcome, p.expected)?;
    let (result, ms) = tracer.time("engine.supervisor_run", None, op, || {
        module.supervisor.run("main", &[])
    });
    rec.supervisor_ms = ms;
    check_outcome(result.map_err(|e| format!("{e:?}"))?.outcome, p.expected)?;
    if tier == "translated" {
        let run = replay_translated(module, storage, "main", &[], tracer, None, op)?;
        if run.value != p.expected {
            return Err(format!(
                "translated rung gave {}, expected {}",
                run.value, p.expected
            ));
        }
        rec.manager_new_ms = Some(run.setup_ms);
        rec.run_ms = Some(run.run_ms);
        rec.sim_insts = run.insts;
    }
    Ok(())
}

/// The per-layer metrics of a traced run.
fn per_layer(
    report: &mut Report,
    traced: &[&CallRecord],
    untraced: &[f64],
    counters: &ServiceCounters,
    degraded: usize,
) {
    let p50 = |f: &dyn Fn(&CallRecord) -> f64| {
        percentile(&traced.iter().map(|c| f(c)).collect::<Vec<_>>(), 50.0).unwrap_or(0.0)
    };
    let isa = ServeConfig::default().isa;
    report.metric(
        "serve.wire_call_p50_ms",
        p50(&|c| c.wire_ms - c.service_ms),
        "ms",
    );
    report.metric("serve.service_call_p50_ms", p50(&|c| c.service_ms), "ms");
    report.metric(
        "engine.supervisor_call_p50_ms",
        p50(&|c| c.supervisor_ms),
        "ms",
    );
    let deep: Vec<&&CallRecord> = traced.iter().filter(|c| c.run_ms.is_some()).collect();
    if !deep.is_empty() {
        let setups: Vec<f64> = deep.iter().filter_map(|c| c.manager_new_ms).collect();
        report.metric(
            "engine.manager_new_ms",
            percentile(&setups, 50.0).unwrap_or(0.0),
            "ms",
        );
        let insts: u64 = deep.iter().map(|c| c.sim_insts).sum();
        let secs: f64 = deep.iter().filter_map(|c| c.run_ms).sum::<f64>() / 1e3;
        report.metric(
            &format!("machine.sim_mips.{isa}"),
            insts as f64 / secs.max(1e-9) / 1e6,
            "MIPS",
        );
    }
    for (name, served) in tier_names().iter().zip(counters.served) {
        report.metric(
            &format!("engine.tier_served.{name}"),
            served as f64,
            "count",
        );
    }
    hit_metrics(report, counters);
    report.metric("engine.tier_faults", counters.tier_faults as f64, "count");
    report.metric("serve.calls_degraded", degraded as f64, "count");
    report.metric("serve.rejected", counters.rejected as f64, "count");
    // What the replayed steps leave unexplained: the supervisor's own
    // work around the answering rung (or all of it, when the rung's
    // steps were not replayed).
    let gap: Vec<f64> = traced
        .iter()
        .map(|c| c.supervisor_ms - c.manager_new_ms.unwrap_or(0.0) - c.run_ms.unwrap_or(0.0))
        .collect();
    report.metric("remainder_ms", mean(&gap), "ms");
    let traced_wire: Vec<f64> = traced.iter().map(|c| c.wire_ms).collect();
    overhead(report, &traced_wire, untraced);
    report.note(format!(
        "{} traced calls, {} untraced; wire = wire self + service self + supervisor by construction",
        traced.len(),
        untraced.len()
    ));
}

/// The translation cache counters and their hit ratio.
pub fn hit_metrics(report: &mut Report, c: &ServiceCounters) {
    report.metric("engine.translate_hits", c.translate_hits as f64, "count");
    report.metric(
        "engine.translate_misses",
        c.translate_misses as f64,
        "count",
    );
    report.metric("engine.image_hits", c.image_hits as f64, "count");
    // a function installed without running the translator is a hit,
    // whether it came from the storage cache or from a module image
    let hits = c.translate_hits + c.image_hits;
    let base = hits + c.translate_misses;
    let ratio = if base == 0 {
        0.0
    } else {
        hits as f64 / base as f64
    };
    report.metric("engine.translate_hit_ratio", ratio, "ratio");
    report.note(format!(
        "translate hit ratio {ratio:.4} = ({} cache + {} image) hits / {base} installs",
        c.translate_hits, c.image_hits
    ));
}

/// The tracing overhead: the depth-0 p50 of the traced half against the
/// untraced half of the same run.
pub fn overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    let t = percentile(traced, 50.0).unwrap_or(0.0);
    let u = percentile(untraced, 50.0).unwrap_or(t);
    report.metric("trace.overhead_pct", 100.0 * (t - u) / u.max(1e-9), "%");
}
