//! The `serve-churn` workload: sessions over fresh connections, each
//! Hello-ing into one of a small fixed pool of tenants, loading one
//! module text (a Table 2 program plus a seeded kernel function) and
//! making a burst of tiny kernel calls. A fixed share of the texts is
//! new (cold loads); the rest were published to the shared cache during
//! set-up by another tenant (warm loads).
//!
//! One client drives the sessions one after another: with two, a kernel
//! call that overlapped the other client's cold load (whose translation
//! warmup takes both cores) waited a scheduler slice, and the share of
//! calls that did swung the kernel calls' 90th percentile between about
//! 5 and 10 ms from one run to the next.

use std::time::Instant;

use llva_engine::storage::ShardedStorage;
use llva_engine::TranslationStats;
use llva_serve::server::Client;
use llva_serve::{BoxedStorage, ExecService, Request, Response, ServeConfig, TenantQuota};

use crate::kernel::{Kernel, ENTRY};
use crate::rng::Rng;
use crate::serve::{
    check_outcome, check_value, program_text, replay_load, replay_storage, replay_translated,
    tier_names, LoadSteps, Replayed, Served, ServiceCounters,
};
use crate::serve_exec::{hit_metrics, overhead};
use crate::stats::{mean, median, percentile};
use crate::trace::{Open, Tracer};
use crate::{Report, RunArgs, Timed, SETUP_REPEATS};

/// The Table 2 programs a session's text is built on. Every text is
/// over 8 KiB, so all loads fall in one class (see the README).
pub const PROGRAMS: [&str; 4] = ["ptrdist-bc", "ptrdist-anagram", "255.vortex", "197.parser"];

/// Kernels published per program during set-up (the warm texts).
const WARM_PER_PROGRAM: usize = 2;

/// Sessions per round, of which [`COLD_PER_ROUND`] load a new text.
const SESSIONS_PER_ROUND: usize = 8;

/// Cold loads per round: a quarter of the sessions.
const COLD_PER_ROUND: usize = 2;

/// Kernel calls each session makes after its load.
pub const CALLS_PER_SESSION: usize = 8;

/// Tenants in the pool the sessions Hello into.
const TENANTS: usize = 4;

/// Tenant `j` of the pool.
fn tenant(j: usize) -> String {
    format!("churn-{j}")
}

/// The module name every session loads its text under (a same-name load
/// replaces the tenant's previous module, so the quota never fills).
const MODULE: &str = "kernel";

/// The tenant that publishes the warm texts during set-up.
const PUBLISHER: &str = "churn-publisher";

/// A module text and the kernel inside it.
#[derive(Clone)]
struct Text {
    program: usize,
    kernel: Kernel,
    source: String,
}

fn make_text(bases: &[String], program: usize, kernel: Kernel) -> Text {
    Text {
        program,
        kernel,
        source: format!("{}{}", bases[program], kernel.text()),
    }
}

/// The inputs of a run, all drawn from the seed.
struct Inputs {
    bases: Vec<String>,
    warm: Vec<Text>,
}

fn inputs(seed: u64) -> Inputs {
    let bases: Vec<String> = PROGRAMS.iter().map(|p| program_text(p)).collect();
    let warm = warm_kernels(seed)
        .into_iter()
        .map(|(program, kernel)| make_text(&bases, program, kernel))
        .collect();
    Inputs { bases, warm }
}

/// The published texts' `(program, kernel)` pairs.
#[must_use]
pub fn warm_kernels(seed: u64) -> Vec<(usize, Kernel)> {
    let mut rng = Rng::new(seed, 0xC0);
    (0..PROGRAMS.len() * WARM_PER_PROGRAM)
        .map(|k| (k % PROGRAMS.len(), Kernel::draw(&mut rng, k as u32)))
        .collect()
}

/// Which text a session loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextChoice {
    /// A text no earlier session or set-up load used: `PROGRAMS[program]`
    /// plus a kernel with fresh constants.
    Cold {
        /// Index into [`PROGRAMS`].
        program: usize,
        /// The new kernel.
        kernel: Kernel,
    },
    /// One of the texts published during set-up.
    Warm(usize),
}

/// One planned session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Tenant index within the client's share of the pool.
    pub tenant: usize,
    /// The text it loads.
    pub text: TextChoice,
    /// Kernel call arguments.
    pub calls: Vec<[u64; 2]>,
}

/// The seeded session sequence, in whole rounds of
/// [`SESSIONS_PER_ROUND`] sessions with exactly [`COLD_PER_ROUND`] cold.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    rng: Rng,
    kinds: [bool; SESSIONS_PER_ROUND],
    fresh: u32,
}

impl SessionPlan {
    /// The plan for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SessionPlan {
        let mut kinds = [false; SESSIONS_PER_ROUND];
        kinds[..COLD_PER_ROUND].fill(true);
        SessionPlan {
            rng: Rng::new(seed, 0xC1),
            kinds,
            fresh: 0,
        }
    }

    /// The next round of sessions.
    pub fn next_round(&mut self) -> Vec<SessionSpec> {
        self.rng.shuffle(&mut self.kinds);
        let kinds = self.kinds;
        kinds
            .iter()
            .map(|&cold| {
                let text = if cold {
                    // a tag no other text of the run carries
                    self.fresh += 1;
                    let tag = 0x8000_0000 | self.fresh;
                    let program = self.rng.below(PROGRAMS.len() as u64) as usize;
                    TextChoice::Cold {
                        program,
                        kernel: Kernel::draw(&mut self.rng, tag),
                    }
                } else {
                    let warm = PROGRAMS.len() * WARM_PER_PROGRAM;
                    TextChoice::Warm(self.rng.below(warm as u64) as usize)
                };
                SessionSpec {
                    tenant: self.rng.below(TENANTS as u64) as usize,
                    text,
                    calls: (0..CALLS_PER_SESSION)
                        .map(|_| Kernel::args(&mut self.rng))
                        .collect(),
                }
            })
            .collect()
    }
}

/// Set-up: inputs, the server, every pool tenant registered, and the
/// warm texts published by the publisher tenant.
fn setup(seed: u64) -> Result<(Inputs, Served), String> {
    let inputs = inputs(seed);
    let served = Served::start().map_err(|e| format!("server: {e}"))?;
    for j in 0..TENANTS {
        Client::connect(served.addr, &tenant(j)).map_err(|e| format!("hello: {e}"))?;
    }
    let mut publisher =
        Client::connect(served.addr, PUBLISHER).map_err(|e| format!("hello: {e}"))?;
    for text in &inputs.warm {
        let reply = publisher
            .request(&Request::Load {
                module: "published".to_string(),
                source: text.source.clone(),
            })
            .map_err(|e| format!("publish: {e}"))?;
        if !matches!(reply, Response::Loaded { .. }) {
            return Err(format!("publish: {reply:?}"));
        }
    }
    Ok((inputs, served))
}

/// One session's measurements.
#[derive(Debug, Clone, Default)]
struct Session {
    cold: bool,
    traced: bool,
    open_ms: f64,
    load_ms: f64,
    calls_ms: Vec<f64>,
    service_load_ms: f64,
    steps: LoadSteps,
    wire_call_self: Vec<f64>,
    service_calls: Vec<f64>,
    supervisor_calls: Vec<f64>,
    manager_new: Vec<f64>,
    warmup: TranslationStats,
}

/// What the client's loop returns.
#[derive(Default)]
struct ClientOutcome {
    report: Report,
    sessions: Vec<Session>,
    end: f64,
    tiers: [u64; 4],
    degraded: u64,
    counters: ServiceCounters,
    tracer: Option<Tracer>,
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut setup_times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        let t = Instant::now();
        let made = setup(args.seed);
        setup_times.push(t.elapsed().as_secs_f64());
        match made {
            Ok(s) if rep + 1 == SETUP_REPEATS => kept = Some(s),
            Ok((_, served)) => served.stop(),
            Err(e) => return Report::broken(&format!("set-up failed: {e}")),
        }
    }
    let Some((inputs, served)) = kept else {
        return Report::broken("set-up produced nothing");
    };
    let pool: Vec<String> = (0..TENANTS).map(tenant).collect();

    // The traced run replays each session one depth down: an in-process
    // service and a step-by-step load, both with the warm texts published.
    let inproc = args.trace.then(|| ExecService::new(ServeConfig::default()));
    let storage = replay_storage();
    if let Some(service) = &inproc {
        let mut tracer = Tracer::new(Instant::now(), false);
        for t in pool.iter().map(String::as_str).chain([PUBLISHER]) {
            if let Err(e) = service.add_tenant(t, TenantQuota::default()) {
                return Report::broken(&format!("in-process tenant: {e}"));
            }
        }
        for text in &inputs.warm {
            if let Err(e) = service.load_module(PUBLISHER, "published", &text.source) {
                return Report::broken(&format!("in-process publish: {e}"));
            }
            if let Err(e) = replay_load(&storage, &text.source, &mut tracer, None, 0) {
                return Report::broken(&format!("replay publish: {e}"));
            }
        }
    }

    let out = client_loop(args, &served, &inputs, inproc.as_ref(), &storage);
    let rejected = ServiceCounters::read(&served.service, &pool).rejected;
    served.stop();
    if let Some(service) = inproc {
        service.shutdown();
    }

    let mut report = out.report;
    let sessions = out.sessions;
    let end = out.end;
    let counters = ServiceCounters {
        rejected,
        ..out.counters
    };
    let untraced: Vec<&Session> = sessions.iter().filter(|s| !s.traced).collect();
    if args.trace {
        let traced: Vec<&Session> = sessions.iter().filter(|s| s.traced).collect();
        per_layer(
            &mut report,
            &traced,
            &untraced,
            &counters,
            out.tiers,
            out.degraded,
        );
        let tracer = out
            .tracer
            .unwrap_or_else(|| Tracer::new(Instant::now(), false));
        match crate::trace::write_out("serve-churn", args.seed, &[&tracer]) {
            Ok(path) => report.note(format!("spans written to {path}")),
            Err(e) => report.note(format!("spans not written: {e}")),
        }
    } else {
        let calls: Vec<f64> = untraced
            .iter()
            .flat_map(|s| s.calls_ms.iter().copied())
            .collect();
        let (cold, warm) = (loads(&untraced, true), loads(&untraced, false));
        // an operation is one `Load`, from request sent to reply decoded;
        // cold and warm texts are of one size class (over 8 KiB)
        let all: Vec<f64> = untraced.iter().map(|s| s.load_ms).collect();
        report.metric("setup_s", median(&setup_times).unwrap_or(0.0), "s");
        report.metric("op_p50_ms", percentile(&all, 50.0).unwrap_or(0.0), "ms");
        report.metric("op_p90_ms", percentile(&all, 90.0).unwrap_or(0.0), "ms");
        report.note(format!(
            "{} sessions in {end:.3} s ({:.3}/s); op_p90_ms over {} loads; loads p50 {:.3} ms \
             cold (of {}), {:.3} ms warm (of {}); kernel calls p50 {:.3} ms, p90 {:.3} ms \
             over {} calls",
            untraced.len(),
            untraced.len() as f64 / end.max(1e-9),
            all.len(),
            percentile(&cold, 50.0).unwrap_or(0.0),
            cold.len(),
            percentile(&warm, 50.0).unwrap_or(0.0),
            warm.len(),
            percentile(&calls, 50.0).unwrap_or(0.0),
            percentile(&calls, 90.0).unwrap_or(0.0),
            calls.len()
        ));
    }
    report
}

/// The client-side load times of one class (cold or warm) of sessions.
fn loads(sessions: &[&Session], cold: bool) -> Vec<f64> {
    sessions
        .iter()
        .filter(|s| s.cold == cold)
        .map(|s| s.load_ms)
        .collect()
}

/// The client's loop: whole rounds of sessions until the time is up.
fn client_loop(
    args: &RunArgs,
    served: &Served,
    inputs: &Inputs,
    inproc: Option<&ExecService>,
    storage: &ShardedStorage<BoxedStorage>,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut plan = SessionPlan::new(args.seed);
    let mut timed = Timed::start(args);
    let mut op = 0u64;
    while timed.next_round(&mut tracer) {
        for spec in plan.next_round() {
            let (text, cold) = match spec.text {
                TextChoice::Cold { program, kernel } => {
                    (make_text(&inputs.bases, program, kernel), true)
                }
                TextChoice::Warm(k) => (inputs.warm[k].clone(), false),
            };
            let tenant = tenant(spec.tenant);
            let calls = spec.calls;
            op += 1;
            let ctx = SessionCtx {
                addr: served.addr,
                cold,
                tenant: &tenant,
                module: MODULE,
                text: &text,
                calls: &calls,
                op,
            };
            match session(&ctx, &mut tracer, &mut out, inproc, storage) {
                Ok(s) => {
                    if args.trace {
                        read_module_counters(&served.service, &tenant, MODULE, &mut out.counters);
                    }
                    out.sessions.push(s);
                }
                Err(e) => out
                    .report
                    .fail(format!("session on {}: {e}", PROGRAMS[text.program])),
            }
        }
    }
    out.end = timed.elapsed();
    if args.trace {
        out.tracer = Some(tracer);
    }
    out
}

/// Adds the serve-side counters of one session's module (its snapshot
/// is published before the session's last reply is sent).
fn read_module_counters(
    service: &ExecService,
    tenant: &str,
    module: &str,
    c: &mut ServiceCounters,
) {
    let Some(snapshot) = service.tenant_snapshot(tenant) else {
        return;
    };
    for m in snapshot.modules.iter().filter(|m| m.name == module) {
        c.add_module(m);
    }
}

struct SessionCtx<'a> {
    addr: std::net::SocketAddr,
    cold: bool,
    tenant: &'a str,
    module: &'a str,
    text: &'a Text,
    calls: &'a [[u64; 2]],
    op: u64,
}

/// One session: connect and Hello, load, the kernel calls, close. In the
/// traced half every step is replayed one depth down as well.
fn session(
    ctx: &SessionCtx<'_>,
    tracer: &mut Tracer,
    out: &mut ClientOutcome,
    inproc: Option<&ExecService>,
    storage: &ShardedStorage<BoxedStorage>,
) -> Result<Session, String> {
    let op = ctx.op;
    let mut s = Session {
        cold: ctx.cold,
        traced: tracer.enabled(),
        ..Session::default()
    };
    let root = tracer.begin("serve.session", None, op);
    out.report.attempt();
    let (client, ms) = tracer.time("serve.session_open", Some(root), op, || {
        Client::connect(ctx.addr, ctx.tenant)
    });
    s.open_ms = ms;
    let mut client = client.map_err(|e| format!("connect: {e}"))?;
    let load = Request::Load {
        module: ctx.module.to_string(),
        source: ctx.text.source.clone(),
    };
    let (reply, ms) = tracer.time("serve.wire_load", Some(root), op, || client.request(&load));
    s.load_ms = ms;
    match reply.map_err(|e| e.to_string())? {
        Response::Loaded { functions, .. } if functions > 0 => {}
        other => return Err(format!("load: {other:?}")),
    }
    let mut replayed: Option<Replayed> = None;
    if s.traced {
        let service = inproc.ok_or("no in-process service")?;
        let (reply, ms) = tracer.time("serve.service_load", Some(root), op, || {
            service.load_module(ctx.tenant, ctx.module, &ctx.text.source)
        });
        s.service_load_ms = ms;
        s.warmup = reply.map_err(|e| format!("in-process load: {e}"))?.warmup;
        let r = replay_load(storage, &ctx.text.source, tracer, Some(root), op)?;
        if r.steps.warm == ctx.cold {
            return Err("the replayed load took the other (cold or warm) path".to_string());
        }
        s.steps = r.steps;
        replayed = Some(r);
    }
    for (k, call_args) in ctx.calls.iter().enumerate() {
        out.report.attempt();
        let expected = ctx.text.kernel.eval(call_args[0], call_args[1]);
        let call = Request::Call {
            module: ctx.module.to_string(),
            entry: ENTRY.to_string(),
            args: call_args.to_vec(),
            fuel: 0,
        };
        let (reply, wire_ms) =
            tracer.time("serve.wire_call", Some(root), op, || client.request(&call));
        let answer = match reply
            .map_err(|e| e.to_string())
            .and_then(|r| check_value(&r, expected))
        {
            Ok(a) => a,
            Err(e) => {
                out.report.fail(format!("call {k}: {e}"));
                continue;
            }
        };
        if let Some(i) = tier_names().iter().position(|t| *t == answer.tier) {
            out.tiers[i] += 1;
        }
        out.degraded += u64::from(answer.degraded);
        s.calls_ms.push(wire_ms);
        if let (Some(service), Some(r)) = (inproc.filter(|_| s.traced), replayed.as_mut()) {
            if let Err(e) = replay_call(
                ctx,
                tracer,
                root,
                service,
                r,
                storage,
                call_args,
                expected,
                &answer.tier,
                wire_ms,
                &mut s,
            ) {
                out.report.fail(format!("call {k} replay: {e}"));
            }
        }
    }
    drop(client);
    tracer.end(root);
    Ok(s)
}

/// Replays one kernel call through the in-process service, a direct
/// supervisor run and, when the translated rung answered, its steps.
#[allow(clippy::too_many_arguments)]
fn replay_call(
    ctx: &SessionCtx<'_>,
    tracer: &mut Tracer,
    root: Open,
    service: &ExecService,
    r: &mut Replayed,
    storage: &ShardedStorage<BoxedStorage>,
    call_args: &[u64; 2],
    expected: u64,
    tier: &str,
    wire_ms: f64,
    s: &mut Session,
) -> Result<(), String> {
    let op = ctx.op;
    let (result, ms) = tracer.time("serve.service_call", Some(root), op, || {
        service.call(ctx.tenant, ctx.module, ENTRY, call_args)
    });
    check_outcome(result.map_err(|e| e.to_string())?.outcome, expected)?;
    s.service_calls.push(ms);
    s.wire_call_self.push(wire_ms - ms);
    let (result, ms) = tracer.time("engine.supervisor_run", Some(root), op, || {
        r.supervisor.run(ENTRY, call_args)
    });
    check_outcome(result.map_err(|e| format!("{e:?}"))?.outcome, expected)?;
    s.supervisor_calls.push(ms);
    if tier == "translated" {
        let run = replay_translated(r, storage, ENTRY, call_args, tracer, Some(root), op)?;
        if run.value != expected {
            return Err(format!(
                "translated rung gave {}, expected {expected}",
                run.value
            ));
        }
        s.manager_new.push(run.setup_ms);
    }
    Ok(())
}

/// The per-layer metrics of a traced run.
fn per_layer(
    report: &mut Report,
    traced: &[&Session],
    untraced: &[&Session],
    counters: &ServiceCounters,
    tiers: [u64; 4],
    degraded: u64,
) {
    let p50 = |v: Vec<f64>| percentile(&v, 50.0).unwrap_or(0.0);
    let of = |cold: Option<bool>, f: &dyn Fn(&Session) -> f64| -> Vec<f64> {
        traced
            .iter()
            .filter(|s| cold.is_none_or(|c| s.cold == c))
            .map(|s| f(s))
            .collect()
    };
    let flat = |f: &dyn Fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let isa = ServeConfig::default().isa;
    report.metric("serve.session_open_ms", p50(of(None, &|s| s.open_ms)), "ms");
    report.metric(
        "serve.service_load_cold_p50_ms",
        p50(of(Some(true), &|s| s.service_load_ms)),
        "ms",
    );
    report.metric(
        "serve.service_load_warm_p50_ms",
        p50(of(Some(false), &|s| s.service_load_ms)),
        "ms",
    );
    report.metric(
        "serve.wire_load_p50_ms",
        p50(of(None, &|s| s.load_ms - s.service_load_ms)),
        "ms",
    );
    // the client-side loads of the untraced half, per class
    report.metric("serve.load_cold_p50_ms", p50(loads(untraced, true)), "ms");
    report.metric("serve.load_warm_p50_ms", p50(loads(untraced, false)), "ms");
    report.metric("core.parse_ms", p50(of(None, &|s| s.steps.parse)), "ms");
    report.metric(
        "engine.image_attach_us",
        1e3 * p50(of(Some(false), &|s| s.steps.attach)),
        "us",
    );
    report.metric(
        "engine.image_build_ms",
        p50(of(Some(true), &|s| s.steps.image_build)),
        "ms",
    );
    report.metric(
        "engine.predecode_ms",
        p50(of(Some(true), &|s| s.steps.predecode)),
        "ms",
    );
    report.metric(
        &format!("engine.translate_ms.{isa}"),
        p50(of(Some(true), &|s| s.steps.translate)),
        "ms",
    );
    report.metric(
        "serve.service_call_p50_ms",
        p50(flat(&|s| &s.service_calls)),
        "ms",
    );
    report.metric(
        "serve.wire_call_p50_ms",
        p50(flat(&|s| &s.wire_call_self)),
        "ms",
    );
    report.metric(
        "engine.supervisor_call_p50_ms",
        p50(flat(&|s| &s.supervisor_calls)),
        "ms",
    );
    let setups = flat(&|s| &s.manager_new);
    if !setups.is_empty() {
        report.metric("engine.manager_new_ms", p50(setups), "ms");
    }
    for (name, served) in tier_names().iter().zip(tiers) {
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
    // The part of an in-process load the replayed steps do not cover:
    // queueing to the executor, supervisor set-up, journal and snapshot.
    report.metric(
        "remainder_ms",
        mean(&of(None, &|s| s.service_load_ms - s.steps.total())),
        "ms",
    );
    // depth-0 time only: the replays inside a traced session are not
    // part of what its client paid
    let depth0 = |set: &[&Session]| {
        set.iter()
            .map(|s| s.open_ms + s.load_ms + s.calls_ms.iter().sum::<f64>())
            .collect::<Vec<f64>>()
    };
    overhead(report, &depth0(traced), &depth0(untraced));
    let warmups: usize = traced.iter().map(|s| s.warmup.image_hits).sum();
    report.note(format!(
        "{} traced sessions ({} cold), {} untraced; in-process loads installed {warmups} functions from images",
        traced.len(),
        traced.iter().filter(|s| s.cold).count(),
        untraced.len()
    ));
}
