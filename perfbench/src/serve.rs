//! What the two serve workloads share: the TCP service in its default
//! configuration, its module texts, the in-process replay of a module
//! load step by step, and the counters read back from tenant snapshots.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_engine::image::{ImageBuilder, LlvaImage, IMAGE_ENTRY};
use llva_engine::storage::{MemStorage, ShardedStorage, Storage};
use llva_engine::supervisor::{Tier, TierOutcome};
use llva_engine::{llee, ExecutionManager, Interpreter, PreModule, Supervisor};
use llva_serve::server::Client;
use llva_serve::{
    BoxedStorage, ExecService, ModuleSnapshot, Request, Response, ServeConfig, Server, TenantQuota,
};

use crate::trace::{Open, Tracer};

/// A running `llva-serve` server on a loopback ephemeral port, with the
/// handle to its service kept for reading tenant snapshots.
pub struct Served {
    /// The service the server fronts.
    pub service: ExecService,
    /// Where clients connect.
    pub addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Served {
    /// Starts the service and its listener with the default
    /// configuration and default tenant quota.
    ///
    /// # Errors
    ///
    /// IO errors from binding the listener.
    pub fn start() -> std::io::Result<Served> {
        let service = ExecService::new(ServeConfig::default());
        let server = Server::bind(service.clone(), "127.0.0.1:0", TenantQuota::default())?;
        let addr = server.local_addr()?;
        let accept = Some(server.spawn());
        Ok(Served {
            service,
            addr,
            accept,
        })
    }

    /// Drains the service over the wire (which also stops the accept
    /// loop) and waits for the listener thread to end.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        if let Ok(mut admin) = Client::connect(self.addr, "perfbench-admin") {
            let _ = admin.request(&Request::Drain {
                deadline_ms: 10_000,
            });
        }
        let _ = accept.join();
        self.service.shutdown();
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The module text a client sends for a Table 2 program: the minic
/// front end's output for the default target, printed as LLVA assembly
/// (the form `llva-serve --selfcheck` loads).
///
/// # Panics
///
/// On an unknown program name (a bug in the workload tables).
#[must_use]
pub fn program_text(name: &str) -> String {
    let workload = llva_workloads::by_name(name).expect("Table 2 program exists");
    llva_core::printer::print_module(&workload.compile(TargetConfig::default()))
}

/// The structural interpreter's answer for `entry(args)` in module
/// `text`: the oracle every served reply is checked against. `None`
/// when the text does not parse or the call does not return a value.
#[must_use]
pub fn oracle(text: &str, entry: &str, args: &[u64]) -> Option<u64> {
    let module = llva_core::parser::parse_module(text).ok()?;
    Interpreter::new(&module).run(entry, args).ok()
}

/// A checked call reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// The rung that answered.
    pub tier: String,
    /// Whether a faster rung faulted or was skipped.
    pub degraded: bool,
}

/// Checks a call reply against the expected value.
///
/// # Errors
///
/// A description of the reply when it is not the expected value.
pub fn check_value(reply: &Response, expected: u64) -> Result<Answer, String> {
    match reply {
        Response::Value {
            value,
            tier,
            degraded,
            ..
        } if *value == expected => Ok(Answer {
            tier: tier.clone(),
            degraded: *degraded,
        }),
        other => Err(format!("expected value {expected}, got {other:?}")),
    }
}

/// Checks a supervised in-process outcome against the expected value.
///
/// # Errors
///
/// A description of the outcome when it is not the expected value.
pub fn check_outcome(outcome: TierOutcome, expected: u64) -> Result<(), String> {
    match outcome {
        TierOutcome::Value(v) if v == expected => Ok(()),
        other => Err(format!("expected value {expected}, got {other}")),
    }
}

/// Service-side counters summed over a set of tenants.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Translations served from the storage cache.
    pub translate_hits: u64,
    /// Storage cache lookups that missed.
    pub translate_misses: u64,
    /// Translations installed from a module image.
    pub image_hits: u64,
    /// Calls answered per rung, in ladder order.
    pub served: [u64; 4],
    /// Panics, faults, watchdog expiries and divergences over all rungs.
    pub tier_faults: u64,
    /// Admission rejections of every kind.
    pub rejected: u64,
}

impl ServiceCounters {
    /// Reads the published snapshots and admission counters of `tenants`.
    #[must_use]
    pub fn read(service: &ExecService, tenants: &[String]) -> ServiceCounters {
        let mut c = ServiceCounters::default();
        for tenant in tenants {
            if let Some(snapshot) = service.tenant_snapshot(tenant) {
                for m in &snapshot.modules {
                    c.add_module(m);
                }
            }
            if let Some(counters) = service.tenant_counters(tenant) {
                c.rejected += counters.rejected_total();
            }
        }
        c
    }

    /// Adds one module's published translation and rung counters.
    pub fn add_module(&mut self, m: &ModuleSnapshot) {
        self.translate_hits += m.translation.cache_hits as u64;
        self.translate_misses += m.translation.cache_misses as u64;
        self.image_hits += m.translation.image_hits as u64;
        for (i, t) in m.tier_counters.iter().enumerate() {
            self.served[i] += t.served;
            self.tier_faults += t.panics + t.faults + t.watchdog_expiries + t.divergences;
        }
    }
}

/// The rung names in ladder order, as they appear in metric names.
#[must_use]
pub fn tier_names() -> [String; 4] {
    Tier::LADDER.map(|t| t.to_string())
}

/// The translation cache a replayed load works over: sharded in-memory
/// storage shaped like the service's own.
#[must_use]
pub fn replay_storage() -> ShardedStorage<BoxedStorage> {
    ShardedStorage::new(ServeConfig::default().shards, |_| {
        Box::new(MemStorage::new()) as BoxedStorage
    })
}

/// Step times (ms) of one replayed load.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSteps {
    /// `parse_module`.
    pub parse: f64,
    /// `LlvaImage::parse` of a published image (warm loads) or of the
    /// freshly built one (cold loads).
    pub attach: f64,
    /// `translate_all_parallel` (the translation warmup).
    pub translate: f64,
    /// `PreModule::decode_all` (cold loads only).
    pub predecode: f64,
    /// `ImageBuilder` through `finish` (cold loads only).
    pub image_build: f64,
    /// Whether a published image was found.
    pub warm: bool,
}

impl LoadSteps {
    /// Sum of the step times.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.parse + self.attach + self.translate + self.predecode + self.image_build
    }
}

/// A module loaded by [`replay_load`].
pub struct Replayed {
    /// The module's supervisor, set up as the service sets it up.
    pub supervisor: Supervisor,
    /// The attached image.
    pub image: Option<Arc<LlvaImage>>,
    /// The content-addressed cache name.
    pub cache: String,
    /// Step times of the load.
    pub steps: LoadSteps,
}

/// Replays one module load through the public functions a load performs
/// (parse, image probe and attach, translation warmup, pre-decode, image
/// build and publish), each as its own span, and stands up the module's
/// supervisor the way the service does.
///
/// # Errors
///
/// The parse or translation error, as text.
pub fn replay_load(
    storage: &ShardedStorage<BoxedStorage>,
    text: &str,
    tracer: &mut Tracer,
    parent: Option<Open>,
    op: u64,
) -> Result<Replayed, String> {
    let config = ServeConfig::default();
    let quota = TenantQuota::default();
    let mut steps = LoadSteps::default();
    let (parsed, ms) = tracer.time("core.parse", parent, op, || {
        llva_core::parser::parse_module(text)
    });
    steps.parse = ms;
    let parsed: Module = parsed.map_err(|e| e.to_string())?;
    let stamp = llee::stamp(&parsed);
    let cache = format!("m{stamp:016x}");
    storage.clone().create_cache(&cache);
    let mut image: Option<Arc<LlvaImage>> = None;
    if let Some((bytes, ts)) = storage.read(&cache, IMAGE_ENTRY) {
        if ts == stamp {
            let (img, ms) = tracer.time("engine.image_attach", parent, op, || {
                LlvaImage::parse(bytes)
            });
            steps.attach = ms;
            image = img.ok().filter(|i| i.stamp() == stamp).map(Arc::new);
            steps.warm = image.is_some();
        }
    }
    let mut warm =
        ExecutionManager::with_memory_size(parsed.clone(), config.isa, quota.memory_bytes);
    warm.set_storage(Box::new(storage.clone()), &cache);
    if let Some(img) = &image {
        warm.set_image(img.clone());
    }
    let (translated, ms) = tracer.time("engine.translate", parent, op, || {
        warm.translate_all_parallel(ExecutionManager::default_workers())
    });
    steps.translate = ms;
    translated.map_err(|e| e.to_string())?;
    if image.is_none() {
        let pre = PreModule::new(&parsed);
        let ((), ms) = tracer.time("engine.predecode", parent, op, || pre.decode_all());
        steps.predecode = ms;
        let (bytes, ms) = tracer.time("engine.image_build", parent, op, || {
            let mut builder = ImageBuilder::new(&parsed);
            builder.add_predecode(&pre);
            builder.add_native(config.isa, &warm.native_image_entries());
            builder.finish()
        });
        steps.image_build = ms;
        storage.clone().write(&cache, IMAGE_ENTRY, &bytes, stamp);
        let (img, ms) = tracer.time("engine.image_attach", parent, op, || {
            LlvaImage::parse(bytes)
        });
        steps.attach = ms;
        image = img.ok().map(Arc::new);
    }
    drop(warm);
    let mut supervisor = Supervisor::with_memory_size(parsed, config.isa, quota.memory_bytes);
    supervisor.set_storage(Box::new(storage.clone()), &cache);
    if let Some(img) = &image {
        supervisor.set_image(img.clone());
    }
    supervisor.set_max_faults(config.max_faults);
    supervisor.set_incident_capacity(config.incident_capacity);
    Ok(Replayed {
        supervisor,
        image,
        cache,
        steps,
    })
}

/// What [`replay_translated`] measured.
#[derive(Debug, Clone, Copy)]
pub struct TranslatedRun {
    /// The returned raw bits.
    pub value: u64,
    /// Manager construction (module clone and machine set-up), ms.
    pub setup_ms: f64,
    /// Install-on-demand plus simulation, ms.
    pub run_ms: f64,
    /// Simulated instructions executed.
    pub insts: u64,
}

/// One call's deepest replay: the translated rung's own steps as the
/// supervisor performs them (a fresh manager over the module's cache and
/// image, then the run), when that rung is the one answering.
///
/// # Errors
///
/// The engine error, as text.
pub fn replay_translated(
    module: &Replayed,
    storage: &ShardedStorage<BoxedStorage>,
    entry: &str,
    args: &[u64],
    tracer: &mut Tracer,
    parent: Option<Open>,
    op: u64,
) -> Result<TranslatedRun, String> {
    let config = ServeConfig::default();
    let quota = TenantQuota::default();
    let (mut mgr, setup_ms) = tracer.time("engine.manager_new", parent, op, || {
        ExecutionManager::with_memory_size(
            module.supervisor.module().clone(),
            config.isa,
            quota.memory_bytes,
        )
    });
    mgr.set_storage(Box::new(storage.clone()), &module.cache);
    if let Some(img) = &module.image {
        mgr.set_image(img.clone());
    }
    let (out, run_ms) = tracer.time("machine.run", parent, op, || mgr.run(entry, args));
    let out = out.map_err(|e| e.to_string())?;
    Ok(TranslatedRun {
        value: out.value,
        setup_ms,
        run_ms,
        insts: mgr.exec_stats().instructions,
    })
}
