//! The three workloads: how each stands up its serving path (set-up) and
//! how its load generator drives it (the timed phase).
//!
//! The load generator is one process of at most two threads holding at
//! most two gateway connections: `crowd-cnv` runs on the calling thread,
//! `gate-ncnv` adds one collector thread, `gateway-ucnv` one thread for
//! its second connection.

use crate::fixture::Fixture;
use crate::stats::{median, paced_schedule, poisson_schedule, quantile};
use bcp_gateway::{Gateway, GatewayClient, GatewayConfig, Status, TenantPolicy};
use bcp_serve::{canary_frame, Completion, Engine, ServeConfig, Ticket};
use bcp_telemetry::Registry;
use bcp_trace::TraceConfig;
use binarycop::arch::ArchKind;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker threads of the in-process engines.
pub const ENGINE_WORKERS: usize = 2;
/// Requests the crowd client keeps in flight: one crowd burst.
pub const CROWD_IN_FLIGHT: usize = 16;
/// The gate's open-loop rate ladder: (requests per second, share of the
/// timed phase). The headline latency comes from the 100 rps step, which
/// gets the largest share so it alone holds over 1,000 samples. At the
/// lowest rate the workers are least busy, so CPU time the host takes
/// away moves the latency least.
pub const GATE_LADDER: [(f64, f64); 4] = [(100.0, 0.7), (200.0, 0.1), (300.0, 0.1), (400.0, 0.1)];
/// Index of the gate's headline step in [`GATE_LADDER`].
pub const GATE_HEADLINE_STEP: usize = 0;
/// Spans a phase's latency samples are split into (see
/// [`Phase::latency_ms`]).
pub const WINDOWS: usize = 40;
/// Latency objective behind `slo_rate_rps`.
pub const SLO_P99_MS: f64 = 30.0;
/// Gateway shards, and guarded workers per shard.
pub const GATEWAY_SHARDS: usize = 2;
/// Guarded replicas per gateway shard.
pub const SHARD_WORKERS: usize = 1;
/// The tenant whose latency the gateway workload reports.
pub const POLITE_TENANT: u32 = 1;
/// The tenant that floods at twice its admission rate. Its home shard
/// on the consistent-hash ring is shard 1, the polite tenant's is shard
/// 0, so both shards serve traffic (the set-up prints the mapping).
pub const FLOOD_TENANT: u32 = 16;
/// Frame rate of the polite tenant: a gate camera streaming at a fixed
/// rate. The gateway answers one request per connection at a time, so
/// with bursty (Poisson) arrivals or a rate near 1 / round trip, the
/// tenant's latency would mostly be queueing behind its own previous
/// request; at a steady 60 fps it reflects the gateway.
pub const POLITE_RPS: f64 = 60.0;
/// The flood tenant's token bucket.
pub const FLOOD_POLICY: TenantPolicy = TenantPolicy {
    rate_per_s: 25,
    burst: 5,
    quota: None,
};
/// Offered rate of the flood tenant: twice its bucket rate.
pub const FLOOD_RPS: f64 = 50.0;
/// Deadline budget every gateway request ships.
pub const DEADLINE_MS: u32 = 2_000;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop: 16 CNV frames in flight against a 2-worker engine.
    CrowdCnv,
    /// Open loop: single n-CNV frames on a Poisson rate ladder.
    GateNcnv,
    /// Open loop over TCP: two μ-CNV gateway shards, a polite and a
    /// flooding tenant.
    GatewayUcnv,
}

impl Workload {
    /// Every workload, in the order the benchmark defines them.
    pub const ALL: [Workload; 3] = [
        Workload::CrowdCnv,
        Workload::GateNcnv,
        Workload::GatewayUcnv,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrowdCnv => "crowd-cnv",
            Workload::GateNcnv => "gate-ncnv",
            Workload::GatewayUcnv => "gateway-ucnv",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The architecture the workload serves.
    pub fn arch(self) -> ArchKind {
        match self {
            Workload::CrowdCnv => ArchKind::Cnv,
            Workload::GateNcnv => ArchKind::NCnv,
            Workload::GatewayUcnv => ArchKind::MicroCnv,
        }
    }
}

/// A running serving path.
pub enum Serving {
    /// An in-process engine and the registry it reports into.
    Engine(Engine, Registry),
    /// A gateway (it owns its registry).
    Gateway(Gateway),
}

impl Serving {
    /// The registry the serving path exports its counters into.
    pub fn registry(&self) -> &Registry {
        match self {
            Serving::Engine(_, r) => r,
            Serving::Gateway(g) => g.registry(),
        }
    }

    /// Stop the serving path and join every thread it started.
    pub fn shutdown(self) {
        match self {
            Serving::Engine(e, _) => e.shutdown(),
            Serving::Gateway(g) => g.shutdown(),
        }
    }
}

/// One set-up: the serving path plus how long it took to stand up.
pub struct Setup {
    /// The serving path, ready for load.
    pub serving: Serving,
    /// From `BinaryCoP::load_image` to the first verified answer.
    pub setup_s: f64,
    /// The `load_image` part of it.
    pub load_ms: f64,
}

/// Stand up `workload`'s serving path from the saved image and get one
/// verified answer through it. A wrong first answer is an error.
pub fn setup(fx: &Fixture, workload: Workload, traced: bool) -> Result<Setup, String> {
    let t0 = Instant::now();
    let registry = Registry::new();
    let predictor = fx.load()?.with_telemetry(registry.clone());
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cfg = ServeConfig {
        trace: traced.then(TraceConfig::sample_all),
        ..ServeConfig::default()
    };
    let (frame, want) = fx.frame(0);
    let serving = match workload {
        Workload::CrowdCnv | Workload::GateNcnv => {
            let engine = binarycop::serve::engine(&predictor, ENGINE_WORKERS, cfg);
            let got = engine.classify(frame);
            let serving = Serving::Engine(engine, registry);
            if got.map(|c| c.label()) != Ok(want) {
                serving.shutdown();
                return Err(format!("set-up answer {got:?} != oracle class {want}"));
            }
            serving
        }
        Workload::GatewayUcnv => {
            let s = fx.arch.input_size;
            let specs =
                binarycop::gateway::shard_specs(&predictor, GATEWAY_SHARDS, SHARD_WORKERS, cfg);
            let gw_cfg = GatewayConfig {
                probe_frame: Some(canary_frame(3, s, s)),
                tenant_overrides: vec![(FLOOD_TENANT, FLOOD_POLICY)],
                ..GatewayConfig::default()
            };
            let gateway = Gateway::start(specs, gw_cfg, Some(registry))
                .map_err(|e| format!("gateway start: {e}"))?;
            let got = GatewayClient::connect(gateway.local_addr())
                .and_then(|mut c| c.classify(POLITE_TENANT, 0, DEADLINE_MS, frame));
            let serving = Serving::Gateway(gateway);
            match got {
                Ok(r) if r.status == Status::Ok && r.class as usize == want => serving,
                other => {
                    serving.shutdown();
                    return Err(format!("set-up answer {other:?} != oracle class {want}"));
                }
            }
        }
    };
    Ok(Setup {
        serving,
        setup_s: t0.elapsed().as_secs_f64(),
        load_ms,
    })
}

/// Outcome counts of a timed phase. Refusals are tenant-policy refusals
/// only; a failure is an engine error, an expiry or a wire error.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests issued.
    pub attempted: u64,
    /// Answers that matched the oracle.
    pub ok: u64,
    /// Refused by tenant policy.
    pub refused: u64,
    /// Errors, expiries and wire errors.
    pub failed: u64,
    /// Answers that disagreed with the oracle.
    pub wrong: u64,
}

impl Tally {
    fn record(&mut self, outcome: &Completion, want: usize) {
        match outcome {
            Ok(c) if c.label() == want => self.ok += 1,
            Ok(_) => self.wrong += 1,
            Err(_) => self.failed += 1,
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.refused += o.refused;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }

    /// Every request resolved exactly once.
    pub fn balanced(&self) -> bool {
        self.attempted == self.ok + self.wrong + self.refused + self.failed
    }
}

/// What a timed phase observed from the client side.
#[derive(Debug, Default)]
pub struct Phase {
    /// Outcome counts.
    pub tally: Tally,
    /// Wall time of the phase, first request to last answer.
    pub elapsed_s: f64,
    /// The workload's headline latency samples: (answer time in s since
    /// the phase started, latency in ms).
    pub samples: Vec<(f64, f64)>,
    /// How late the generator issued each request, ms: past its due time
    /// (open loop) or past the answer that freed its slot (closed loop).
    pub late_ms: Vec<f64>,
    /// Duration of each `Engine::submit` call, ns.
    pub submit_ns: Vec<f64>,
    /// Gate ladder: (rate, p50 ms, p99 ms, backlog at step end, samples)
    /// per step.
    pub ladder: Vec<(f64, f64, f64, usize, usize)>,
    /// Gateway: polite round trips (send to answer), ms.
    pub rtt_ms: Vec<f64>,
    /// Gateway: round trips of policy refusals, whose server-side work
    /// is decode and admission only, ms.
    pub refused_rtt_ms: Vec<f64>,
    /// Gateway: the flood tenant's own tally.
    pub flood: Tally,
}

impl Phase {
    /// Correct answers per second.
    pub fn throughput_fps(&self) -> f64 {
        self.tally.ok as f64 / self.elapsed_s.max(1e-9)
    }

    /// Latency quantile `q`, ms: taken within each of [`WINDOWS`] equal
    /// spans of the samples' answer times, then the median over spans, so
    /// one burst of host noise moves one span rather than the result.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let (lo, hi) = self
            .samples
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), s| {
                (lo.min(s.0), hi.max(s.0))
            });
        let width = (hi - lo).max(1e-9) / WINDOWS as f64;
        let mut spans = vec![Vec::new(); WINDOWS];
        for &(t, ms) in &self.samples {
            spans[(((t - lo) / width) as usize).min(WINDOWS - 1)].push(ms);
        }
        let per_span: Vec<f64> = spans
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, q))
            .collect();
        median(&per_span)
    }

    /// Highest ladder rate whose step, and every step below it, kept p99
    /// within [`SLO_P99_MS`] with no growing backlog (0 if none did).
    pub fn slo_rate_rps(&self) -> f64 {
        self.ladder
            .iter()
            .take_while(|(rate, _, p99, backlog, _)| {
                *p99 <= SLO_P99_MS && !growing(*rate, *backlog)
            })
            .last()
            .map_or(0.0, |s| s.0)
    }
}

/// A backlog is growing when more requests are still unanswered at the
/// end of a step than twice the SLO's worth of arrivals.
fn growing(rate: f64, backlog: usize) -> bool {
    backlog as f64 > rate * 2.0 * SLO_P99_MS / 1e3
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn timed_submit(engine: &Engine, frame: &bcp_tensor::Tensor, ph: &mut Phase) -> Option<Ticket> {
    let t = Instant::now();
    let r = engine.submit(frame);
    ph.submit_ns.push(t.elapsed().as_nanos() as f64);
    ph.tally.attempted += 1;
    match r {
        Ok(ticket) => Some(ticket),
        Err(_) => {
            ph.tally.failed += 1;
            None
        }
    }
}

/// `crowd-cnv`: keep [`CROWD_IN_FLIGHT`] frames in flight for `span`;
/// latency is submit to answer.
pub fn crowd(engine: &Engine, fx: &Fixture, span: Duration) -> Phase {
    let mut ph = Phase::default();
    let mut inflight: VecDeque<(Ticket, Instant, usize)> = VecDeque::with_capacity(CROWD_IN_FLIGHT);
    let start = Instant::now();
    let stop = start + span;
    let mut next = 0usize;
    let mut answered: Option<Instant> = None;
    loop {
        while inflight.len() < CROWD_IN_FLIGHT && Instant::now() < stop {
            let sent = Instant::now();
            if let Some(a) = answered.take() {
                ph.late_ms.push(ms(sent - a));
            }
            if let Some(t) = timed_submit(engine, fx.frame(next).0, &mut ph) {
                inflight.push_back((t, sent, next));
            }
            next += 1;
        }
        let Some((ticket, sent, i)) = inflight.pop_front() else {
            break;
        };
        let outcome = ticket.wait();
        let now = Instant::now();
        answered = Some(now);
        ph.samples
            .push(((now - start).as_secs_f64(), ms(now - sent)));
        ph.tally.record(&outcome, fx.frame(i).1);
    }
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph
}

struct Pending {
    ticket: Ticket,
    due: Instant,
    frame: usize,
    step: usize,
}

/// `gate-ncnv`: walk [`GATE_LADDER`], submitting single frames on a
/// seeded Poisson schedule from this thread while one collector thread
/// waits the answers. Latency runs from each request's due time. Each
/// step drains before the next starts.
pub fn gate(engine: &Engine, fx: &Fixture, span: Duration, seed: u64) -> Phase {
    let mut ph = Phase::default();
    let done = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<Pending>();
    let start = Instant::now();
    let (mut per_step, collected) = std::thread::scope(|s| {
        let done = &done;
        let collector = s.spawn(move || {
            let mut per_step: Vec<Vec<(f64, f64)>> = vec![Vec::new(); GATE_LADDER.len()];
            let mut tally = Tally::default();
            for p in rx {
                let outcome = p.ticket.wait();
                let now = Instant::now();
                per_step[p.step].push(((now - start).as_secs_f64(), ms(now - p.due)));
                tally.record(&outcome, fx.frame(p.frame).1);
                done.fetch_add(1, Ordering::Release);
            }
            (per_step, tally)
        });
        let mut issued = 0usize;
        let mut backlogs = Vec::with_capacity(GATE_LADDER.len());
        for (step, &(rate, share)) in GATE_LADDER.iter().enumerate() {
            let step_s = span.as_secs_f64() * share;
            let t0 = Instant::now();
            for off in poisson_schedule(seed ^ (0x9A7E << step), rate, step_s) {
                let due = t0 + Duration::from_secs_f64(off);
                sleep_until(due);
                ph.late_ms.push(ms(due.elapsed()));
                let frame = issued;
                issued += 1;
                match timed_submit(engine, fx.frame(frame).0, &mut ph) {
                    Some(ticket) => tx
                        .send(Pending {
                            ticket,
                            due,
                            frame,
                            step,
                        })
                        .expect("collector outlives the submitter"),
                    None => {
                        done.fetch_add(1, Ordering::Release);
                    }
                }
            }
            sleep_until(t0 + Duration::from_secs_f64(step_s));
            backlogs.push(issued - done.load(Ordering::Acquire));
            while done.load(Ordering::Acquire) < issued {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(tx);
        let (per_step, tally) = collector.join().expect("collector thread");
        ph.ladder = GATE_LADDER
            .iter()
            .zip(&per_step)
            .zip(backlogs)
            .map(|((&(rate, _), lat), backlog)| {
                let ms: Vec<f64> = lat.iter().map(|s| s.1).collect();
                (
                    rate,
                    quantile(&ms, 0.5),
                    quantile(&ms, 0.99),
                    backlog,
                    ms.len(),
                )
            })
            .collect();
        (per_step, tally)
    });
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.tally.ok += collected.ok;
    ph.tally.wrong += collected.wrong;
    ph.tally.failed += collected.failed;
    ph.samples = per_step.swap_remove(GATE_HEADLINE_STEP);
    ph
}

/// One connection's open-loop drive.
#[derive(Default)]
struct Drive {
    tally: Tally,
    samples: Vec<(f64, f64)>,
    rtt_ms: Vec<f64>,
    refused_rtt_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

fn drive(
    addr: SocketAddr,
    tenant: u32,
    schedule: &[f64],
    start: Instant,
    fx: &Fixture,
) -> Result<Drive, String> {
    let connect = || GatewayClient::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut client = connect()?;
    let mut d = Drive::default();
    for (i, off) in schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(*off);
        sleep_until(due);
        let sent = Instant::now();
        d.late_ms.push(ms(sent.saturating_duration_since(due)));
        let (frame, want) = fx.frame(i + tenant as usize * 7);
        let id = (u64::from(tenant) << 32) | i as u64;
        d.tally.attempted += 1;
        match client.classify(tenant, id, DEADLINE_MS, frame) {
            Ok(r) if r.request_id != id => d.tally.wrong += 1,
            Ok(r) => match r.status {
                Status::Ok if r.class as usize == want => {
                    d.tally.ok += 1;
                    let now = Instant::now();
                    d.samples.push(((now - start).as_secs_f64(), ms(now - due)));
                    d.rtt_ms.push(ms(sent.elapsed()));
                }
                Status::Ok => d.tally.wrong += 1,
                Status::Throttled | Status::QuotaExhausted => {
                    d.tally.refused += 1;
                    d.refused_rtt_ms.push(ms(sent.elapsed()));
                }
                _ => d.tally.failed += 1,
            },
            Err(_) => {
                d.tally.failed += 1;
                client = connect()?;
            }
        }
    }
    Ok(d)
}

/// `gateway-ucnv`: the polite tenant on this thread's connection at a
/// fixed frame rate, the flood tenant on a second thread's connection on
/// a seeded Poisson schedule.
/// Latency is the polite tenant's, due time to answer.
pub fn gateway(addr: SocketAddr, fx: &Fixture, span: Duration, seed: u64) -> Result<Phase, String> {
    let span_s = span.as_secs_f64();
    let polite_schedule = paced_schedule(seed ^ 0x9011, POLITE_RPS, span_s);
    let flood_schedule = poisson_schedule(seed ^ 0xF100D, FLOOD_RPS, span_s);
    let start = Instant::now() + Duration::from_millis(20);
    let (polite, flood) = std::thread::scope(|s| {
        let flood = s.spawn(|| drive(addr, FLOOD_TENANT, &flood_schedule, start, fx));
        let polite = drive(addr, POLITE_TENANT, &polite_schedule, start, fx);
        (polite, flood.join().expect("flood connection thread"))
    });
    let (polite, flood) = (polite?, flood?);
    let mut ph = Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        samples: polite.samples,
        rtt_ms: polite.rtt_ms,
        refused_rtt_ms: flood.refused_rtt_ms,
        flood: flood.tally,
        ..Phase::default()
    };
    ph.tally = polite.tally;
    ph.tally.merge(&flood.tally);
    ph.late_ms = polite.late_ms;
    ph.late_ms.extend(flood.late_ms);
    Ok(ph)
}
