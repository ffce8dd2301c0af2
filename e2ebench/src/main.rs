//! `e2ebench` — the repository benchmark.
//!
//! Runs one named workload against the real serving stack (engine or TCP
//! gateway), checks every answer against the integer oracle, reconciles
//! the client's accounting with the counters the program exports, and
//! prints a report whose last line is one JSON object:
//!
//! ```text
//! e2ebench --workload <crowd-cnv|gate-ncnv|gateway-ucnv> --seed <n>
//!          --seconds <s> --trace <0|1> [--inject-faults <bits>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` splits the
//! time between an untraced and a traced phase and adds the per-layer
//! probes. The exit code is non-zero on any wrong answer or accounting
//! mismatch. See `e2ebench/README.md`.

mod fixture;
mod layers;
mod stats;
mod workloads;

use bcp_finn::data::QuantMap;
use bcp_telemetry::Snapshot;
use bcp_trace::{Segment, TraceSet, SEGMENTS};
use fixture::{host_fingerprint, peak_rss_mb, reset_peak_rss, steal_ms, Fixture};
use stats::{median, quantile};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Phase, Serving, Tally, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

/// Untimed load before each timed phase, answers checked, so timing
/// starts on warm threads, caches and sockets.
const WARMUP: Duration = Duration::from_secs(2);

/// Per-stage metrics of the finn layer across the three architectures
/// (μ-CNV has no `conv6` or `fc3`; its rows read 0).
const STAGE_METRICS: [&str; 11] = [
    "finn.conv1.ns_per_frame",
    "finn.conv2.ns_per_frame",
    "finn.pool1.ns_per_frame",
    "finn.conv3.ns_per_frame",
    "finn.conv4.ns_per_frame",
    "finn.pool2.ns_per_frame",
    "finn.conv5.ns_per_frame",
    "finn.conv6.ns_per_frame",
    "finn.fc1.ns_per_frame",
    "finn.fc2.ns_per_frame",
    "finn.fc3.ns_per_frame",
];

/// Time the per-layer probes get in a traced run.
const PROBE_BUDGET: Duration = Duration::from_millis(5_000);

const USAGE: &str = "usage: e2ebench --workload <crowd-cnv|gate-ncnv|gateway-ucnv> \
     --seed <n> --seconds <s> --trace <0|1> [--inject-faults <bits>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject_faults: usize,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace, mut faults) = (None, None, false, 0usize);
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number '{value}'"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()? as f64),
                "--trace" => trace = num()? != 0,
                "--inject-faults" => faults = num()? as usize,
                _ => return Err(format!("unknown flag '{flag}'")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds < 1.0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            inject_faults: faults,
        })
    }
}

/// A named metric value with its unit.
struct Metric(&'static str, f64, &'static str);

/// What the final JSON line reports.
struct Outcome {
    tally: Tally,
    exact: bool,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.tally.wrong == 0 && outcome.exact;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|Metric(name, v, unit)| {
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2ebench: {} wrong answers, accounting {}",
            outcome.tally.wrong,
            if outcome.exact { "exact" } else { "MISMATCHED" }
        );
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    println!("{}", host_fingerprint());
    let w = args.workload;
    let fx = Fixture::prepare(w.arch(), args.seed, args.inject_faults)?;
    println!(
        "workload: {} arch={} seed={} seconds={} trace={} frames={} (generate_balanced 32x32) oracle=IntegerReference{}",
        w.name(),
        fx.arch.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fx.frames.len(),
        if args.inject_faults > 0 {
            format!(" injected_faults={}", args.inject_faults)
        } else {
            String::new()
        }
    );
    reset_peak_rss();

    let (mut setup_s, mut load_ms) = (Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        let s = workloads::setup(&fx, w, false)?;
        setup_s.push(s.setup_s);
        load_ms.push(s.load_ms);
        if let Some(prev) = kept.replace(s.serving) {
            prev.shutdown();
        }
    }
    println!(
        "setup: {SETUP_REPEATS} set-ups, median {:.4} s (load_image median {:.2} ms)",
        median(&setup_s),
        median(&load_ms)
    );
    let serving = kept.expect("at least one set-up");
    if let Serving::Gateway(g) = &serving {
        let shard = |t| g.router().preference(t).first().copied().unwrap_or(0);
        println!(
            "gateway: polite tenant {} -> shard {}, flood tenant {} -> shard {}",
            workloads::POLITE_TENANT,
            shard(workloads::POLITE_TENANT),
            workloads::FLOOD_TENANT,
            shard(workloads::FLOOD_TENANT)
        );
    }
    let span = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let Timed {
        phase: plain,
        exact,
        ..
    } = timed(serving, &fx, w, span, args.seed)?;
    let peak = peak_rss_mb();
    report_phase(w, "untraced", &plain);

    if !args.trace {
        return Ok(Outcome {
            tally: plain.tally,
            exact,
            metrics: vec![
                Metric("throughput_fps", plain.throughput_fps(), "fps"),
                Metric("latency_p50_ms", plain.latency_ms(0.5), "ms"),
                Metric("latency_p99_ms", plain.latency_ms(0.99), "ms"),
                Metric("setup_s", median(&setup_s), "s"),
                Metric("peak_rss_mb", peak, "MB"),
            ],
        });
    }

    let traced_setup = workloads::setup(&fx, w, true)?;
    let tracer = match &traced_setup.serving {
        Serving::Engine(e, _) => e.tracer(),
        Serving::Gateway(_) => None,
    };
    let Timed {
        phase: traced,
        exact: traced_exact,
        before,
        after,
    } = timed(traced_setup.serving, &fx, w, span, args.seed)?;
    report_phase(w, "traced", &traced);
    let mut tally = plain.tally;
    tally.merge(&traced.tally);

    let mut m = Vec::new();
    layer_probes(&fx, median(&load_ms), &mut m)?;
    path_metrics(
        w,
        &plain,
        &traced,
        &before,
        &after,
        tracer.as_deref(),
        &mut m,
    );
    Ok(Outcome {
        tally,
        exact: exact && traced_exact,
        metrics: m,
    })
}

/// A finished timed phase and the exported counters around it.
struct Timed {
    phase: Phase,
    /// Client tally and exported counters agree.
    exact: bool,
    before: Snapshot,
    after: Snapshot,
}

/// Engine counters still owed for requests already answered: a worker
/// bumps `serve.ok` just after it completes the client's slot.
fn unsettled(s: &Snapshot) -> bool {
    let c = |n: &str| s.counters.get(n).copied().unwrap_or(0);
    c("serve.requests")
        != c("serve.ok")
            + c("serve.failed")
            + c("serve.expired")
            + c("serve.rejected")
            + c("serve.shed")
}

/// Drive one timed phase on `serving`, shut it down, and reconcile the
/// client tally with the exported counters.
fn timed(
    serving: Serving,
    fx: &Fixture,
    w: Workload,
    span: Duration,
    seed: u64,
) -> Result<Timed, String> {
    // The warm-up's inputs come from another seed than the timed phase's.
    let warm = load(&serving, fx, w, WARMUP, !seed).and_then(|p| match p.tally.wrong {
        0 => Ok(()),
        n => Err(format!("warm-up: {n} answers disagree with the oracle")),
    });
    if let Err(e) = warm {
        serving.shutdown();
        return Err(e);
    }
    let registry = serving.registry().clone();
    let mut before = registry.snapshot();
    if let Serving::Engine(..) = serving {
        let give_up = Instant::now() + Duration::from_secs(2);
        while unsettled(&before) && Instant::now() < give_up {
            std::thread::sleep(Duration::from_millis(1));
            before = registry.snapshot();
        }
    }
    let stolen = steal_ms();
    let phase = match load(&serving, fx, w, span, seed) {
        Ok(phase) => phase,
        Err(e) => {
            serving.shutdown();
            return Err(e);
        }
    };
    println!(
        "host: {} ms of CPU time stolen during the {:.1} s phase",
        steal_ms().saturating_sub(stolen),
        phase.elapsed_s
    );
    serving.shutdown();
    let after = registry.snapshot();
    println!(
        "engine: mean batch size {:.3} frames",
        mean_batch(&before, &after)
    );
    let exact = reconcile(w, &phase.tally, &before, &after);
    Ok(Timed {
        phase,
        exact,
        before,
        after,
    })
}

/// Drive `w`'s load on `serving` for `span`.
fn load(
    serving: &Serving,
    fx: &Fixture,
    w: Workload,
    span: Duration,
    seed: u64,
) -> Result<Phase, String> {
    match serving {
        Serving::Engine(engine, _) => Ok(match w {
            Workload::CrowdCnv => workloads::crowd(engine, fx, span),
            _ => workloads::gate(engine, fx, span, seed),
        }),
        Serving::Gateway(gw) => workloads::gateway(gw.local_addr(), fx, span, seed),
    }
}

fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> u64 {
    let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}

/// Mean frames per batch the engines sealed between two snapshots.
fn mean_batch(before: &Snapshot, after: &Snapshot) -> f64 {
    let hist = |s: &Snapshot| {
        s.histograms
            .get("serve.batch_size")
            .map_or((0.0, 0.0), |h| (h.count as f64, h.sum as f64))
    };
    let ((c0, s0), (c1, s1)) = (hist(before), hist(after));
    (s1 - s0) / (c1 - c0).max(1.0)
}

/// Check `attempted == ok + refused + failed` on the client side and
/// against the serving path's own counters; print the ledger.
fn reconcile(w: Workload, t: &Tally, before: &Snapshot, after: &Snapshot) -> bool {
    let d = |name: &str| delta(after, before, name);
    let sum = |names: &[&str]| names.iter().map(|n| d(n)).sum::<u64>();
    let checks: Vec<(&str, u64, u64)> = match w {
        Workload::GatewayUcnv => vec![
            ("gateway.frames", d("gateway.frames"), t.attempted),
            ("gateway.status.ok", d("gateway.status.ok"), t.ok + t.wrong),
            (
                "gateway.status.{throttled,quota_exhausted}",
                sum(&["gateway.status.throttled", "gateway.status.quota_exhausted"]),
                t.refused,
            ),
            (
                "gateway.status.<failures>",
                sum(&[
                    "gateway.status.rejected",
                    "gateway.status.shed",
                    "gateway.status.deadline_expired",
                    "gateway.status.no_healthy_shard",
                    "gateway.status.worker_fault",
                    "gateway.status.shutting_down",
                    "gateway.status.bad_request",
                ]),
                t.failed,
            ),
        ],
        _ => vec![
            ("serve.requests", d("serve.requests"), t.attempted),
            ("serve.ok", d("serve.ok"), t.ok + t.wrong),
            (
                "serve.{failed,expired,rejected,shed}",
                sum(&[
                    "serve.failed",
                    "serve.expired",
                    "serve.rejected",
                    "serve.shed",
                ]),
                t.failed,
            ),
            ("serve.abandoned", d("serve.abandoned"), 0),
        ],
    };
    let mut exact = t.balanced();
    println!(
        "accounting: attempted={} ok={} wrong={} refused={} failed={} (failed_ratio {:?})",
        t.attempted,
        t.ok,
        t.wrong,
        t.refused,
        t.failed,
        t.failed as f64 / t.attempted.max(1) as f64
    );
    for (name, counted, expected) in checks {
        let ok = counted == expected;
        exact &= ok;
        println!(
            "  {name:<44} {counted:>7} {} client {expected}",
            if ok { "==" } else { "!=" }
        );
    }
    exact
}

fn report_phase(w: Workload, label: &str, p: &Phase) {
    println!(
        "{label} phase: {:.2} s, throughput_fps {:.2} fps, latency_p50_ms {:.3} ms, latency_p99_ms {:.3} ms over {} samples, loadgen late p99 {:.3} ms",
        p.elapsed_s,
        p.throughput_fps(),
        p.latency_ms(0.5),
        p.latency_ms(0.99),
        p.samples.len(),
        quantile(&p.late_ms, 0.99)
    );
    match w {
        Workload::GateNcnv => {
            for (rate, p50, p99, backlog, n) in &p.ladder {
                println!("  step {rate:>5.0} rps: p50 {p50:8.3} ms, p99 {p99:8.3} ms, backlog at end {backlog}, {n} answers");
            }
            println!(
                "  slo_rate_rps {:?} rps (p99 <= {} ms, no growing backlog)",
                p.slo_rate_rps(),
                workloads::SLO_P99_MS
            );
        }
        Workload::GatewayUcnv => println!(
            "  polite round trip ms p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}; refusal round trip p50 {:.3} p99 {:.3}\n  flood tenant: {} attempted, {} refused by policy ({:.3}), {} ok",
            quantile(&p.rtt_ms, 0.5),
            quantile(&p.rtt_ms, 0.9),
            quantile(&p.rtt_ms, 0.99),
            quantile(&p.rtt_ms, 1.0),
            quantile(&p.refused_rtt_ms, 0.5),
            quantile(&p.refused_rtt_ms, 0.99),
            p.flood.attempted,
            p.flood.refused,
            p.flood.refused as f64 / p.flood.attempted.max(1) as f64,
            p.flood.ok
        ),
        Workload::CrowdCnv => {}
    }
}

/// The single-call and finn probes, on the workload's architecture.
fn layer_probes(fx: &Fixture, load_ms: f64, m: &mut Vec<Metric>) -> Result<(), String> {
    let predictor = fx.load()?;
    let s = fx.arch.input_size;
    let frames: Vec<QuantMap> = (0..layers::PROBE_FRAMES)
        .map(|i| QuantMap::from_unit_floats(3, s, s, fx.frame(i).0.as_slice()))
        .collect();
    let finn = layers::finn(predictor.pipeline(), &frames, PROBE_BUDGET * 3 / 5);
    println!(
        "finn stages ({}; bit-MACs are computed from stage dims, not counted):",
        fx.arch.name
    );
    print!("{}", finn.render());
    let stage_ns = |name: &str| {
        finn.stages
            .iter()
            .find(|s| s.0 == name)
            .map_or(0.0, |s| s.1)
    };
    for metric in STAGE_METRICS {
        let stage = metric.split('.').nth(1).unwrap_or_default();
        m.push(Metric(metric, stage_ns(stage), "ns"));
    }
    m.push(Metric("finn.forward.ns_per_frame", finn.forward_ns, "ns"));
    m.push(Metric(
        "finn.forward_batch.ns_per_frame",
        finn.batch_ns,
        "ns",
    ));
    m.push(Metric(
        "finn.bitmac_per_ns",
        finn.bitmac_per_ns(),
        "bitmac/ns",
    ));
    m.push(Metric(
        "finn.stage_sum_error_pct",
        finn.stage_sum_error_pct,
        "%",
    ));

    let calls = layers::calls(&predictor, fx.frame(0).0, PROBE_BUDGET * 2 / 5);
    m.push(Metric(
        "predictor.quantize.ns_per_frame",
        calls.quantize_ns,
        "ns",
    ));
    m.push(Metric("predictor.load_image.ms", load_ms, "ms"));
    m.push(Metric("serve.canary.ns", calls.canary_ns, "ns"));
    m.push(Metric(
        "guard.digest_verify.ns",
        calls.digest_verify_ns,
        "ns",
    ));
    m.push(Metric("gateway.encode_request.ns", calls.encode_ns, "ns"));
    m.push(Metric("gateway.decode_message.ns", calls.decode_ns, "ns"));
    m.push(Metric("gateway.admit.ns", calls.admit_ns, "ns"));
    Ok(())
}

/// Metrics observed on the serving path during the traced phase, plus
/// the trace overhead against the untraced phase. Layers the workload's
/// path does not run read 0.
fn path_metrics(
    w: Workload,
    plain: &Phase,
    traced: &Phase,
    before: &Snapshot,
    after: &Snapshot,
    tracer: Option<&bcp_trace::Tracer>,
    m: &mut Vec<Metric>,
) {
    let d = |name: &str| delta(after, before, name) as f64;
    let mean_batch = mean_batch(before, after);

    // Segment medians from the engine's own trace records.
    let set = tracer.map(|t| TraceSet::new(t.drain(), t.dropped()));
    let seg_p50 = |seg: Segment| {
        set.as_ref().map_or(0.0, |set| {
            let v: Vec<f64> = set
                .completed()
                .filter_map(|r| r.segment_ns(seg))
                .map(|ns| ns as f64 / 1e6)
                .collect();
            quantile(&v, 0.5)
        })
    };
    if let Some(set) = &set {
        println!(
            "engine segments ({} traced requests, {} dropped), ms p50:",
            set.completed().count(),
            set.dropped
        );
        for seg in SEGMENTS {
            println!("  {:<11} {:.4}", seg.name(), seg_p50(seg));
        }
    }

    let answers = match w {
        Workload::GatewayUcnv => d("gateway.status.ok"),
        _ => d("serve.ok"),
    };
    let share_min = match w {
        Workload::GatewayUcnv => shares(
            &(0..workloads::GATEWAY_SHARDS)
                .map(|s| d(&format!("gateway.shard.{s}.dispatched")))
                .collect::<Vec<_>>(),
        ),
        _ => shares(
            &(0..workloads::ENGINE_WORKERS)
                .map(|k| d(&format!("serve.worker.{k}.batches")))
                .collect::<Vec<_>>(),
        ),
    };
    let submit_p50 = if w == Workload::GatewayUcnv {
        0.0
    } else {
        quantile(&traced.submit_ns, 0.5)
    };
    m.push(Metric("serve.submit.ns_p50", submit_p50, "ns"));
    m.push(Metric(
        "serve.queue_wait.ms_p50",
        seg_p50(Segment::QueueWait),
        "ms",
    ));
    m.push(Metric(
        "serve.batch_wait.ms_p50",
        seg_p50(Segment::BatchWait),
        "ms",
    ));
    m.push(Metric(
        "serve.dispatch.ms_p50",
        seg_p50(Segment::Dispatch),
        "ms",
    ));
    m.push(Metric(
        "serve.compute.ms_p50",
        seg_p50(Segment::Compute),
        "ms",
    ));
    m.push(Metric(
        "serve.delivery.ms_p50",
        seg_p50(Segment::Delivery),
        "ms",
    ));
    m.push(Metric("serve.mean_batch_size", mean_batch, "frames"));
    m.push(Metric("serve.worker_batch_share_min", share_min, "ratio"));
    m.push(Metric(
        "serve.canary_inferences_per_answer",
        d("serve.batches") / answers.max(1.0),
        "count",
    ));

    let gw = w == Workload::GatewayUcnv;
    let gw_only = |v: f64| if gw { v } else { 0.0 };
    let server_p50 = after
        .histograms
        .get("gateway.latency_ns")
        .map_or(0.0, |h| h.p50 as f64 / 1e6);
    let probes: f64 = (0..workloads::GATEWAY_SHARDS)
        .map(|s| d(&format!("gateway.shard.{s}.probes")))
        .sum();
    let admitted = d("gateway.frames") - d("gateway.status.throttled");
    m.push(Metric(
        "gateway.server_latency.ms_p50",
        gw_only(server_p50),
        "ms",
    ));
    m.push(Metric(
        "gateway.wire_overhead.ms_p50",
        gw_only(quantile(&traced.refused_rtt_ms, 0.5)),
        "ms",
    ));
    m.push(Metric(
        "gateway.flood_refused_ratio",
        gw_only(traced.flood.refused as f64 / traced.flood.attempted.max(1) as f64),
        "ratio",
    ));
    m.push(Metric(
        "gateway.retries_per_request",
        gw_only(d("gateway.retries") / admitted.max(1.0)),
        "count",
    ));
    m.push(Metric(
        "gateway.probe_inferences_per_answer",
        gw_only(probes / answers.max(1.0)),
        "count",
    ));
    if gw {
        println!(
            "gateway: server latency_ns p50 {server_p50:.4} ms (all responses), polite round trip p50 {:.4} ms, refusal round trip p50 {:.4} ms",
            quantile(&traced.rtt_ms, 0.5),
            quantile(&traced.refused_rtt_ms, 0.5)
        );
    }

    // Tracing cost: closed loop pays it in throughput, open loop in
    // latency at the same offered load.
    let overhead = match w {
        Workload::CrowdCnv => plain.throughput_fps() / traced.throughput_fps().max(1e-9) - 1.0,
        _ => traced.latency_ms(0.5) / plain.latency_ms(0.5).max(1e-9) - 1.0,
    };
    m.push(Metric("trace.overhead_pct", overhead * 100.0, "%"));
    m.push(Metric(
        "loadgen.late_p99_ms",
        quantile(&plain.late_ms, 0.99),
        "ms",
    ));
}

/// The smallest share of the total among `counts` (0 if all are 0).
fn shares(counts: &[f64]) -> f64 {
    let total: f64 = counts.iter().sum();
    counts.iter().copied().fold(f64::INFINITY, f64::min) / total.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use binarycop::arch::ArchKind;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 11,
            seconds: 2.0,
            trace,
            inject_faults: 0,
        }
    }

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        spec[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn printed(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|Metric(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_workload_passes_a_smoke_run_with_exact_accounting() {
        for w in Workload::ALL {
            let o = run(&args(w, false)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(o.exact, "{}: accounting mismatch", w.name());
            assert_eq!((o.tally.wrong, o.tally.failed), (0, 0), "{}", w.name());
            assert!(o.tally.attempted > 0 && o.tally.balanced(), "{}", w.name());
            assert_eq!(printed(&o), declared("end_to_end"), "{}", w.name());
            assert!(
                o.metrics.iter().all(|m| m.1 > 0.0),
                "{}: a zero metric",
                w.name()
            );
        }
    }

    #[test]
    fn traced_runs_print_every_per_layer_metric() {
        for w in [Workload::GateNcnv, Workload::GatewayUcnv] {
            let o = run(&args(w, true)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(o.exact && o.tally.wrong == 0, "{}", w.name());
            assert_eq!(printed(&o), declared("per_layer"), "{}", w.name());
            assert!(o.metrics.iter().all(|m| m.1.is_finite()), "{}", w.name());
        }
    }

    #[test]
    fn the_checker_reports_a_faulted_pipeline_wrong() {
        // Flip ~5% of n-CNV's weight bits in the served image while the
        // oracle keeps the clean network: the run must not pass.
        let faulted = Args {
            inject_faults: 5_000,
            ..args(Workload::GateNcnv, false)
        };
        match run(&faulted) {
            Err(e) => assert!(e.contains("oracle"), "unexpected failure: {e}"),
            Ok(o) => assert!(o.tally.wrong > 0, "faulted pipeline passed the checker"),
        }
    }

    #[test]
    fn the_oracle_agrees_with_the_clean_pipeline_on_every_frame() {
        let fx = Fixture::prepare(ArchKind::MicroCnv, 3, 0).expect("fixture");
        let p = fx.load().expect("image loads");
        for (f, &want) in fx.frames.iter().zip(&fx.expected) {
            assert_eq!(p.classify(f).label(), want);
        }
    }
}
