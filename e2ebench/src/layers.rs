//! Per-layer probes: each layer timed from outside, through the public
//! functions it exports, on the workload's own architecture and frames.
//! Nothing here adds instrumentation inside the program.

use bcp_finn::data::{QuantMap, StageData};
use bcp_finn::{GoldenDigest, Pipeline, Stage};
use bcp_gateway::protocol::{decode_message, encode_request};
use bcp_gateway::{RequestFrame, TenantPolicy, TenantTable};
use bcp_serve::{canary_frame, Replica};
use bcp_tensor::Tensor;
use binarycop::BinaryCoP;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Frames per finn probe round; also the `forward_batch` batch size.
pub const PROBE_FRAMES: usize = 8;

/// Call `f` in rounds until `budget` is spent (at least `min_rounds`),
/// each round `reps` calls; returns the median ns per call.
fn per_call_ns(min_rounds: usize, reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < min_rounds || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    median(&samples)
}

/// The finn layer: every stage, the whole pipeline at B=1 and B=8.
pub struct FinnProbe {
    /// (stage name, ns per frame, FINN cycle-model cycles per frame).
    pub stages: Vec<(String, f64, u64)>,
    /// `Pipeline::forward`, ns per frame.
    pub forward_ns: f64,
    /// `Pipeline::forward_batch` at B=8, ns per frame.
    pub batch_ns: f64,
    /// Bit-MACs of one frame, computed from the stage dimensions.
    pub bitmacs_per_frame: u64,
    /// |Σ stages − forward| / forward, %: the median over frames of each
    /// frame's staged pass against its own `forward` call.
    pub stage_sum_error_pct: f64,
}

impl FinnProbe {
    /// Computed bit-MACs per ns on the serving kernel (`forward_batch`).
    pub fn bitmac_per_ns(&self) -> f64 {
        self.bitmacs_per_frame as f64 / self.batch_ns.max(1e-9)
    }

    /// Per-stage table: measured share beside the FINN cycle-model share.
    pub fn render(&self) -> String {
        let total_ns: f64 = self.stages.iter().map(|s| s.1).sum();
        let total_cy: u64 = self.stages.iter().map(|s| s.2).sum();
        let mut out = String::from("stage       ns/frame   measured%   finn-model%\n");
        for (name, ns, cy) in &self.stages {
            out += &format!(
                "{name:<8} {ns:>11.0} {:>11.1} {:>13.1}\n",
                ns / total_ns.max(1e-9) * 100.0,
                *cy as f64 / total_cy.max(1) as f64 * 100.0
            );
        }
        out
    }
}

/// Time every stage of `pipeline` through `Stage::process`, frame by
/// frame in pipeline order (the same cache state `forward` sees). Each
/// frame's staged pass runs right after its `forward` call, so host noise
/// slower than a frame cancels in the pair.
pub fn finn(pipeline: &Pipeline, frames: &[QuantMap], budget: Duration) -> FinnProbe {
    let stages = pipeline.stages();
    let (mut fwd, mut batch, mut pair_error) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_stage = vec![Vec::new(); stages.len()];
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let end = Instant::now() + budget;
    while batch.len() < 3 || Instant::now() < end {
        let t = Instant::now();
        for chunk in frames.chunks(PROBE_FRAMES) {
            black_box(pipeline.forward_batch(chunk));
        }
        batch.push(ns(t) / frames.len() as f64);
        for q in frames {
            let t = Instant::now();
            black_box(pipeline.forward(q));
            let whole = ns(t);
            fwd.push(whole);
            let mut token = StageData::Quant(q.clone());
            let mut sum = 0.0;
            for (stage, samples) in stages.iter().zip(&mut per_stage) {
                let t = Instant::now();
                token = stage.process(token);
                let took = ns(t);
                samples.push(took);
                sum += took;
            }
            black_box(token);
            pair_error.push((sum - whole) / whole.max(1.0));
        }
    }
    FinnProbe {
        stages: stages
            .iter()
            .zip(&per_stage)
            .map(|(s, v)| (s.name().to_string(), median(v), s.cycles_per_frame()))
            .collect(),
        forward_ns: median(&fwd),
        batch_ns: median(&batch),
        bitmacs_per_frame: stages.iter().map(bitmacs).sum(),
        stage_sum_error_pct: median(&pair_error).abs() * 100.0,
    }
}

/// Bit-MACs of one frame through `stage`: rows × cols of its weight
/// matrix per output pixel (the first layer's are 8-bit-input MACs).
fn bitmacs(stage: &Stage) -> u64 {
    let Some(w) = stage.weight_matrix() else {
        return 0;
    };
    let (_, h, wd) = stage.out_dims();
    (w.rows() * w.cols() * h * wd) as u64
}

/// Single-call costs of the predictor, serve, guard and gateway layers.
pub struct CallProbe {
    /// `BinaryCoP::quantize`, ns per frame.
    pub quantize_ns: f64,
    /// `Replica::canary` on the engine's canary frame, ns.
    pub canary_ns: f64,
    /// `GoldenDigest::verify` over the whole pipeline, ns.
    pub digest_verify_ns: f64,
    /// `encode_request` of one frame, ns.
    pub encode_ns: f64,
    /// `decode_message` of one encoded frame, ns.
    pub decode_ns: f64,
    /// `TenantTable::admit`, ns.
    pub admit_ns: f64,
}

/// Time the single-call layer entry points on `predictor` and `frame`.
pub fn calls(predictor: &BinaryCoP, frame: &Tensor, budget: Duration) -> CallProbe {
    let s = predictor.arch().input_size;
    let canary = canary_frame(3, s, s);
    let digest = GoldenDigest::capture(predictor.pipeline());
    let req = RequestFrame::from_tensor(1, 7, 2_000, frame);
    let bytes = encode_request(&req);
    let table = TenantTable::new(TenantPolicy::default(), None);
    let mut now_ns = 0u64;
    let slice = budget / 6;
    CallProbe {
        quantize_ns: per_call_ns(5, 64, slice, || {
            black_box(predictor.quantize(black_box(frame)));
        }),
        canary_ns: per_call_ns(5, 1, slice, || {
            black_box(Replica::canary(predictor, &canary));
        }),
        digest_verify_ns: per_call_ns(5, 1, slice, || {
            black_box(digest.verify(predictor.pipeline()));
        }),
        encode_ns: per_call_ns(5, 64, slice, || {
            black_box(encode_request(black_box(&req)));
        }),
        decode_ns: per_call_ns(5, 64, slice, || {
            black_box(decode_message(black_box(&bytes)).is_ok());
        }),
        admit_ns: per_call_ns(5, 1_000, slice, || {
            now_ns += 1_000_000;
            black_box(table.admit(1, now_ns));
        }),
    }
}
