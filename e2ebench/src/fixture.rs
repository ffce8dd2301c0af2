//! Inputs of a run — the deployed image, the seeded frames and their
//! oracle answers — plus the host fingerprint and process-memory probes.

use bcp_dataset::{Dataset, GeneratorConfig};
use bcp_finn::data::QuantMap;
use bcp_finn::fault::inject_random_faults;
use bcp_tensor::Tensor;
use binarycop::arch::{Arch, ArchKind};
use binarycop::reference::IntegerReference;
use binarycop::BinaryCoP;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Seed of the deployed network's weights. Fixed, so every run of every
/// seed serves the same accelerator; `--seed` only varies the inputs.
pub const WEIGHT_SEED: u64 = 0xB1C0;

/// Frames per class in a run's frame pool; requests cycle through it.
pub const FRAMES_PER_CLASS: usize = 16;

/// Where a run keeps its pipeline image (relative to the working
/// directory). Removed when the run ends.
pub const WORK_DIR: &str = ".e2ebench-work";

/// Everything a run serves and checks against.
pub struct Fixture {
    /// The deployed architecture.
    pub arch: Arch,
    /// The saved pipeline image every set-up loads.
    pub image: PathBuf,
    /// The seeded frame pool, CHW on the 8-bit grid.
    pub frames: Vec<Tensor>,
    /// Oracle class of each frame, from the integer reference evaluator.
    pub expected: Vec<usize>,
}

impl Fixture {
    /// Deploy the fixed-seed network, save its pipeline image, generate
    /// the frame pool from `seed` and classify it with the oracle. With
    /// `faults > 0` the *saved* pipeline gets that many random weight-bit
    /// flips while the oracle stays clean — the checker must then report
    /// wrong answers.
    pub fn prepare(kind: ArchKind, seed: u64, faults: usize) -> Result<Fixture, String> {
        let (net, arch) = bcp_bench::deployable(kind, WEIGHT_SEED);
        let gen = GeneratorConfig {
            img_size: arch.input_size,
            ..GeneratorConfig::default()
        };
        let ds = Dataset::generate_balanced(&gen, FRAMES_PER_CLASS, seed);
        let frames: Vec<Tensor> = (0..ds.len()).map(|i| ds.image(i)).collect();
        let s = arch.input_size;
        // The oracle is plain nested loops (tens of ms per CNV frame), so
        // it runs on one thread per core, before any timing starts.
        let oracle = IntegerReference::from_network(&net, &arch);
        let classify =
            |f: &Tensor| oracle.classify(&QuantMap::from_unit_floats(3, s, s, f.as_slice()));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let chunk = frames.len().div_ceil(cores);
        let expected: Vec<usize> = std::thread::scope(|sc| {
            let parts: Vec<_> = frames
                .chunks(chunk)
                .map(|part| sc.spawn(move || part.iter().map(classify).collect::<Vec<_>>()))
                .collect();
            parts
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        drop(oracle);
        let mut predictor = BinaryCoP::from_trained(&net, &arch);
        if faults > 0 {
            inject_random_faults(predictor.pipeline_mut(), faults, seed ^ 0xFA17);
        }
        std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let image = Path::new(WORK_DIR).join(format!(
            "{}-{}-{}-{}.json",
            kind_slug(kind),
            seed,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        predictor
            .save_image(&image)
            .map_err(|e| format!("{}: {e}", image.display()))?;
        Ok(Fixture {
            arch,
            image,
            frames,
            expected,
        })
    }

    /// Frame `i` of the pool (indices wrap).
    pub fn frame(&self, i: usize) -> (&Tensor, usize) {
        let k = i % self.frames.len();
        (&self.frames[k], self.expected[k])
    }

    /// Load the deployed image — the first step of every set-up.
    pub fn load(&self) -> Result<BinaryCoP, String> {
        BinaryCoP::load_image(&self.image, &self.arch)
            .map_err(|e| format!("{}: {e}", self.image.display()))
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.image);
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

fn kind_slug(kind: ArchKind) -> &'static str {
    match kind {
        ArchKind::Cnv => "cnv",
        ArchKind::NCnv => "ncnv",
        ArchKind::MicroCnv => "ucnv",
    }
}

/// One line identifying the machine and build the numbers came from.
/// The workspace builds with `target-cpu=native`, so results compare only
/// across hosts with the same fingerprint.
pub fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let simd: Vec<&str> = ["avx2", "avx512f", "avx512_vpopcntdq", "avx512_vnni"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let git = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    }
    .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpu=\"{}\" simd={} rustc=\"{rustc}\" git={git}",
        field("model name"),
        if simd.is_empty() {
            "none".to_string()
        } else {
            simd.join(",")
        }
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand freed heap back to the OS and restart the peak-RSS watermark, so
/// the peak measured afterwards excludes the oracle and input generation.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen from this machine so far, in ms (the `steal`
/// column of `/proc/stat`, at the usual 100 ticks per second). Printed
/// beside each timed phase: a noisy neighbour shows up here, not in the
/// program.
pub fn steal_ms() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<u64>().ok())
        })
        .map_or(0, |ticks| ticks * 10)
}
