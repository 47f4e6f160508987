//! Small helpers: quantiles, digests, process memory and host facts.

use std::path::PathBuf;

/// Linear-interpolated quantile `q` in `0..=1` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// FNV-1a over `bytes`: a digest that is stable across processes and
/// builds, unlike the standard library's randomly keyed hashers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: turns a small command-line seed (and a salt)
/// into a well-spread generator seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This process's high-water resident set, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `(available_parallelism, logical CPUs listed by the kernel, CPU model)`.
pub fn host_facts() -> (usize, usize, String) {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_owned(), |m| m.trim().to_owned());
    (parallelism, cpus, model)
}

/// Where the run writes its span files and daemon sockets: inside the
/// build directory, so a checkout stays clean.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    base.join("e2ebench")
}

/// Times, in ns, a fixed piece of allocation-, hashing- and sorting-heavy
/// work that uses none of the repository's code. On a shared host whose
/// speed drifts over seconds, a latency divided by a probe run beside it
/// stays steady while the raw latency does not; a change to the verifier
/// moves the latency and leaves the probe alone.
pub fn host_probe() -> u64 {
    let started = std::time::Instant::now();
    let mut map: std::collections::HashMap<String, Vec<u32>> = std::collections::HashMap::new();
    for i in 0..40_000u32 {
        map.entry(format!("S{} Q<{}:{}>", i % 4093, i % 37, i))
            .or_default()
            .push(i);
    }
    let mut keys: Vec<(&String, usize)> = map.iter().map(|(k, v)| (k, v.len())).collect();
    keys.sort();
    std::hint::black_box(keys.len());
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
