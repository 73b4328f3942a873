//! Small helpers: seeded randomness, order statistics, `/proc` readers,
//! the host-speed probe, and JSON output.

use std::sync::OnceLock;
use std::time::Instant;

/// Logs a progress line with the time since the first call, to stderr.
pub fn log(what: &str) {
    static START: OnceLock<Instant> = OnceLock::new();
    let start = START.get_or_init(Instant::now);
    eprintln!("[{:7.2}s] {what}", start.elapsed().as_secs_f64());
}

/// splitmix64: the benchmark's only random source, so one `--seed`
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A uniformly random order of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in 0..n {
            let j = i + self.below(n - i);
            v.swap(i, j);
        }
        v
    }
}

/// Quantile by linear interpolation between closest ranks (the
/// "inclusive" method); `q` in `[0, 1]`. Empty input gives 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Process user and system CPU time in clock ticks, from
/// `/proc/self/stat` (fields 14 and 15).
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (
        f.get(11).copied().unwrap_or(0),
        f.get(12).copied().unwrap_or(0),
    )
}

/// The program's default worker count: the available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs `f` with the executor at `workers` worker threads. The executor
/// reads RAYON_NUM_THREADS at every launch. Setting it is safe here: no
/// other thread is running, since every launch joins its scoped workers
/// before it returns.
pub fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("RAYON_NUM_THREADS").ok();
    std::env::set_var("RAYON_NUM_THREADS", workers.to_string());
    let out = f();
    match saved {
        Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// System-wide (steal, total) CPU ticks from the first line of
/// `/proc/stat`: time the hypervisor gave this machine's virtual CPUs to
/// other guests while they had work, and all time.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// The host-speed probe: a fixed round of integer hashing and sorting
/// that calls no code of the measured program, timed five times; the
/// median in milliseconds. A slow host shows here, a slow program does
/// not.
pub fn probe_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = Rng::new(0x5eed, 1);
            let mut v: Vec<u64> = (0..200_000).map(|_| rng.next()).collect();
            v.sort_unstable();
            std::hint::black_box(v.iter().fold(0u64, |a, &x| a ^ x));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One named metric in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result line: one JSON object, printed last.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
