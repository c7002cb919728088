//! Host descriptor: what a result must carry so that numbers from
//! different hosts, kernel paths or code are never compared.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The host and code a run measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostDescriptor {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Int8 kernel path the vectorized inference kernel dispatches to.
    pub kernel_path: &'static str,
    /// Git revision of the checkout, when it is a git repository.
    pub git_rev: Option<String>,
    /// FNV-64 over the workspace sources, so a checkout without git
    /// history is still identified.
    pub source_fnv: u64,
    /// Host-thread budget of every workload.
    pub threads: usize,
    /// The one CPU the process is pinned to, if pinning succeeded.
    pub cpu: Option<usize>,
    /// Serve worker threads of the closed-loop fleet's shared service.
    pub serve_workers: usize,
}

impl HostDescriptor {
    /// Describes this process, hashing the sources under `root`.
    pub fn detect(root: &Path, serve_workers: usize) -> Self {
        HostDescriptor {
            nproc: nproc(),
            kernel_path: kernel_path(),
            git_rev: git_rev(root),
            source_fnv: source_fingerprint(root),
            threads: 1,
            cpu: None,
            serve_workers,
        }
    }
}

impl fmt::Display for HostDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host: nproc={} kernel={} rev={} src-fnv={:016x} threads={} serve-workers={} pinned-cpu={}",
            self.nproc,
            self.kernel_path,
            self.git_rev.as_deref().unwrap_or("none"),
            self.source_fnv,
            self.threads,
            self.serve_workers,
            self.cpu.map_or("none".to_string(), |c| c.to_string())
        )
    }
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The int8 GEMM path `nn::kernel` selects at run time: it takes the
/// AVX2 instantiation exactly when this same feature check passes.
fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// `git rev-parse HEAD` in `root`, if git and a repository are there.
fn git_rev(root: &Path) -> Option<String> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-64 over the relative paths and contents of the workspace manifest,
/// lockfile and every file under `crates/`, in sorted path order.
fn source_fingerprint(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut hash = FNV_OFFSET;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(&path);
        hash = fnv(hash, rel.to_string_lossy().as_bytes());
        hash = fnv(hash, &bytes);
    }
    hash
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Limits glibc malloc to a single arena. The edge workloads' tier pools
/// spawn short-lived worker threads on every dispatch; with per-thread
/// arenas the process's peak RSS measured arena slack that varied by
/// ~15% between identical runs. Does nothing on other C libraries.
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX` parameter.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only adjusts allocator tuning and is called
        // before this process starts any other thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Restricts this process, and every thread it starts later, to the
/// lowest-numbered CPU it may run on; returns that CPU, or `None` where
/// affinity cannot be set. Call before starting any thread.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A `cpu_set_t` of 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// CPU time consumed so far by every thread of this process, live or
/// exited (`CLOCK_PROCESS_CPUTIME_ID`), or `None` off Linux.
pub fn cpu_time() -> Option<Duration> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) for the duration of the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds [`reference_work`] takes on a host of reference speed.
/// Host-time metrics are scaled to this speed; see [`host_speed`].
pub const REFERENCE_S: f64 = 0.02;

/// Fixed numeric work that no code of the repository runs: a power
/// iteration of a 64 × 64 matrix (32 KiB), a chain of dependent f64
/// multiply-adds within the core's private caches. It touches no state the
/// workloads leave behind (heap, thread-stack cache), so its CPU time
/// follows the speed the shared host gives this process at the moment,
/// and nothing a change to the simulator can move. Returns a checksum.
pub fn reference_work() -> f64 {
    const N: usize = 64;
    const ROUNDS: usize = 8000;
    let a: Vec<f64> = (0..N * N)
        .map(|i| f64::from((i * 7 % 13) as u32) * 1e-3)
        .collect();
    let a = std::hint::black_box(a);
    let mut x = vec![1.0f64; N];
    let mut y = vec![0.0f64; N];
    for _ in 0..ROUNDS {
        for (yi, row) in y.iter_mut().zip(a.chunks_exact(N)) {
            *yi = row.iter().zip(&x).map(|(p, q)| p * q).sum::<f64>() + 0.5;
        }
        let sum: f64 = y.iter().sum();
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / sum;
        }
    }
    std::hint::black_box(x[0])
}

/// How fast the host runs this process now, relative to the reference
/// speed: [`REFERENCE_S`] over the CPU time of one [`reference_work`]
/// (above 1 on a faster host). NaN where the CPU clock is unavailable.
pub fn host_speed() -> f64 {
    let start = cpu_time();
    reference_work();
    match (start, cpu_time()) {
        (Some(a), Some(b)) => REFERENCE_S / (b - a).as_secs_f64(),
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work().to_bits(), reference_work().to_bits());
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn host_speed_is_positive() {
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.0, "host speed {speed}");
    }
}
