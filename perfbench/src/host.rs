//! Host measurements: the process's resident set and its high-water
//! mark, the CPUs the measuring thread may run on, and the two
//! single-core ceilings the layer rates are set against.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::fastest;

/// Bytes each ceiling kernel streams per repetition: large enough to
/// miss every cache level.
const CEILING_BYTES: usize = 64 << 20;
/// Repetitions per ceiling; the fastest is reported.
const CEILING_REPS: usize = 9;

/// The process's high-water resident set (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM")
}

/// The process's current resident set (`VmRSS`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmRSS` line.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS")
}

/// Lowers the high-water resident set to the current resident set, so
/// that [`peak_rss_mb`] covers only what runs after the call.
///
/// # Errors
///
/// When `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting VmHWM through /proc/self/clear_refs: {e}"))
}

/// A CPU set as `sched_getaffinity` and `sched_setaffinity` take it:
/// 1024 bits, one per CPU.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

/// The CPUs the calling thread may run on, and a way to move it among
/// them.
#[derive(Debug)]
pub struct Cpus {
    allowed: CpuMask,
    ids: Vec<usize>,
}

impl Cpus {
    /// The CPUs the calling thread may run on now.
    ///
    /// # Errors
    ///
    /// When the set cannot be read, or is empty.
    pub fn current() -> Result<Cpus, String> {
        let mut allowed = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut allowed) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let ids: Vec<usize> = (0..1024)
            .filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if ids.is_empty() {
            return Err("sched_getaffinity returned no CPU".to_string());
        }
        Ok(Cpus { allowed, ids })
    }

    /// Pins the calling thread to the set's `k`-th CPU, counting round.
    ///
    /// # Errors
    ///
    /// When the kernel refuses the new set.
    pub fn pin(&self, k: usize) -> Result<(), String> {
        let cpu = self.ids[k % self.ids.len()];
        let mut one = [0; 16];
        one[cpu / 64] |= 1 << (cpu % 64);
        set_affinity(&one)
    }

    /// Lets the calling thread run on every CPU of the set again.
    ///
    /// # Errors
    ///
    /// When the kernel refuses the set.
    pub fn release(&self) -> Result<(), String> {
        set_affinity(&self.allowed)
    }
}

fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Single-core copy bandwidth, GB/s (bytes copied, not bytes moved).
pub fn memcpy_gbps() -> f64 {
    let src = vec![1u8; CEILING_BYTES];
    let mut dst = vec![0u8; CEILING_BYTES];
    let seconds: Vec<f64> = (0..CEILING_REPS)
        .map(|_| {
            let start = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            start.elapsed().as_secs_f64()
        })
        .collect();
    CEILING_BYTES as f64 / fastest(&seconds) / 1e9
}

/// Single-core `f64` summation bandwidth, GB/s. Eight independent
/// partial sums let the core pipeline and vectorize the adds, so this
/// is the best a fixed-order scan over resident columns can reach.
pub fn scan_gbps() -> f64 {
    let values: Vec<f64> = (0..CEILING_BYTES / 8).map(|i| (i % 1024) as f64).collect();
    let seconds: Vec<f64> = (0..CEILING_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(sum_lanes(black_box(&values)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    CEILING_BYTES as f64 / fastest(&seconds) / 1e9
}

fn sum_lanes(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let chunks = values.chunks_exact(8);
    let tail: f64 = chunks.remainder().iter().sum();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v;
        }
    }
    lanes.iter().sum::<f64>() + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_sum_matches_plain_sum_on_integers() {
        let v: Vec<f64> = (0..1003).map(f64::from).collect();
        assert_eq!(sum_lanes(&v), v.iter().sum::<f64>());
    }

    #[test]
    fn pinning_moves_the_thread_and_release_restores_its_cpus() {
        let cpus = Cpus::current().expect("sched_getaffinity");
        let before = std::thread::available_parallelism().expect("cpu count");
        cpus.pin(1).expect("pin");
        assert_eq!(
            std::thread::available_parallelism()
                .expect("cpu count")
                .get(),
            1
        );
        cpus.release().expect("release");
        assert_eq!(
            std::thread::available_parallelism().expect("cpu count"),
            before
        );
    }

    #[test]
    fn peak_rss_is_positive_and_a_reset_lowers_it_to_the_current_rss() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        let before = peak_rss_mb().expect("linux /proc");
        assert!(before > 0.0);
        reset_peak_rss().expect("clear_refs");
        let after = peak_rss_mb().expect("linux /proc");
        assert!(
            after < before,
            "{after} MB after the reset, {before} MB before"
        );
        assert!(after >= rss_mb().expect("linux /proc") - 1.0);
    }
}
