//! Process-level measurements read from `/proc`, and the order
//! statistics every metric is reported with.

use std::fs;
use std::os::raw::c_int;
use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields. Linux
/// fixes `USER_HZ` at 100 for this interface on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live or
/// exited), from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_secs_f64(ticks as f64 / USER_HZ)
}

fn status_field(name: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {name} field"))
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:") as f64 / 1024.0
}

/// OS threads of this process right now.
pub fn threads() -> u64 {
    status_field("Threads:")
}

/// Open socket descriptors of this process right now (listeners and both
/// ends of every in-process loopback connection).
pub fn sockets() -> u64 {
    fs::read_dir("/proc/self/fd")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter_map(|e| fs::read_link(e.path()).ok())
                .filter(|target| target.to_string_lossy().starts_with("socket:"))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Resets `VmHWM` to the current resident set size (`clear_refs` mode
/// 5). Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

extern "C" {
    fn malloc_trim(pad: usize) -> c_int;
}

/// Returns the allocator's free pages to the kernel, so memory a dropped
/// structure left behind does not count towards the next one's RSS.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` takes no pointers, may be called from
    // any thread at any time and only releases memory no allocation owns.
    unsafe {
        malloc_trim(0);
    }
}

/// Processors this process may run on (cgroup quota and affinity aware).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(threads() >= 1);
        let _ = process_cpu();
    }
}
