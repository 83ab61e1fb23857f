//! Resource sampling from `/proc/self`: process CPU time, peak resident
//! memory and live thread count.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, 100
/// on every Linux ABI this runs on).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat comm") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<f64>().expect("stat tick field") };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// CPU seconds of the calling thread, at nanosecond resolution (the
/// process-wide ticks above are 10 ms apart).
pub fn thread_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("schedstat run time");
    ns as f64 * 1e-9
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {name} field"))
}

/// Peak resident set size of the process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// Threads alive in the process right now.
pub fn threads() -> u64 {
    status_field("Threads")
}
