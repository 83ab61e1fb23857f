//! The process's own resource use, read from procfs on demand: CPU time
//! from `/proc/self/stat`, resident anonymous memory and the resident
//! high-water mark from `/proc/self/status`. Nothing runs in the
//! background; every [`ProcessSample::read`] is one pair of file reads.
//! Off Linux there is no procfs, and every read is `None`.

/// One reading of the process's resource use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessSample {
    /// User plus system CPU time of every thread so far, in seconds (at
    /// the kernel's clock-tick resolution, usually 10 ms).
    pub cpu_seconds: f64,
    /// Resident anonymous memory (`RssAnon`), in bytes: the heap and
    /// stacks, not file-backed maps.
    pub rss_anon_bytes: u64,
    /// Peak resident set size so far (`VmHWM`), in bytes.
    pub vm_hwm_bytes: u64,
}

impl ProcessSample {
    /// Reads the current values, or `None` off Linux or when procfs is
    /// unreadable or malformed.
    pub fn read() -> Option<Self> {
        if !cfg!(target_os = "linux") {
            return None;
        }
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        Some(Self {
            cpu_seconds: cpu_ticks(&stat)? as f64 / clock_ticks_per_second()? as f64,
            rss_anon_bytes: status_kib(&status, "RssAnon:")? * 1024,
            vm_hwm_bytes: status_kib(&status, "VmHWM:")? * 1024,
        })
    }
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) is parenthesised and may hold spaces, so fields are counted from the
/// last `)`: the state is field 3, `utime` field 14, `stime` field 15.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The kibibyte value of the `/proc/<pid>/status` line starting `key`.
fn status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The kernel's `USER_HZ`, the unit of the stat file's CPU times.
#[cfg(target_os = "linux")]
fn clock_ticks_per_second() -> Option<u64> {
    const SC_CLK_TCK: std::ffi::c_int = 2;
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    // SAFETY: sysconf reads a constant of the C library; it takes no
    // pointers and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(hz).ok().filter(|&hz| hz > 0)
}

#[cfg(not(target_os = "linux"))]
fn clock_ticks_per_second() -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 81 0 0 0 250 17 0 0 20 0 1 0";
        assert_eq!(cpu_ticks(stat), Some(267));
        assert_eq!(cpu_ticks("42 (cut"), None);
    }

    #[test]
    fn status_lines_read_in_kib() {
        let status = "Name:\thics\nVmHWM:\t    1780 kB\nRssAnon:\t     136 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(1780));
        assert_eq!(status_kib(status, "RssAnon:"), Some(136));
        assert_eq!(status_kib(status, "RssFile:"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_live_reading_is_plausible() {
        let before = ProcessSample::read().expect("procfs is readable on Linux");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(30) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
        let after = ProcessSample::read().unwrap();
        assert!(after.cpu_seconds >= before.cpu_seconds);
        assert!(after.rss_anon_bytes > 0);
        assert!(after.vm_hwm_bytes >= after.rss_anon_bytes);
    }
}
