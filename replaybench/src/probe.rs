//! Readings the benchmark takes from `/proc`: per-thread write IO and the
//! process's peak resident set.

/// Write counters of the calling thread, from `/proc/thread-self/io`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteIo {
    /// `write`-family syscalls issued (`syscw`).
    pub syscalls: u64,
    /// Bytes passed to them (`wchar`).
    pub bytes: u64,
}

impl WriteIo {
    /// The counters of the calling thread; `None` when the kernel does not
    /// provide the file (non-Linux hosts, or task IO accounting disabled),
    /// so callers report the figures as absent rather than zero.
    pub fn of_this_thread() -> Option<WriteIo> {
        let text = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<u64>().ok())
        };
        Some(WriteIo {
            syscalls: field("syscw:")?,
            bytes: field("wchar:")?,
        })
    }

    /// The counts accumulated since `earlier`.
    pub fn since(self, earlier: WriteIo) -> WriteIo {
        WriteIo {
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB; `None` when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// The process's current resident set (`VmRSS`) in MiB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb / 1024.0)
}
