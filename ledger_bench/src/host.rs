//! The tags every result carries: host parallelism, the library's worker
//! cap and hash lane width, the commit measured, and peak memory.

use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub effective_workers: usize,
    pub lanes: usize,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            effective_workers: gt_core::effective_workers(),
            lanes: gt_hash::LANES,
            commit: commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from the repository's `.git` when the
/// benchmark runs inside a git checkout (exported trees have none).
fn commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        l.strip_suffix(reference)?
            .strip_suffix(' ')
            .map(str::to_string)
    })
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), and `getrusage` writes
    // only within the struct it is given. 0 is `RUSAGE_SELF`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports `ru_maxrss` in KiB.
    usage.maxrss as f64 * 1024.0 / 1e6
}
