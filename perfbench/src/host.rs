//! What a result line says about where it was measured, plus the digest
//! the output checks compare.

use std::path::Path;

/// Process high-water resident set size in MB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical CPUs the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads the rayon stand-in uses for parallel calls.
pub fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

/// The compiler that built this binary.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// The commit checked out in `dir`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(dir: &Path) -> String {
    let git = dir.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// 64-bit FNV-1a, fed word by word.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) -> &mut Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a string in (length-prefixed).
    pub fn text(&mut self, s: &str) -> &mut Self {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
