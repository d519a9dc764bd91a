//! Building the shipped `disc` binary and running it as a measured child.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Cargo's target directory for the repository (`CARGO_TARGET_DIR`, taken
/// relative to the root, or `target`).
pub fn target_dir() -> PathBuf {
    let root = repo_root();
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    }
}

/// Builds `disc-cli` in release mode and returns the `disc` executable.
/// A plain `cargo build --release` at the root builds only the facade
/// library, so the benchmark cannot rely on the binary being there.
pub fn build_disc() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "disc-cli"])
        .current_dir(repo_root())
        .env("CARGO_TARGET_DIR", target_dir())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building disc-cli failed: {status}"));
    }
    let bin = target_dir().join("release").join("disc");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// What one child run showed from the outside.
#[derive(Debug)]
pub struct ChildRun {
    /// Whether the child exited with status 0.
    pub ok: bool,
    /// Seconds from spawn to the arrival of each `slide N: …` progress line.
    pub lines: Vec<f64>,
    /// Seconds from spawn to reaping.
    pub wall_s: f64,
    /// Peak resident set, from the kernel's accounting at reap time. Linux
    /// carries the spawning process's own peak into the child's across
    /// `exec`, so this is the child's peak only while the caller stays
    /// smaller than the child.
    pub max_rss_bytes: u64,
    /// Stderr lines that were not progress lines (errors, notes).
    pub other: Vec<String>,
}

/// Runs `bin args…` with one worker's environment and times it from
/// outside: spawn, every progress line on stderr, exit.
pub fn run(bin: &Path, args: &[String]) -> Result<ChildRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .env_remove("DISC_THREADS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut lines = Vec::new();
    let mut other = Vec::new();
    let mut reader = BufReader::new(stderr);
    let mut line = String::new();
    let read_result = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break Ok(()),
            Ok(_) if line.starts_with("slide ") => lines.push(started.elapsed().as_secs_f64()),
            Ok(_) => other.push(line.trim_end().to_string()),
            Err(e) => break Err(e),
        }
    };
    if read_result.is_err() {
        // Never leave the child behind, whatever went wrong while reading.
        let _ = child.kill();
    }
    let (status, max_rss_bytes) = reap(child.id())?;
    let wall_s = started.elapsed().as_secs_f64();
    read_result.map_err(|e| format!("reading the child's stderr: {e}"))?;
    Ok(ChildRun {
        ok: status == 0,
        lines,
        wall_s,
        max_rss_bytes,
        other,
    })
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads rusage through the 64-bit Linux ABI");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Waits for `pid` and returns its raw wait status (0 = exited with
/// status 0) and its peak RSS. `std::process::Child::wait` discards the
/// rusage that `wait4` reports, so the child is reaped here instead.
fn reap(pid: u32) -> Result<(i32, u64), String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals; `Rusage`
        // matches `struct rusage` on 64-bit Linux (two `timeval`s, then
        // fourteen `long`s), which the `compile_error!` above enforces.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            // ru_maxrss is in KiB on Linux.
            return Ok((status, usage.maxrss.max(0) as u64 * 1024));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
}

/// Bytes of the regular files under `dir`.
pub fn bytes_under(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => bytes_under(&path),
                Ok(m) => m.len(),
                Err(_) => 0,
            }
        })
        .sum()
}
