//! Child processes with their resource usage: wall time from spawn to
//! exit, peak resident set and CPU time, read from `wait4`'s `rusage` (the
//! standard library's `Child::wait` discards it).

use std::ffi::{c_int, c_long};
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn getrusage(who: c_int, rusage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn tv(t: &Timeval) -> Duration {
    Duration::from_micros(t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64)
}

/// How a child ended and what it cost.
#[derive(Debug, Clone)]
pub struct Finished {
    /// Exit code, when it exited normally.
    pub code: Option<i32>,
    /// Terminating signal, when it was killed.
    pub signal: Option<i32>,
    /// Spawn to exit.
    pub wall: Duration,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
    /// Everything it wrote to standard output.
    pub stdout: Vec<u8>,
}

impl Finished {
    /// A one-line description of an abnormal end, for failure messages.
    pub fn describe(&self) -> String {
        match (self.code, self.signal) {
            (Some(c), _) => format!("exit code {c}"),
            (_, Some(s)) => format!("signal {s}"),
            _ => "unknown status".to_string(),
        }
    }
}

/// Reap `child` (by pid) and return its exit code, signal, CPU time and
/// peak RSS.
fn reap(child: &Child) -> Result<(Option<i32>, Option<i32>, Duration, u64), String> {
    let pid = child.id() as c_int;
    let mut status: c_int = 0;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable, and laid out as the
        // C declarations above; `pid` names our own unreaped child, and std
        // never waits for it (we never call `Child::wait` on it).
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let (code, signal) = if status & 0x7f == 0 {
        (Some((status >> 8) & 0xff), None)
    } else {
        (None, Some(status & 0x7f))
    };
    let cpu = tv(&ru.ru_utime) + tv(&ru.ru_stime);
    Ok((code, signal, cpu, ru.ru_maxrss.max(0) as u64))
}

/// Run `cmd` to completion with standard output captured (standard error
/// is inherited), timing it from spawn to exit.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let mut stdout = Vec::new();
    let read = match child.stdout.take() {
        Some(mut out) => out.read_to_end(&mut stdout).map(drop),
        None => Ok(()),
    };
    // Reap before reporting a read error, so no child outlives the call.
    let (code, signal, cpu, maxrss_kb) = reap(&child)?;
    read.map_err(|e| format!("read stdout of {cmd:?}: {e}"))?;
    Ok(Finished {
        code,
        signal,
        wall: t0.elapsed(),
        cpu,
        maxrss_kb,
        stdout,
    })
}

/// CPU time (user plus system) this process has used so far.
pub fn self_cpu() -> Duration {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage`.
    let r = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if r != 0 {
        return Duration::ZERO;
    }
    tv(&ru.ru_utime) + tv(&ru.ru_stime)
}

/// Peak resident set (`VmHWM`) of a running process, KiB.
pub fn vm_hwm_kb(pid: u32) -> Result<u64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_code_signal_and_usage_are_reported() {
        let ok = run(Command::new("sh").args(["-c", "echo hi; exit 3"])).expect("run");
        assert_eq!((ok.code, ok.signal), (Some(3), None));
        assert_eq!(ok.stdout, b"hi\n");
        assert!(ok.maxrss_kb > 0);
        let killed = run(Command::new("sh").args(["-c", "kill -9 $$"])).expect("run");
        assert_eq!((killed.code, killed.signal), (None, Some(9)));
        assert!(vm_hwm_kb(std::process::id()).expect("hwm") > 0);
    }
}
