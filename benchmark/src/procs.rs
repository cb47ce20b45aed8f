//! Server processes: spawn the real binaries on a fresh durable directory,
//! read their CPU time and peak memory from `/proc`, and make sure none of
//! them outlives the run — on the normal path, on an error, on a panic, and
//! when the watchdog fires.

use cora_serve::client::ServeClient;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Bound on every client read and write: a wedged server turns into failed
/// operations instead of a hung run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// every Linux this runs on; there is no libc here to ask `sysconf`).
const TICKS_PER_SECOND: f64 = 100.0;

/// Every child this process has started and not yet reaped. Shared with the
/// watchdog thread, which kills whatever is left when it fires.
static CHILDREN: Mutex<Vec<Child>> = Mutex::new(Vec::new());
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Where the binaries are and where a run may write.
#[derive(Debug, Clone)]
pub struct Env {
    pub bin_dir: PathBuf,
    /// Kept after the run: the traced run's span files go here.
    pub work_dir: PathBuf,
    /// Deleted when the run ends: durable directories of the servers.
    pub run_dir: PathBuf,
}

impl Env {
    /// A directory name no earlier server of this process has used.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        self.run_dir.join(format!("{tag}-{n}"))
    }
}

/// One running server process.
#[derive(Debug)]
pub struct Server {
    pub pid: u32,
    pub addr: String,
}

fn children() -> std::sync::MutexGuard<'static, Vec<Child>> {
    CHILDREN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start `bin` and block until it prints `LISTENING <addr>`.
pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let pid = child.id();
    // Register before waiting for the line, so the watchdog can kill a
    // server that never prints it.
    children().push(child);
    let mut line = String::new();
    let read = BufReader::new(stdout).read_line(&mut line);
    match (read, line.trim().strip_prefix("LISTENING ")) {
        (Ok(_), Some(addr)) => Ok(Server {
            pid,
            addr: addr.to_string(),
        }),
        (read, _) => {
            kill(pid);
            Err(format!(
                "{} did not report LISTENING ({read:?}, line {line:?})",
                bin.display()
            ))
        }
    }
}

/// `SIGKILL` one child and wait for it (the crash in the recovery test, and
/// the fallback when a graceful stop does not work).
pub fn kill(pid: u32) {
    let child = {
        let mut all = children();
        all.iter()
            .position(|c| c.id() == pid)
            .map(|i| all.swap_remove(i))
    };
    if let Some(mut child) = child {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Ask a server to stop through its `shutdown` op and wait for the process
/// to end; `SIGKILL` it when it has not ended within five seconds.
pub fn stop(server: &Server) {
    if let Ok(mut client) =
        ServeClient::connect_timeout(server.addr.as_str(), Duration::from_secs(2))
    {
        let _ = client.set_timeouts(Some(Duration::from_secs(2)), Some(Duration::from_secs(2)));
        let _ = client.shutdown_server();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let ended = {
            let mut all = children();
            match all.iter().position(|c| c.id() == server.pid) {
                None => true,
                Some(i) => match all[i].try_wait() {
                    Ok(None) => false,
                    // Ended (`try_wait` has reaped it) or unknowable: let go.
                    _ => {
                        let _ = all.swap_remove(i).wait();
                        true
                    }
                },
            }
        };
        if ended {
            return;
        }
        if Instant::now() > deadline {
            kill(server.pid);
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Kill and reap every child still registered.
pub fn reap_all() {
    let all: Vec<Child> = children().drain(..).collect();
    for mut child in all {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Reaps every child and deletes the run directory when dropped — held by
/// `main` so that an early return or a panic cannot leak a server, or its
/// durable directory, into the next run.
pub struct ReapOnDrop {
    pub run_dir: PathBuf,
}

impl Drop for ReapOnDrop {
    fn drop(&mut self) {
        reap_all();
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

/// A deadline for the whole invocation. When it passes, every child is
/// killed and the process exits with code 3 and no result line.
pub struct Watchdog {
    cancel: mpsc::Sender<()>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn arm(limit: Duration, what: String, run_dir: PathBuf) -> Self {
        let (cancel, cancelled) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if cancelled.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("watchdog: {what} did not finish within {limit:?}; killing servers");
                reap_all();
                let _ = std::fs::remove_dir_all(&run_dir);
                std::process::exit(3);
            }
        });
        Self {
            cancel,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let _ = self.cancel.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Keep every core busy for `duration`.
///
/// The host parks both vCPUs of an idle guest on one host CPU and spreads
/// them again only after a second or so of load on both (two spinning
/// threads read 430 + 430 M steps/s for their first seconds, then 890 +
/// 890), so a run that starts on a rested box would measure that. The
/// benchmark cannot choose what ran before it; it brings the box to the
/// same state before its first episode.
pub fn warm_up(duration: Duration) {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < deadline {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// User plus system CPU seconds a process (all its threads) has used.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after the last ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the line, 11 and 12 here.
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) of a process in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let pid = std::process::id();
        // Burn a little CPU so utime is not zero on a fast start.
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = x.wrapping_mul(31).wrapping_add(7);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds(pid) > 0.0);
        assert!(peak_rss_mb(pid) > 1.0);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
    }

    #[test]
    fn a_child_that_never_listens_is_an_error_and_is_reaped() {
        let err = spawn(Path::new("/bin/true"), &[]).unwrap_err();
        assert!(err.contains("LISTENING"), "{err}");
        assert!(children().iter().all(|c| c.id() != 0));
        reap_all();
    }
}
