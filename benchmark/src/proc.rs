//! Processes of the program under test: building the `datalog` binary,
//! timed CLI children with their peak resident memory, the `serve` daemon,
//! and the one closed-loop connection that talks to it.

use crate::json::Json;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The checkout this benchmark was built in: the parent of `benchmark/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf()
}

/// Where inputs, outputs, results and traces go; ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Build the release `datalog` binary of the checkout and return its path.
/// Compilation is no part of any metric. `CARGO_TARGET_DIR`, when set, is
/// honoured (relative to the checkout, as cargo itself reads it there).
pub fn build_datalog() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "datalog",
        ])
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --release --bin datalog: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let binary = target.join("release").join("datalog");
    if binary.is_file() {
        Ok(binary)
    } else {
        Err(format!("built, but {} is not there", binary.display()))
    }
}

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct Finished {
    /// Spawn to reaped, stdout already in its file.
    pub wall_ms: f64,
    /// `ru_maxrss`. It is never below what this process had resident when
    /// it spawned the child (the kernel carries that over `exec`), so it is
    /// the child's own peak only for children that outgrow the benchmark:
    /// the `eval` and `optimize` children that decide `peak_rss_mb` do.
    pub peak_rss_mb: f64,
    pub success: bool,
}

/// Layout of `struct rusage` on 64-bit Linux: two `timeval`s, then
/// fourteen `long`s of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// A `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this process may run on, as it found them.
///
/// The whole benchmark is one closed loop: the generator waits for each
/// child or reply, so at no time do two of its processes have work at once.
/// Left to the scheduler, the daemon's threads end up on the generator's
/// CPU or on the other one, and on the reference host (a 2-vCPU VM) waking
/// a halted vCPU costs about 50 us, several times the whole path of a
/// cached query: runs fell into a 20 us or a 120 us mode per workload. So
/// the benchmark pins itself, and with it every child, to one CPU.
pub struct Cpus {
    all: CpuSet,
}

/// The process's CPUs; the first call pins it.
pub fn cpus() -> &'static Cpus {
    static CPUS: std::sync::OnceLock<Cpus> = std::sync::OnceLock::new();
    CPUS.get_or_init(Cpus::pin_to_one)
}

impl Cpus {
    /// Pin the calling thread, and every thread and process it starts from
    /// now on, to the first CPU it is allowed. Where the affinity calls are
    /// refused the benchmark runs unpinned.
    fn pin_to_one() -> Cpus {
        let mut all: CpuSet = [0; 16];
        // SAFETY: `all` is a live, writable buffer of the size passed.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut all) } == 0;
        if let Some(word) = all.iter().position(|&w| w != 0).filter(|_| got) {
            let mut one: CpuSet = [0; 16];
            one[word] = all[word] & all[word].wrapping_neg();
            // SAFETY: `one` is a live buffer of the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        }
        Cpus { all }
    }

    /// How many CPUs the process had before it pinned itself.
    pub fn count(&self) -> usize {
        (self.all.iter().map(|w| w.count_ones()).sum::<u32>() as usize).max(1)
    }

    /// Run `f` with every CPU allowed again: for the probes that measure
    /// what a second thread buys.
    pub fn widened<T>(&self, f: impl FnOnce() -> T) -> T {
        let mut pinned: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: both buffers are live and of the size passed.
        let known = unsafe { sched_getaffinity(0, size, &mut pinned) } == 0
            && unsafe { sched_setaffinity(0, size, &self.all) } == 0;
        let value = f();
        if known {
            // SAFETY: as above.
            unsafe { sched_setaffinity(0, size, &pinned) };
        }
        value
    }
}

/// A CLI child that runs longer than this is killed and counts as failed;
/// the driver gives a whole run 180 s.
const CHILD_LIMIT: Duration = Duration::from_secs(120);

/// The running CLI child and when it has to be done, watched by a thread
/// that looks every 100 ms.
static WATCHED: Mutex<Option<(i32, Instant)>> = Mutex::new(None);

fn watch(child: Option<(i32, Instant)>) {
    static WATCHDOG: std::sync::Once = std::sync::Once::new();
    // Detached on purpose: it holds nothing and ends with the process.
    WATCHDOG.call_once(|| {
        std::thread::spawn(|| loop {
            std::thread::sleep(Duration::from_millis(100));
            let watched = *WATCHED.lock().unwrap_or_else(|e| e.into_inner());
            if let Some((pid, deadline)) = watched {
                if Instant::now() > deadline {
                    // SAFETY: `kill` has no memory preconditions. `pid` is
                    // this process's unreaped child unless it exited within
                    // the instant between `wait4` returning and `run_cli`
                    // clearing the slot, two minutes into its run.
                    unsafe { kill(pid, 9) };
                }
            }
        });
    });
    *WATCHED.lock().unwrap_or_else(|e| e.into_inner()) = child;
}

/// Reap `child` and return `(exited with status 0, peak RSS in MB)`.
fn reap(child: Child) -> Result<(bool, f64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable and of the sizes the
    // Linux ABI gives `int` and `struct rusage` on a 64-bit target; `pid`
    // is a child of this process that has not been waited for, because the
    // `Child` is consumed here and its own `wait` is never called.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    drop(child);
    if reaped != pid {
        return Err(format!("wait4({pid}) returned {reaped}"));
    }
    // WIFEXITED && WEXITSTATUS == 0
    Ok((
        status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        usage.maxrss as f64 / 1024.0,
    ))
}

/// Run `datalog <args>` with stdout sent to `stdout_to` and time it.
pub fn run_cli(binary: &Path, args: &[&str], stdout_to: &Path) -> Result<Finished, String> {
    let out = File::create(stdout_to).map_err(|e| format!("{}: {e}", stdout_to.display()))?;
    let start = Instant::now();
    let child = Command::new(binary)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
    watch(
        i32::try_from(child.id())
            .ok()
            .map(|pid| (pid, start + CHILD_LIMIT)),
    );
    let reaped = reap(child);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    watch(None);
    let (success, peak_rss_mb) = reaped?;
    Ok(Finished {
        wall_ms,
        peak_rss_mb,
        success,
    })
}

/// A `datalog serve` child on an ephemeral port and the connection to it.
pub struct Daemon {
    child: Option<Child>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// How long a reply may take before the operation counts as failed. A
/// `remove` on a large view is the slow case; the daemon's own idle
/// timeout is 30 s.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Daemon {
    pub fn spawn(binary: &Path, threads: usize) -> Result<Daemon, String> {
        let mut child = Command::new(binary)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                &threads.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let connect = || -> Result<TcpStream, String> {
            let mut banner = String::new();
            BufReader::new(stdout)
                .read_line(&mut banner)
                .map_err(|e| format!("daemon banner: {e}"))?;
            let addr = banner
                .trim()
                .strip_prefix("listening on ")
                .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?;
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| e.to_string())?;
            Ok(stream)
        };
        match connect() {
            Ok(stream) => Ok(Daemon {
                reader: BufReader::new(stream.try_clone().map_err(|e| e.to_string())?),
                writer: stream,
                child: Some(child),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }

    /// Send one request line and wait for its reply line.
    pub fn roundtrip(&mut self, request: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// One timed operation: request sent to reply parsed. `Err` covers a
    /// transport failure, an unparseable reply and `"ok": false`.
    pub fn request(&mut self, request: &Json) -> (f64, Result<Json, String>) {
        let line = request.to_string();
        let start = Instant::now();
        let reply = self
            .roundtrip(&line)
            .and_then(|r| Json::parse(r.trim_end()));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let reply = reply.and_then(|r| match r.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(r),
            _ => Err(format!("refused: {r}")),
        });
        (ms, reply)
    }

    /// `VmHWM` of the daemon, in MB. Read from `/proc` while it runs, not
    /// from `wait4`: a child's `ru_maxrss` starts at what its parent had
    /// resident when it spawned it, which for this small daemon is more
    /// than it ever uses itself.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self
            .child
            .as_ref()
            .expect("daemon child present until shutdown")
            .id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
    }

    /// Ask the daemon to exit, reap it, and return its peak RSS in MB.
    pub fn shutdown(mut self) -> Result<f64, String> {
        let peak_rss_mb = self.peak_rss_mb();
        let child = self
            .child
            .take()
            .expect("daemon child present until shutdown");
        if let Err(e) = self.roundtrip("{\"op\":\"shutdown\"}") {
            let mut child = child;
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("shutdown: {e}"));
        }
        let (success, _) = reap(child)?;
        if success {
            peak_rss_mb
        } else {
            Err("the daemon exited with a failure status".into())
        }
    }
}

impl Drop for Daemon {
    /// A daemon dropped without [`Daemon::shutdown`] (an error path) must
    /// not outlive the benchmark.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
