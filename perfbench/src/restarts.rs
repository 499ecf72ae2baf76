//! Restart samples for `recovery_s`, taken in a child process.
//!
//! A restarted server is a fresh process, and a reopened database is a
//! second full copy of the population.  Reopening in a child keeps that
//! copy out of the serving process's `peak_rss_mb`, while the samples can
//! still be spread over the timed window: the host's speed drifts over
//! seconds, so samples taken back to back would all share one drift.
//!
//! The child (`perfbench restart-worker <workload> <seed> <scale_div>`)
//! builds the workload's restart storage from the seed, prints `ready`,
//! and then answers each `go` line with `<seconds> ok` (or `<seconds>
//! <why it failed>`) after one `DurableDatabase::open`.  The parent
//! blocks while the child reopens, so the two never compete for a CPU.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::common::{mean, Outcome};
use crate::setup;
use crate::Config;

/// The first argument that runs the executable as a restart worker.
pub const WORKER: &str = "restart-worker";

/// The parent's handle on a restart worker.
pub struct Restarts {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
    samples: usize,
    asked: usize,
    every: f64,
    next_at: f64,
    /// Restart seconds per successful sample.
    taken: Vec<f64>,
}

impl Restarts {
    /// Start a worker for `cfg`'s workload and seed at `cfg.scale_div` or
    /// else `default_scale`, and wait until its storage is built.  It
    /// takes `samples` restarts, one per `window / samples` seconds of
    /// measured time.
    pub fn spawn(
        cfg: &Config,
        default_scale: f64,
        window: f64,
        samples: usize,
    ) -> Result<Self, String> {
        let scale = cfg.scale_div.unwrap_or(default_scale);
        let mut child = Command::new(&cfg.exe)
            .args([
                WORKER,
                &cfg.workload,
                &cfg.seed.to_string(),
                &scale.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the restart worker {:?}: {e}", cfg.exe))?;
        let to = child.stdin.take();
        let from = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let samples = samples.max(1);
        let mut restarts = Restarts {
            child,
            to,
            from,
            samples,
            asked: 0,
            every: window / samples as f64,
            next_at: 0.0,
            taken: Vec::new(),
        };
        match restarts.line()?.as_str() {
            "ready" => Ok(restarts),
            other => Err(format!("restart worker said {other:?}, not ready")),
        }
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.from.read_line(&mut line) {
            Ok(0) => Err("the restart worker exited".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading the restart worker: {e}")),
        }
    }

    /// Take a sample if one is due after `timed` seconds of measured time.
    pub fn tick(&mut self, timed: f64, out: &mut Outcome) {
        if self.asked < self.samples && timed >= self.next_at {
            self.sample(out);
            self.next_at += self.every;
        }
    }

    fn sample(&mut self, out: &mut Outcome) {
        self.asked += 1;
        let sent = match self.to.as_mut() {
            Some(to) => writeln!(to, "go").and_then(|()| to.flush()),
            None => Ok(()),
        };
        let reply = sent
            .map_err(|e| format!("writing the restart worker: {e}"))
            .and_then(|()| self.line());
        let secs = reply.and_then(|line| match line.split_once(' ') {
            Some((secs, "ok")) => secs.parse::<f64>().map_err(|e| format!("{line:?}: {e}")),
            _ => Err(line),
        });
        match secs {
            Ok(secs) => {
                self.taken.push(secs);
                out.check(true, String::new);
            }
            Err(e) => out.check(false, || format!("restart: {e}")),
        }
    }

    /// Take the samples still missing, stop the worker and wait for it;
    /// returns the mean restart time.  Like the window's figures it is
    /// pooled over the run: the samples fall in the host's fast and slow
    /// states, and a median jumps between the two from run to run.
    pub fn finish(mut self, out: &mut Outcome) -> f64 {
        while self.asked < self.samples {
            self.sample(out);
        }
        drop(self.to.take());
        let status = self.child.wait();
        out.check(status.as_ref().is_ok_and(|s| s.success()), || {
            format!("restart worker ended with {status:?}")
        });
        out.note(format!("restarts (s, child process): {:.3?}", self.taken));
        mean(&self.taken)
    }
}

impl Drop for Restarts {
    fn drop(&mut self) {
        // Stop a worker that `finish` did not reach (a panic on the way).
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The worker's side: `args` are `<workload> <seed> <scale_div>`.
pub fn worker(args: &[String]) -> Result<(), String> {
    let [workload, seed, scale] = args else {
        return Err(format!(
            "usage: perfbench {WORKER} <workload> <seed> <scale_div>"
        ));
    };
    let mut cfg = Config::new(workload, seed.parse().map_err(|e| format!("seed: {e}"))?);
    cfg.scale_div = Some(scale.parse().map_err(|e| format!("scale_div: {e}"))?);
    let mut out = Outcome::default();
    let (storage, want_replayed) = crate::restart_storage(&cfg, &mut out)?;
    if out.failed > 0 {
        return Err(out.notes.join("; "));
    }
    let mut stdout = std::io::stdout().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .map_err(io)?;
    for line in std::io::stdin().lines() {
        if line.map_err(io)? != "go" {
            break;
        }
        let failed = out.failed;
        let secs = setup::restart(&storage, want_replayed, &mut out).0;
        let status = if out.failed == failed {
            "ok".to_string()
        } else {
            out.notes.last().cloned().unwrap_or_default()
        };
        writeln!(stdout, "{secs} {status}")
            .and_then(|()| stdout.flush())
            .map_err(io)?;
    }
    Ok(())
}
