//! In-memory span recorder for the traced run.
//!
//! A span is a named wall-clock interval with a parent (the span that
//! was open when it started) and, for work on behalf of one
//! transaction, that transaction's id. Spans are recorded only by the
//! benchmark's own code — around its calls into the node, the chain,
//! the protocol system, signature checks, and inside the
//! [`crate::backend::TimedBackend`] wrapper — and written out once the
//! run ends. Named counters ride along for work that has a count but no
//! interval of its own (keys per commit).

use pol_ledger::TxId;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`node.admit`, `store.commit`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The transaction this work serves, inherited from the parent when
    /// not given.
    pub tx: Option<TxId>,
}

impl Span {
    /// The span's wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, u64>,
}

/// The span recorder. Shared (behind an `Arc`) between the harness and
/// the storage wrapper inside the chain; every recorded call happens on
/// the driving thread, so the lock is never contended.
pub struct Tracer {
    epoch: Instant,
    log: Mutex<Log>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), log: Mutex::new(Log::default()) }
    }
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanStat {
    /// How many spans carry the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time covered by children.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration per span (0 when none ran).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("tracer lock poisoned by a panicking span")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, tx: Option<TxId>, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut log = self.lock();
            let parent = log.open.last().copied();
            let tx = tx.or_else(|| parent.and_then(|p| log.spans[p].tx));
            let index = log.spans.len();
            let start_ns = self.now_ns();
            log.spans.push(Span { name, start_ns, end_ns: 0, parent, tx });
            log.open.push(index);
            index
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut log = self.lock();
        log.spans[index].end_ns = end_ns;
        let closed = log.open.pop();
        debug_assert_eq!(closed, Some(index), "spans close in stack order");
        out
    }

    /// Adds `n` to the counter `name`.
    pub fn count(&self, name: &'static str, n: u64) {
        *self.lock().counters.entry(name).or_default() += n;
    }

    /// The counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// A position in the log: spans recorded after it are the ones
    /// [`Tracer::stats_from`] aggregates.
    pub fn mark(&self) -> usize {
        self.lock().spans.len()
    }

    /// Count, total and self time per span name, over every span.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStat> {
        self.stats_from(0)
    }

    /// Count, total and self time per span name, over the spans
    /// recorded since `mark`.
    pub fn stats_from(&self, mark: usize) -> BTreeMap<&'static str, SpanStat> {
        let log = self.lock();
        let mut child_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (span, children) in log.spans.iter().zip(child_ns).skip(mark) {
            let stat = out.entry(span.name).or_default();
            stat.count += 1;
            stat.total_ns += span.duration_ns();
            stat.self_ns += span.duration_ns().saturating_sub(children);
        }
        out
    }

    /// Summed duration of the spans named `name`, recorded since `mark`,
    /// whose parent is named `parent` (e.g. the store work done directly
    /// inside node ticks).
    pub fn nested_total_ns_from(&self, mark: usize, name: &str, parent: &str) -> u64 {
        let log = self.lock();
        log.spans[mark.min(log.spans.len())..]
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| log.spans[p].name == parent))
            .map(Span::duration_ns)
            .sum()
    }

    /// Writes every span as a tab-separated line
    /// `index parent name start_ns end_ns tx` (parent and tx `-` when
    /// absent).
    ///
    /// # Errors
    ///
    /// I/O failure creating or writing the file.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tparent\tname\tstart_ns\tend_ns\ttx")?;
        let log = self.lock();
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let tx = s.tx.map_or_else(|| "-".to_string(), |t| t.to_string());
            writeln!(out, "{i}\t{parent}\t{}\t{}\t{}\t{tx}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, or bare when not.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    tx: Option<TxId>,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, tx, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_tx_is_inherited() {
        let tracer = Tracer::default();
        let id = TxId([7; 32]);
        tracer.span("outer", Some(id), || {
            tracer.span("inner", None, || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].tx, Some(id));
        let stats = tracer.stats();
        let (outer, inner) = (&stats["outer"], &stats["inner"]);
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(tracer.nested_total_ns_from(0, "inner", "outer"), inner.total_ns);
        assert_eq!(tracer.stats_from(1).len(), 1);
    }
}
