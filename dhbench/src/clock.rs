//! Wall-clock bookkeeping: a clock advanced by timed calls, the optional
//! span trace, and the percentile helpers every workload reports with.
//!
//! Every wall-clock read in the workspace goes through
//! `dynahash_bench::timing`, which can only time a closure. The benchmark
//! therefore runs *all* work of a timed phase inside [`Clock::call`], and
//! the clock's "now" is the sum of the calls it has timed. The few
//! nanoseconds of driver code between two calls are not on that clock; the
//! phase's true wall time is timed separately around the whole phase, and
//! `trace.accounted_pct` shows how much of it the calls cover.

use std::collections::BTreeMap;

use dynahash_bench::timing::ns_per_op;

/// Runs `f` once and returns its result and its wall time in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut f = Some(f);
    let mut out = None;
    let ns = ns_per_op(1, &mut || out = f.take().map(|f| f()));
    (out.expect("ns_per_op runs its closure once"), ns)
}

/// One recorded call into a layer (or a group of such calls).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Call name, `<layer>.<call>`.
    pub name: &'static str,
    /// Id of the client op, scale event or query pass the call belongs to;
    /// a group's own span carries its id too.
    pub group: u64,
    /// True for a group span (its children are the calls sharing `group`).
    pub is_group: bool,
    /// Start on the clock, nanoseconds since the timed phase began.
    pub start_ns: f64,
    /// End on the clock.
    pub end_ns: f64,
}

/// Spans kept in memory at most; later calls still feed the statistics.
const MAX_KEPT_SPANS: usize = 50_000;

/// The timed-phase clock, with the trace when it is switched on.
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: f64,
    /// Per-call statistics on (the traced run).
    stats: bool,
    /// Span recording on (the traced run's traced blocks).
    tracing: bool,
    group: u64,
    group_name: &'static str,
    group_start: f64,
    group_child_ns: f64,
    next_group: u64,
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Per call name: the duration of every call, nanoseconds.
    durations: BTreeMap<&'static str, Vec<f64>>,
    /// Per call name: summed self time, nanoseconds.
    self_ns: BTreeMap<&'static str, f64>,
}

impl Clock {
    /// A clock at zero; `traced` records per-call statistics and spans.
    pub fn new(traced: bool) -> Self {
        Clock {
            stats: traced,
            tracing: traced,
            ..Clock::default()
        }
    }

    /// Nanoseconds timed so far.
    pub fn now_ns(&self) -> f64 {
        self.now_ns
    }

    /// Switches span recording on or off; statistics stay on in a traced
    /// run. The traced run alternates blocks to measure the spans' cost.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on && self.stats;
    }

    /// Times one call into a layer, advancing the clock. Returns the result
    /// and the call's duration in nanoseconds.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let (out, ns) = timed(f);
        let start = self.now_ns;
        self.now_ns += ns;
        if self.stats {
            self.group_child_ns += ns;
            *self.self_ns.entry(name).or_default() += ns;
            self.durations.entry(name).or_default().push(ns);
        }
        if self.tracing {
            self.keep(Span {
                name,
                group: self.group,
                is_group: false,
                start_ns: start,
                end_ns: self.now_ns,
            });
        }
        (out, ns)
    }

    /// Opens a group: the calls until [`Clock::end_group`] share its id.
    pub fn begin_group(&mut self, name: &'static str) {
        self.next_group += 1;
        self.group = self.next_group;
        self.group_name = name;
        self.group_start = self.now_ns;
        self.group_child_ns = 0.0;
    }

    /// Closes the open group, recording its span when tracing.
    pub fn end_group(&mut self) {
        if self.stats && self.group != 0 {
            let own = (self.now_ns - self.group_start - self.group_child_ns).max(0.0);
            *self.self_ns.entry(self.group_name).or_default() += own;
        }
        if self.tracing && self.group != 0 {
            self.keep(Span {
                name: self.group_name,
                group: self.group,
                is_group: true,
                start_ns: self.group_start,
                end_ns: self.now_ns,
            });
        }
        self.group = 0;
    }

    fn keep(&mut self, span: Span) {
        if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(span);
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Durations recorded for one call name (empty when untraced).
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Self time per call name, in nanoseconds: each span's duration minus
    /// the part its children cover. Calls are leaves; a group's children
    /// are the calls made while it was open.
    pub fn self_times(&self) -> &BTreeMap<&'static str, f64> {
        &self.self_ns
    }

    /// Takes the spans kept in memory, with the count dropped past the cap.
    pub fn take_spans(&mut self) -> (Vec<Span>, u64) {
        (std::mem::take(&mut self.spans), self.dropped_spans)
    }
}

/// Sorts samples ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of ascending samples (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// True when `n` samples leave at least ten beyond the quantile `q`.
pub fn qualifies(n: usize, q: f64) -> bool {
    (n as f64) * (1.0 - q) >= 10.0
}

/// A report line on whether `n` latency samples support a p99.
pub fn sample_note(n: usize) -> String {
    let verdict = if qualifies(n, 0.99) {
        "at least ten beyond p99"
    } else {
        "too few for p99"
    };
    format!("latency samples {n}: {verdict}")
}
