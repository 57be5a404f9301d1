//! A dependency-free labeled metrics registry with Prometheus text
//! exposition.
//!
//! [`MetricsRegistry`] holds named **families** of counter, gauge, and
//! histogram series. Each family has a fixed label-name schema (e.g.
//! `endpoint`, `shard`) and any number of members keyed by their label
//! values; registering the same `(name, label values)` twice returns a
//! handle to the **same** underlying series, so every layer of a process
//! can cheaply re-acquire its handles.
//!
//! Handles are designed for the hot path:
//!
//! * [`Counter`] / [`Gauge`] are a single relaxed atomic op per update.
//! * [`HistogramHandle`] stripes its [`LogHistogram`] over 8 mutexes with
//!   threads assigned round-robin (the same scheme the service layer's
//!   latency log uses), so concurrent recorders almost never contend.
//!
//! Reads are **snapshot-consistent per series**: a histogram merge locks
//! one stripe at a time, and each stripe is internally consistent, so the
//! merged histogram always satisfies `count == Σ bucket counts` — the
//! invariant the Prometheus `_count`/`le="+Inf"` contract requires — even
//! while recorders race the scrape.
//!
//! [`MetricsRegistry::render`] produces the Prometheus text exposition
//! format (`# HELP`/`# TYPE` headers, escaped label values, cumulative
//! `le=` histogram buckets derived from `LogHistogram::bucket_bound`),
//! and [`validate_exposition`] is a strict parser for that format — shared
//! by the unit tests and the end-to-end `/metrics` scrape checks.

use crate::LogHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What a family measures — fixes the exposition `# TYPE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically increasing `u64`.
    Counter,
    /// Instantaneous signed level.
    Gauge,
    /// A [`LogHistogram`] of `u64` observations.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotone counter series. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the value — for **mirroring** a monotone counter that is
    /// authoritatively maintained elsewhere (e.g. reactor atomics synced at
    /// scrape time). The caller owns monotonicity.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge series (signed level). Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock stripes per histogram series: recording threads spread round-robin
/// so concurrent recorders almost never share a mutex.
const STRIPES: usize = 8;

/// The stripe this thread records into (assigned round-robin at first use,
/// like the service latency log's).
fn stripe_of_thread() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

#[derive(Debug)]
struct HistStripes {
    stripes: [Mutex<LogHistogram>; STRIPES],
}

/// A histogram series handle. Cloning shares the underlying stripes.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Arc<HistStripes>);

impl HistogramHandle {
    fn new() -> Self {
        HistogramHandle(Arc::new(HistStripes {
            stripes: std::array::from_fn(|_| Mutex::new(LogHistogram::new())),
        }))
    }

    /// Records one observation (lock-striped; uncontended in steady state).
    pub fn record(&self, v: u64) {
        self.0.stripes[stripe_of_thread()]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(v);
    }

    /// Merges the stripes into one [`LogHistogram`]. Locks one stripe at a
    /// time; each stripe is internally consistent, so the merge always
    /// satisfies `count == Σ bucket counts` even while recorders race.
    pub fn merged(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for stripe in &self.0.stripes {
            out.merge(&stripe.lock().unwrap_or_else(|e| e.into_inner()));
        }
        out
    }
}

#[derive(Clone, Debug)]
enum Member {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

struct Family {
    help: String,
    kind: MetricKind,
    label_names: Vec<String>,
    /// Keyed by label **values**, in `label_names` order.
    members: BTreeMap<Vec<String>, Member>,
}

/// A named registry of metric families with static labels.
///
/// Registration is idempotent: asking for an existing `(name, labels)`
/// series returns a handle sharing its storage. Families are rendered in
/// name order, members in label-value order, so exposition output is
/// deterministic.
///
/// # Panics
///
/// Re-registering a name with a different kind, a different label-name
/// schema, or an invalid metric/label name panics — these are programming
/// errors, not runtime conditions.
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// `[a-zA-Z_:][a-zA-Z0-9_:]*`
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*`
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value per the text format: `\` → `\\`, `"` → `\"`,
/// newline → `\n`.
fn escape_label_value(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes a HELP text: `\` → `\\`, newline → `\n`.
fn escape_help(v: &str, out: &mut String) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    fn member(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Member,
    ) -> Member {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (ln, _) in labels {
            assert!(valid_label_name(ln), "invalid label name {ln:?}");
        }
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            label_names: labels.iter().map(|(n, _)| n.to_string()).collect(),
            members: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} re-registered as a different kind"
        );
        let names: Vec<&str> = family.label_names.iter().map(String::as_str).collect();
        let given: Vec<&str> = labels.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names, given,
            "metric {name} re-registered with a different label schema"
        );
        let key: Vec<String> = labels.iter().map(|&(_, v)| v.to_string()).collect();
        family.members.entry(key).or_insert_with(make).clone()
    }

    /// Registers (or re-acquires) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.member(name, help, MetricKind::Counter, labels, || {
            Member::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Member::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-acquires) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.member(name, help, MetricKind::Gauge, labels, || {
            Member::Gauge(Gauge(Arc::new(AtomicI64::new(0))))
        }) {
            Member::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or re-acquires) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        match self.member(name, help, MetricKind::Histogram, labels, || {
            Member::Histogram(HistogramHandle::new())
        }) {
            Member::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): per family a `# HELP` and `# TYPE` header, then
    /// one sample line per member — counters and gauges directly,
    /// histograms as cumulative `_bucket{le=…}` lines (bounds from
    /// `LogHistogram::bucket_bound` over the non-empty buckets, plus
    /// `+Inf`), `_sum`, and `_count`.
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::with_capacity(4096);
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            escape_help(&family.help, &mut out);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.name());
            out.push('\n');
            for (values, member) in family.members.iter() {
                match member {
                    Member::Counter(c) => {
                        Self::sample(&mut out, name, "", &family.label_names, values, &[]);
                        let _ = writeln!(out, " {}", c.get());
                    }
                    Member::Gauge(g) => {
                        Self::sample(&mut out, name, "", &family.label_names, values, &[]);
                        let _ = writeln!(out, " {}", g.get());
                    }
                    Member::Histogram(h) => {
                        let merged = h.merged();
                        let mut cumulative = 0u64;
                        for (idx, count) in merged.nonzero_buckets() {
                            cumulative += count;
                            let bound = LogHistogram::bucket_bound(idx).to_string();
                            Self::sample(
                                &mut out,
                                name,
                                "_bucket",
                                &family.label_names,
                                values,
                                &[("le", &bound)],
                            );
                            let _ = writeln!(out, " {cumulative}");
                        }
                        Self::sample(
                            &mut out,
                            name,
                            "_bucket",
                            &family.label_names,
                            values,
                            &[("le", "+Inf")],
                        );
                        let _ = writeln!(out, " {}", merged.count());
                        Self::sample(&mut out, name, "_sum", &family.label_names, values, &[]);
                        let _ = writeln!(out, " {}", merged.sum());
                        Self::sample(&mut out, name, "_count", &family.label_names, values, &[]);
                        let _ = writeln!(out, " {}", merged.count());
                    }
                }
            }
        }
        out
    }

    /// Writes `name suffix{labels...}` (no trailing value) into `out`.
    fn sample(
        out: &mut String,
        name: &str,
        suffix: &str,
        label_names: &[String],
        values: &[String],
        extra: &[(&str, &str)],
    ) {
        out.push_str(name);
        out.push_str(suffix);
        if !label_names.is_empty() || !extra.is_empty() {
            out.push('{');
            let mut first = true;
            for (ln, lv) in label_names.iter().zip(values) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(ln);
                out.push_str("=\"");
                escape_label_value(lv, out);
                out.push('"');
            }
            for &(ln, lv) in extra {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(ln);
                out.push_str("=\"");
                escape_label_value(lv, out);
                out.push('"');
            }
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Strict exposition-format validation
// ---------------------------------------------------------------------------

/// One parsed sample line (internal to [`validate_exposition`]).
struct Sample {
    name: String,
    /// `(label, unescaped value)` pairs in line order.
    labels: Vec<(String, String)>,
    value: f64,
}

/// Strictly validates a Prometheus text-format exposition:
///
/// * every sample's family is declared by `# HELP` + `# TYPE` (in that
///   order) **before** its samples, and each family is declared once;
/// * metric and label names obey the format's charsets, label values
///   use only the `\\`, `\"`, `\n` escapes, and no sample repeats a label;
/// * sample names match their family (`name` for counters/gauges;
///   `name_bucket` / `_sum` / `_count` for histograms);
/// * no duplicate series (same name + label set);
/// * histogram buckets are cumulative: per series, counts are
///   non-decreasing in `le` order, an `le="+Inf"` bucket exists, and
///   `_count` equals it;
/// * the exposition ends with a newline.
///
/// Returns the first violation as an error string.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".into());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".into());
    }

    let mut declared: BTreeMap<String, MetricKind> = BTreeMap::new();
    let mut help_seen: BTreeMap<String, bool> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut seen_series: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: HELP without text"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            if help_seen.insert(name.to_string(), true).is_some() {
                return Err(format!("line {n}: duplicate HELP for {name}"));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {n}: TYPE without kind"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {n}: invalid metric name {name:?}"));
            }
            let kind = match kind {
                "counter" => MetricKind::Counter,
                "gauge" => MetricKind::Gauge,
                "histogram" => MetricKind::Histogram,
                other => return Err(format!("line {n}: unknown type {other:?}")),
            };
            if !help_seen.contains_key(name) {
                return Err(format!("line {n}: TYPE for {name} precedes its HELP"));
            }
            if declared.insert(name.to_string(), kind).is_some() {
                return Err(format!("line {n}: duplicate TYPE for {name}"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        let sample = parse_sample(line).map_err(|e| format!("line {n}: {e}"))?;
        // Resolve the family: exact name, or histogram suffixes.
        let family = declared
            .get(&sample.name)
            .map(|&k| (sample.name.clone(), k));
        let family = family.or_else(|| {
            for suffix in ["_bucket", "_sum", "_count"] {
                if let Some(base) = sample.name.strip_suffix(suffix) {
                    if let Some(&k) = declared.get(base) {
                        if k == MetricKind::Histogram {
                            return Some((base.to_string(), k));
                        }
                    }
                }
            }
            None
        });
        let Some((base, kind)) = family else {
            return Err(format!(
                "line {n}: sample {} has no preceding TYPE declaration",
                sample.name
            ));
        };
        if kind == MetricKind::Histogram && sample.name == base {
            return Err(format!(
                "line {n}: histogram {base} exposes a bare sample (expected _bucket/_sum/_count)"
            ));
        }
        let mut series_key = sample.name.clone();
        for (ln, lv) in &sample.labels {
            series_key.push('\u{1}');
            series_key.push_str(ln);
            series_key.push('\u{2}');
            series_key.push_str(lv);
        }
        if !seen_series.insert(series_key) {
            return Err(format!("line {n}: duplicate series {}", sample.name));
        }
        samples.push(sample);
    }

    // Histogram contract: per series (labels minus `le`), cumulative
    // buckets monotone in le order, +Inf present, _count == +Inf.
    for (name, kind) in &declared {
        if *kind != MetricKind::Histogram {
            continue;
        }
        // label-set key (minus le) → Vec<(le, cumulative)>
        let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: BTreeMap<String, f64> = BTreeMap::new();
        let mut sums: BTreeMap<String, f64> = BTreeMap::new();
        for s in &samples {
            let strip_le = |s: &Sample| -> String {
                let mut key = String::new();
                for (ln, lv) in &s.labels {
                    if ln != "le" {
                        key.push('\u{1}');
                        key.push_str(ln);
                        key.push('\u{2}');
                        key.push_str(lv);
                    }
                }
                key
            };
            if s.name == format!("{name}_bucket") {
                let le = s
                    .labels
                    .iter()
                    .find(|(ln, _)| ln == "le")
                    .ok_or_else(|| format!("{name}_bucket sample without le label"))?;
                let bound = if le.1 == "+Inf" {
                    f64::INFINITY
                } else {
                    le.1.parse::<f64>()
                        .map_err(|_| format!("{name}_bucket has unparsable le {:?}", le.1))?
                };
                buckets
                    .entry(strip_le(s))
                    .or_default()
                    .push((bound, s.value));
            } else if s.name == format!("{name}_count") {
                counts.insert(strip_le(s), s.value);
            } else if s.name == format!("{name}_sum") {
                sums.insert(strip_le(s), s.value);
            }
        }
        for (key, series) in &buckets {
            let mut prev_bound = f64::NEG_INFINITY;
            let mut prev_cum = -1.0;
            let mut has_inf = false;
            let mut inf_value = 0.0;
            for &(bound, cum) in series {
                if bound <= prev_bound {
                    return Err(format!("{name}: bucket le bounds not ascending"));
                }
                if cum < prev_cum {
                    return Err(format!("{name}: cumulative bucket counts decrease"));
                }
                if bound.is_infinite() {
                    has_inf = true;
                    inf_value = cum;
                }
                prev_bound = bound;
                prev_cum = cum;
            }
            if !has_inf {
                return Err(format!(
                    "{name}: histogram series lacks an le=\"+Inf\" bucket"
                ));
            }
            let Some(&count) = counts.get(key) else {
                return Err(format!("{name}: histogram series lacks a _count sample"));
            };
            if count != inf_value {
                return Err(format!(
                    "{name}: _count ({count}) != le=\"+Inf\" bucket ({inf_value})"
                ));
            }
            if !sums.contains_key(key) {
                return Err(format!("{name}: histogram series lacks a _sum sample"));
            }
        }
    }
    Ok(())
}

/// Parses one sample line: `name[{label="value",...}] value`.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i] != b'{' && bytes[i] != b' ' {
        i += 1;
    }
    let name = &line[..i];
    if !valid_metric_name(name) {
        return Err(format!("invalid sample name {name:?}"));
    }
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label set".into());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            let start = i;
            while i < bytes.len() && bytes[i] != b'=' {
                i += 1;
            }
            let ln = &line[start..i];
            if !valid_label_name(ln) {
                return Err(format!("invalid label name {ln:?}"));
            }
            if labels.iter().any(|(existing, _)| existing == ln) {
                return Err(format!("duplicate label {ln:?}"));
            }
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("label value must be quoted".into());
            }
            i += 1;
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return Err("unterminated label value".into());
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return Err("invalid escape in label value".into()),
                        }
                        i += 1;
                    }
                    _ => {
                        // Advance one whole UTF-8 char.
                        let ch = line[i..].chars().next().ok_or("invalid utf8")?;
                        value.push(ch);
                        i += ch.len_utf8();
                    }
                }
            }
            labels.push((ln.to_string(), value));
            if i < bytes.len() && bytes[i] == b',' {
                i += 1;
            }
        }
    }
    if i >= bytes.len() || bytes[i] != b' ' {
        return Err("sample missing value separator".into());
    }
    let value_str = line[i + 1..].trim();
    let value: f64 = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse()
            .map_err(|_| format!("unparsable sample value {v:?}"))?,
    };
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_across_registration() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("tthr_requests_total", "requests", &[("endpoint", "spq")]);
        let b = reg.counter("tthr_requests_total", "requests", &[("endpoint", "spq")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same (name, labels) shares the cell");
        let other = reg.counter("tthr_requests_total", "requests", &[("endpoint", "trip")]);
        assert_eq!(other.get(), 0, "different labels are a different series");

        let g = reg.gauge("tthr_depth", "queue depth", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(reg.gauge("tthr_depth", "queue depth", &[]).get(), 3);

        let h = reg.histogram("tthr_lat_ns", "latency", &[("endpoint", "spq")]);
        h.record(100);
        h.record(200);
        let same = reg.histogram("tthr_lat_ns", "latency", &[("endpoint", "spq")]);
        assert_eq!(same.merged().count(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("tthr_x", "x", &[]);
        let _ = reg.gauge("tthr_x", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "different label schema")]
    fn label_schema_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("tthr_y", "y", &[("a", "1")]);
        let _ = reg.counter("tthr_y", "y", &[("b", "1")]);
    }

    #[test]
    fn render_is_valid_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.counter(
            "tthr_requests_total",
            "total requests",
            &[("endpoint", "spq")],
        )
        .add(7);
        reg.counter(
            "tthr_requests_total",
            "total requests",
            &[("endpoint", "trip")],
        )
        .add(3);
        reg.gauge("tthr_connections", "open connections", &[])
            .set(4);
        let h = reg.histogram("tthr_latency_ns", "latency", &[("endpoint", "spq")]);
        for v in [50, 100, 100_000, 5_000_000] {
            h.record(v);
        }
        let text = reg.render();
        validate_exposition(&text).expect(&text);
        assert_eq!(text, reg.render(), "deterministic output");
        assert!(text.contains("# TYPE tthr_requests_total counter"));
        assert!(text.contains("tthr_requests_total{endpoint=\"spq\"} 7"));
        assert!(text.contains("tthr_connections 4"));
        assert!(text.contains("le=\"+Inf\"} 4"));
        assert!(text.contains("tthr_latency_ns_count{endpoint=\"spq\"} 4"));
        assert!(text.contains("tthr_latency_ns_sum{endpoint=\"spq\"} 5100150"));
    }

    #[test]
    fn render_escapes_label_values() {
        let reg = MetricsRegistry::new();
        reg.counter("tthr_esc", "escape test", &[("path", "a\\b\"c\nd")])
            .inc();
        let text = reg.render();
        validate_exposition(&text).expect(&text);
        assert!(text.contains(r#"path="a\\b\"c\nd""#), "{text}");
    }

    #[test]
    fn histogram_bucket_bounds_match_recorded_values() {
        // Every recorded value must be ≤ the le bound of the bucket its
        // count first appears in — the cumulative-bucket semantics.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("tthr_b", "bounds", &[]);
        for v in [0u64, 63, 64, 1000, u64::MAX] {
            h.record(v);
        }
        let text = reg.render();
        validate_exposition(&text).expect(&text);
        // u64::MAX lands in the saturated top bucket; its le renders as
        // u64::MAX, not a wrapped small number.
        assert!(text.contains(&format!("le=\"{}\"", u64::MAX)), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for (bad, why) in [
            ("tthr_a 1\n", "sample without TYPE"),
            ("# TYPE tthr_a counter\ntthr_a 1\n", "TYPE without HELP"),
            (
                "# HELP tthr_a a\n# TYPE tthr_a counter\ntthr_a 1\ntthr_a 2\n",
                "duplicate series",
            ),
            (
                "# HELP tthr_a a\n# TYPE tthr_a counter\ntthr_a 1",
                "missing trailing newline",
            ),
            (
                "# HELP tthr_a a\n# TYPE tthr_a counter\n9bad 1\n",
                "invalid name",
            ),
            (
                "# HELP tthr_a a\n# TYPE tthr_a counter\ntthr_a{x=\"1\",x=\"2\"} 1\n",
                "duplicate label",
            ),
            (
                "# HELP tthr_h h\n# TYPE tthr_h histogram\ntthr_h_bucket{le=\"1\"} 5\ntthr_h_bucket{le=\"2\"} 3\ntthr_h_bucket{le=\"+Inf\"} 5\ntthr_h_sum 9\ntthr_h_count 5\n",
                "non-monotone buckets",
            ),
            (
                "# HELP tthr_h h\n# TYPE tthr_h histogram\ntthr_h_bucket{le=\"1\"} 5\ntthr_h_sum 9\ntthr_h_count 5\n",
                "missing +Inf",
            ),
            (
                "# HELP tthr_h h\n# TYPE tthr_h histogram\ntthr_h_bucket{le=\"+Inf\"} 5\ntthr_h_sum 9\ntthr_h_count 4\n",
                "_count != +Inf",
            ),
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {why}");
        }
    }

    #[test]
    fn concurrent_recording_yields_consistent_scrapes() {
        // Recorders hammer a histogram while scrapes run: every merged
        // snapshot must satisfy count == Σ bucket counts (the
        // _count == le="+Inf" invariant) — stripes merge atomically.
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let h = reg.histogram("tthr_c", "concurrent", &[]);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                let stop = stop.clone();
                scope.spawn(move || {
                    let mut v = t + 1;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 1_000_000);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(t);
                    }
                });
            }
            for _ in 0..50 {
                let snap = h.merged();
                let bucket_sum: u64 = snap.nonzero_buckets().map(|(_, c)| c).sum();
                assert_eq!(snap.count(), bucket_sum, "torn snapshot");
                let text = reg.render();
                validate_exposition(&text).expect(&text);
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
