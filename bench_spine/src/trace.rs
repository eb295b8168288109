//! The benchmark's own span recorder. Spans are recorded from the
//! benchmark's side of each layer boundary (around calls into public
//! functions), kept in memory, and written out when the run ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use lipstick_core::obs::QueryTrace;

use crate::json::escape;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// One id per statement (or workflow execution): every span of one
    /// operation shares it.
    pub op: u32,
    pub name: Cow<'static, str>,
    /// The layer whose self time this span counts towards.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` when the interval was not clocked by the benchmark but
    /// derived from a figure the system reports (e.g. the reply's
    /// `time_us` trailer).
    pub derived: bool,
}

/// `Sync` so the timing IO decorator can record from inside a storage
/// call while the benchmark holds the recorder too.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The span new IO spans attach under, and its operation id.
    current: Mutex<Option<(u32, u32)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            current: Mutex::new(None),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
    }

    /// Record a finished span; returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        op: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> u32 {
        let mut spans = self.lock();
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            op,
            name: Cow::Borrowed(name),
            layer,
            start_ns,
            end_ns,
            derived,
        });
        id
    }

    /// Reserve a span whose end is not known yet, so children recorded
    /// meanwhile can name it as their parent.
    pub fn open(
        &self,
        op: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
    ) -> u32 {
        let now = self.now_ns();
        self.push(op, parent, layer, name, now, now, false)
    }

    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        self.lock()[id as usize].end_ns = now;
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(
        &self,
        op: u32,
        parent: Option<u32>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, layer, name);
        let out = f();
        self.close(id);
        out
    }

    /// Route IO spans recorded by [`Recorder::io`] under `span`.
    pub fn set_current(&self, current: Option<(u32, u32)>) {
        *self.current.lock().expect("current-span lock") = current;
    }

    /// Record one storage IO call under the current span, if any.
    pub fn io(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let current = *self.current.lock().expect("current-span lock");
        if let Some((op, parent)) = current {
            self.push(
                op,
                Some(parent),
                "storage.io",
                name,
                start_ns,
                end_ns,
                false,
            );
        }
    }

    /// Nest the product's own `plan` / `execute` / operator spans (from
    /// `Session::run_read_stmt_traced`) under `parent` rather than
    /// re-timing them. `base_ns` is this recorder's clock when the
    /// product tracer was created.
    pub fn import(&self, op: u32, parent: u32, base_ns: u64, trace: &QueryTrace) {
        let mut spans = self.lock();
        let offset = spans.len() as u32;
        // Product span ids are dense from 0 in creation order.
        let mut layer_of: BTreeMap<u32, &'static str> = BTreeMap::new();
        for s in &trace.spans {
            let layer = match s.parent.and_then(|p| layer_of.get(&p).copied()) {
                Some(inherited) => inherited,
                None if s.label == "plan" => "proql.plan",
                None => "proql.execute",
            };
            layer_of.insert(s.id, layer);
            spans.push(Span {
                id: offset + s.id,
                parent: Some(s.parent.map_or(parent, |p| offset + p)),
                op,
                name: Cow::Owned(s.label.clone()),
                layer,
                start_ns: base_ns + s.start_us * 1000,
                end_ns: base_ns + s.end_us * 1000,
                derived: false,
            });
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time per operation and layer, nanoseconds: each span's
/// duration minus its children's (clamped at zero), summed by the
/// span's operation and layer.
pub fn self_time_by_op_and_layer(spans: &[Span]) -> HashMap<(u32, &'static str), u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: HashMap<(u32, &'static str), u64> = HashMap::new();
    for s in spans {
        let own = s
            .end_ns
            .saturating_sub(s.start_ns)
            .saturating_sub(child_ns[s.id as usize]);
        *out.entry((s.op, s.layer)).or_default() += own;
    }
    out
}

/// Self time per layer over all operations, nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((_, layer), ns) in self_time_by_op_and_layer(spans) {
        *out.entry(layer).or_default() += ns;
    }
    out
}

/// Write the spans as a JSON array.
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 120 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"layer\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.op,
            escape(&s.name),
            s.layer,
            s.start_ns,
            s.end_ns,
            s.derived
        ));
    }
    out.push_str("\n]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let rec = Recorder::default();
        let root = rec.push(0, None, "op", "op", 0, 100, false);
        let a = rec.push(0, Some(root), "parse", "parse", 10, 30, false);
        rec.push(0, Some(a), "lex", "lex", 12, 20, false);
        rec.push(0, Some(root), "exec", "exec", 30, 90, false);
        let by = self_time_by_layer(&rec.spans());
        assert_eq!(by["op"], 20);
        assert_eq!(by["parse"], 12);
        assert_eq!(by["lex"], 8);
        assert_eq!(by["exec"], 60);
        assert_eq!(by.values().sum::<u64>(), 100);
    }

    #[test]
    fn written_trace_parses_back() {
        let rec = Recorder::default();
        rec.time(7, None, "op", "say \"hi\"", || ());
        let path = crate::common::out_dir().join(format!("trace-test-{}.json", std::process::id()));
        write_json(&path, &rec.spans()).unwrap();
        let doc = crate::json::Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let span = &doc.as_arr()[0];
        assert_eq!(
            span.get("op").and_then(crate::json::Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            span.get("name").and_then(crate::json::Json::as_str),
            Some("say \"hi\"")
        );
        assert_eq!(span.get("parent"), Some(&crate::json::Json::Null));
    }
}
