//! The flight recorder: a fixed-capacity per-thread ring buffer of recent
//! spans and gauge updates, kept alongside (and independently of) the
//! event recorder.
//!
//! When enabled, every span enter/exit and gauge set also lands in the
//! calling thread's ring, overwriting the oldest entry once the ring is
//! full. The rings are snapshottable at any moment and dumped to a JSON
//! "black box" file on panic, so a crashed run leaves its last few
//! thousand events next to its other artifacts even when full event
//! recording was off.
//!
//! Entries are fixed-size (`&'static str` name + five numbers — no
//! allocation per event) and each ring is guarded by its own mutex that
//! only its owning thread takes on the hot path, so recording is
//! contention-free; snapshots briefly lock each ring in turn. When
//! disabled (the default) the only cost at each instrumentation site is a
//! relaxed atomic load.

use crate::json::Value;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Default per-thread ring capacity ("last 4k events" across a typical
/// 8-worker run).
pub const DEFAULT_CAPACITY: usize = 512;

/// Fast-path switch, mirrored by [`enabled`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Per-thread ring capacity applied when a thread registers its ring.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Every ring ever registered, so snapshot/dump can reach rings owned by
/// parked or finished threads.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Where [`dump`] writes the black box (None until configured).
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// What a flight entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (`value` = attr or NaN-free 0).
    Enter,
    /// A span closed (`value` = duration in ns).
    Exit,
    /// A gauge was set (`value` = the new value).
    Gauge,
}

impl FlightKind {
    fn as_str(self) -> &'static str {
        match self {
            FlightKind::Enter => "enter",
            FlightKind::Exit => "exit",
            FlightKind::Gauge => "gauge",
        }
    }
}

/// One fixed-size flight-recorder entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Entry kind.
    pub kind: FlightKind,
    /// Static span/gauge name.
    pub name: &'static str,
    /// Monotonic nanoseconds since the observability epoch.
    pub t_ns: u64,
    /// Small per-process thread index.
    pub tid: u64,
    /// Span id (0 for gauges).
    pub sid: u64,
    /// Parent span id (0 = root / gauge).
    pub parent: u64,
    /// Kind-dependent payload: enter attr, exit duration (ns), gauge value.
    pub value: f64,
}

/// A per-thread overwrite-oldest ring.
#[derive(Debug)]
struct Ring {
    entries: Vec<FlightEvent>,
    capacity: usize,
    /// Next write position once the ring has wrapped.
    head: usize,
    /// Total entries ever written (so snapshots can report drops).
    written: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            head: 0,
            written: 0,
        }
    }

    fn push(&mut self, ev: FlightEvent) {
        self.written += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(ev);
        } else {
            self.entries[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Entries oldest-first.
    fn ordered(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.head..]);
        out.extend_from_slice(&self.entries[..self.head]);
        out
    }
}

/// `true` while the flight recorder is armed. One relaxed atomic load —
/// the instrumentation fast path.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms the flight recorder with the given per-thread ring capacity.
/// Already-registered rings keep their old capacity; new threads get the
/// new one.
pub fn enable(capacity: usize) {
    CAPACITY.store(capacity.max(1), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms the flight recorder. Rings keep their contents (still
/// snapshot/dumpable) until [`clear`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Empties every ring and the total-written counters (test isolation and
/// run boundaries).
pub fn clear() {
    let rings = RINGS.lock().unwrap_or_else(PoisonError::into_inner);
    for ring in rings.iter() {
        let mut ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        ring.entries.clear();
        ring.head = 0;
        ring.written = 0;
    }
}

/// Records a span-enter into the calling thread's ring. Callers gate on
/// [`enabled`] first.
pub(crate) fn record_enter(
    name: &'static str,
    t_ns: u64,
    tid: u64,
    sid: u64,
    parent: u64,
    attr: Option<f64>,
) {
    record(FlightEvent {
        kind: FlightKind::Enter,
        name,
        t_ns,
        tid,
        sid,
        parent,
        value: attr.unwrap_or(0.0),
    });
}

/// Records a span-exit into the calling thread's ring.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn record_exit(name: &'static str, t_ns: u64, tid: u64, sid: u64, dur_ns: u64) {
    record(FlightEvent {
        kind: FlightKind::Exit,
        name,
        t_ns,
        tid,
        sid,
        parent: 0,
        value: dur_ns as f64,
    });
}

/// Records a gauge update into the calling thread's ring.
pub(crate) fn record_gauge(name: &'static str, t_ns: u64, tid: u64, value: f64) {
    record(FlightEvent {
        kind: FlightKind::Gauge,
        name,
        t_ns,
        tid,
        sid: 0,
        parent: 0,
        value,
    });
}

fn record(ev: FlightEvent) {
    THREAD_RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let ring = Arc::new(Mutex::new(Ring::new(CAPACITY.load(Ordering::Relaxed))));
            RINGS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Arc::clone(&ring));
            *slot = Some(ring);
        }
        let ring = slot.as_ref().expect("registered above");
        // Only this thread and snapshot/dump take this lock: uncontended on
        // the hot path.
        ring.lock().unwrap_or_else(PoisonError::into_inner).push(ev);
    });
}

/// All rings' entries merged and ordered by `(t_ns, tid, sid)`, plus the
/// number of entries overwritten since the last [`clear`].
#[must_use]
pub fn snapshot() -> (Vec<FlightEvent>, u64) {
    let rings: Vec<Arc<Mutex<Ring>>> = RINGS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(Arc::clone)
        .collect();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings {
        let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        dropped += ring.written - ring.entries.len() as u64;
        events.extend(ring.ordered());
    }
    events.sort_by_key(|e| (e.t_ns, e.tid, e.sid));
    (events, dropped)
}

/// The snapshot as a JSON document: `{"reason", "dropped", "events":[…]}`.
#[must_use]
pub fn snapshot_value(reason: &str) -> Value {
    let (events, dropped) = snapshot();
    let entries: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut members = vec![
                ("kind".to_owned(), Value::from(e.kind.as_str())),
                ("name".to_owned(), Value::from(e.name)),
                ("t_ns".to_owned(), Value::from(e.t_ns)),
                ("tid".to_owned(), Value::from(e.tid)),
            ];
            if e.sid != 0 {
                members.push(("sid".to_owned(), Value::from(e.sid)));
            }
            if e.parent != 0 {
                members.push(("parent".to_owned(), Value::from(e.parent)));
            }
            members.push(("value".to_owned(), Value::from(e.value)));
            Value::Obj(members)
        })
        .collect();
    Value::Obj(vec![
        ("reason".to_owned(), Value::from(reason)),
        ("dropped".to_owned(), Value::from(dropped)),
        ("events".to_owned(), Value::Arr(entries)),
    ])
}

/// Configures where [`dump`] (and the panic hook) writes the black box.
pub fn set_dump_path(path: impl AsRef<Path>) {
    *DUMP_PATH.lock().unwrap_or_else(PoisonError::into_inner) = Some(path.as_ref().to_path_buf());
}

/// Writes the current snapshot to the configured dump path (atomic temp +
/// rename; last dump wins). No-op when the recorder is disarmed or no path
/// is configured. Returns the path written, if any.
pub fn dump(reason: &str) -> Option<PathBuf> {
    if !enabled() {
        return None;
    }
    let path = DUMP_PATH
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    let doc = snapshot_value(reason).to_json() + "\n";
    match crate::fsio::atomic_write(&path, doc.as_bytes()) {
        Ok(()) => Some(path),
        Err(_) => None,
    }
}

/// Installs (once per process) a panic hook that dumps the flight recorder
/// before delegating to the previous hook. The dump itself is gated on
/// [`enabled`] and a configured path, so installing the hook is always
/// safe — including for tests that panic under
/// `catch_unwind`.
pub fn install_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Reentrancy guard: a panic while dumping must not recurse.
            static DUMPING: AtomicBool = AtomicBool::new(false);
            if !DUMPING.swap(true, Ordering::SeqCst) {
                if let Some(path) = dump("panic") {
                    eprintln!("lori-obs: flight recorder dumped to {}", path.display());
                }
                DUMPING.store(false, Ordering::SeqCst);
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let mut ring = Ring::new(3);
        for i in 0..5u64 {
            ring.push(FlightEvent {
                kind: FlightKind::Gauge,
                name: "g",
                t_ns: i,
                tid: 0,
                sid: 0,
                parent: 0,
                value: 0.0,
            });
        }
        let ordered = ring.ordered();
        assert_eq!(ordered.len(), 3);
        let ts: Vec<u64> = ordered.iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest-first, oldest two dropped");
        assert_eq!(ring.written, 5);
    }

    #[test]
    fn snapshot_value_shape() {
        let v = snapshot_value("unit");
        assert_eq!(v.get("reason").and_then(Value::as_str), Some("unit"));
        assert!(v.get("events").is_some());
        assert!(v.get("dropped").and_then(Value::as_f64).is_some());
    }
}
