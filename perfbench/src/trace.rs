//! Span rollup over an `sgs_obs` event log: durations and self times.
//!
//! Spans pair per thread (a `SpanEnd` closes the innermost open span of that
//! name on its thread). A span's self time is its duration minus the durations
//! of the spans directly nested in it on the same thread.

use std::collections::BTreeMap;

use sgs_obs::{Event, EventKind, FieldValue};

/// One closed span.
pub struct ClosedSpan {
    /// `/`-joined labels from the thread's outermost open span down to this
    /// one; a span with an `op` field is labelled `name[op]`.
    pub path: String,
    pub name: &'static str,
    pub dur_us: u64,
    pub self_us: u64,
}

struct Open {
    name: &'static str,
    label: String,
    start_us: u64,
    child_us: u64,
}

/// Closes every span of `events` whose name passes `keep`; spans that fail
/// `keep` are invisible, so they neither appear nor count as children.
pub fn close_spans(events: &[Event], keep: impl Fn(&str) -> bool) -> Vec<ClosedSpan> {
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut out = Vec::new();
    for ev in events.iter().filter(|e| keep(e.name)) {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::SpanBegin => {
                let op = ev.fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"op", FieldValue::Str(s)) => Some(*s),
                    _ => None,
                });
                stack.push(Open {
                    name: ev.name,
                    label: op
                        .map_or_else(|| ev.name.to_string(), |op| format!("{}[{op}]", ev.name)),
                    start_us: ev.ts_us,
                    child_us: 0,
                });
            }
            EventKind::SpanEnd => {
                let Some(pos) = stack.iter().rposition(|o| o.name == ev.name) else {
                    continue;
                };
                let open = stack.remove(pos);
                let path: Vec<&str> = stack[..pos]
                    .iter()
                    .map(|o| o.label.as_str())
                    .chain([open.label.as_str()])
                    .collect();
                let path = path.join("/");
                let dur_us = ev.ts_us.saturating_sub(open.start_us);
                if let Some(parent) = pos.checked_sub(1).map(|p| &mut stack[p]) {
                    parent.child_us += dur_us;
                }
                out.push(ClosedSpan {
                    path,
                    name: open.name,
                    dur_us,
                    self_us: dur_us.saturating_sub(open.child_us),
                });
            }
            EventKind::Point | EventKind::Counter => {}
        }
    }
    out
}

/// Per-path totals for the rollup file.
#[derive(Default)]
pub struct PathTotals {
    pub calls: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Sums closed spans by path.
pub fn rollup(spans: &[ClosedSpan]) -> BTreeMap<String, PathTotals> {
    let mut by_path: BTreeMap<String, PathTotals> = BTreeMap::new();
    for s in spans {
        let t = by_path.entry(s.path.clone()).or_default();
        t.calls += 1;
        t.total_us += s.dur_us;
        t.self_us += s.self_us;
    }
    by_path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, ts_us: u64) -> Event {
        Event {
            name,
            kind,
            fields: Vec::new(),
            ts_us,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        use EventKind::{SpanBegin as B, SpanEnd as E};
        let events = [
            ev("bench.rep", B, 0),
            ev("bench.core", B, 10),
            ev("spanner.decide", B, 12),
            ev("spanner.decide", E, 20),
            ev("bench.core", E, 40),
            ev("bench.graph", B, 50),
            ev("bench.graph", E, 60),
            ev("bench.rep", E, 100),
        ];
        let spans = close_spans(&events, |n| n.starts_with("bench."));
        let get = |p: &str| spans.iter().find(|s| s.path == p).unwrap();
        assert_eq!(get("bench.rep/bench.core").self_us, 30);
        assert_eq!(get("bench.rep/bench.graph").dur_us, 10);
        assert_eq!(get("bench.rep").self_us, 60);
        let all = close_spans(&events, |_| true);
        let core = all
            .iter()
            .find(|s| s.path == "bench.rep/bench.core")
            .unwrap();
        assert_eq!(core.self_us, 22);
    }
}
