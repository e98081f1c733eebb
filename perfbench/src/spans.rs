//! Traced-run attribution. A [`SpanSink`] folds the program's span-end
//! events into per-name totals as they arrive, so a long traced run keeps
//! no per-span records. Self time of a span is its duration minus its
//! direct children's; self time of a span that has children is
//! *unattributed* (work no named child explains), unlike
//! `telemetry::ProfileReport::coverage_pct`, which counts it as covered.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use telemetry::{Event, Sink, SpanRecord};

/// Spans the program emits that have children, whose self time is
/// therefore reported as `<name>.unattributed_s`.
pub const NON_LEAF: [&str; 6] = [
    "offline.episode",
    "offline.step",
    "online.request",
    "online.step",
    "twinq.loop",
    "env.eval",
];

/// Leaf spans, whose self time is reported as `<name>.self_s`.
pub const LEAF: [&str; 5] = [
    "td3.critic_update",
    "td3.actor_update",
    "replay.sample",
    "twinq.rescore",
    "sim.engine_step",
];

/// Per-name totals.
#[derive(Clone, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
    /// Whether any instance had a child span.
    pub has_children: bool,
}

#[derive(Default)]
struct Fold {
    /// Σ duration of already-ended children, keyed by parent span id.
    pending_children: HashMap<u64, f64>,
    by_name: BTreeMap<String, SpanTotals>,
    /// Σ duration of root spans (no parent).
    root_s: f64,
}

/// Streaming span aggregator; install with `telemetry::install`.
#[derive(Clone, Default)]
pub struct SpanSink {
    fold: Arc<Mutex<Fold>>,
}

impl Sink for SpanSink {
    fn record(&self, event: &Event) {
        let Some(span) = SpanRecord::from_event(event) else {
            return;
        };
        let mut fold = self.fold.lock();
        let children = fold.pending_children.remove(&span.span_id);
        if span.parent_id == 0 {
            fold.root_s += span.duration_s;
        } else {
            *fold.pending_children.entry(span.parent_id).or_insert(0.0) += span.duration_s;
        }
        let row = fold.by_name.entry(span.name).or_default();
        row.count += 1;
        row.total_s += span.duration_s;
        row.self_s += (span.duration_s - children.unwrap_or(0.0)).max(0.0);
        row.has_children |= children.is_some();
    }
}

/// What a traced phase measured, normalised by the caller.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub by_name: BTreeMap<String, SpanTotals>,
    pub root_s: f64,
    /// Σ self time of spans without children.
    pub leaf_s: f64,
    /// Σ self time of spans with children.
    pub unattributed_s: f64,
}

impl SpanSink {
    pub fn attribution(&self) -> Attribution {
        let fold = self.fold.lock();
        let mut out = Attribution {
            by_name: fold.by_name.clone(),
            root_s: fold.root_s,
            ..Attribution::default()
        };
        for row in fold.by_name.values() {
            if row.has_children {
                out.unattributed_s += row.self_s;
            } else {
                out.leaf_s += row.self_s;
            }
        }
        out
    }
}

impl Attribution {
    /// Self seconds of span `name` (0 when it never ran).
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |r| r.self_s)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |r| r.count)
    }

    /// Names outside [`LEAF`] ∪ [`NON_LEAF`], or whose observed nesting
    /// contradicts their list — the metric catalog needs updating.
    pub fn unexpected(&self) -> Vec<String> {
        self.by_name
            .iter()
            .filter(|(name, row)| {
                let n = name.as_str();
                if LEAF.contains(&n) {
                    row.has_children
                } else {
                    !NON_LEAF.contains(&n)
                }
            })
            .map(|(name, _)| name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::FieldValue;

    fn span_event(name: &'static str, id: u64, parent: u64, dur: f64) -> Event {
        Event::new(
            name,
            vec![
                ("span_id", FieldValue::U64(id)),
                ("parent_span_id", FieldValue::U64(parent)),
                ("duration_s", FieldValue::F64(dur)),
            ],
        )
    }

    #[test]
    fn non_leaf_self_time_is_unattributed() {
        let sink = SpanSink::default();
        sink.record(&span_event("td3.critic_update", 2, 1, 0.3));
        sink.record(&span_event("env.eval", 3, 1, 0.2));
        sink.record(&span_event("offline.step", 1, 0, 1.0));
        let a = sink.attribution();
        assert!((a.root_s - 1.0).abs() < 1e-12);
        assert!((a.self_s("offline.step") - 0.5).abs() < 1e-12);
        assert!((a.unattributed_s - 0.5).abs() < 1e-12);
        assert!((a.leaf_s - 0.5).abs() < 1e-12);
        assert!(a.unexpected().is_empty());
    }
}
