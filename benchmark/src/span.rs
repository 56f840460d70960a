//! Spans recorded by the traced run: one per call into a public entry
//! point, kept in memory and written out when the run ends.
//!
//! The ladder calls each entry point on its own — `Client::call`, then
//! `Server::call`, then `evaluate_mixed`, … — so a rung's span does not
//! lie inside its parent's in wall time. A child therefore covers as
//! much of its parent as it lasted: self time = the span's duration
//! minus its children's durations, floored at zero.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub parent: Option<SpanId>,
    /// Crate or module that owns the entry point (`serve`, `irs`, …).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` as one span of op `op` under `parent`.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        let id = self.record(op, parent, layer, name, start, end);
        (result, id)
    }

    pub fn record(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(Span {
            op,
            parent,
            layer,
            name,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        })
    }

    fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn duration_us(&self, id: SpanId) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e3
    }

    /// Self time of every span, indexed by span id, in nanoseconds.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// Self times in microseconds grouped by `layer.name`, one entry per
    /// span — i.e. per op that reached that rung.
    pub fn self_us_by_rung(&self) -> BTreeMap<String, Vec<f64>> {
        let mut rungs: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            rungs
                .entry(format!("{}.{}", span.layer, span.name))
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        rungs
    }

    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"workload\":\"{}\",\"op\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.workload,
                span.op,
                id,
                parent,
                span.layer,
                span.name,
                span.start_ns,
                span.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            parent,
            layer: "l",
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let mut log = SpanLog::new("w");
        let top = log.push(span(None, "top", 0, 100));
        let mid = log.push(span(Some(top), "mid", 100, 170)); // 70 of top's 100
        log.push(span(Some(mid), "leaf_a", 170, 200)); // 30 of mid's 70
        log.push(span(Some(mid), "leaf_b", 200, 215)); // 15 more
        assert_eq!(log.self_times_ns(), vec![30, 25, 30, 15]);
        // The rungs' self times add up to the top rung.
        assert_eq!(log.self_times_ns().iter().sum::<u64>(), 100);
    }

    #[test]
    fn a_child_that_outlasts_its_parent_leaves_no_negative_self_time() {
        let mut log = SpanLog::new("w");
        let top = log.push(span(None, "top", 0, 40));
        log.push(span(Some(top), "below", 40, 100));
        assert_eq!(log.self_times_ns(), vec![0, 60]);
    }

    #[test]
    fn rungs_group_by_layer_and_name_and_lines_carry_every_field() {
        let mut log = SpanLog::new("read-hot");
        let (value, top) = log.time(3, None, "serve", "client_call", || 7);
        assert_eq!(value, 7);
        log.time(3, Some(top), "serve", "server_call", || ());
        log.time(4, None, "serve", "client_call", || ());
        let rungs = log.self_us_by_rung();
        assert_eq!(rungs["serve.client_call"].len(), 2);
        assert_eq!(rungs["serve.server_call"].len(), 1);

        let mut bytes = Vec::new();
        log.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(
            "{\"workload\":\"read-hot\",\"op\":3,\"span\":0,\"parent\":null,\
             \"layer\":\"serve\",\"name\":\"client_call\",\"start_ns\":"
        ));
        assert!(lines[1].contains("\"span\":1,\"parent\":0,"));
    }
}
