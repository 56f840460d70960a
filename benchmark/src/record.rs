//! The one record schema every printed and stored number uses,
//! hand-rolled like the rest of the repository's JSON (no serde).

use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a single reading).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// What identifies a run in the history file.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub rev: String,
    pub nproc: usize,
    pub seed: u64,
    pub workload: &'static str,
    pub seconds: u64,
    pub trace: bool,
    pub unix_time: u64,
}

impl RunInfo {
    pub fn record(&self, m: &Metric) -> String {
        format!(
            "{{\"rev\":{},\"nproc\":{},\"seed\":{},\"workload\":{},\"seconds\":{},\"trace\":{},\
             \"unix_time\":{},\"metric\":{},\"unit\":{},\"value\":{},\"samples\":{}}}",
            json_string(&self.rev),
            self.nproc,
            self.seed,
            json_string(self.workload),
            self.seconds,
            u8::from(self.trace),
            self.unix_time,
            json_string(m.name),
            json_string(m.unit),
            json_number(m.value),
            m.samples
        )
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number with all its digits (Rust prints the shortest text that
/// reads back to the same `f64`). JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

/// Append one record per metric; the file is never rewritten.
pub fn append_history(path: &Path, info: &RunInfo, metrics: &[Metric]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut lines = String::new();
    for m in metrics {
        lines.push_str(&info.record(m));
        lines.push('\n');
    }
    file.write_all(lines.as_bytes())
}

/// The driver's result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_have_the_agreed_shape() {
        let m = Metric::new("p50_us", "us", 120.25, 9000);
        let info = RunInfo {
            rev: "abc\"1".into(),
            nproc: 2,
            seed: 42,
            workload: "read-hot",
            seconds: 8,
            trace: false,
            unix_time: 7,
        };
        assert_eq!(
            info.record(&m),
            "{\"rev\":\"abc\\\"1\",\"nproc\":2,\"seed\":42,\"workload\":\"read-hot\",\
             \"seconds\":8,\"trace\":0,\"unix_time\":7,\"metric\":\"p50_us\",\"unit\":\"us\",\
             \"value\":120.25,\"samples\":9000}"
        );
        assert_eq!(
            result_line(true, 10, 0, &[m]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 120.25, \"unit\": \"us\"}}}"
        );
    }
}
