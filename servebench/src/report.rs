//! Metric and check accounting, and the run's final JSON line.

/// Named metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` (non-finite values,
    /// which JSON cannot carry, are written as 0).
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// Operations attempted and failed. A non-200 response, a transport
/// error or a wrong answer is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation, failed unless `ok`; `why` describes a
    /// failure (only the first few are kept).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The last line of standard output.
pub fn final_line(checks: &Checks, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    )
}
