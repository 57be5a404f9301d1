//! Named measurements: `(name, value, unit)` in emission order.

#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.0.push((name.to_string(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.push(&name, value, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The contract's `metrics` object: every value with all its digits
    /// (`null` for a measurement that could not be taken, which the
    /// driver rejects — a missing number must not pass for a zero).
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}
