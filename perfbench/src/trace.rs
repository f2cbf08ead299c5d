//! Layer accounting over captured span trees.
//!
//! Spans are named `<layer>.<what>`; the layer is the workspace crate the
//! span's self time belongs to. The pool's `sweep.job` span wraps the
//! caller's closure, so its self time goes to the layer of the span that
//! opened the pool (to `sweep` only at the top level). Spans merged from
//! pool workers carry CPU time summed across threads, so a parent's
//! children are scaled down to fit its wall time before self time
//! (duration minus child coverage) is taken: the per-layer shares then add
//! up to the traced wall time.

use cnt_obs::SpanNode;
use std::collections::BTreeMap;
use std::path::Path;

/// The layers reported, by crate name.
pub const LAYERS: [&str; 11] = [
    "core",
    "atomistic",
    "fields",
    "circuit",
    "process",
    "thermal",
    "reliability",
    "measure",
    "sweep",
    "serve",
    "fleet",
];

fn layer_of(span: &str, parent: Option<&'static str>) -> Option<&'static str> {
    if span == "sweep.job" {
        return parent.or(Some("sweep"));
    }
    let prefix = span.split('.').next()?;
    LAYERS.iter().copied().find(|layer| *layer == prefix)
}

/// Wall-attributed self seconds per layer, plus what no span covered.
#[derive(Default)]
pub struct Attribution {
    pub self_s: BTreeMap<&'static str, f64>,
    pub unattributed_s: f64,
    pub wall_s: f64,
}

impl Attribution {
    /// Attributes `wall_s` seconds of traced wall time over `roots`.
    pub fn add(&mut self, roots: &[SpanNode], wall_s: f64) {
        let total: f64 = roots.iter().map(|r| r.total_s).sum();
        let scale = if total > wall_s && total > 0.0 {
            wall_s / total
        } else {
            1.0
        };
        for root in roots {
            self.node(root, root.total_s * scale, None);
        }
        self.unattributed_s += (wall_s - total * scale).max(0.0);
        self.wall_s += wall_s;
    }

    fn node(&mut self, node: &SpanNode, wall_s: f64, parent: Option<&'static str>) {
        let layer = layer_of(&node.name, parent);
        let children: f64 = node.children.iter().map(|c| c.total_s).sum();
        let scale = if children > wall_s && children > 0.0 {
            wall_s / children
        } else {
            1.0
        };
        for child in &node.children {
            self.node(child, child.total_s * scale, layer);
        }
        let own = (wall_s - children * scale).max(0.0);
        match layer {
            Some(layer) => *self.self_s.entry(layer).or_default() += own,
            None => self.unattributed_s += own,
        }
    }

    /// `<layer>.self_share` for every layer and `obs.unattributed_share`.
    pub fn push_shares(&self, outcome: &mut crate::Outcome) {
        let wall = self.wall_s.max(f64::MIN_POSITIVE);
        for layer in LAYERS {
            let own = self.self_s.get(layer).copied().unwrap_or(0.0);
            outcome.push(format!("{layer}.self_share"), own / wall, "share");
        }
        outcome.push(
            "obs.unattributed_share",
            self.unattributed_s / wall,
            "share",
        );
    }
}

/// Writes captured span trees as one JSON array.
pub fn write_spans(path: &Path, roots: &[SpanNode]) -> std::io::Result<()> {
    let mut out = String::from("[");
    for (i, root) in roots.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        root.push_json(&mut out);
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, total_s: f64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            count: 1,
            total_s,
            children,
        }
    }

    #[test]
    fn parallel_children_are_scaled_to_the_parent_wall() {
        // 1 s of wall whose pool jobs summed 1.5 s of CPU on two threads;
        // the jobs ran the atomistic caller's closure.
        let roots = vec![
            node(
                "atomistic.experiment",
                1.0,
                vec![node("sweep.job", 1.5, vec![])],
            ),
            node("sweep.job", 0.5, vec![]),
        ];
        let mut a = Attribution::default();
        a.add(&roots, 1.75);
        assert!((a.self_s["atomistic"] - 1.0).abs() < 1e-12);
        assert!((a.self_s["sweep"] - 0.5).abs() < 1e-12);
        assert!((a.unattributed_s - 0.25).abs() < 1e-12);
        let total: f64 = a.self_s.values().sum::<f64>() + a.unattributed_s;
        assert!((total - a.wall_s).abs() < 1e-12);
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let roots = vec![node(
            "fields.extract",
            2.0,
            vec![
                node("fields.solve", 1.5, vec![]),
                node("bench.other", 0.25, vec![]),
            ],
        )];
        let mut a = Attribution::default();
        a.add(&roots, 2.0);
        assert!((a.self_s["fields"] - 1.75).abs() < 1e-12);
        assert!((a.unattributed_s - 0.25).abs() < 1e-12);
    }
}
