//! The benchmark's own spans: kept in memory during a traced run and written
//! out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;

/// One timed interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span store.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its id, for use as a parent.
    pub fn push(&mut self, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(a, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Writes every span with its self time as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.push(None, "request", 0, 100);
        t.push(Some(root), "send_lag", 0, 10);
        t.push(Some(root), "server.compute", 30, 60);
        // Overlaps the previous child by 10 and runs past the parent's end.
        t.push(Some(root), "client.wire", 50, 130);
        let st = t.self_times();
        // Covered: [0,10) + [30,100) = 80 of 100.
        assert_eq!(st[0], 20);
        assert_eq!(st[1..], [10, 30, 80]);
    }
}
