//! The published versions of a session, and the one format of the session
//! documents.
//!
//! Every write that makes a version (`create`, a successful `patch`)
//! publishes one immutable [`SessionSnapshot`] for it: the report, the
//! recompute stats, the session's names, and the session document that
//! `POST /session`, `PATCH /session/{id}/etc` and `GET /session/{id}` answer
//! with, rendered once, right there. Readers share the snapshot's `Arc` and
//! the document's bytes; a read renders and copies nothing. The names are set
//! once at create and shared by every version of the session.
//!
//! The `measures` member is written by
//! [`MeasureReport::write_json`](hc_core::report::MeasureReport::write_json),
//! the renderer behind `POST /measure` and `/batch` items, so the surfaces
//! match byte for byte.

use std::sync::Arc;

use hc_core::report::MeasureReport;
use hc_obs::json::{self, Object};

use crate::engine::RecomputeStats;
use crate::store::Delta;

/// One version of a session, as the write that made it published it.
#[derive(Debug)]
pub struct SessionSnapshot {
    pub id: Arc<str>,
    pub version: u64,
    pub report: MeasureReport,
    pub stats: RecomputeStats,
    /// Task names, set at create and shared by every version.
    pub task_names: Arc<[String]>,
    /// Machine names, set at create and shared by every version.
    pub machine_names: Arc<[String]>,
    document: Arc<[u8]>,
}

impl SessionSnapshot {
    /// The snapshot of one version, with its session document rendered.
    pub(crate) fn new(
        id: Arc<str>,
        version: u64,
        report: MeasureReport,
        stats: RecomputeStats,
        task_names: Arc<[String]>,
        machine_names: Arc<[String]>,
    ) -> Self {
        let document = json::object(|o| {
            o.str("id", &id).u64("version", version);
            report.write_json(&mut o.object("measures"), &task_names, &machine_names);
            write_stats(&mut o.object("recompute"), &stats);
        });
        SessionSnapshot {
            id,
            version,
            report,
            stats,
            task_names,
            machine_names,
            document: Arc::from(document.into_bytes()),
        }
    }

    /// The next version of the same session: its id and names are shared.
    pub(crate) fn next(&self, report: MeasureReport, stats: RecomputeStats) -> Self {
        SessionSnapshot::new(
            Arc::clone(&self.id),
            self.version + 1,
            report,
            stats,
            Arc::clone(&self.task_names),
            Arc::clone(&self.machine_names),
        )
    }

    /// The session document of this version: `{id, version, measures,
    /// recompute}`.
    pub fn document(&self) -> &Arc<[u8]> {
        &self.document
    }
}

/// Writes the `recompute` members: how an analysis ran.
fn write_stats(o: &mut Object<'_>, stats: &RecomputeStats) {
    o.bool("warm", stats.warm)
        .bool("fallback", stats.fallback)
        .u64("sinkhorn_iterations", stats.sinkhorn_iterations as u64)
        .u64("svd_iterations", stats.svd_iterations as u64);
}

/// The watch answer past the watermark: the deltas oldest first, then the
/// current measures.
pub fn watch_document(snapshot: &SessionSnapshot, deltas: &[Delta], truncated: bool) -> String {
    json::object(|o| {
        o.str("id", &snapshot.id)
            .u64("version", snapshot.version)
            .bool("timed_out", false)
            .bool("truncated", truncated);
        {
            let mut arr = o.array("deltas");
            for d in deltas {
                let mut delta = arr.object();
                delta
                    .u64("version", d.version)
                    .f64("mph", d.mph)
                    .f64("tdh", d.tdh)
                    .f64("tma", d.tma)
                    .f64("d_mph", d.d_mph)
                    .f64("d_tdh", d.d_tdh)
                    .f64("d_tma", d.d_tma);
                write_stats(&mut delta.object("recompute"), &d.stats);
            }
        }
        snapshot.report.write_json(
            &mut o.object("measures"),
            &snapshot.task_names,
            &snapshot.machine_names,
        );
    })
}

/// The watch answer when its deadline passed with nothing past the
/// watermark: the unchanged version and no deltas.
pub fn timed_out_document(id: &str, version: u64) -> String {
    json::object(|o| {
        o.str("id", id)
            .u64("version", version)
            .bool("timed_out", true)
            .bool("truncated", false);
        o.array("deltas");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> SessionSnapshot {
        SessionSnapshot::new(
            Arc::from("s-1"),
            3,
            MeasureReport {
                mph: 0.5,
                tdh: 0.75,
                tma: 0.125,
                machine_performances: vec![1.5, 3.0],
                task_difficulties: vec![2.0, 2.5],
                standardization_iterations: 4,
                regularized: false,
                reduced_to_core: false,
            },
            RecomputeStats {
                sinkhorn_iterations: 4,
                svd_iterations: 2,
                warm: true,
                fallback: false,
                cutover: false,
            },
            Arc::from(["t1".to_string(), "t2".to_string()]),
            Arc::from(["m1".to_string(), "m2".to_string()]),
        )
    }

    const MEASURES: &str = "{\"mph\":0.5,\"tdh\":0.75,\"tma\":0.125,\
        \"machine_performances\":{\"m1\":1.5,\"m2\":3},\
        \"task_difficulties\":{\"t1\":2,\"t2\":2.5},\
        \"standardization_iterations\":4,\"regularized\":false,\"reduced_to_core\":false}";

    #[test]
    fn session_documents_are_pinned() {
        let snap = snapshot();
        assert_eq!(
            std::str::from_utf8(snap.document()).unwrap(),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"measures\":{MEASURES},\
                 \"recompute\":{{\"warm\":true,\"fallback\":false,\
                 \"sinkhorn_iterations\":4,\"svd_iterations\":2}}}}"
            )
        );
        let delta = Delta {
            version: 3,
            mph: 0.5,
            tdh: 0.75,
            tma: 0.125,
            d_mph: -0.25,
            d_tdh: 0.0,
            d_tma: f64::NAN,
            stats: RecomputeStats {
                sinkhorn_iterations: 7,
                svd_iterations: 1,
                warm: false,
                fallback: true,
                cutover: false,
            },
        };
        assert_eq!(
            watch_document(&snap, &[delta], true),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"timed_out\":false,\"truncated\":true,\
                 \"deltas\":[{{\"version\":3,\"mph\":0.5,\"tdh\":0.75,\"tma\":0.125,\
                 \"d_mph\":-0.25,\"d_tdh\":0,\"d_tma\":null,\"recompute\":{{\"warm\":false,\
                 \"fallback\":true,\"sinkhorn_iterations\":7,\"svd_iterations\":1}}}}],\
                 \"measures\":{MEASURES}}}"
            )
        );
        assert_eq!(
            watch_document(&snap, &[], false),
            format!(
                "{{\"id\":\"s-1\",\"version\":3,\"timed_out\":false,\"truncated\":false,\
                 \"deltas\":[],\"measures\":{MEASURES}}}"
            )
        );
        assert_eq!(
            timed_out_document("s-1", 3),
            "{\"id\":\"s-1\",\"version\":3,\"timed_out\":true,\"truncated\":false,\
             \"deltas\":[]}"
        );
    }

    #[test]
    fn next_version_shares_id_and_names() {
        let snap = snapshot();
        let next = snap.next(snap.report.clone(), RecomputeStats::default());
        assert_eq!(next.version, 4);
        assert!(Arc::ptr_eq(&next.id, &snap.id));
        assert!(Arc::ptr_eq(&next.task_names, &snap.task_names));
        assert!(Arc::ptr_eq(&next.machine_names, &snap.machine_names));
        assert!(next
            .document()
            .starts_with(b"{\"id\":\"s-1\",\"version\":4,"));
    }
}
