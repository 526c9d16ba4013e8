//! The measure document as a `String`.
//!
//! Every JSON document the server writes comes from [`hc_obs::json`]'s
//! writer; this module keeps only the entry point that needs an owned
//! rendering of the measures, outside any larger document.

/// The one measure-document renderer shared by `POST /measure` and every
/// `/batch` item; session responses write the same members in place with
/// [`MeasureReport::write_json`](hc_core::report::MeasureReport::write_json).
/// All three surfaces must stay byte-for-byte identical (goldened in the
/// session tests) so clients can parse one shape everywhere.
pub fn measure_body(
    report: &hc_core::report::MeasureReport,
    task_names: &[String],
    machine_names: &[String],
) -> String {
    report.to_json(task_names, machine_names)
}
