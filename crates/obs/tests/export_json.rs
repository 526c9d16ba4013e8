//! The registry's JSON export, byte for byte. The registry is process-global,
//! so this file holds one test: its binary registers nothing else.

use hc_obs::metrics::{counter, export_json, gauge, histogram};

#[test]
fn export_json_bytes_are_pinned() {
    assert_eq!(
        export_json(),
        "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
    );
    counter("pin_b_total").add(2);
    counter("pin_a_\"q\"_total").inc();
    gauge("pin_depth").set(-3);
    let h = histogram("pin_latency_us");
    for v in [0, 5, 7, 1 << 30] {
        h.observe(v);
    }
    histogram("pin_empty_us");
    assert_eq!(
        export_json(),
        "{\"counters\":{\"pin_a_\\\"q\\\"_total\":1,\"pin_b_total\":2},\
         \"gauges\":{\"pin_depth\":-3},\
         \"histograms\":{\"pin_empty_us\":{\"count\":0,\"sum\":0,\"buckets\":{}},\
         \"pin_latency_us\":{\"count\":4,\"sum\":1073741836,\"buckets\":{\"le_1\":1,\"le_8\":2,\"le_inf\":1}}}}"
    );
}
