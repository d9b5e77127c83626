//! The §8.1.2 VM-snapshot experiment (Bro live migration).
//!
//! Paper: migrating HTTP flows by snapshotting the whole Bro VM leaves
//! both instances with *unneeded* state (snapshot deltas: FULL−BASE =
//! 22 MB, HTTP = 19 MB, OTHER = 4 MB vs SDMBN's 8.1 MB of moved state)
//! and produces thousands of *incorrect* conn.log entries (3173 + 716)
//! because "the migrated HTTP (other) flows terminate abruptly at the
//! old (new) Bro MB, which Bro considers an anomaly".
//!
//! We drive the same comparison at middlebox-logic level: a reference
//! single-instance run defines the correct per-flow conn.log states; the
//! snapshot run and the SDMBN run are diffed against it.

use std::collections::BTreeMap;

use openmb_apps::baselines::vm_snapshot;
use openmb_mb::{Effects, Middlebox};
use openmb_middleboxes::Ips;
use openmb_simnet::{SimDuration, SimTime};
use openmb_traffic::{CloudTraceConfig, Trace};
use openmb_types::{HeaderFieldList, OpId};

use crate::report::Table;

/// Outcome of the snapshot-vs-SDMBN comparison.
#[derive(Debug, Clone)]
pub struct SnapshotOutcome {
    /// Serialized per-flow state resident at migration time ("FULL −
    /// BASE" in the paper's snapshot terms).
    pub full_state_bytes: usize,
    /// Unneeded state bytes at the new MB (state for flows that stay).
    pub unneeded_at_new: usize,
    /// Unneeded state bytes at the old MB (state for migrated flows).
    pub unneeded_at_old: usize,
    /// Bytes SDMBN moves (serialized chunks for the migrated flows only).
    pub sdmbn_moved_bytes: usize,
    /// conn.log entries whose final state differs from the reference
    /// run, old + new instance (snapshot approach).
    pub snapshot_incorrect_entries: usize,
    /// Same measure for the SDMBN (moveInternal) approach.
    pub sdmbn_incorrect_entries: usize,
}

/// Final conn.log state per flow, from a pile of log lines.
fn conn_states(logs: &[openmb_mb::LogEntry]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for l in logs.iter().filter(|l| l.log == "conn.log") {
        // Format: "<start> <end> <key> <STATE> <history> orig=..".
        let parts: Vec<&str> = l.line.split_whitespace().collect();
        // key spans "src -> dst proto" (4 tokens starting at index 2).
        if parts.len() >= 7 {
            let key = parts[2..6].join(" ");
            let state = parts[6].to_owned();
            out.insert(key, state);
        }
    }
    out
}

fn drive(ips: &mut Ips, trace: &Trace, logs: &mut Vec<openmb_mb::LogEntry>) {
    for e in trace.events() {
        let mut fx = Effects::normal();
        ips.process_packet(e.time, &e.packet, &mut fx);
        logs.extend(fx.take_logs());
    }
}

fn finalize(ips: &mut Ips, at: SimTime, logs: &mut Vec<openmb_mb::LogEntry>) {
    let mut fx = Effects::normal();
    ips.finalize(at, &mut fx);
    logs.extend(fx.take_logs());
}

/// Run the experiment: HTTP flows migrate at `migrate_at`.
pub fn run() -> SnapshotOutcome {
    let trace = CloudTraceConfig {
        flows: 400,
        seed: 21,
        span: SimDuration::from_secs(4),
        ..Default::default()
    }
    .generate();
    let migrate_at = SimTime(SimDuration::from_secs(2).as_nanos());
    let pre = Trace::new(trace.events().iter().filter(|e| e.time < migrate_at).cloned().collect());
    let post =
        Trace::new(trace.events().iter().filter(|e| e.time >= migrate_at).cloned().collect());
    let is_http = |p: &openmb_types::Packet| p.key.dst_port == 80 || p.key.src_port == 80;
    let end = trace.end_time().after(SimDuration::from_secs(1));

    // ---- reference: one unmodified instance sees everything ----
    let mut reference = Ips::new();
    let mut ref_logs = Vec::new();
    drive(&mut reference, &trace, &mut ref_logs);
    finalize(&mut reference, end, &mut ref_logs);
    let ref_states = conn_states(&ref_logs);

    // ---- snapshot approach ----
    let mut old_mb = Ips::new();
    let mut old_logs = Vec::new();
    drive(&mut old_mb, &pre, &mut old_logs);
    let full_state_bytes = old_mb.resident_state_bytes();
    // The new MB is a byte-identical copy — unneeded state included.
    let mut new_mb = vm_snapshot(&old_mb);
    let unneeded_at_new: usize = new_mb
        .conns_sorted()
        .iter()
        .filter(|c| !is_http_key(&c.key))
        .map(openmb_types::codec::encoded_len)
        .sum();
    let unneeded_at_old: usize = old_mb
        .conns_sorted()
        .iter()
        .filter(|c| is_http_key(&c.key))
        .map(openmb_types::codec::encoded_len)
        .sum();
    // Routing: HTTP → new MB, other → old MB.
    let mut new_logs = Vec::new();
    drive(&mut new_mb, &post.filter(is_http), &mut new_logs);
    drive(&mut old_mb, &post.filter(|p| !is_http(p)), &mut old_logs);
    finalize(&mut old_mb, end, &mut old_logs);
    finalize(&mut new_mb, end, &mut new_logs);
    let snapshot_incorrect_entries =
        count_incorrect(&ref_states, &old_logs) + count_incorrect(&ref_states, &new_logs);

    // ---- SDMBN approach: move only the HTTP flows' state ----
    let mut src = Ips::new();
    let mut src_logs = Vec::new();
    drive(&mut src, &pre, &mut src_logs);
    let mut dst = Ips::new();
    let http = HeaderFieldList::from_dst_port(80);
    let chunks = src.get_support_perflow(OpId(1), &http).unwrap();
    let sdmbn_moved_bytes: usize = chunks.iter().map(|c| c.data.len()).sum();
    for c in chunks {
        dst.put_support_perflow(c).unwrap();
    }
    src.del_support_perflow(&http).unwrap();
    src.end_sync(OpId(1));
    let mut dst_logs = Vec::new();
    drive(&mut dst, &post.filter(is_http), &mut dst_logs);
    drive(&mut src, &post.filter(|p| !is_http(p)), &mut src_logs);
    finalize(&mut src, end, &mut src_logs);
    finalize(&mut dst, end, &mut dst_logs);
    let sdmbn_incorrect_entries =
        count_incorrect(&ref_states, &src_logs) + count_incorrect(&ref_states, &dst_logs);

    SnapshotOutcome {
        full_state_bytes,
        unneeded_at_new,
        unneeded_at_old,
        sdmbn_moved_bytes,
        snapshot_incorrect_entries,
        sdmbn_incorrect_entries,
    }
}

fn is_http_key(k: &openmb_types::FlowKey) -> bool {
    k.dst_port == 80 || k.src_port == 80
}

/// Count conn.log entries whose state differs from the reference run's
/// state for the same connection.
fn count_incorrect(reference: &BTreeMap<String, String>, logs: &[openmb_mb::LogEntry]) -> usize {
    conn_states(logs)
        .iter()
        .filter(|(key, state)| reference.get(*key).is_some_and(|r| r != *state))
        .count()
}

/// Regenerate the §8.1.2 snapshot comparison.
pub fn snapshot_table() -> Table {
    let r = run();
    let mut t = Table::new(
        "§8.1.2: VM snapshot vs SDMBN for Bro live migration",
        &["measure", "snapshot", "SDMBN"],
    );
    t.row(vec![
        "state carried to new MB (KB)".into(),
        format!("{:.1}", r.full_state_bytes as f64 / 1e3),
        format!("{:.1}", r.sdmbn_moved_bytes as f64 / 1e3),
    ]);
    t.row(vec![
        "unneeded state at new MB (KB)".into(),
        format!("{:.1}", r.unneeded_at_new as f64 / 1e3),
        "0".into(),
    ]);
    t.row(vec![
        "unneeded state left at old MB (KB)".into(),
        format!("{:.1}", r.unneeded_at_old as f64 / 1e3),
        "0".into(),
    ]);
    t.row(vec![
        "incorrect conn.log entries".into(),
        r.snapshot_incorrect_entries.to_string(),
        r.sdmbn_incorrect_entries.to_string(),
    ]);
    t.note("paper: snapshots differ from BASE by 22 MB (19 MB HTTP + 4 MB other unneeded), SDMBN moved 8.1 MB; snapshot run produced 3173 + 716 incorrect conn.log entries (abruptly terminated flows)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_wastes_state_and_corrupts_logs() {
        let r = run();
        assert!(r.unneeded_at_new > 0, "snapshot carries unneeded state");
        assert!(
            r.sdmbn_moved_bytes < r.full_state_bytes,
            "SDMBN moves strictly less than a full snapshot: {} vs {}",
            r.sdmbn_moved_bytes,
            r.full_state_bytes
        );
        assert!(
            r.snapshot_incorrect_entries > 0,
            "abruptly-terminated flows must corrupt conn.log"
        );
        assert_eq!(r.sdmbn_incorrect_entries, 0, "SDMBN's migrated flows terminate normally");
    }
}
