//! The design rules, as tests that read the sources.
//!
//! Each simplicity or perf change that deleted a copy left a rule that
//! keeps the copy from coming back: no second export loop, no hashed
//! link map, `shard.rs` under 1 600 lines, and so on. Each rule is one
//! `#[test]` here, grouped by the design decision it protects; a
//! module's doc names the DESIGN section and the behaviour tests that
//! pin what the rule stands for. A new rule is a new test here.
//!
//! The tests read files under the package root with `std::fs` and match
//! lines by hand (`contains`, whole words, the part above
//! `#[cfg(test)]`); walks skip `target/` and this file, which spells
//! every forbidden form out.

use std::fs;
use std::path::Path;

/// The source trees most rules read.
const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];
const SELF: &str = "tests/design_rules.rs";
const CI: &str = ".github/workflows/ci.yml";

/// A file, by its path under the package root, and its text.
struct Source {
    path: String,
    text: String,
}

fn read(path: &str) -> Source {
    let bytes = fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join(path))
        .unwrap_or_else(|e| panic!("{path}: {e}"));
    Source { path: path.to_string(), text: String::from_utf8_lossy(&bytes).into_owned() }
}

fn read_all(paths: &[&str]) -> Vec<Source> {
    paths.iter().map(|p| read(p)).collect()
}

/// Every file under `dirs` (`"."` is the package root), skipping
/// `target/`, `.git/` and this file.
fn walk(dirs: &[&str]) -> Vec<Source> {
    walk_only(dirs, "")
}

/// The files [`walk`] finds whose path ends with `suffix`.
fn walk_only(dirs: &[&str], suffix: &str) -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stack: Vec<String> = dirs.iter().map(|d| d.to_string()).collect();
    let mut out = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(root.join(&dir)).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let entry = entry.expect("a directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = if dir == "." { name.clone() } else { format!("{dir}/{name}") };
            if entry.file_type().expect("a file type").is_dir() {
                if name != "target" && name != ".git" {
                    stack.push(path);
                }
            } else if path != SELF && path.ends_with(suffix) {
                out.push(read(&path));
            }
        }
    }
    out
}

/// Fails, naming each line, if `bad` accepts any line of `files`.
fn forbid(files: &[Source], bad: impl Fn(&str) -> bool) {
    let hits: Vec<String> = files
        .iter()
        .flat_map(|f| {
            f.text
                .lines()
                .enumerate()
                .filter(|(_, l)| bad(l))
                .map(move |(i, l)| format!("{}:{}: {}", f.path, i + 1, l.trim()))
        })
        .collect();
    assert!(hits.is_empty(), "a form this rule forbids is back:\n{}", hits.join("\n"));
}

fn any(line: &str, pats: &[&str]) -> bool {
    pats.iter().any(|p| line.contains(p))
}

/// Whether `w` occurs in `line` with no word character on either side.
fn word(line: &str, w: &str) -> bool {
    let is_word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices(w).any(|(i, _)| {
        !is_word(line[..i].chars().next_back()) && !is_word(line[i + w.len()..].chars().next())
    })
}

/// A file cut at its first `#[cfg(test)]` line: the part a build ships.
fn read_shipped(path: &str) -> Source {
    let mut f = read(path);
    if let Some(i) = f.text.find("\n#[cfg(test)]\n") {
        f.text.truncate(i + 1);
    }
    f
}

fn count_lines(files: &[Source], pred: impl Fn(&str) -> bool) -> usize {
    files.iter().map(|f| f.text.lines().filter(|l| pred(l)).count()).sum()
}

/// One event vocabulary (DESIGN §11): the data plane records
/// `SpanEvent`s into the flight recorder, and simnet's second trace log
/// must not come back. Behaviour: the recorder tests in
/// `crates/obs/src/recorder.rs` and `mbnode_behavior`'s
/// `PacketProcessed` latency checks.
mod event_vocabulary {
    use super::*;

    #[test]
    fn no_second_trace_log() {
        forbid(&walk(SOURCES), |l| any(l, &["TraceKind", "TraceEvent", "record_trace"]));
    }
}

/// One state-export kit (DESIGN §18 "What the kit decides", §13 "One
/// buffer per record", §13 "Convergent sealing"). Sealing, per-flow
/// export and delete loops, stubs for state classes a type lacks and
/// config read/delete bodies live once, in `crates/mb/src/state.rs`,
/// the `Middlebox` trait's provided methods and `ConfigTree`; every
/// state structure is a `record!` row on `openmb_types::codec`. Sealing
/// is convergent: the `Sealer` holds the vendor key and no constructor
/// picks a first nonce.
///
/// Behaviour: `crypto::tests::convergent*`,
/// `shared_seal_is_seal_convergent`, `open_into_agrees_with_open`,
/// `rows::every_state_row_decodes_only_its_own_encoding`, the
/// `*_with_trailing_bytes_is_refused` tests of the five decoders that
/// once accepted them, `scan_tables_filled_in_opposite_orders_*` and
/// `caches_filled_in_opposite_orders_*`, `capture_bytes_are_pinned`,
/// `get_returns_the_stored_bytes_in_both_stores`, `alloc_audit` (an
/// export at N + c allocations, a Monitor put and a `ChunkRef` hit at
/// none per record), `state::tests`,
/// `convergent_seal_is_equal_for_equal_state_and_private_to_the_vendor`,
/// `ping_pong`, `export_digests_are_pinned`,
/// `export_plaintext_digests_are_pinned`, `codec::tests`,
/// `asset_rows_hold_labels_inline_and_spilled` and
/// `a_replayed_packet_raises_the_same_events_in_both_embeddings`.
mod state_export_kit {
    use super::*;

    /// No hand `Writer`/`Reader` walk or `deserialize`: codecs derive
    /// from `record!` rows.
    #[test]
    fn no_hand_codec_walks() {
        forbid(&walk(&["crates/middleboxes/src", "crates/traffic/src"]), |l| {
            any(l, &["Writer::new(", "Reader::new(", "fn deserialize("])
        });
    }

    /// No nonce field, direct seal, unsupported-class stub, config
    /// read/delete body, vendor key or export loop (`mark_moved(`) in a
    /// middlebox: the kit has them. `sort_unstable()` stays (the IPS
    /// orders signature hits), and `lb.rs` keeps its one loop over an
    /// address-keyed table, which marks patterns only.
    #[test]
    fn no_hand_copies_of_the_kit() {
        forbid(&walk(&["crates/middleboxes/src"]), |l| {
            any(
                l,
                &[
                    "self.nonce",
                    "EncryptedChunk::seal(",
                    "UnsupportedStateClass(",
                    "config.del(",
                    "config.flatten(",
                    "VendorKey",
                    "mark_moved(",
                ],
            )
        });
    }

    /// The kit keeps no nonce counter.
    #[test]
    fn no_nonce_counter() {
        forbid(&[read("crates/mb/src/state.rs")], |l| {
            any(l, &["first_nonce", "nonce += 1", "nonce: u64"])
        });
    }

    /// No `Sealer::new("type", …)` that picks a first nonce.
    #[test]
    fn no_chosen_first_nonce() {
        forbid(&walk(&["crates"]), |l| {
            l.match_indices("Sealer::new(\"").any(|(i, p)| {
                let rest = &l[i + p.len()..];
                let name = rest.len()
                    - rest.trim_start_matches(|c: char| c.is_ascii_lowercase() || c == '-').len();
                name > 0 && rest[name..].starts_with("\", ")
            })
        });
    }

    /// A record encodes onto the export's one `Writer`, never into a
    /// fresh `Vec`.
    #[test]
    fn no_record_encode_into_a_fresh_vec() {
        forbid(&walk(&["crates"]), |l| {
            any(
                l,
                &[
                    "fn encode(&self, key: &FlowKey) -> Vec<u8>",
                    "fn encode(&self, _key: &FlowKey) -> Vec<u8>",
                ],
            )
        });
    }
}

/// One op lifecycle (DESIGN §10): a shard keeps an op's lifecycle in one
/// `Phase` written by one checked `set_phase`. Behaviour:
/// `controller_logic` walks every legal phase edge in a debug build,
/// where an illegal edge panics, and
/// `phase_rule_admits_exactly_the_documented_edges` enumerates them.
mod op_lifecycle {
    use super::*;

    /// The four progress booleans stay gone. Only fields are matched (four
    /// spaces in): `deferred: bool` remains as a `start_transfer`
    /// parameter, at eight.
    #[test]
    fn no_progress_booleans() {
        forbid(&[read("crates/core/src/shard.rs")], |l| {
            ["completed", "quiesced", "suspended", "deferred"]
                .iter()
                .any(|f| l.starts_with(&format!("    {f}: bool")))
        });
    }

    /// No second kind enum, per-get `get_seen` sets or never-read
    /// `compress_transfers` option.
    #[test]
    fn no_second_kind_enum() {
        forbid(&walk(SOURCES), |l| {
            any(l, &["compress_transfers", "TransferKind", "get_seen", "op_deferred"])
        });
    }
}

/// The TCP embedding is event-driven (DESIGN §9 "The TCP embedding is
/// event-driven"): `TcpController`'s receive threads block on their
/// transport and call the engine themselves. Behaviour: `tcp_protocol`
/// (above all `soak_under_the_monitor_over_tcp_and_a_reattach`).
mod tcp_embedding {
    use super::*;

    /// A sleep or a non-blocking receive in `tcp.rs` would be the
    /// sleep-polling pump back between a queued frame and the engine.
    #[test]
    fn receive_threads_neither_sleep_nor_poll() {
        forbid(&[read("crates/core/src/tcp.rs")], |l| any(l, &["thread::sleep", "try_recv("]));
    }
}

/// std-only transports (DESIGN §7): the in-process transport is a
/// `std::sync::mpsc` pair and every lock a `std::sync::Mutex`; the
/// vendored crossbeam and parking_lot stand-ins only wrapped
/// `std::sync`. The MB side has one serve loop
/// (`serve_middlebox_recorded`) over
/// `openmb_mb::handle_southbound_into`, and `TcpTransport`'s reader is
/// the one frame reader. Behaviour: `transport` tests in `openmb-types`
/// (`both_ends_sending_with_nobody_receiving_finish`) and `tcp_protocol`.
mod std_only {
    use super::*;

    #[test]
    fn no_crossbeam_or_parking_lot_dependency() {
        forbid(&walk_only(&["."], "Cargo.toml"), |l| any(l, &["crossbeam", "parking_lot"]));
    }

    #[test]
    fn no_crossbeam_or_parking_lot_in_sources() {
        forbid(&walk_only(SOURCES, ".rs"), |l| any(l, &["crossbeam", "parking_lot"]));
    }

    #[test]
    fn vendor_holds_three_stand_ins() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut names: Vec<String> = fs::read_dir(root.join("vendor"))
            .expect("vendor/")
            .map(|e| e.expect("a directory entry").file_name().to_string_lossy().into_owned())
            .filter(|n| !n.starts_with('.'))
            .collect();
        names.sort();
        assert_eq!(names, ["bytes", "proptest", "rand"]);
    }

    #[test]
    fn one_mb_serve_loop() {
        forbid(&walk(SOURCES), |l| l.contains("handle_southbound_recorded"));
    }

    #[test]
    fn tcp_does_not_reexport_the_southbound() {
        forbid(&[read("crates/core/src/tcp.rs")], |l| l.contains("pub use openmb_mb::southbound"));
    }

    #[test]
    fn one_frame_reader() {
        forbid(&[read("crates/types/src/wire.rs")], |l| {
            any(l, &["pub fn read_frame", "pub fn write_frame"])
        });
    }
}

/// Transfer runs (DESIGN §13 "Runs"): a get's reply travels as runs of
/// up to `RUN_FLOWS` flow records, one put each, cut only by
/// `wire::RunCutter`; a DES run spans service quanta, and `MbNode`
/// answers every get through the shared dispatch. Behaviour:
/// `single_chunk_drive_sees_the_pinned_exchange` (the exchange the
/// benchmark's two-thread move drives), `events_wait_for_their_runs_ack`,
/// `runs_encode_and_a_run_of_one_is_the_lone_record`,
/// `run_content_splits_back_into_its_records`, `push_runs_cuts_by_get_size`,
/// `get_runs_span_service_quanta`,
/// `an_export_only_middlebox_moves_over_the_des`,
/// `des_gets_send_what_the_dispatch_emits`, `conformance::runs` (a
/// dropped or doubled frame at every send, a crash after every send, a
/// lost `ChunkNeed`, a source crash between two quanta of one run) and
/// `crash_mid_move_aborts_cleanly_and_recovers`.
mod transfer_runs {
    use super::*;

    /// A lone `Chunk` is a run of one: both arms hand over to
    /// `stream_run`, so a second per-flow put path cannot come back.
    #[test]
    fn a_lone_chunk_streams_as_a_run() {
        let arm = |l: &str| {
            ["Message::Chunk {", "Message::ChunkRun {"].iter().any(|p| {
                l.match_indices(p).any(|(i, _)| {
                    let fields = &l[i + p.len()..];
                    fields.find('}').is_some_and(|j| fields[j..].starts_with("} =>"))
                })
            })
        };
        forbid(&[read("crates/core/src/shard.rs")], |l| {
            arm(l) && !l.contains("=> self.stream_run(")
        });
    }

    /// `MbNode` does not cut runs per quantum.
    #[test]
    fn mbnode_cuts_no_runs_per_quantum() {
        forbid(&[read("crates/core/src/nodes.rs")], |l| {
            l.find("push_runs(").is_some_and(|i| l[i..].contains("chunks[idx"))
        });
    }

    /// `MbNode` calls no trait get and cuts no runs itself.
    #[test]
    fn mbnode_calls_no_trait_get() {
        forbid(&[read("crates/core/src/nodes.rs")], |l| {
            any(
                l,
                &[
                    "get_support_perflow(",
                    "get_support_shared(",
                    "get_report_perflow(",
                    "get_report_shared(",
                    "report: bool",
                    "push_runs",
                ],
            )
        });
    }

    #[test]
    fn no_push_runs() {
        forbid(&walk(&["crates"]), |l| word(l, "fn push_runs"));
    }
}

/// A get streams over TCP (DESIGN §13 "Runs"): the serve loop sends a
/// per-flow get's runs in frames of about `FRAME_BYTES` while the
/// middlebox is still sealing the rest. Behaviour: `tcp_streaming`
/// (its two large-get tests run in release, see CI),
/// `run_cutter_closes_a_run_on_its_last_record`,
/// `export_perflow_matches_the_vec_gets`, `tcp_get_window`,
/// `transfer::tests` and `two_class_move`.
mod tcp_get_streams {
    use super::*;

    /// The dispatcher does not coalesce a whole get into one frame.
    #[test]
    fn the_dispatcher_coalesces_no_get() {
        forbid(&[read("crates/mb/src/southbound.rs")], |l| {
            any(l, &["stream_chunks", "push_runs("])
        });
    }

    /// One select/sort/mark/seal loop in the state kit: the two lines
    /// that sort and mark are its own.
    #[test]
    fn one_export_loop() {
        let marks = count_lines(&[read("crates/mb/src/state.rs")], |l| {
            any(l, &["sort_unstable_by_key", "mark_moved("])
        });
        assert_eq!(marks, 2, "crates/mb/src/state.rs sorts or marks outside its one export loop");
    }
}

/// Controller tables hash ids, not bytes (DESIGN §9, "Controller
/// tables hash ids, not bytes"): the unkeyed `IdMap`/`IdSet` hold only
/// ids a shard allocates; keys a middlebox supplies keep `RandomState`
/// over their packed form. Behaviour: `flow_key_packing_is_injective`,
/// `pattern_packing_is_injective`,
/// `a_batch_across_two_shards_acts_as_its_messages_one_by_one`,
/// `batches_across_shards_beside_admissions_do_not_deadlock`,
/// `a_clone_holding_a_deferral_releases_it_when_its_blocker_closes`,
/// `acks_count_once_in_order_out_of_order_and_duplicated` and
/// `strided_ids_fill_every_bucket_residue_and_tag`.
mod controller_hot_path {
    use super::*;

    #[test]
    fn id_tables_key_no_middlebox_values() {
        forbid(&walk(&["crates"]), |l| {
            ["IdMap<", "IdSet<"].iter().any(|t| {
                ["HeaderFieldList", "FlowKey", "[u8"].iter().any(|k| l.contains(&format!("{t}{k}")))
            })
        });
    }

    /// `FlowKey` and `HeaderFieldList` hash their packed form; the
    /// derived `Hash` stays off them.
    #[test]
    fn flow_keys_derive_no_hash() {
        let flow = read("crates/types/src/flow.rs");
        let lines: Vec<&str> = flow.text.lines().collect();
        let derives_hash = |l: &str| {
            l.match_indices("derive(").any(|(i, p)| {
                let args = &l[i + p.len()..];
                word(&args[..args.find(')').unwrap_or(args.len())], "Hash")
            })
        };
        let hits: Vec<usize> = (0..lines.len())
            .filter(|&i| derives_hash(lines[i]))
            .filter(|&i| {
                lines[i..lines.len().min(i + 2)]
                    .iter()
                    .any(|l| any(l, &["pub struct FlowKey", "pub struct HeaderFieldList"]))
            })
            .map(|i| i + 1)
            .collect();
        assert!(hits.is_empty(), "crates/types/src/flow.rs derives Hash on a flow key at {hits:?}");
    }
}

/// Packet-path metrics resolve once (DESIGN §9 "Packet-path metrics
/// resolve once"): nothing on the DES packet path parses config or
/// looks a metric name up per packet. Behaviour:
/// `config_writes_reach_the_next_new_flow`,
/// `deleting_the_chain_leaves_new_flows_to_the_default_policy`,
/// `a_slot_used_on_a_fresh_registry_writes_it_by_name`,
/// `a_clone_has_its_own_identity`,
/// `first_write_order_reaches_neither_equality_nor_exports`,
/// `a_batch_observe_matches_per_value_observes_bit_for_bit`,
/// `node_metrics_follow_a_replaced_registry` and `alloc_audit`; for the
/// IPS's pair filter, `scan_hit_set_equals_naive_search`,
/// `scan_sees_a_sparse_signature_at_every_offset_around_a_probe` and
/// `scan_hands_dense_text_to_the_lanes`.
mod packet_path_fixed_cost {
    use super::*;

    /// The Monitor reads the table its config writers compile.
    #[test]
    fn monitor_parses_no_config_per_packet() {
        forbid(&[read("crates/middleboxes/src/monitor.rs")], |l| {
            any(l, &["fn service_table", "fn os_fingerprinting_enabled"])
        });
    }

    /// So does the Firewall, a deleted rule chain included.
    #[test]
    fn firewall_parses_no_config_per_packet() {
        forbid(&[read("crates/middleboxes/src/firewall.rs")], |l| {
            any(l, &["fn rules(", "fn default_allow("])
        });
    }

    /// The IPS scans a payload through the pair filter, which hands
    /// dense text to the lanes itself: the packet path never feeds the
    /// automaton directly.
    #[test]
    fn ips_packets_scan_through_the_pair_filter() {
        let ips = read_shipped("crates/middleboxes/src/ips.rs").text;
        let at = ips.find("fn process_packet(").expect("Ips::process_packet");
        let body = &ips[at..];
        let body = &body[..body.find("\n    fn ").unwrap_or(body.len())];
        assert!(
            body.contains("matcher.scan("),
            "Ips::process_packet no longer calls matcher.scan("
        );
        forbid(&[Source { path: "Ips::process_packet".into(), text: body.into() }], |l| {
            l.contains(".feed(")
        });
    }

    /// `MbNode` writes gauges and counters through registry slots.
    #[test]
    fn mbnode_writes_no_metric_by_name() {
        forbid(&[read("crates/core/src/nodes.rs")], |l| {
            any(l, &["set_gauge(&self.metric_names", "sample(&self.metric_names"])
        });
    }
}

/// One wire description (DESIGN §9 "Wire-length accounting is
/// arithmetic"): each wire variant's fields are one row of the
/// `messages!` and `tagged!` tables in `wire.rs`, and encode,
/// `encoded_len`, decode, `kind_name`, `op_id` and the tags derive from
/// it. Behaviour: `damaged_frames_that_decode_reencode_to_themselves`,
/// `corpus_covers_every_declared_tag`,
/// `list_bounds_reject_one_past_their_limit`,
/// `encoded_len_matches_encode_for_every_variant` and `decode_alloc`.
mod wire_description {
    use super::*;

    #[test]
    fn no_hand_tag_tables() {
        forbid(&[read("crates/types/src/wire.rs")], |l| {
            word(l, "mod tag") || word(l, "mod err_kind")
        });
    }

    #[test]
    fn no_per_type_length_helpers() {
        forbid(&[read("crates/types/src/wire.rs")], |l| {
            ["error_len", "hfl_len", "chunk_len", "config_values_len"]
                .iter()
                .any(|f| word(l, &format!("fn {f}")))
        });
    }
}

/// One transfer value (DESIGN §10 "One transfer value"): a transfer's
/// gets, streamed keys and put ledger are one crate-private `Transfer`
/// in `crates/core/src/transfer.rs`, tested there without a shard; the
/// ledger is the ack set. Behaviour: `transfer::tests`,
/// `an_ack_for_a_put_still_queued_behind_the_window_is_ignored`,
/// `ack_set_size_counts_the_acks_that_overtook_the_lowest_unacked_put`
/// and `transfer_ledger_stays_bounded_by_window`.
mod transfer_value {
    use super::*;

    /// The separate ack, outstanding-put and body tables stay out of
    /// `shard.rs`.
    #[test]
    fn shard_keeps_no_ledger_tables() {
        forbid(&[read("crates/core/src/shard.rs")], |l| {
            any(
                l,
                &[
                    "ack_watermark",
                    "acked_above",
                    "puts_outstanding",
                    "ref_bodies",
                    "queued_puts",
                    "unacked_puts",
                ],
            )
        });
    }

    #[test]
    fn shard_stays_under_1600_lines() {
        let lines = read("crates/core/src/shard.rs").text.lines().count();
        assert!(lines <= 1600, "crates/core/src/shard.rs is {lines} lines");
    }
}

/// One ledger ring (DESIGN §10 "One transfer value", §13 "Runs", §10
/// "Op lifetime"): the put ledger is one ring indexed by seq, the
/// pending-key index is built when an event is first judged, a class's
/// streamed keys are a `Streamed` (a sorted run plus an overflow set),
/// and retirement scans no other op's sub-ops. Behaviour:
/// `transfer::tests`, `parallel::tests`,
/// `streamed_keys_answer_as_a_set_does`,
/// `a_descending_stream_leaves_the_run_at_its_first_key`,
/// `middlebox_exports_take_the_sorted_run`,
/// `exact_patterns_order_as_their_flow_keys`,
/// `retiring_an_op_does_not_scan_the_other_ops_sub_ops`,
/// `an_event_waits_for_both_classes_puts` and
/// `the_first_classes_ack_does_not_release_an_event_the_other_still_holds`.
mod ledger_ring {
    use super::*;

    #[test]
    fn transfer_keeps_no_btreemap() {
        forbid(&[read_shipped("crates/core/src/transfer.rs")], |l| l.contains("BTreeMap"));
    }

    #[test]
    fn streamed_keys_are_not_a_hashset() {
        forbid(&[read_shipped("crates/core/src/transfer.rs")], |l| {
            l.contains("streamed: [HashSet")
        });
    }

    /// The `PutAck` arm of `shard.rs` releases an event only through
    /// `Transfer::pending`.
    #[test]
    fn put_ack_releases_events_through_pending() {
        let (mut inside, mut found) = (false, false);
        for l in read("crates/core/src/shard.rs").text.lines() {
            inside |= l.contains("Message::PutAck {");
            if inside {
                found |= l.contains("transfer.pending(&ev.key)");
                inside = !l.contains("Message::OpAck {");
            }
        }
        assert!(found, "the PutAck arm of shard.rs no longer asks transfer.pending(&ev.key)");
    }
}

/// One event queue (DESIGN §9 "Event queue"): the engine's pending
/// events wait in sorted lanes merged through a heap of small per-lane
/// keys. Behaviour: `event_queue` (a model test against one
/// `BinaryHeap<(time, seq)>`) and
/// `sorted_traffic_never_reaches_the_fallback_heap`.
mod event_queue {
    use super::*;

    /// One heap over whole events, a packet's cost growing with the
    /// backlog, does not come back as `World::queue`.
    #[test]
    fn engine_keeps_no_heap_of_whole_events() {
        forbid(&[read("crates/simnet/src/engine.rs")], |l| l.contains("queue: BinaryHeap"));
    }
}

/// A hop's fixed cost (DESIGN §9 "Flow lookup caches flow classes", §9
/// "A hop finds its link without hashing"): a send finds its link in
/// the sender's sorted list. Behaviour:
/// `class_cache_agrees_with_cold_lookup_over_every_field`,
/// `in_port_rules_on_any_cache_one_class_per_port`,
/// `transmission_in_u64_is_the_u128_formula` and
/// `a_star_counts_each_directed_link_apart`.
mod hop_cost {
    use super::*;

    #[test]
    fn engine_keeps_no_hashed_link_map() {
        forbid(&[read("crates/simnet/src/engine.rs")], |l| {
            any(l, &["HashMap<(NodeId,NodeId)", "HashMap<(NodeId, NodeId)"])
        });
    }
}

/// One northbound request (DESIGN §14 "One northbound vocabulary"): the
/// verbs are one `Request` value that `ControllerCore::submit` routes,
/// and each facade has one entry point (`Api::submit`, the blocking
/// `TcpController::call`) plus `end_op`. Behaviour: `northbound_parity`
/// (every variant through both facades),
/// `end_op_deletes_the_moved_flows_long_before_quiescence` and
/// `scale_up_from_a_config_less_instance_reaches_done`.
mod northbound {
    use super::*;

    const FACADES: &[&str] = &[
        "crates/core/src/shard.rs",
        "crates/core/src/controller.rs",
        "crates/core/src/app.rs",
        "crates/core/src/tcp.rs",
        "crates/core/src/parallel.rs",
    ];

    #[test]
    fn no_per_verb_copies() {
        let verbs = [
            "read_config",
            "write_config",
            "write_config_all",
            "del_config",
            "enable_events",
            "clone_support",
            "merge_internal",
            "chain_move",
        ];
        forbid(&read_all(FACADES), |l| verbs.iter().any(|v| word(l, &format!("fn {v}"))));
    }

    /// The only per-verb names left are the four forwards the benchmark
    /// still calls: `TcpController::{move_internal, stats}`,
    /// `Api::move_internal` and `ShardedController::move_internal`.
    #[test]
    fn exactly_four_benchmark_forwards() {
        let forwards = count_lines(&read_all(FACADES), |l| {
            any(l, &["pub fn move_internal(", "pub fn stats("])
        });
        assert_eq!(forwards, 4, "per-verb forwards in {FACADES:?}");
    }

    /// Only the engine builds a shard (`with_op_space`) and installs its
    /// recorder (`set_recorder_with_tag`): no standalone single-shard
    /// controller beside `ControllerCore`.
    #[test]
    fn no_standalone_shard() {
        forbid(&[read("crates/core/src/shard.rs")], |l| {
            any(l, &["pub fn new(", "pub fn set_recorder("])
        });
    }

    /// Keys are never strings parsed in a facade.
    #[test]
    fn facades_parse_no_string_keys() {
        forbid(&read_all(&["crates/core/src/app.rs", "crates/core/src/tcp.rs"]), |l| {
            l.contains("HierarchicalKey::parse")
        });
    }
}

/// One packet logic per middlebox (DESIGN §17 "One packet logic per
/// middlebox"): `process_run` for a same-`FlowKey` run, with
/// `process_packet` the run of one, and the trait's default
/// `process_batch` the one place runs are cut. Behaviour:
/// `batch_equivalence` (a run of n against n runs of one, live and
/// replay, with moved marks), `alloc_audit`,
/// `process_batch_cuts_same_flow_runs_in_order`,
/// `batch_lane_matches_per_call_branch`,
/// `a_quiet_run_raises_nothing_and_leaves_the_tracker_alone`,
/// `a_marked_run_raises_one_event_per_packet_under_its_op` and
/// `a_new_flow_run_under_a_pattern_is_marked_once_and_raises_per_packet`.
mod packet_logic {
    use super::*;

    #[test]
    fn no_process_batch_override() {
        forbid(&walk(&["crates/middleboxes/src"]), |l| l.contains("fn process_batch"));
    }

    /// No per-batch replay lane: `_live` calls plus a bulk `suppress`.
    #[test]
    fn no_per_batch_replay_lane() {
        forbid(&walk(SOURCES), |l| any(l, &["forward_live", "log_live", "fn suppress("]));
    }
}

/// One DES testbed (DESIGN §10 "One engine, three scenario
/// definitions"): every simulated network is declared over
/// `scenarios::Testbed`, whose one call per node writes the node, its
/// topology element, its MB registration and its links, so the
/// controller's topology and the sim's links cannot disagree.
/// Behaviour: `two_mb_topology_routes_over_sim_links`,
/// `re_topology_routes_over_sim_links` and
/// `two_rack_topology_routes_over_sim_links` (a route the controller
/// computes from its own topology carries packets over the sim's
/// links), `default_route_carries_traffic_through_mb_a`, the three
/// `chains::tests` scenarios and `concurrent_moves_slow_down_linearly`.
mod des_testbed {
    use super::*;

    const SCENARIOS: &str = "crates/apps/src/scenarios.rs";

    /// `impl Testbed { … }` in the scenarios file.
    fn testbed_impl(text: &str) -> std::ops::Range<usize> {
        let start = text.find("\nimpl Testbed {\n").expect("`impl Testbed`");
        start..start + text[start..].find("\n}\n").expect("its closing brace")
    }

    /// A controller and its topology are written only by `Testbed`: no
    /// scenario or experiment wires a network by hand.
    #[test]
    fn only_testbed_wires_a_network() {
        let forms = ["ControllerNode::new(", ".add_element(", "topo.add_link"];
        let mut files = walk(&["crates/apps/src", "crates/harness/src"]);
        let scenarios = files.iter_mut().find(|f| f.path == SCENARIOS).expect(SCENARIOS);
        let range = testbed_impl(&scenarios.text);
        let inside = scenarios.text[range.clone()].to_string();
        assert!(
            forms.iter().all(|p| inside.contains(p)),
            "`impl Testbed` writes no longer {forms:?}"
        );
        // Blank `impl Testbed`, keeping its lines, so hits keep their numbers.
        let blank = "\n".repeat(inside.matches('\n').count());
        scenarios.text.replace_range(range, &blank);
        forbid(&files, |l| any(l, &forms));
    }
}

/// The prose around the code points at places that exist.
mod docs {
    use super::*;

    /// A file's text with comment markers and line breaks taken out, so a
    /// citation that wraps across comment lines reads as one.
    fn prose(text: &str) -> String {
        let strip = |l: &str| {
            let l = l.trim_start();
            let l = ["//!", "///", "//", "#"].iter().find_map(|p| l.strip_prefix(p)).unwrap_or(l);
            l.trim().to_string()
        };
        text.lines().map(strip).collect::<Vec<_>>().join(" ")
    }

    /// The text after each citation of `doc` in `text`: the name, an
    /// optional `.md` and comma, then the space a citation needs.
    fn cited<'a>(text: &'a str, doc: &'a str) -> impl Iterator<Item = &'a str> {
        text.match_indices(doc).filter_map(move |(i, _)| {
            let rest = &text[i + doc.len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.strip_prefix(',').unwrap_or(rest);
            rest.starts_with(char::is_whitespace).then(|| rest.trim_start())
        })
    }

    /// The section number a DESIGN citation starts with, and what follows
    /// it past an optional comma.
    fn section(cite: &str) -> Option<(u32, &str)> {
        let num = cite.strip_prefix('§')?;
        let digits = num.len() - num.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        let rest = &num[digits..];
        Some((num[..digits].parse().ok()?, rest.strip_prefix(',').unwrap_or(rest).trim_start()))
    }

    /// The quoted title `s` starts with.
    fn title(s: &str) -> Option<&str> {
        let t = s.strip_prefix('"')?;
        t.find('"').map(|j| &t[..j])
    }

    /// Whether `line` is a heading or a bold lead that starts with `title`.
    fn leads_with(line: &str, title: &str) -> bool {
        let heading =
            line.starts_with('#') && line.trim_start_matches('#').trim_start().starts_with(title);
        heading || line.strip_prefix("**").is_some_and(|l| l.starts_with(title))
    }

    /// The lines of DESIGN.md's `## n.` section.
    fn design_section(design: &str, n: u32) -> Option<Vec<&str>> {
        let head = format!("## {n}. ");
        let mut lines = design.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next()?;
        Some(std::iter::once(first).chain(lines.take_while(|l| !l.starts_with("## "))).collect())
    }

    /// Every citation of a DESIGN section (number, optional quoted title)
    /// or an EXPERIMENTS section (quoted title) in the sources, the
    /// benchmark, ROADMAP, CI and the verify notes names a place that
    /// exists: DESIGN.md has the numbered section with the title as a
    /// heading or a bold lead in it, and EXPERIMENTS.md a heading that
    /// starts with the title. Each `design_rules::` path named there and
    /// in DESIGN.md is a module or a test in this file.
    #[test]
    fn citations_resolve() {
        let design = read("DESIGN.md").text;
        let experiments = read("EXPERIMENTS.md").text;
        let rules = read(SELF).text;
        let mut files = walk(SOURCES);
        files.extend(walk(&["perfbench"]));
        files.extend(read_all(&[SELF, "ROADMAP.md", CI, ".claude/skills/verify/SKILL.md"]));
        let (mut broken, mut titled) = (Vec::new(), 0);
        for f in &files {
            let text = prose(&f.text);
            for (n, rest) in cited(&text, "DESIGN").filter_map(section) {
                let title = title(rest);
                titled += usize::from(title.is_some());
                let ok = design_section(&design, n).is_some_and(|lines| {
                    title.is_none_or(|t| lines.iter().any(|l| leads_with(l, t)))
                });
                if !ok {
                    broken.push(format!("{}: DESIGN §{n} {title:?}", f.path));
                }
            }
            for title in cited(&text, "EXPERIMENTS").filter_map(title) {
                if !experiments.lines().any(|l| l.starts_with('#') && leads_with(l, title)) {
                    broken.push(format!("{}: EXPERIMENTS {title:?}", f.path));
                }
            }
        }
        assert!(titled > 0, "no titled DESIGN citation found: the scan is broken");
        files.push(read("DESIGN.md"));
        for f in &files {
            for (i, p) in f.text.match_indices("design_rules::") {
                let path: String = f.text[i + p.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                    .collect();
                for name in path.split("::").filter(|s| !s.is_empty()) {
                    if !rules.contains(&format!("mod {name} "))
                        && !rules.contains(&format!("fn {name}("))
                    {
                        broken.push(format!("{}: design_rules::{path}", f.path));
                    }
                }
            }
        }
        assert!(broken.is_empty(), "citations that resolve to nothing:\n{}", broken.join("\n"));
    }

    /// DESIGN.md and EXPERIMENTS.md state the current system once: each
    /// stays within 1 500 lines, and EXPERIMENTS.md's trajectory table
    /// (the first table under `## Trajectory`) is one schema. Every row
    /// has its nine cells (PR, commit, workload, metric, change ÷
    /// parent, pairs won, resolved, seeds, source), a numeric ratio and
    /// a source of `house pairs` or `driver`. A change adds its rows
    /// there, not a table of its own.
    #[test]
    fn docs_stay_legible() {
        let long: Vec<String> = ["DESIGN.md", "EXPERIMENTS.md"]
            .iter()
            .map(|doc| (doc, read(doc).text.lines().count()))
            .filter(|&(_, n)| n > 1_500)
            .map(|(doc, n)| format!("{doc} is {n} lines"))
            .collect();
        assert!(long.is_empty(), "over 1 500 lines: {}", long.join(", "));
        let experiments = read("EXPERIMENTS.md").text;
        let table: Vec<&str> = experiments
            .lines()
            .skip_while(|l| !l.starts_with("## Trajectory"))
            .skip_while(|l| !l.starts_with('|'))
            .take_while(|l| l.starts_with('|'))
            .skip(2)
            .collect();
        assert!(!table.is_empty(), "EXPERIMENTS.md has no trajectory table");
        let bad: Vec<&str> = table
            .into_iter()
            .filter(|row| {
                let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
                cells.len() != 9
                    || cells[4].trim_matches('*').parse::<f64>().is_err()
                    || !matches!(cells[8], "house pairs" | "driver")
            })
            .collect();
        assert!(bad.is_empty(), "trajectory rows off the schema:\n{}", bad.join("\n"));
    }

    /// A `cargo test` line of the CI workflow.
    struct CiRun {
        package: Option<String>,
        /// `lib`, or the integration test's name.
        target: Option<String>,
        filters: Vec<String>,
        ignored: bool,
    }

    impl CiRun {
        fn parse(line: &str) -> Option<CiRun> {
            let args = &line[line.find("cargo test")? + "cargo test".len()..];
            let mut run = CiRun { package: None, target: None, filters: vec![], ignored: false };
            let (mut toks, mut after_dashes) =
                (args.split_whitespace().map(|t| t.trim_matches(['\'', '"'])), false);
            while let Some(t) = toks.next() {
                match t {
                    "--" => after_dashes = true,
                    "--include-ignored" | "--ignored" => run.ignored = true,
                    "-p" | "--package" if !after_dashes => {
                        run.package = toks.next().map(String::from)
                    }
                    "--test" if !after_dashes => run.target = toks.next().map(String::from),
                    "--lib" if !after_dashes => run.target = Some("lib".into()),
                    "--manifest-path" if !after_dashes => {
                        toks.next();
                    }
                    t if t.starts_with('-') || t.is_empty() => {}
                    t => run.filters.push(t.to_string()),
                }
            }
            Some(run)
        }

        fn runs(&self, package: &str, target: &str, test: &str) -> bool {
            self.ignored
                && self.package.as_deref().is_none_or(|p| p == package)
                && self.target.as_deref().is_none_or(|t| t == target)
                && (self.filters.is_empty()
                    || self.filters.iter().any(|f| test.contains(f.as_str())))
        }
    }

    /// The package and target (`lib` or a test name) a test file builds into.
    fn owner(path: &str) -> (String, String) {
        let parts: Vec<&str> = path.split('/').collect();
        let dir = if matches!(parts[0], "crates" | "vendor") { 2 } else { 0 };
        let manifest = if dir == 0 {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", parts[..dir].join("/"))
        };
        let package = read(&manifest)
            .text
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|n| n.split('"').next())
            .expect("a package name")
            .to_string();
        let target = match parts[dir] {
            "tests" => parts[dir + 1].trim_end_matches(".rs").to_string(),
            _ => "lib".to_string(),
        };
        (package, target)
    }

    /// Every `#[ignore]`d test in the workspace has a CI line that runs
    /// it: one with `--include-ignored` whose package, target and filter
    /// select it (the nightly sweeps, the release `tcp_streaming` run).
    /// The one exception is the manual replay hook `replay_env_seed`.
    #[test]
    fn every_ignored_test_has_a_ci_run() {
        let ci = read(CI).text.replace("\\\n", " ");
        let runs: Vec<CiRun> = ci
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .filter_map(CiRun::parse)
            .collect();
        let mut orphans = Vec::new();
        let mut found = 0;
        for f in walk_only(&["crates", "vendor", "src", "tests"], ".rs") {
            let lines: Vec<&str> = f.text.lines().collect();
            for (i, l) in lines.iter().enumerate() {
                if !l.trim_start().starts_with("#[ignore") {
                    continue;
                }
                let name = lines[i + 1..]
                    .iter()
                    .find_map(|l| l.trim_start().strip_prefix("fn "))
                    .and_then(|s| s.split('(').next())
                    .expect("an ignored test's fn");
                found += 1;
                let (package, target) = owner(&f.path);
                if name != "replay_env_seed"
                    && !runs.iter().any(|r| r.runs(&package, &target, name))
                {
                    orphans.push(format!("{}: {name} ({package}, {target})", f.path));
                }
            }
        }
        assert!(found > 0, "no #[ignore]d test found: the scan is broken");
        assert!(orphans.is_empty(), "ignored tests no CI line runs:\n{}", orphans.join("\n"));
    }
}
