//! MB-side southbound dispatch: one controller request in, zero or more
//! wire messages out.
//!
//! This is the middlebox half of the protocol — the same dispatch runs
//! under every embedding (the discrete-event simulator's `MbNode`, the
//! TCP server threads of `openmb-core::tcp`, unit tests poking a
//! middlebox directly). It lives here, next to the [`Middlebox`] trait,
//! so embeddings depend on the *behaviour* without pulling in the
//! controller crate.
//!
//! An embedding adds only timing. The simulator's `MbNode` sends a
//! per-flow get's runs in service-time batches that interleave with
//! packets and a shared get's reply after the background serialization
//! delay, and queues `ReprocessPacket` as replay work behind the
//! packets already waiting, which it runs through [`replay_packet`];
//! every reply is the one made here.

use openmb_simnet::SimTime;
use openmb_types::wire::{self, ChunkClass, Message};
use openmb_types::{EncryptedChunk, HeaderFieldList, OpId, Packet, Result, StateChunk};

use crate::effects::Effects;
use crate::{Middlebox, SharedPutLog};

/// Pure southbound dispatch: one request in, zero or more messages out
/// (replies plus any events raised by replay). Uses a throwaway
/// [`SharedPutLog`], so shared-put dedup and `DeleteState` rollback do
/// not span calls — single-exchange tests and tools that never resume
/// can ignore the log; resumable embeddings use
/// [`handle_southbound_logged`].
pub fn handle_southbound<M: Middlebox>(mb: &mut M, msg: Message, now: SimTime) -> Vec<Message> {
    let mut log = SharedPutLog::new();
    handle_southbound_logged(mb, &mut log, msg, now)
}

/// [`handle_southbound`] with a caller-owned [`SharedPutLog`] carrying
/// the shared-put dedup set and pre-put snapshots across messages.
pub fn handle_southbound_logged<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    msg: Message,
    now: SimTime,
) -> Vec<Message> {
    let mut out = Vec::new();
    handle_southbound_into(mb, log, msg, now, &mut |m| out.push(m));
    out
}

/// The dispatch itself: each reply goes to `out` as soon as it exists.
/// A per-flow get hands over each run the moment its last record is
/// sealed ([`Middlebox::export_perflow`]), so an embedding that sends
/// as it goes (the TCP serve loop) overlaps the export with the
/// transfer of what has already been cut.
pub fn handle_southbound_into<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    msg: Message,
    now: SimTime,
    out: &mut dyn FnMut(Message),
) {
    match msg {
        Message::GetConfig { op, key } => match mb.get_config(&key) {
            Ok(pairs) => out(Message::ConfigValues { op, pairs }),
            Err(e) => out(Message::ErrorMsg { op, error: e }),
        },
        Message::SetConfig { op, key, values } => out(ack(op, mb.set_config(&key, values))),
        Message::DelConfig { op, key } => out(ack(op, mb.del_config(&key))),
        Message::GetSupportPerflow { op, key } => {
            export_runs(mb, ChunkClass::Support, op, &key, out);
        }
        Message::GetReportPerflow { op, key } => {
            export_runs(mb, ChunkClass::Report, op, &key, out);
        }
        Message::PutSupportPerflow { op, chunk, rest } => {
            out(apply_run(mb, op, ChunkClass::Support, chunk, rest));
        }
        Message::PutReportPerflow { op, chunk, rest } => {
            out(apply_run(mb, op, ChunkClass::Report, chunk, rest));
        }
        Message::DelSupportPerflow { op, key } => {
            out(ack(op, mb.del_support_perflow(&key).map(drop)));
        }
        Message::DelReportPerflow { op, key } => {
            out(ack(op, mb.del_report_perflow(&key).map(drop)));
        }
        Message::GetSupportShared { op } => out(shared_reply(op, mb.get_support_shared(op))),
        Message::GetReportShared { op } => out(shared_reply(op, mb.get_report_shared())),
        Message::PutSupportShared { op, chunk } => {
            out(put_shared(mb, log, op, |mb| mb.put_support_shared(chunk)));
        }
        Message::PutReportShared { op, chunk } => {
            out(put_shared(mb, log, op, |mb| mb.put_report_shared(chunk)));
        }
        Message::DeleteState { op, puts } => {
            // Compensating rollback for an aborted clone/merge: restore
            // the pre-put image and revoke any listed put still in
            // flight.
            let (snap, restored) = log.rollback(&puts);
            let result = match snap {
                Some(s) => mb.restore_shared(s).map(|()| restored),
                None => Ok(0),
            };
            match result {
                Ok(restored) => out(Message::DeleteAck { op, restored }),
                Err(e) => out(Message::ErrorMsg { op, error: e }),
            }
        }
        Message::GetStats { op, key } => {
            out(Message::Stats { op, stats: mb.stats(&key) });
        }
        Message::EnableEvents { op, filter } => {
            mb.set_introspection(Some(filter));
            out(Message::OpAck { op });
        }
        Message::DisableEvents { op } => {
            mb.set_introspection(None);
            out(Message::OpAck { op });
        }
        Message::ReprocessPacket { op: _, key: _, packet } => {
            let mut fx = replay_packet(mb, now, &packet);
            for event in fx.take_events() {
                out(Message::EventMsg { event });
            }
        }
        Message::EndSync { op } => {
            mb.end_sync(op);
        }
        Message::ChunkRef { op, class, key, hash, rest } => {
            // Negotiate-then-reference, destination side: apply straight
            // from the content store on a hit, ask for the run's body on
            // a miss. The stored bytes are re-hashed before use, and
            // must split into as many records as the reference names,
            // so a poisoned or corrupted entry degrades to a miss
            // instead of importing wrong state. The records are views
            // of the stored bytes: a hit copies nothing.
            let hit = log
                .store()
                .get(&hash)
                .filter(|data| openmb_store::content_hash(data) == hash)
                .and_then(|data| wire::split_run_content(data, key, &rest));
            match hit {
                Some((chunk, rest)) => out(apply_run(mb, op, class, chunk, rest)),
                None => out(Message::ChunkNeed { op, hash }),
            }
        }
        Message::ChunkBody { op, class, key, hash, data, rest } => {
            // A streamed run body answering a ChunkNeed. Verify the hash
            // before caching or applying: a mismatch means corruption
            // (or a confused source) and must surface as an error, not
            // poison the store. The content is walked once: it is cached
            // under the hash just verified, not re-hashed by `put`, and
            // it is the buffer `run_content` built (or a lone record's
            // own), not a copy of it.
            let content = wire::run_content(&data, &rest);
            if openmb_store::content_hash(&content) != hash {
                out(Message::ErrorMsg {
                    op,
                    error: openmb_types::Error::MalformedChunk(
                        "chunk body does not match its content hash".into(),
                    ),
                });
            } else {
                log.store().insert_unchecked(hash, content.into());
                out(apply_run(mb, op, class, StateChunk::new(key, data), rest));
            }
        }
        batch @ Message::Batch { .. } => {
            // One frame, many requests: dispatch each in order. The
            // embedding decides how the replies are framed.
            batch.for_each_unbatched(|m| handle_southbound_into(mb, log, m, now, out));
        }
        // MB→controller messages are not requests.
        _ => {}
    }
}

/// A `ReprocessPacket`'s packet through `process_packet` under
/// [`Effects::replay`] (§4.2.1: state updates, no external side
/// effects), in every embedding: what it leaves in the collector —
/// events, suppressed counts — is the replay's whole output.
pub fn replay_packet<M: Middlebox>(mb: &mut M, now: SimTime, pkt: &Packet) -> Effects {
    let mut fx = Effects::replay();
    mb.process_packet(now, pkt, &mut fx);
    fx
}

/// `OpAck` on success, the error otherwise: the reply to a request that
/// returns nothing (config writes, per-flow deletes).
fn ack(op: OpId, result: Result<()>) -> Message {
    match result {
        Ok(()) => Message::OpAck { op },
        Err(e) => Message::ErrorMsg { op, error: e },
    }
}

/// The reply to a per-flow get of either class: the records in runs
/// ([`wire::RunCutter`]), in export order, each run handed to `out` as
/// soon as it is cut, then a `GetAck` carrying the number of records.
/// An export error is the whole reply: it comes before any record.
fn export_runs<M: Middlebox>(
    mb: &mut M,
    class: ChunkClass,
    op: OpId,
    key: &HeaderFieldList,
    out: &mut dyn FnMut(Message),
) {
    let (mut cut, mut count) = (None, 0u32);
    let exported = mb.export_perflow(class, op, key, &mut |n, record| {
        count += 1;
        if let Some(run) = cut.get_or_insert_with(|| wire::RunCutter::new(op, n)).push(record) {
            out(run);
        }
    });
    match exported {
        Ok(()) => {
            if let Some(run) = cut.as_mut().and_then(wire::RunCutter::finish) {
                out(run);
            }
            out(Message::GetAck { op, count });
        }
        Err(error) => {
            debug_assert_eq!(count, 0, "an export error after {count} records of {op}");
            out(Message::ErrorMsg { op, error });
        }
    }
}

/// The reply to a shared get of either class (`OpAck` when the MB keeps
/// none).
fn shared_reply(op: OpId, result: Result<Option<EncryptedChunk>>) -> Message {
    match result {
        Ok(Some(chunk)) => Message::SharedChunk { op, chunk },
        Ok(None) => Message::OpAck { op },
        Err(e) => Message::ErrorMsg { op, error: e },
    }
}

/// A shared put of either class. Shared puts MERGE, so a re-sent copy
/// (transfer resume) is re-acked without re-applying; a first copy is
/// applied over a snapshot the log keeps for `DeleteState`.
fn put_shared<M: Middlebox>(
    mb: &mut M,
    log: &mut SharedPutLog,
    op: OpId,
    put: impl FnOnce(&mut M) -> Result<()>,
) -> Message {
    if log.already_applied(op) {
        return Message::PutAck { op, key: None };
    }
    let snap = mb.snapshot_shared();
    match snap.and_then(|s| put(mb).map(|()| s)) {
        Ok(s) => {
            log.record(op, s);
            Message::PutAck { op, key: None }
        }
        Err(e) => Message::ErrorMsg { op, error: e },
    }
}

/// Apply a run of per-flow puts under its state class, record by
/// record in run order, and answer once. Streamed (`Put*Perflow`) and
/// content-addressed (`ChunkRef`/`ChunkBody`) runs earn the same
/// `PutAck { key: Some(first key) }` — the controller's ledger cannot
/// tell (and must not care) how a run arrived. The first record that
/// fails stops the run and is the answer; the controller aborts the op
/// on it, which deletes whatever of the run landed.
fn apply_run<M: Middlebox>(
    mb: &mut M,
    op: OpId,
    class: ChunkClass,
    chunk: StateChunk,
    rest: Vec<StateChunk>,
) -> Message {
    let key = chunk.key;
    let mut put = |chunk| match class {
        ChunkClass::Support => mb.put_support_perflow(chunk),
        ChunkClass::Report => mb.put_report_perflow(chunk),
        // `ChunkClass` is non-exhaustive: a class this build does not
        // know cannot be applied correctly, so refuse it.
        other => Err(openmb_types::Error::UnsupportedStateClass(format!("{other:?}"))),
    };
    match std::iter::once(chunk).chain(rest).try_for_each(&mut put) {
        Ok(()) => Message::PutAck { op, key: Some(key) },
        Err(e) => Message::ErrorMsg { op, error: e },
    }
}
