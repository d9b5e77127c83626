//! The middlebox state taxonomy of §3.1 and the opaque chunk
//! representation used by the southbound API (§4.1).
//!
//! State is classified along two dimensions:
//!
//! * **Role** — configuring, supporting, or reporting ([`StateRole`]);
//! * **Partitioning** — per-flow or shared ([`StatePartition`]).
//!
//! The taxonomy (Table 1 of the paper) determines which operations each
//! class admits: configuration state is read/written by the controller
//! and only read by the MB; supporting state is created/mutated by the MB
//! and *placed* by the controller; reporting state is written by the MB
//! and must never be cloned (double reporting).

use bytes::Bytes;

use crate::crypto::{self, VendorKey};
use crate::error::{Error, Result};
use crate::flow::HeaderFieldList;

/// The role a piece of state plays in MB operation (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateRole {
    /// Policies and parameters that define and tune MB behaviour.
    /// Partitioning: shared. MB only reads.
    Configuring,
    /// Details on past traffic that guide MB decisions and actions.
    /// Partitioning: per-flow & shared. MB reads & writes.
    Supporting,
    /// Quantified observations and decisions. Partitioning: per-flow &
    /// shared. MB writes.
    Reporting,
}

/// Whether a piece of state applies to one flow or to all traffic at the
/// MB (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StatePartition {
    PerFlow,
    Shared,
}

/// An encrypted, controller-opaque blob of middlebox state.
///
/// The controller and control applications move these around but can
/// never interpret them; only an MB holding the same vendor key can
/// [`open`](EncryptedChunk::open) one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncryptedChunk {
    /// Refcounted so decode can alias the receive buffer (zero-copy) and
    /// cloning a chunk for re-send never duplicates the ciphertext.
    bytes: Bytes,
}

impl EncryptedChunk {
    /// Seal a serialized piece of state under the MB's vendor key.
    pub fn seal(key: &VendorKey, nonce: u64, plaintext: &[u8]) -> Self {
        EncryptedChunk { bytes: crypto::seal(key, nonce, plaintext).into() }
    }

    /// [`seal`](EncryptedChunk::seal) under a nonce derived from the key
    /// and the plaintext ([`crypto::seal_convergent`]): equal state
    /// seals to an equal chunk on every instance of a type. Sealed in
    /// place into the chunk's own buffer
    /// ([`crypto::seal_convergent_shared`]): one allocation.
    pub fn seal_convergent(key: &VendorKey, plaintext: &[u8]) -> Self {
        EncryptedChunk { bytes: crypto::seal_convergent_shared(key, plaintext).into() }
    }

    /// Decrypt. Fails with [`Error::MalformedChunk`] when the chunk was
    /// sealed by a different MB type or corrupted in transit.
    pub fn open(&self, key: &VendorKey) -> Result<Vec<u8>> {
        let mut plain = Vec::new();
        self.open_into(key, &mut plain).map(|()| plain)
    }

    /// [`open`](EncryptedChunk::open) into a buffer the caller reuses
    /// ([`crypto::open_into`]).
    pub fn open_into(&self, key: &VendorKey, out: &mut Vec<u8>) -> Result<()> {
        match crypto::open_into(key, &self.bytes, out) {
            true => Ok(()),
            false => Err(Error::MalformedChunk("decryption checksum mismatch".into())),
        }
    }

    /// Construct directly from wire bytes (codec use only). Accepts
    /// anything convertible to [`Bytes`]; pass a `Bytes` view to alias
    /// the receive buffer without copying.
    pub fn from_wire(bytes: impl Into<Bytes>) -> Self {
        EncryptedChunk { bytes: bytes.into() }
    }

    /// Raw wire bytes (codec use only).
    pub fn as_wire(&self) -> &[u8] {
        &self.bytes
    }

    /// The wire bytes as the buffer they live in: a refcount, no copy
    /// (codec use only).
    pub fn wire_bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Size in bytes as transferred; feeds the cost model and the §8.3
    /// compression experiment.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the chunk carries no bytes at all (never produced by
    /// `seal`, which always emits a 16-byte header).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A `[HeaderFieldList : EncryptedChunk]` pair as exported by
/// `getSupportPerflow`/`getReportPerflow` (§4.1.2). The key identifies
/// the traffic the chunk applies to *at the MB's native granularity* —
/// an exact 5-tuple for connection-keyed MBs, but possibly coarser
/// (e.g. Balance "only maintains a chunk of per-flow state based on
/// source IP", §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateChunk {
    /// The traffic this chunk applies to, at the MB's native granularity.
    pub key: HeaderFieldList,
    /// The opaque state itself.
    pub data: EncryptedChunk,
}

impl StateChunk {
    /// Pair a key with sealed state.
    pub fn new(key: HeaderFieldList, data: EncryptedChunk) -> Self {
        StateChunk { key, data }
    }
}

/// A `(shared supporting bytes, shared reporting bytes, per-flow chunk
/// count)` summary returned by the northbound `stats` call (§5): "allows
/// applications to query how much shared and per-flow supporting and
/// reporting state exists for a given key".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateStats {
    /// Number of per-flow supporting chunks matching the key.
    pub perflow_support_chunks: usize,
    /// Total serialized bytes of those chunks.
    pub perflow_support_bytes: usize,
    /// Number of per-flow reporting chunks matching the key.
    pub perflow_report_chunks: usize,
    /// Total serialized bytes of those chunks.
    pub perflow_report_bytes: usize,
    /// Serialized bytes of shared supporting state (whole-MB).
    pub shared_support_bytes: usize,
    /// Serialized bytes of shared reporting state (whole-MB).
    pub shared_report_bytes: usize,
}

impl StateStats {
    /// Sum of all per-flow chunk counts.
    pub fn total_chunks(&self) -> usize {
        self.perflow_support_chunks + self.perflow_report_chunks
    }

    /// Sum of all byte figures.
    pub fn total_bytes(&self) -> usize {
        self.perflow_support_bytes
            + self.perflow_report_bytes
            + self.shared_support_bytes
            + self.shared_report_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn chunk_roundtrip_through_vendor_key() {
        let key = VendorKey::derive("monitor");
        let chunk = EncryptedChunk::seal(&key, 5, b"flow record");
        assert_eq!(chunk.open(&key).unwrap(), b"flow record");
    }

    #[test]
    fn chunk_opaque_to_other_types() {
        let a = VendorKey::derive("monitor");
        let b = VendorKey::derive("ips");
        let chunk = EncryptedChunk::seal(&a, 5, b"flow record");
        assert!(matches!(chunk.open(&b), Err(Error::MalformedChunk(_))));
    }

    #[test]
    fn stats_totals() {
        let s = StateStats {
            perflow_support_chunks: 2,
            perflow_support_bytes: 100,
            perflow_report_chunks: 3,
            perflow_report_bytes: 50,
            shared_support_bytes: 10,
            shared_report_bytes: 5,
        };
        assert_eq!(s.total_chunks(), 5);
        assert_eq!(s.total_bytes(), 165);
    }

    #[test]
    fn statechunk_carries_native_granularity_key() {
        let key = VendorKey::derive("monitor");
        let fk =
            crate::flow::FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 9, Ipv4Addr::new(2, 2, 2, 2), 80);
        let c = StateChunk::new(HeaderFieldList::exact(fk), EncryptedChunk::seal(&key, 0, b"x"));
        assert!(c.key.matches(&fk));
    }
}
