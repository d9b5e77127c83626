//! The field codec: how every encoded structure in OpenMB is written —
//! wire messages ([`crate::wire`]), middlebox state records and capture
//! files.
//!
//! A type's format, with the bounds its decoder enforces, is its one
//! [`Field`] impl. A struct is one [`record!`] row listing its fields in
//! encoding order, an enum one [`tagged!`] table; encoding, [`Len`]'s
//! length sum and decoding are derived from them, so they cannot drift
//! apart.
//!
//! The format is canonical: every value has one encoding, and a decoder
//! accepts only that one. A flag is 0 or 1, sets and maps encode in key
//! order by construction and decode only strictly ascending keys, and
//! [`decode`] refuses bytes after the value. All integers are
//! little-endian; strings and byte fields are blobs, a `u32` length and
//! the bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use bytes::Bytes;

use crate::error::{Error, Result};
use crate::flow::{FlowKey, Proto};
use crate::packet::{Packet, PacketMeta};
use crate::wire::MAX_MESSAGE;

/// One field type: how it is written to a [`Sink`] and read back from a
/// [`Reader`].
pub trait Field: Sized {
    /// Most items a list of this type may announce; a larger count is
    /// refused before anything is reserved for it.
    const MAX_COUNT: usize = MAX_MESSAGE / 8;

    /// What a value of this type is called where [`decode`] refuses the
    /// bytes after it.
    const WHAT: &'static str = "a record";

    fn put<S: Sink>(&self, s: &mut S);
    fn get(r: &mut Reader<'_>) -> Result<Self>;

    /// A list of this type: a `u32` count, then the items. Bytes travel
    /// as one blob instead, read in one piece.
    fn put_list<S: Sink>(items: &[Self], s: &mut S) {
        (items.len() as u32).put(s);
        for x in items {
            x.put(s);
        }
    }

    /// The rest of [`put_list`](Field::put_list)'s encoding: a count of
    /// at most `max` ([`List`]), and the items.
    fn get_list(r: &mut Reader<'_>, max: usize, why: Option<&'static str>) -> Result<Vec<Self>> {
        let n = r.count(max, why)?;
        r.items(n)
    }
}

/// A collection field: a `u32` count, then the items. A [`record!`] row
/// may name the field's count limit and the refusal past it; otherwise
/// the item type's [`Field::MAX_COUNT`] bounds it, as a codec error.
pub trait List: Field {
    /// Decode with at most `max` items, refusing more as `why` when given.
    fn get_at_most(r: &mut Reader<'_>, max: usize, why: Option<&'static str>) -> Result<Self>;
}

/// Where a field walk goes: a [`Writer`] appends the bytes, a [`Len`]
/// only adds up how many there are.
pub trait Sink: Sized {
    fn put_raw(&mut self, b: &[u8]);

    /// `body`'s encoding as a length-prefixed blob.
    fn put_nested(&mut self, body: impl FnOnce(&mut Self));

    fn put_blob(&mut self, b: &[u8]) {
        (b.len() as u32).put(self);
        self.put_raw(b);
    }
}

/// Growable encode buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose buffer holds `n` bytes before it grows.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Writer { buf: Vec::with_capacity(n) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written since the last [`clear`](Writer::clear).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Forget what was written and keep the buffer, so one writer
    /// serves record after record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Sink for Writer {
    #[inline]
    fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn put_nested(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_raw(&[0; 4]); // the length, patched in once the body is written
        body(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// A [`Sink`] that counts: [`encoded_len`] is [`encode`]'s walk with
/// nothing written, arithmetic and allocation-free.
pub struct Len(pub usize);

impl Sink for Len {
    #[inline]
    fn put_raw(&mut self, b: &[u8]) {
        self.0 += b.len();
    }

    fn put_nested(&mut self, body: impl FnOnce(&mut Self)) {
        self.0 += 4;
        body(self);
    }
}

/// `x`'s encoding.
pub fn encode<T: Field>(x: &T) -> Vec<u8> {
    let mut w = Writer::new();
    x.put(&mut w);
    w.into_bytes()
}

/// Exact length of [`encode`]`(x)`, summed through [`Len`].
pub fn encoded_len<T: Field>(x: &T) -> usize {
    let mut n = Len(0);
    x.put(&mut n);
    n.0
}

/// One `T` from all of `buf`. A non-canonical encoding — a flag other
/// than 0 or 1, keys out of order, a count past a row's bound, bytes
/// left after the value — is refused with `refuse`; a buffer too short
/// or otherwise unreadable is a codec error whatever `refuse` is.
pub fn decode<T: Field>(buf: &[u8], refuse: fn(String) -> Error) -> Result<T> {
    let mut r = Reader { refuse, ..Reader::new(buf) };
    let x = T::get(&mut r)?;
    r.finish(T::WHAT)?;
    Ok(x)
}

/// Cursor-based decode buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The refcounted owner of `buf`, when decoding from one. Lets blob
    /// fields decode as zero-copy views instead of copying every payload.
    shared: Option<&'a Bytes>,
    /// The error a non-canonical encoding is refused with ([`decode`]).
    refuse: fn(String) -> Error,
}

impl<'a> Reader<'a> {
    /// A reader whose refusals are [`Error::Codec`].
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, shared: None, refuse: Error::Codec }
    }

    /// A reader over a refcounted buffer: blob fields decode as zero-copy
    /// views sharing `buf`'s storage.
    pub(crate) fn new_shared(buf: &'a Bytes) -> Self {
        Reader { shared: Some(buf), ..Reader::new(buf) }
    }

    /// True when every byte has been consumed.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Refuse the bytes left after a value called `what`.
    pub(crate) fn finish(&self, what: &str) -> Result<()> {
        match self.is_exhausted() {
            true => Ok(()),
            false => Err(self.refusal(format!("trailing bytes after {what}"))),
        }
    }

    #[cold]
    #[inline(never)]
    fn refusal(&self, why: String) -> Error {
        (self.refuse)(why)
    }

    #[inline]
    fn need(&self, n: usize) -> Result<()> {
        if self.pos + n > self.buf.len() {
            Err(codec(format!(
                "truncated message: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// The next `N` bytes.
    #[inline]
    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.need(N)?;
        let mut v = [0; N];
        v.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(v)
    }

    /// A flag byte, 0 or 1.
    #[inline]
    fn flag(&mut self) -> Result<bool> {
        match u8::get(self)? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(self.refusal(format!("bad flag byte {b}"))),
        }
    }

    /// A blob's length and then its bytes, within the buffer.
    fn blob(&mut self) -> Result<std::ops::Range<usize>> {
        let n = u32::get(self)? as usize;
        if n > MAX_MESSAGE {
            return Err(codec(format!("blob length {n} exceeds limit")));
        }
        self.need(n)?;
        self.pos += n;
        Ok(self.pos - n..self.pos)
    }

    /// A blob as a refcounted [`Bytes`]: a zero-copy view into the
    /// buffer of a reader built with [`Reader::new_shared`], a copy
    /// otherwise.
    pub(crate) fn bytes_shared(&mut self) -> Result<Bytes> {
        let at = self.blob()?;
        Ok(match self.shared {
            Some(src) => src.slice(at),
            None => Bytes::from(self.buf[at].to_vec()),
        })
    }

    /// A blob of UTF-8, borrowed from the buffer.
    fn utf8(&mut self) -> Result<&'a str> {
        let at = self.blob()?;
        std::str::from_utf8(&self.buf[at]).map_err(|e| codec(format!("bad utf8: {e}")))
    }

    /// A list's `u32` count, refused past `max` ([`List`]).
    pub(crate) fn count(&mut self, max: usize, why: Option<&'static str>) -> Result<usize> {
        let n = u32::get(self)? as usize;
        if n > max {
            return Err(match why {
                Some(why) => self.refusal(why.into()),
                None => codec(format!("list of {n} items exceeds {max}")),
            });
        }
        Ok(n)
    }

    /// `n` items, reserving at most 1 024 ahead of the bytes that back
    /// them.
    pub(crate) fn items<T: Field>(&mut self, n: usize) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(self)?);
        }
        Ok(out)
    }
}

pub(crate) fn codec(why: impl Into<String>) -> Error {
    Error::Codec(why.into())
}

// ---------------------------------------------------------------------------
// Rows and tables
// ---------------------------------------------------------------------------

/// The codec of a struct encoded as its listed fields in order, one row
/// per struct: `Type { field, field, ... }`, a tuple struct's fields by
/// index. `Type as "what" { ... }` names the type for
/// [`Field::WHAT`]. A collection field may name its own count limit and
/// the refusal past it, `field [max, "why"]`, in place of its item
/// type's [`Field::MAX_COUNT`].
#[macro_export]
macro_rules! record {
    ($($T:ident $(as $what:literal)? { $($f:tt $([$max:expr, $why:literal])?),* })*) => {$(
        impl $crate::codec::Field for $T {
            $(const WHAT: &'static str = $what;)?

            fn put<S: $crate::codec::Sink>(&self, s: &mut S) {
                $($crate::codec::Field::put(&self.$f, s);)*
            }

            fn get(r: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                Ok($T { $($f: $crate::record!(@get r $($max, $why)?)),* })
            }
        }
    )*};
    (@get $r:ident) => { $crate::codec::Field::get($r)? };
    (@get $r:ident $max:expr, $why:literal) => {
        $crate::codec::List::get_at_most($r, $max, Some($why))?
    };
}

/// The codec of an enum encoded as a `u8` tag and then the listed fields
/// of the variant it names, one row per variant: `Variant(fields) = tag`
/// or `Variant { fields } = tag`. `$unknown` words the error for a tag
/// no row declares; `max` overrides the type's [`Field::MAX_COUNT`].
#[macro_export]
macro_rules! tagged {
    ($E:ident, $unknown:literal $(, max $max:expr;)? { $($V:ident $fields:tt = $tag:literal,)* }) => {
        impl $crate::codec::Field for $E {
            $(const MAX_COUNT: usize = $max;)?

            fn put<S: $crate::codec::Sink>(&self, s: &mut S) {
                match self {
                    $($E::$V $fields => {
                        let tag: u8 = $tag;
                        $crate::codec::Field::put(&tag, s);
                        $crate::tagged!(@put s $fields);
                    })*
                }
            }

            fn get(r: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                let t = $crate::codec::Field::get(r)?;
                Self::get_tagged(t, r)
            }
        }

        impl $E {
            /// The tags this type's table declares.
            #[cfg(test)]
            const TAGS: &[u8] = &[$($tag),*];

            /// The rest of a value whose tag `t` was already read.
            fn get_tagged(t: u8, r: &mut $crate::codec::Reader<'_>) -> $crate::Result<Self> {
                Ok(match t {
                    $($tag => $crate::tagged!(@get r $E $V $fields),)*
                    other => {
                        return Err($crate::Error::Codec(format!(concat!($unknown, " {}"), other)))
                    }
                })
            }
        }
    };
    (@put $s:ident ($($f:ident),*)) => { $($crate::codec::Field::put($f, $s);)* };
    (@put $s:ident {$($f:ident),*}) => { $($crate::codec::Field::put($f, $s);)* };
    (@get $r:ident $E:ident $V:ident ($($f:ident),*)) => {
        $E::$V($({
            let $f = $crate::codec::Field::get($r)?;
            $f
        }),*)
    };
    (@get $r:ident $E:ident $V:ident {$($f:ident),*}) => {
        $E::$V { $($f: $crate::codec::Field::get($r)?),* }
    };
}

pub use crate::{record, tagged};

record! {
    // A 5-tuple, 13 bytes: the layout messages, middlebox records and
    // capture files share.
    FlowKey { src_ip, dst_ip, src_port, dst_port, proto }
    Packet { id, key, meta, payload }
    PacketMeta { tcp_flags, seq, http_request }
}

// ---------------------------------------------------------------------------
// Field types
// ---------------------------------------------------------------------------

macro_rules! int_field {
    ($($T:ident $(max $max:expr)?),*) => {$(
        impl Field for $T {
            $(const MAX_COUNT: usize = $max;)?

            #[inline]
            fn put<S: Sink>(&self, s: &mut S) {
                s.put_raw(&self.to_le_bytes());
            }

            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self> {
                r.take().map($T::from_le_bytes)
            }
        }
    )*};
}

// Event codes are the one list of `u32`s on the wire.
int_field!(u16, u32 max 65_536, u64, i64);

/// Lists of bytes are blobs.
impl Field for u8 {
    #[inline]
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_raw(&[*self]);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.take().map(u8::from_le_bytes)
    }

    fn put_list<S: Sink>(items: &[Self], s: &mut S) {
        s.put_blob(items);
    }

    fn get_list(r: &mut Reader<'_>, _: usize, _: Option<&'static str>) -> Result<Vec<Self>> {
        let at = r.blob()?;
        Ok(r.buf[at].to_vec())
    }
}

impl Field for usize {
    fn put<S: Sink>(&self, s: &mut S) {
        (*self as u64).put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok(u64::get(r)? as usize)
    }
}

/// One byte, 0 or 1.
impl Field for bool {
    fn put<S: Sink>(&self, s: &mut S) {
        u8::from(*self).put(s);
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.flag()
    }
}

/// A presence flag, 0 or 1, and the value when 1.
impl<T: Field> Field for Option<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        self.is_some().put(s);
        if let Some(v) = self {
            v.put(s);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        match r.flag()? {
            false => Ok(None),
            true => T::get(r).map(Some),
        }
    }
}

/// [`Field::put_list`]'s encoding.
impl<T: Field> Field for Vec<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        T::put_list(self, s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Self::get_at_most(r, T::MAX_COUNT, None)
    }
}

impl<T: Field> List for Vec<T> {
    fn get_at_most(r: &mut Reader<'_>, max: usize, why: Option<&'static str>) -> Result<Self> {
        T::get_list(r, max, why)
    }
}

/// The items in ascending order; only strictly ascending ones decode.
impl<T: Field + Ord> Field for BTreeSet<T> {
    fn put<S: Sink>(&self, s: &mut S) {
        (self.len() as u32).put(s);
        self.iter().for_each(|x| x.put(s));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Self::get_at_most(r, T::MAX_COUNT, None)
    }
}

impl<T: Field + Ord> List for BTreeSet<T> {
    fn get_at_most(r: &mut Reader<'_>, max: usize, why: Option<&'static str>) -> Result<Self> {
        let mut set = BTreeSet::new();
        for _ in 0..r.count(max, why)? {
            let x = T::get(r)?;
            if set.last().is_some_and(|last| *last >= x) {
                return Err(r.refusal("keys out of order".into()));
            }
            set.insert(x);
        }
        Ok(set)
    }
}

/// Each key and its value, in key order; only strictly ascending keys
/// decode. Bounded by the key type, as a list of pairs is.
impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put<S: Sink>(&self, s: &mut S) {
        (self.len() as u32).put(s);
        for (k, v) in self {
            k.put(s);
            v.put(s);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Self::get_at_most(r, K::MAX_COUNT, None)
    }
}

impl<K: Field + Ord, V: Field> List for BTreeMap<K, V> {
    fn get_at_most(r: &mut Reader<'_>, max: usize, why: Option<&'static str>) -> Result<Self> {
        let mut map = BTreeMap::new();
        for _ in 0..r.count(max, why)? {
            let k = K::get(r)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
                return Err(r.refusal("keys out of order".into()));
            }
            map.insert(k, V::get(r)?);
        }
        Ok(map)
    }
}

/// A list of pairs is bounded by its first element's type.
impl<A: Field, B: Field> Field for (A, B) {
    const MAX_COUNT: usize = A::MAX_COUNT;

    fn put<S: Sink>(&self, s: &mut S) {
        self.0.put(s);
        self.1.put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A blob of UTF-8. Introspection values are the one list of strings on
/// the wire.
impl Field for String {
    const MAX_COUNT: usize = 65_536;

    fn put<S: Sink>(&self, s: &mut S) {
        s.put_blob(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.utf8().map(str::to_owned)
    }
}

/// A short string: any `String` value, kept inline up to
/// [`Label::INLINE`] bytes and in a `Box<str>` past that, in a `String`'s
/// 24 bytes. A record field that names something from a small, short
/// vocabulary (a service, an OS guess) is a `Label`, so creating,
/// decoding, cloning and dropping the record touch no heap; a field
/// that grows with the traffic (a URL, a request line) stays a `String`.
///
/// Everything observable is a `String`'s: the encoding (a blob of
/// UTF-8), the decode refusals, `{:?}`, and `Eq`/`Ord`/`Hash`.
#[derive(Clone)]
pub struct Label(LabelRepr);

#[derive(Clone)]
enum LabelRepr {
    /// The first `len` bytes of `buf`, UTF-8.
    Inline {
        len: u8,
        buf: [u8; Label::INLINE],
    },
    Spilled(Box<str>),
}

const _: () = assert!(std::mem::size_of::<Label>() == std::mem::size_of::<String>());

impl Label {
    /// Longest string kept inline, in bytes.
    pub const INLINE: usize = 22;

    #[inline]
    pub fn new(s: &str) -> Self {
        Label(match s.len() {
            len @ 0..=Label::INLINE => {
                let mut buf = [0; Label::INLINE];
                buf[..len].copy_from_slice(s.as_bytes());
                LabelRepr::Inline { len: len as u8, buf }
            }
            _ => LabelRepr::Spilled(s.into()),
        })
    }

    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            LabelRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            LabelRepr::Spilled(s) => s.as_bytes(),
        }
    }

    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            LabelRepr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a label is built from a str")
            }
            LabelRepr::Spilled(s) => s,
        }
    }
}

impl Default for Label {
    fn default() -> Self {
        Label::new("")
    }
}

impl From<Label> for String {
    fn from(l: Label) -> Self {
        match l.0 {
            LabelRepr::Spilled(s) => s.into(),
            LabelRepr::Inline { .. } => l.as_str().to_owned(),
        }
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Label {}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// Byte order, which is `str`'s.
impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `String`'s encoding and refusals; a decode allocates only past
/// [`Label::INLINE`] bytes.
impl Field for Label {
    const MAX_COUNT: usize = String::MAX_COUNT;

    #[inline]
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_blob(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.utf8().map(Label::new)
    }
}

impl Field for Bytes {
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_blob(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.bytes_shared()
    }
}

impl Field for Ipv4Addr {
    fn put<S: Sink>(&self, s: &mut S) {
        s.put_raw(&self.octets());
    }

    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self> {
        r.take().map(Ipv4Addr::from)
    }
}

impl Field for Proto {
    fn put<S: Sink>(&self, s: &mut S) {
        self.number().put(s);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self> {
        proto(u8::get(r)?)
    }
}

pub(crate) fn proto(b: u8) -> Result<Proto> {
    Proto::from_number(b).ok_or_else(|| codec(format!("bad proto {b}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Strings on both sides of [`Label::INLINE`], with multi-byte
    /// characters across it.
    fn texts() -> Vec<String> {
        let mut v: Vec<String> = (0..=40).map(|n| "abcdefghij".repeat(5)[..n].to_owned()).collect();
        v.extend(["é".repeat(11), "é".repeat(11) + "a", "a".to_owned() + &"é".repeat(11)]);
        v.extend(["€".repeat(7) + "a", "€".repeat(8), "x".repeat(300), "Linux".into()]);
        v
    }

    #[test]
    fn a_label_is_a_string_on_the_wire_and_in_print() {
        assert_eq!(std::mem::size_of::<Label>(), std::mem::size_of::<String>());
        for s in texts() {
            let l = Label::new(&s);
            assert_eq!(encode(&l), encode(&s), "{s:?}");
            assert_eq!(encoded_len(&l), encoded_len(&s), "{s:?}");
            assert_eq!(decode::<Label>(&encode(&s), Error::Codec).unwrap(), l);
            assert_eq!(format!("{l:?}"), format!("{s:?}"));
            assert_eq!(format!("{l}"), s);
            assert_eq!(l, s.as_str());
            assert_eq!(String::from(l.clone()), s);
            assert_eq!(Label::default(), "");
        }
    }

    #[test]
    fn a_label_orders_and_hashes_as_its_string() {
        let texts = texts();
        let hasher = std::collections::hash_map::RandomState::new();
        for a in &texts {
            let la = Label::new(a);
            assert_eq!(hasher.hash_one(&la), hasher.hash_one(a), "{a:?}");
            for b in &texts {
                let lb = Label::new(b);
                assert_eq!(la.cmp(&lb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(la == lb, a == b);
            }
        }
    }

    /// Bad UTF-8, a cut blob and a list past the count bound are refused
    /// with a `String`'s errors, word for word.
    #[test]
    fn a_label_refuses_what_a_string_refuses() {
        let refusal = |bytes: &[u8]| -> (String, String) {
            let label = decode::<Label>(bytes, Error::MalformedChunk).unwrap_err();
            let string = decode::<String>(bytes, Error::MalformedChunk).unwrap_err();
            (format!("{label:?}"), format!("{string:?}"))
        };
        for s in texts() {
            let enc = encode(&s);
            for cut in 0..enc.len() {
                let (label, string) = refusal(&enc[..cut]);
                assert_eq!(label, string, "a {cut}-byte cut of {s:?}");
            }
            for at in 4..enc.len() {
                let mut bad = enc.clone();
                bad[at] = 0xff;
                let (label, string) = refusal(&bad);
                assert!(label.contains("bad utf8"), "{label}");
                assert_eq!(label, string);
            }
        }
        let mut too_many = encode(&(String::MAX_COUNT as u32 + 1));
        too_many.extend(encode(&String::new()));
        let label = decode::<Vec<Label>>(&too_many, Error::Codec).unwrap_err();
        let string = decode::<Vec<String>>(&too_many, Error::Codec).unwrap_err();
        assert_eq!(format!("{label:?}"), format!("{string:?}"));
    }
}
