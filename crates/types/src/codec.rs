//! Deterministic binary codec for snapshot serialization.
//!
//! Snapshots (`agile_core::snapshot`) must be **byte-stable**: the same
//! machine state encodes to the same bytes on every host, every run, every
//! thread count. The approved dependency list has no serde, so this module
//! provides the tiny amount of machinery needed: an append-only encoder
//! ([`Enc`]), a position-tracked decoder ([`Dec`]) whose reads are all
//! fallible, and a [`Persist`] trait each crate implements for its own
//! (often private-field) state types.
//!
//! Encoding rules, chosen for determinism and debuggability:
//!
//! * all integers are fixed-width little-endian (no varints — byte offsets
//!   stay predictable),
//! * sequences are length-prefixed with a `u64` count,
//! * maps are emitted **sorted by key** (hash-map iteration order must
//!   never leak into the bytes),
//! * `Option` is a one-byte tag (0/1) followed by the payload,
//! * there is no padding, framing, or alignment — concatenation of field
//!   encodings in declaration order.
//!
//! # Records
//!
//! A struct whose encoding is that last rule — each field's own encoding,
//! in declaration order — is declared through [`record!`](crate::record)
//! instead of implementing [`Persist`] by hand. The macro emits the struct
//! unchanged and derives `save`/`load` from its field list, so the two can
//! never list the fields in different orders. Its `counters;` form also
//! derives [`Counters::since`] for blocks of monotone event counters; a
//! counters block may hold `u64`s, `[u64; N]` arrays and other counters
//! blocks. Reordering a record's fields moves its bytes, and with them
//! every snapshot that holds it. The same declaration gives a counters
//! block, or an output-only `json;` record, its JSON form (`ToJson`), so
//! each printed field is named once.
//!
//! Three kinds of encoding stay hand-written: enums (a tag byte, then the
//! variant's fields), append-only logs whose sinks may skip items already
//! seen (`ShootdownLog`), and structures saved as parts with generations
//! through [`StateSink`] (`save_to`/`load_state`).
//!
//! # Example
//!
//! ```
//! use agile_types::{Dec, Enc, Persist};
//!
//! let mut e = Enc::new();
//! (7u64, "hello".to_string()).save(&mut e);
//! let bytes = e.into_bytes();
//! let mut d = Dec::new(&bytes);
//! let (n, s) = <(u64, String)>::load(&mut d).unwrap();
//! assert_eq!((n, s.as_str()), (7, "hello"));
//! assert!(d.finish().is_ok());
//! ```

use crate::{
    Asid, GuestFrame, GuestPhysAddr, GuestVirtAddr, HostFrame, HostPhysAddr, Level, PageSize,
    ProcessId, Pte, PteFlags, SplitMix64, VmId,
};
use std::collections::BTreeMap;

/// A decoding failure: truncated input, a bad tag byte, or a value that
/// fails domain validation (e.g. a [`Level`] number outside 1..=4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset in the input at which decoding failed.
    pub at: usize,
    /// What went wrong.
    pub what: String,
}

impl CodecError {
    /// Builds an error at `at` with message `what`.
    #[must_use]
    pub fn new(at: usize, what: impl Into<String>) -> Self {
        CodecError {
            at,
            what: what.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte encoder. All writes are infallible.
#[derive(Debug, Default, Clone)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Enc::default()
    }

    /// Consumes the encoder, returning the bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Discards everything written, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends one raw byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte (0/1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` by its IEEE-754 bit pattern (byte-stable).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` sequence-length prefix (callers then save each item).
    #[inline]
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

/// A consumer of saved state that may keep a structure's parts apart.
///
/// A structure made of many small, separately changing parts (table pages,
/// cache sets and slots, process records) saves itself through a sink:
/// everything outside its parts goes to [`StateSink::enc`], and each part
/// through [`StateSink::part`] or [`StateSink::dense`] with a generation
/// that moves whenever the part's bytes could. [`Enc`] writes every part
/// inline, so saving through it yields the snapshot bytes. A sink that
/// hashes parts separately may reuse a part's hash while its generation
/// stands still; the bounded explorer's visited-state key does
/// (`agile_core::explore`).
pub trait StateSink {
    /// The encoder for everything outside the parts.
    fn enc(&mut self) -> &mut Enc;

    /// Opens a group: the parts that follow, up to the next group, belong
    /// to one structure and come in ascending `id` order, through
    /// [`StateSink::part`] calls or one [`StateSink::dense`] call. A
    /// structure opens its group at the same point of every save, with a
    /// `generation` that moves whenever any of the group's parts could
    /// change or a part could appear or vanish: a sink that already holds
    /// the group at that generation returns `false`, and the caller skips
    /// the parts. On `true`, the caller saves every part.
    fn group(&mut self, generation: (u64, u64)) -> bool;

    /// One part of the open group; `encode` writes its bytes. Within a
    /// group, equal `id` and `generation` mean equal bytes.
    fn part(&mut self, id: u64, generation: (u64, u64), encode: impl FnOnce(&mut Enc));

    /// All parts of the open group at once, with ids `0..len`: part `i`
    /// has generation `generation(i)`, and `encode(i, e)` writes its
    /// bytes. Equal id and generation mean equal bytes, so a sink that
    /// already holds part `i` at `generation(i)` skips it without an
    /// `encode` call. `generation` must cost O(1): a sink may ask it for
    /// every part on every save.
    fn dense(
        &mut self,
        len: usize,
        generation: impl Fn(usize) -> (u64, u64),
        encode: impl FnMut(usize, &mut Enc),
    );

    /// An append-only sequence of `len` items; `encode(i, e)` writes item
    /// `i`. Saved items never change, so a sink may consume only the
    /// items it has not seen yet.
    fn append_only(&mut self, len: usize, encode: impl FnMut(usize, &mut Enc));
}

impl StateSink for Enc {
    fn enc(&mut self) -> &mut Enc {
        self
    }

    fn group(&mut self, _generation: (u64, u64)) -> bool {
        true
    }

    #[inline]
    fn part(&mut self, _id: u64, _generation: (u64, u64), encode: impl FnOnce(&mut Enc)) {
        encode(self);
    }

    fn dense(
        &mut self,
        len: usize,
        _generation: impl Fn(usize) -> (u64, u64),
        mut encode: impl FnMut(usize, &mut Enc),
    ) {
        for i in 0..len {
            encode(i, self);
        }
    }

    fn append_only(&mut self, len: usize, mut encode: impl FnMut(usize, &mut Enc)) {
        for i in 0..len {
            encode(i, self);
        }
    }
}

/// Position-tracked byte decoder. Every read returns a [`CodecError`] on
/// truncation or malformed data instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, starting at byte 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with `what` at the current offset.
    pub fn fail<T>(&self, what: impl Into<String>) -> Result<T, CodecError> {
        Err(CodecError::new(self.pos, what))
    }

    /// Checks that the whole input was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::new(
                self.pos,
                format!("{} trailing bytes", self.remaining()),
            ))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new(
                self.pos,
                format!("need {n} bytes, {} remain", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a bool byte, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::new(self.pos - 1, format!("bad bool byte {b}"))),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.len_prefix()?;
        let at = self.pos;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::new(at, format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed raw byte vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.len_prefix()?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a sequence-length prefix, bounds-checked against the input so
    /// a corrupt length cannot trigger a huge allocation.
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let at = self.pos;
        let len = self.u64()?;
        if len > self.remaining() as u64 * 8 + 64 {
            return Err(CodecError::new(
                at,
                format!(
                    "implausible length {len} with {} bytes left",
                    self.remaining()
                ),
            ));
        }
        Ok(len as usize)
    }
}

/// Byte-stable save/load for one state type.
///
/// `save` must be a pure function of the value (no hash-map iteration
/// order, no addresses, no wall-clock), and `load(save(x)) == x` for every
/// reachable `x`.
pub trait Persist: Sized {
    /// Appends this value's encoding to `e`.
    fn save(&self, e: &mut Enc);
    /// Decodes one value from `d`.
    fn load(d: &mut Dec) -> Result<Self, CodecError>;
}

/// Declares a record: a struct encoded as its fields' own encodings,
/// concatenated in declaration order.
///
/// The struct is emitted exactly as written (attributes, docs, derives,
/// visibility), together with a [`Persist`] impl that calls each field's
/// `save` and `load` in declaration order. Prefixed with `counters;`, the
/// struct is a block of monotone counters and also gets a [`Counters`]
/// impl whose `since` differences every field, and a
/// [`ToJson`](crate::ToJson) impl: an object of the fields in declaration
/// order. Prefixed with `json;`, the struct is output only and gets the
/// `ToJson` impl alone, with no [`Persist`]. In those two forms a field
/// may end with `as "key"`, its JSON key (the field name otherwise); the
/// key changes no encoding.
///
/// ```
/// use agile_types::{Counters, Dec, Enc, Persist, ToJson};
///
/// agile_types::record! {
///     counters;
///     /// Hits and misses per way.
///     #[derive(Debug, Default, PartialEq, Eq)]
///     pub struct WayStats {
///         /// Lookups that hit.
///         pub hits: u64 as "hit",
///         /// Misses, by way.
///         pub misses: [u64; 2],
///     }
/// }
///
/// let now = WayStats { hits: 5, misses: [3, 4] };
/// let then = WayStats { hits: 1, misses: [1, 1] };
/// assert_eq!(now.since(&then), WayStats { hits: 4, misses: [2, 3] });
///
/// let mut e = Enc::new();
/// now.save(&mut e);
/// let bytes = e.into_bytes();
/// assert_eq!(bytes.len(), 3 * 8);
/// assert_eq!(WayStats::load(&mut Dec::new(&bytes)), Ok(now));
///
/// agile_types::record! {
///     json;
///     pub struct Row {
///         pub name: String,
///         pub stats: WayStats as "ways",
///     }
/// }
///
/// let row = Row { name: "l1".into(), stats: then };
/// let text = r#"{"name":"l1","ways":{"hit":1,"misses":[1,1]}}"#;
/// assert_eq!(row.to_json().render(), text);
/// ```
#[macro_export]
macro_rules! record {
    (
        counters;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty $(as $key:literal)?),* $(,)?
        }
    ) => {
        $crate::record! {
            $(#[$meta])*
            $vis struct $name {
                $($(#[$field_meta])* $field_vis $field: $ty),*
            }
        }

        impl $crate::Counters for $name {
            fn since(&self, earlier: &Self) -> Self {
                $name {
                    $($field: $crate::Counters::since(&self.$field, &earlier.$field),)*
                }
            }
        }

        $crate::record!(@to_json $name { $($field $($key)?),* });
    };
    (
        json;
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty $(as $key:literal)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        $crate::record!(@to_json $name { $($field $($key)?),* });
    };
    (@to_json $name:ident { $($field:ident $($key:literal)?),* }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj(::std::vec![$((
                    $crate::record!(@key $field $($key)?),
                    $crate::ToJson::to_json(&self.$field),
                ),)*])
            }
        }
    };
    (@key $field:ident) => { ::core::stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$field_meta])* $field_vis $field: $ty,)*
        }

        impl $crate::Persist for $name {
            fn save(&self, e: &mut $crate::Enc) {
                $($crate::Persist::save(&self.$field, e);)*
            }
            fn load(d: &mut $crate::Dec) -> ::core::result::Result<Self, $crate::CodecError> {
                ::core::result::Result::Ok($name {
                    $($field: <$ty as $crate::Persist>::load(d)?,)*
                })
            }
        }
    };
}

/// A block of monotone event counters, read at two instants.
pub trait Counters {
    /// What accumulated between `earlier` and `self`, counter by counter.
    #[must_use]
    fn since(&self, earlier: &Self) -> Self;
}

impl Counters for u64 {
    fn since(&self, earlier: &Self) -> Self {
        self - earlier
    }
}

impl<const N: usize> Counters for [u64; N] {
    fn since(&self, earlier: &Self) -> Self {
        std::array::from_fn(|i| self[i] - earlier[i])
    }
}

impl Persist for u8 {
    fn save(&self, e: &mut Enc) {
        e.u8(*self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.u8()
    }
}

impl Persist for u32 {
    fn save(&self, e: &mut Enc) {
        e.u32(*self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.u32()
    }
}

impl Persist for u64 {
    fn save(&self, e: &mut Enc) {
        e.u64(*self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.u64()
    }
}

impl Persist for usize {
    fn save(&self, e: &mut Enc) {
        e.u64(*self as u64);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(d.u64()? as usize)
    }
}

impl Persist for bool {
    fn save(&self, e: &mut Enc) {
        e.bool(*self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.bool()
    }
}

impl Persist for f64 {
    fn save(&self, e: &mut Enc) {
        e.f64(*self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.f64()
    }
}

impl Persist for String {
    fn save(&self, e: &mut Enc) {
        e.str(self);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        d.str()
    }
}

impl<T: Persist> Persist for Option<T> {
    fn save(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.save(e);
            }
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(d)?)),
            b => d.fail(format!("bad Option tag {b}")),
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn save(&self, e: &mut Enc) {
        e.seq(self.len());
        for v in self {
            v.save(e);
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let len = d.len_prefix()?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::load(d)?);
        }
        Ok(out)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
        self.1.save(e);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok((A::load(d)?, B::load(d)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
        self.1.save(e);
        self.2.save(e);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok((A::load(d)?, B::load(d)?, C::load(d)?))
    }
}

impl<A: Persist, B: Persist, C: Persist, D2: Persist> Persist for (A, B, C, D2) {
    fn save(&self, e: &mut Enc) {
        self.0.save(e);
        self.1.save(e);
        self.2.save(e);
        self.3.save(e);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok((A::load(d)?, B::load(d)?, C::load(d)?, D2::load(d)?))
    }
}

impl<const N: usize, T: Persist + Copy + Default> Persist for [T; N] {
    fn save(&self, e: &mut Enc) {
        for v in self {
            v.save(e);
        }
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(d)?;
        }
        Ok(out)
    }
}

macro_rules! persist_u32_newtype {
    ($($ty:ident),*) => {$(
        impl Persist for $ty {
            fn save(&self, e: &mut Enc) {
                e.u32(self.raw());
            }
            fn load(d: &mut Dec) -> Result<Self, CodecError> {
                Ok($ty::new(d.u32()?))
            }
        }
    )*};
}

persist_u32_newtype!(VmId, ProcessId, Asid);

macro_rules! persist_u64_newtype {
    ($($ty:ident),*) => {$(
        impl Persist for $ty {
            fn save(&self, e: &mut Enc) {
                e.u64(self.raw());
            }
            fn load(d: &mut Dec) -> Result<Self, CodecError> {
                Ok($ty::new(d.u64()?))
            }
        }
    )*};
}

persist_u64_newtype!(
    GuestVirtAddr,
    GuestPhysAddr,
    HostPhysAddr,
    GuestFrame,
    HostFrame
);

impl Persist for Pte {
    fn save(&self, e: &mut Enc) {
        e.u64(self.raw());
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(Pte::from_raw(d.u64()?))
    }
}

impl Persist for PteFlags {
    fn save(&self, e: &mut Enc) {
        e.u64(self.bits());
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        // Round-trip through Pte: flags are the non-frame bits of a PTE.
        Ok(Pte::from_raw(d.u64()?).flags())
    }
}

impl Persist for Level {
    fn save(&self, e: &mut Enc) {
        e.u8(self.number());
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        let n = d.u8()?;
        Level::from_number(n).ok_or_else(|| CodecError::new(d.pos() - 1, format!("bad level {n}")))
    }
}

impl Persist for PageSize {
    fn save(&self, e: &mut Enc) {
        e.u8(self.shift() as u8);
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        match d.u8()? {
            12 => Ok(PageSize::Size4K),
            21 => Ok(PageSize::Size2M),
            30 => Ok(PageSize::Size1G),
            s => Err(CodecError::new(d.pos() - 1, format!("bad page shift {s}"))),
        }
    }
}

impl Persist for SplitMix64 {
    fn save(&self, e: &mut Enc) {
        e.u64(self.state());
    }
    fn load(d: &mut Dec) -> Result<Self, CodecError> {
        Ok(SplitMix64::from_state(d.u64()?))
    }
}

/// Saves a map's entries in key order. Taking a `BTreeMap` makes that
/// order a property of the type, never of hash-map iteration.
pub fn save_sorted_map<K: Persist, V: Persist>(e: &mut Enc, map: &BTreeMap<K, V>) {
    e.seq(map.len());
    for (k, v) in map {
        k.save(e);
        v.save(e);
    }
}

/// Loads a `(key, value)` entry list written by [`save_sorted_map`].
pub fn load_map_entries<K: Persist, V: Persist>(d: &mut Dec) -> Result<Vec<(K, V)>, CodecError> {
    let len = d.len_prefix()?;
    let mut out = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        out.push((K::load(d)?, V::load(d)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        0xabu8.save(&mut e);
        0xdead_beefu32.save(&mut e);
        u64::MAX.save(&mut e);
        true.save(&mut e);
        false.save(&mut e);
        "héllo".to_string().save(&mut e);
        (-0.5f64).save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(u8::load(&mut d).unwrap(), 0xab);
        assert_eq!(u32::load(&mut d).unwrap(), 0xdead_beef);
        assert_eq!(u64::load(&mut d).unwrap(), u64::MAX);
        assert!(bool::load(&mut d).unwrap());
        assert!(!bool::load(&mut d).unwrap());
        assert_eq!(String::load(&mut d).unwrap(), "héllo");
        assert_eq!(f64::load(&mut d).unwrap(), -0.5);
        d.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        let v: Vec<(u64, Option<String>)> = vec![(1, None), (2, Some("x".into()))];
        let mut e = Enc::new();
        v.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(<Vec<(u64, Option<String>)>>::load(&mut d).unwrap(), v);
        d.finish().unwrap();
    }

    #[test]
    fn vocabulary_types_round_trip() {
        let mut e = Enc::new();
        Asid::new(7).save(&mut e);
        VmId::new(3).save(&mut e);
        ProcessId::new(11).save(&mut e);
        GuestFrame::new(0x1234).save(&mut e);
        HostFrame::new(0x9999).save(&mut e);
        Level::L3.save(&mut e);
        PageSize::Size2M.save(&mut e);
        Pte::leaf(0x42, true, false).save(&mut e);
        SplitMix64::from_state(0xfeed).save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(Asid::load(&mut d).unwrap(), Asid::new(7));
        assert_eq!(VmId::load(&mut d).unwrap(), VmId::new(3));
        assert_eq!(ProcessId::load(&mut d).unwrap(), ProcessId::new(11));
        assert_eq!(GuestFrame::load(&mut d).unwrap(), GuestFrame::new(0x1234));
        assert_eq!(HostFrame::load(&mut d).unwrap(), HostFrame::new(0x9999));
        assert_eq!(Level::load(&mut d).unwrap(), Level::L3);
        assert_eq!(PageSize::load(&mut d).unwrap(), PageSize::Size2M);
        assert_eq!(Pte::load(&mut d).unwrap(), Pte::leaf(0x42, true, false));
        assert_eq!(SplitMix64::load(&mut d).unwrap().state(), 0xfeed);
        d.finish().unwrap();
    }

    #[test]
    fn sorted_map_is_order_independent() {
        let a: BTreeMap<u32, u64> = (0..64).map(|i| (i, u64::from(i) * 3)).collect();
        let b: BTreeMap<u32, u64> = (0..64).rev().map(|i| (i, u64::from(i) * 3)).collect();
        let mut ea = Enc::new();
        save_sorted_map(&mut ea, &a);
        let mut eb = Enc::new();
        save_sorted_map(&mut eb, &b);
        let bytes = ea.into_bytes();
        assert_eq!(bytes, eb.into_bytes());
        let mut d = Dec::new(&bytes);
        let entries = load_map_entries::<u32, u64>(&mut d).unwrap();
        assert_eq!(entries, a.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        "truncate me".to_string().save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..bytes.len() - 3]);
        assert!(String::load(&mut d).is_err());
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut d = Dec::new(&[9]);
        assert!(<Option<u8>>::load(&mut d).is_err());
        let mut d = Dec::new(&[7]);
        assert!(bool::load(&mut d).is_err());
        let mut d = Dec::new(&[0]);
        assert!(Level::load(&mut d).is_err());
    }

    crate::record! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Inner {
            a: u32,
            flag: bool,
        }
    }

    crate::record! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Sample {
            n: u64,
            small: u32,
            on: bool,
            maybe: Option<u64>,
            name: String,
            arr: [u64; 3],
            inner: Inner,
        }
    }

    fn sample() -> Sample {
        Sample {
            n: 0x0102_0304_0506_0708,
            small: 0xaabb_ccdd,
            on: true,
            maybe: Some(42),
            name: "rec".into(),
            arr: [7, 8, 9],
            inner: Inner { a: 5, flag: false },
        }
    }

    /// The sample's bytes written primitive by primitive, and the offset
    /// at which each field starts.
    fn sample_by_hand() -> (Vec<u8>, Vec<usize>) {
        let mut e = Enc::new();
        let mut starts = vec![0];
        e.u64(0x0102_0304_0506_0708);
        starts.push(e.len());
        e.u32(0xaabb_ccdd);
        starts.push(e.len());
        e.bool(true);
        starts.push(e.len());
        e.u8(1);
        e.u64(42);
        starts.push(e.len());
        e.str("rec");
        starts.push(e.len());
        for v in [7, 8, 9] {
            e.u64(v);
        }
        starts.push(e.len());
        e.u32(5);
        e.bool(false);
        (e.into_bytes(), starts)
    }

    #[test]
    fn a_record_is_its_fields_in_declaration_order() {
        let mut e = Enc::new();
        sample().save(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(bytes, sample_by_hand().0);
        let mut d = Dec::new(&bytes);
        assert_eq!(Sample::load(&mut d), Ok(sample()));
        d.finish().unwrap();
    }

    #[test]
    fn a_cut_record_fails_at_its_first_missing_field() {
        let (bytes, starts) = sample_by_hand();
        for at in starts {
            let err = Sample::load(&mut Dec::new(&bytes[..at])).unwrap_err();
            assert_eq!(err.at, at, "{err}");
        }
    }

    crate::record! {
        counters;
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Leaf {
            hits: u64,
            ways: [u64; 2],
        }
    }

    crate::record! {
        counters;
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Block {
            total: u64,
            kinds: [u64; 3],
            leaf: Leaf,
        }
    }

    #[test]
    fn counters_since_subtracts_every_field() {
        let now = Block {
            total: 10,
            kinds: [5, 6, 7],
            leaf: Leaf {
                hits: 4,
                ways: [3, 2],
            },
        };
        let earlier = Block {
            total: 1,
            kinds: [1, 2, 3],
            leaf: Leaf {
                hits: 4,
                ways: [1, 0],
            },
        };
        let expected = Block {
            total: 9,
            kinds: [4, 4, 4],
            leaf: Leaf {
                hits: 0,
                ways: [2, 2],
            },
        };
        assert_eq!(now.since(&earlier), expected);
    }

    crate::record! {
        counters;
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct KeyedBlock {
            total: u64 as "sum",
            kinds: [u64; 3],
            leaf: Leaf as "inner",
        }
    }

    crate::record! {
        json;
        struct Row {
            name: String as "label",
            ratio: f64,
            present: Option<u64>,
            absent: Option<u64>,
            list: Vec<u32>,
            block: Block,
        }
    }

    const LEAF: Leaf = Leaf {
        hits: 4,
        ways: [3, 2],
    };

    #[test]
    fn records_render_their_fields_in_declaration_order_under_their_keys() {
        use crate::ToJson;
        let block = Block {
            total: 10,
            kinds: [5, 6, 7],
            leaf: LEAF,
        };
        assert_eq!(
            block.to_json().render(),
            r#"{"total":10,"kinds":[5,6,7],"leaf":{"hits":4,"ways":[3,2]}}"#
        );
        let keyed = KeyedBlock {
            total: 10,
            kinds: [5, 6, 7],
            leaf: LEAF,
        };
        assert_eq!(
            keyed.to_json().render(),
            r#"{"sum":10,"kinds":[5,6,7],"inner":{"hits":4,"ways":[3,2]}}"#
        );
        let row = Row {
            name: "r".into(),
            ratio: 0.5,
            present: Some(3),
            absent: None,
            list: vec![1, 2],
            block,
        };
        assert_eq!(
            row.to_json().render(),
            r#"{"label":"r","ratio":0.5,"present":3,"absent":null,"list":[1,2],"#.to_string()
                + r#""block":{"total":10,"kinds":[5,6,7],"leaf":{"hits":4,"ways":[3,2]}}}"#
        );
    }

    #[test]
    fn json_keys_change_no_persist_bytes() {
        let plain = Block {
            total: 10,
            kinds: [5, 6, 7],
            leaf: LEAF,
        };
        let keyed = KeyedBlock {
            total: 10,
            kinds: [5, 6, 7],
            leaf: LEAF,
        };
        let (mut a, mut b) = (Enc::new(), Enc::new());
        plain.save(&mut a);
        keyed.save(&mut b);
        let bytes = b.into_bytes();
        assert_eq!(bytes, a.into_bytes());
        assert_eq!(KeyedBlock::load(&mut Dec::new(&bytes)), Ok(keyed));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(<Vec<u64>>::load(&mut d).is_err());
    }
}
