//! [`Persist`]: the one bidirectional snapshot codec.
//!
//! A type implements `Persist` once and both directions follow: `save`
//! appends its fields to a [`SnapWriter`], `load` reads them back *in
//! place*, so a component freshly built from its configuration keeps
//! every field the snapshot does not carry (config-derived tables,
//! caches that are recomputed on resume).
//!
//! The rules every snapshot needs live here, once, instead of at each
//! call site:
//!
//! * hash maps and sets are written in sorted key order, so identical
//!   state always produces identical bytes;
//! * every decoded length goes through [`SnapReader::seq_len`], so a
//!   corrupt length cannot force a huge allocation;
//! * maps and sets reject duplicate keys, and narrowing reads
//!   ([`Widen`]) reject out-of-range values, with
//!   [`SnapError::Corrupt`] naming the field.
//!
//! Plain field-list types use [`persist!`](crate::persist) and name each
//! field exactly once; tag-dispatched enums use
//! [`persist_enum!`](crate::persist_enum). Hand-written impls remain only
//! where a load checks the bytes against the live configuration, and
//! those call [`SnapWriter::put`] / [`SnapReader::get`] per field.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

use crate::wire::{SnapError, SnapReader, SnapWriter};

/// A snapshot-serializable value.
pub trait Persist {
    /// Append this value's snapshot bytes.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrite this value from snapshot bytes. `what` names the value
    /// in the error of a failed read.
    ///
    /// # Errors
    /// [`SnapError`] on truncated, corrupt, or mismatched bytes. On
    /// error `self` may be partially overwritten; callers discard it.
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError>;
}

impl SnapWriter {
    /// Append `v`'s snapshot bytes.
    pub fn put<T: Persist + ?Sized>(&mut self, v: &T) {
        v.save(self);
    }

    /// Append a length-prefixed sequence of borrowed items: the same
    /// bytes as a `Vec` of them, without collecting one.
    pub fn put_seq<'a, T: Persist + 'a>(&mut self, items: impl ExactSizeIterator<Item = &'a T>) {
        self.usize(items.len());
        for item in items {
            item.save(self);
        }
    }
}

impl SnapReader<'_> {
    /// Decode a fresh `T`.
    ///
    /// # Errors
    /// The value's [`SnapError`].
    pub fn get<T: Persist + Default>(&mut self, what: &'static str) -> Result<T, SnapError> {
        let mut v = T::default();
        v.load(self, what)?;
        Ok(v)
    }

    /// Decode into an existing value in place (a slice keeps its length
    /// and rejects a snapshot of a different one).
    ///
    /// # Errors
    /// The value's [`SnapError`].
    pub fn get_into<T: Persist + ?Sized>(
        &mut self,
        v: &mut T,
        what: &'static str,
    ) -> Result<(), SnapError> {
        v.load(self, what)
    }
}

macro_rules! primitive {
    ($($t:ident),*) => {$(
        impl Persist for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }
            fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
                *self = r.$t(what)?;
                Ok(())
            }
        }
    )*};
}
primitive!(u8, u16, u32, u64, usize, bool, f64);

impl Persist for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        *self = r.str(what)?.to_owned();
        Ok(())
    }
}

/// A presence byte, then the value.
impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        *self = if r.bool(what)? {
            Some(r.get(what)?)
        } else {
            None
        };
        Ok(())
    }
}

/// Fixed-shape state: a length prefix, then each element. Loading keeps
/// the slice's length (set by the live configuration) and rejects a
/// snapshot of any other length.
impl<T: Persist> Persist for [T] {
    fn save(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter());
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        let at = r.pos();
        if r.seq_len(what)? != self.len() {
            return Err(SnapError::Corrupt { what, at });
        }
        self.iter_mut().try_for_each(|v| v.load(r, what))
    }
}

/// Compile-time length: the elements only, no prefix.
impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.save(w));
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.load(r, what))
    }
}

/// Read a length-prefixed sequence into `c`: reserve room for the
/// checked length, then `insert` each decoded element (`false` marks a
/// duplicate, which is corrupt) — the one decode loop every growable
/// container shares.
fn read_seq<C, T: Persist + Default>(
    r: &mut SnapReader<'_>,
    what: &'static str,
    c: &mut C,
    reserve: fn(&mut C, usize),
    insert: fn(&mut C, T) -> bool,
) -> Result<(), SnapError> {
    let n = r.seq_len(what)?;
    reserve(c, n);
    for _ in 0..n {
        let at = r.pos();
        if !insert(c, r.get(what)?) {
            return Err(SnapError::Corrupt { what, at });
        }
    }
    Ok(())
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        self[..].save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(r, what, self, Vec::reserve, |c, v| {
            c.push(v);
            true
        })
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter());
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(r, what, self, VecDeque::reserve, |c, v| {
            c.push_back(v);
            true
        })
    }
}

/// Maps are `(key, value)` pairs in ascending key order; a duplicate
/// key is corrupt.
impl<K: Persist + Default + Ord, V: Persist + Default> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(
            r,
            what,
            self,
            |_, _| {},
            |c, (k, v)| c.insert(k, v).is_none(),
        )
    }
}

impl<K: Persist + Default + Ord + Hash, V: Persist + Default> Persist for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(r, what, self, HashMap::reserve, |c, (k, v)| {
            c.insert(k, v).is_none()
        })
    }
}

/// Sets are their elements in ascending order; a duplicate is corrupt.
impl<T: Persist + Default + Ord> Persist for BTreeSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.put_seq(self.iter());
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(r, what, self, |_, _| {}, BTreeSet::insert)
    }
}

impl<T: Persist + Default + Ord + Hash> Persist for HashSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        w.put_seq(items.into_iter());
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        read_seq(r, what, self, HashSet::reserve, HashSet::insert)
    }
}

/// A pair is its two values back to back (map entries decode as pairs).
impl<A: Persist, B: Persist> Persist for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(&mut self, r: &mut SnapReader<'_>, what: &'static str) -> Result<(), SnapError> {
        self.0.load(r, what)?;
        self.1.load(r, what)
    }
}

/// A value stored at a wider wire type `W` than its in-memory type (a
/// `u32` coordinate written as `u64`, say). Reading narrows back and
/// rejects a value that does not fit.
pub trait Widen<W>: Sized {
    fn widen(&self) -> W;
    fn narrow(wire: W) -> Option<Self>;
}

macro_rules! widen_to_u64 {
    ($($t:ty),*) => {$(
        impl Widen<u64> for $t {
            fn widen(&self) -> u64 {
                u64::from(*self)
            }
            fn narrow(wire: u64) -> Option<Self> {
                Self::try_from(wire).ok()
            }
        }
    )*};
}
widen_to_u64!(u32, u64);

impl<T: Widen<W>, W> Widen<Option<W>> for Option<T> {
    fn widen(&self) -> Option<W> {
        self.as_ref().map(T::widen)
    }
    fn narrow(wire: Option<W>) -> Option<Self> {
        match wire {
            Some(w) => T::narrow(w).map(Some),
            None => Some(None),
        }
    }
}

impl<A: Widen<WA>, B: Widen<WB>, WA, WB> Widen<(WA, WB)> for (A, B) {
    fn widen(&self) -> (WA, WB) {
        (self.0.widen(), self.1.widen())
    }
    fn narrow(wire: (WA, WB)) -> Option<Self> {
        Some((A::narrow(wire.0)?, B::narrow(wire.1)?))
    }
}

impl<K: Clone + Eq + Hash, T: Widen<W>, W> Widen<HashMap<K, W>> for HashMap<K, T> {
    fn widen(&self) -> HashMap<K, W> {
        self.iter().map(|(k, v)| (k.clone(), v.widen())).collect()
    }
    fn narrow(wire: HashMap<K, W>) -> Option<Self> {
        wire.into_iter()
            .map(|(k, w)| Some((k, T::narrow(w)?)))
            .collect()
    }
}

/// Save `v` at wire type `W`.
pub fn put_wide<W: Persist, T: Widen<W>>(w: &mut SnapWriter, v: &T) {
    w.put(&v.widen());
}

/// Read a `W` and narrow it to the field's type.
///
/// # Errors
/// [`SnapError::Corrupt`] naming `what` if the value does not fit.
pub fn get_wide<W: Persist + Default, T: Widen<W>>(
    r: &mut SnapReader<'_>,
    what: &'static str,
) -> Result<T, SnapError> {
    let at = r.pos();
    T::narrow(r.get(what)?).ok_or(SnapError::Corrupt { what, at })
}

/// Implement [`Persist`] for a plain field-list struct, naming each
/// field once:
///
/// ```
/// # use itesp_snap::persist;
/// #[derive(Default)]
/// struct Bus { free_at: u64, last_rank: Option<u32>, credits: Vec<u16> }
/// persist!(Bus, "DBUS", 1 { free_at, last_rank as Option<u64>, [credits] });
/// ```
///
/// * `"TAG", version` (optional) frames the fields in a section;
/// * `field` saves and loads the field through its own `Persist` (a
///   tuple struct names its fields `0`, `1`, ...);
/// * `field as W` stores it at the wider wire type `W` ([`Widen`]);
/// * `[field]` loads a fixed-shape `Vec` in place, rejecting a snapshot
///   of a different length;
/// * a trailing `check path` runs `fn(&Self) -> Result<(), &'static str>`
///   after a load and turns `Err(what)` into [`SnapError::Corrupt`].
#[macro_export]
macro_rules! persist {
    ($ty:ident $(, $tag:literal, $ver:literal)? { $($fields:tt)* } $(check $check:path)?) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                $(w.section($tag, $ver);)?
                $crate::__persist_fields!(save $ty, self, w; $($fields)*);
            }
            fn load(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
                _what: &'static str,
            ) -> ::std::result::Result<(), $crate::SnapError> {
                $(r.section($tag, $ver)?;)?
                $crate::__persist_fields!(load $ty, self, r; $($fields)*);
                $(
                    if let Err(what) = $check(self) {
                        return Err($crate::SnapError::Corrupt { what, at: r.pos() });
                    }
                )?
                Ok(())
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __persist_fields {
    ($dir:ident $ty:ident, $s:ident, $io:ident;) => {};
    (save $ty:ident, $s:ident, $w:ident; [$f:tt] $(, $($rest:tt)*)?) => {
        $w.put(&$s.$f[..]);
        $crate::__persist_fields!(save $ty, $s, $w; $($($rest)*)?);
    };
    (load $ty:ident, $s:ident, $r:ident; [$f:tt] $(, $($rest:tt)*)?) => {
        $r.get_into(&mut $s.$f[..], concat!(stringify!($ty), ".", stringify!($f), " count"))?;
        $crate::__persist_fields!(load $ty, $s, $r; $($($rest)*)?);
    };
    (save $ty:ident, $s:ident, $w:ident; $f:tt as $wire:ty $(, $($rest:tt)*)?) => {
        $crate::put_wide::<$wire, _>($w, &$s.$f);
        $crate::__persist_fields!(save $ty, $s, $w; $($($rest)*)?);
    };
    (load $ty:ident, $s:ident, $r:ident; $f:tt as $wire:ty $(, $($rest:tt)*)?) => {
        $s.$f = $crate::get_wide::<$wire, _>($r, concat!(stringify!($ty), ".", stringify!($f)))?;
        $crate::__persist_fields!(load $ty, $s, $r; $($($rest)*)?);
    };
    (save $ty:ident, $s:ident, $w:ident; $f:tt $(, $($rest:tt)*)?) => {
        $w.put(&$s.$f);
        $crate::__persist_fields!(save $ty, $s, $w; $($($rest)*)?);
    };
    (load $ty:ident, $s:ident, $r:ident; $f:tt $(, $($rest:tt)*)?) => {
        $r.get_into(&mut $s.$f, concat!(stringify!($ty), ".", stringify!($f)))?;
        $crate::__persist_fields!(load $ty, $s, $r; $($($rest)*)?);
    };
}

/// Implement [`Persist`] for an enum as a `u8` tag followed by the
/// variant's fields; an unknown tag is [`SnapError::Corrupt`]. Every
/// variant is written with braces (`Done {}` for a unit variant):
///
/// ```
/// # use itesp_snap::persist_enum;
/// enum Residence { Live { node: usize }, Migrating { from: usize, to: usize }, Done }
/// persist_enum!(Residence {
///     0 => Live { node },
///     1 => Migrating { from, to },
///     2 => Done {},
/// });
/// ```
#[macro_export]
macro_rules! persist_enum {
    ($ty:ident { $($tag:literal => $variant:ident { $($f:ident),* $(,)? }),+ $(,)? }) => {
        impl $crate::Persist for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($ty::$variant { $($f),* } => {
                        w.u8($tag);
                        $(w.put($f);)*
                    })+
                }
            }
            fn load(
                &mut self,
                r: &mut $crate::SnapReader<'_>,
                what: &'static str,
            ) -> ::std::result::Result<(), $crate::SnapError> {
                let at = r.pos();
                *self = match r.u8(what)? {
                    $($tag => $ty::$variant {
                        $($f: r.get(concat!(stringify!($ty), "::", stringify!($variant), ".", stringify!($f)))?),*
                    },)+
                    _ => return Err($crate::SnapError::Corrupt { what, at }),
                };
                Ok(())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &impl Persist) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put(v);
        w.into_bytes()
    }

    fn round_trip<T: Persist + Default + PartialEq + std::fmt::Debug>(v: &T) {
        let b = bytes(v);
        let mut r = SnapReader::new(&b);
        assert_eq!(&r.get::<T>("value").unwrap(), v);
        r.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&vec![1u64, 2, 3]);
        round_trip(&Some(String::from("x")));
        round_trip(&VecDeque::from([(1u64, true), (2, false)]));
        round_trip(&[7u32; 3]);
        round_trip(&BTreeSet::from([5u64, 1]));
        round_trip(&HashMap::from([((1u32, 2u32), 3u8), ((0, 9), 4)]));
    }

    #[test]
    fn hash_containers_write_sorted_bytes() {
        let m: HashMap<u64, u64> = (0..64).map(|k| (k * 7919 % 64, k)).collect();
        let sorted: BTreeMap<u64, u64> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(bytes(&m), bytes(&sorted));
        let s: HashSet<u64> = (0..64).collect();
        let sorted: BTreeSet<u64> = (0..64).collect();
        assert_eq!(bytes(&s), bytes(&sorted));
    }

    #[test]
    fn matches_the_hand_written_wire_format() {
        let mut w = SnapWriter::new();
        w.bool(true);
        w.u64(9);
        w.str("ab");
        w.usize(2);
        w.u64(4);
        w.u64(5);
        let v: ((Option<u64>, String), Vec<u64>) = ((Some(9), "ab".into()), vec![4, 5]);
        assert_eq!(bytes(&v), w.into_bytes());
    }

    #[test]
    fn duplicate_keys_and_fixed_lengths_are_corrupt() {
        let mut w = SnapWriter::new();
        w.put_seq([3u64, 3].iter());
        let b = w.into_bytes();
        let err = SnapReader::new(&b).get::<BTreeSet<u64>>("set").unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { what: "set", .. }));

        let mut fixed = [0u64; 3];
        let err = SnapReader::new(&b)
            .get_into(&mut fixed[..], "fixed")
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { what: "fixed", .. }));
    }

    #[test]
    fn narrowing_rejects_out_of_range_values() {
        let b = bytes(&Some(u64::from(u32::MAX) + 1));
        let err = get_wide::<Option<u64>, Option<u32>>(&mut SnapReader::new(&b), "row");
        assert!(matches!(err, Err(SnapError::Corrupt { what: "row", .. })));
        let b = bytes(&Some(7u64));
        let ok = get_wide::<Option<u64>, Option<u32>>(&mut SnapReader::new(&b), "row");
        assert_eq!(ok, Ok(Some(7)));
    }

    #[derive(Debug, Default, PartialEq)]
    struct Pair {
        a: u32,
        b: Vec<bool>,
        c: u16,
    }
    crate::persist!(Pair, "PAIR", 2 { a as u64, [b], c } check Pair::check);

    impl Pair {
        fn check(&self) -> Result<(), &'static str> {
            if self.c < 100 {
                Ok(())
            } else {
                Err("pair c out of range")
            }
        }
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot {},
        Line { len: u64 },
    }
    crate::persist_enum!(Shape {
        0 => Dot {},
        1 => Line { len },
    });

    #[test]
    fn macros_frame_list_and_check_fields() {
        let p = Pair {
            a: 7,
            b: vec![true, false],
            c: 3,
        };
        let b = bytes(&p);
        let mut w = SnapWriter::new();
        w.section("PAIR", 2);
        w.u64(7);
        w.put(&vec![true, false]);
        w.u16(3);
        assert_eq!(b, w.into_bytes());

        let mut q = Pair {
            b: vec![false; 2],
            ..Pair::default()
        };
        SnapReader::new(&b).get_into(&mut q, "pair").unwrap();
        assert_eq!(q, p);
        // A fixed-shape field of another length is rejected by name.
        let mut short = Pair::default();
        let err = SnapReader::new(&b)
            .get_into(&mut short, "pair")
            .unwrap_err();
        assert!(matches!(
            err,
            SnapError::Corrupt {
                what: "Pair.b count",
                ..
            }
        ));
        // The check hook runs after the fields load.
        let bad = bytes(&Pair {
            a: 0,
            b: vec![true, false],
            c: 100,
        });
        let err = SnapReader::new(&bad).get_into(&mut q, "pair").unwrap_err();
        assert!(matches!(
            err,
            SnapError::Corrupt {
                what: "pair c out of range",
                ..
            }
        ));

        let mut s = Shape::Dot {};
        let b = bytes(&Shape::Line { len: 4 });
        SnapReader::new(&b).get_into(&mut s, "shape").unwrap();
        assert_eq!(s, Shape::Line { len: 4 });
        let err = SnapReader::new(&[9]).get_into(&mut s, "shape").unwrap_err();
        assert!(matches!(err, SnapError::Corrupt { what: "shape", .. }));
    }
}
