//! Binary frame codec: length-prefixed frames and the primitives of the
//! compact encoding both sides of the protocol share (DESIGN.md §7.7).
//! A record's layout lives in its entry of the record table in
//! [`crate::codec`], which derives both its binary and its SOAP codec;
//! the `put_*`/`get_*` functions for files, file specs and predicates
//! here forward to it.
//!
//! Everything is little-endian. Strings are `u32` length + UTF-8 bytes;
//! options are a presence byte; sequences are a `u32` count. The decoder
//! is a bounds-checked cursor: every length read is validated against
//! the bytes actually remaining **before** any allocation, so a hostile
//! length prefix cannot make the server allocate or block — it just
//! produces a [`FrameError`] (fuzz-tested in `bin_fuzz.rs`).

use std::io::{self, Read, Write};

use mcs::{AttrPredicate, Credential, FileSpec, LogicalFile, ObjectRef};
use relstore::{Date, DateTime, Time, Value};

use crate::codec::Record;

/// Connection preamble: magic + protocol version, echoed by the server.
pub const MAGIC: [u8; 4] = *b"MCSB";
/// Protocol version byte sent (and required) in the preamble.
pub const VERSION: u8 = 1;
/// Hard cap on one frame's length prefix; anything larger is rejected
/// before allocation (the binary twin of soapstack's `MAX_BODY_BYTES`).
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// Smallest meaningful frame body: a request needs tag(4)+op(1)+flags(1),
/// a response tag(4)+status(1); 5 is the shared floor.
pub const MIN_FRAME: u32 = 5;

/// Request-flags bit: a durability-override byte follows the flags.
pub const FLAG_DURABILITY: u8 = 0b0000_0001;
/// Request-flags bit: run the call with the read cache bypassed.
pub const FLAG_CACHE_BYPASS: u8 = 0b0000_0010;

/// Response status byte: the payload is the op's result.
pub const STATUS_OK: u8 = 0;
/// Response status byte: the payload is `str code` + `str message` — the
/// same structured fault the SOAP front end would have sent.
pub const STATUS_FAULT: u8 = 1;

/// A malformed frame body (bad length, bad tag byte, truncated field…).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError(pub String);

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad frame: {}", self.0)
    }
}

impl std::error::Error for FrameError {}

fn bad(msg: impl Into<String>) -> FrameError {
    FrameError(msg.into())
}

/// Decode result alias.
pub type Result<T> = std::result::Result<T, FrameError>;

// ---------- frame transport ----------

/// Write one length-prefixed frame. A body over [`MAX_FRAME`] is refused
/// with `InvalidInput` before a byte is written: the peer's
/// [`read_frame`] would refuse its length and drop the connection.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one length-prefixed frame. `Ok(None)` is a clean close (EOF on a
/// frame boundary); EOF mid-frame or a length prefix outside
/// `[MIN_FRAME, MAX_FRAME]` is an error — the caller must drop the
/// connection, because the stream offset is no longer trustworthy.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len4 = [0u8; 4];
    // Read the first prefix byte separately so EOF *between* frames is a
    // clean close while EOF *inside* a frame stays an error.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len4[0] = first[0];
    r.read_exact(&mut len4[1..])?;
    let len = u32::from_le_bytes(len4);
    if !(MIN_FRAME..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range [{MIN_FRAME}, {MAX_FRAME}]"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Send the `MCSB` + version preamble.
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])
}

/// Read and validate the peer's preamble.
pub fn read_preamble(r: &mut impl Read) -> io::Result<()> {
    let mut buf = [0u8; 5];
    r.read_exact(&mut buf)?;
    if buf[..4] != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad protocol magic"));
    }
    if buf[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol version {}", buf[4]),
        ));
    }
    Ok(())
}

// ---------- encoder primitives ----------

/// Append a `u8`.
pub fn put_u8(b: &mut Vec<u8>, v: u8) {
    b.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i32`.
pub fn put_i32(b: &mut Vec<u8>, v: i32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(b: &mut Vec<u8>, v: i64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a bool as one byte.
pub fn put_bool(b: &mut Vec<u8>, v: bool) {
    b.push(v as u8);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Append a datetime as seconds since the Unix epoch.
pub fn put_datetime(b: &mut Vec<u8>, dt: &DateTime) {
    put_i64(b, dt.seconds_from_epoch());
}

// ---------- bounds-checked decoder ----------

/// A bounds-checked cursor over one frame body. Every accessor validates
/// the remaining length first; none panics or over-allocates on hostile
/// input.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Cursor over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole frame has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(bad(format!("truncated: needed {n} bytes, have {}", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(format!("bad bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string. The length is validated
    /// against the remaining bytes before anything is copied.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(bad(format!("string length {len} exceeds {} remaining", self.remaining())));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    /// Read a datetime (seconds since the Unix epoch).
    pub fn datetime(&mut self) -> Result<DateTime> {
        Ok(DateTime::from_seconds_from_epoch(self.i64()?))
    }

    /// Read a sequence count, validated against the remaining bytes (a
    /// count can never exceed one byte per element).
    pub fn seq_len(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(bad(format!("sequence count {n} exceeds {} remaining bytes", self.remaining())));
        }
        Ok(n)
    }

    /// Consume and return everything left in the frame.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Require the frame to be fully consumed (trailing garbage is an
    /// encoding bug or an attack, not padding).
    pub fn finish(&self) -> Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(bad(format!("{} trailing bytes", self.remaining())))
        }
    }
}

// ---------- typed values ----------

/// Append a typed [`Value`] (one tag byte + payload).
pub fn put_value(b: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(b, 0),
        Value::Int(i) => {
            put_u8(b, 1);
            put_i64(b, *i);
        }
        Value::Float(x) => {
            put_u8(b, 2);
            put_u64(b, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(b, 3);
            put_str(b, s);
        }
        Value::Bool(x) => {
            put_u8(b, 4);
            put_bool(b, *x);
        }
        Value::Date(d) => {
            put_u8(b, 5);
            put_i32(b, d.year);
            put_u8(b, d.month);
            put_u8(b, d.day);
        }
        Value::Time(t) => {
            put_u8(b, 6);
            put_u8(b, t.hour);
            put_u8(b, t.minute);
            put_u8(b, t.second);
        }
        Value::DateTime(dt) => {
            put_u8(b, 7);
            put_datetime(b, dt);
        }
    }
}

/// Decode a typed [`Value`].
pub fn get_value(r: &mut Reader) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(r.i64()?),
        2 => Value::Float(f64::from_bits(r.u64()?)),
        3 => Value::Str(r.str()?.into()),
        4 => Value::Bool(r.bool()?),
        5 => {
            let (y, m, d) = (r.i32()?, r.u8()?, r.u8()?);
            Value::Date(Date::new(y, m, d).map_err(|e| bad(e.to_string()))?)
        }
        6 => {
            let (h, m, s) = (r.u8()?, r.u8()?, r.u8()?);
            Value::Time(Time::new(h, m, s).map_err(|e| bad(e.to_string()))?)
        }
        7 => Value::DateTime(r.datetime()?),
        other => return Err(bad(format!("unknown value tag {other}"))),
    })
}

// ---------- credentials, references, lists ----------

/// Encode a [`Credential`].
pub fn put_credential(b: &mut Vec<u8>, c: &Credential) {
    put_str(b, &c.dn);
    put_u32(b, c.groups.len() as u32);
    for g in &c.groups {
        put_str(b, g);
    }
}

/// Decode a [`Credential`].
pub fn get_credential(r: &mut Reader) -> Result<Credential> {
    let dn = r.str()?;
    let n = r.seq_len()?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(r.str()?);
    }
    Ok(Credential { dn, groups })
}

/// Encode an [`ObjectRef`].
pub fn put_objref(b: &mut Vec<u8>, o: &ObjectRef) {
    match o {
        ObjectRef::File(n) => {
            put_u8(b, 0);
            put_str(b, n);
        }
        ObjectRef::FileVersion(n, v) => {
            put_u8(b, 1);
            put_str(b, n);
            put_i64(b, *v);
        }
        ObjectRef::Collection(n) => {
            put_u8(b, 2);
            put_str(b, n);
        }
        ObjectRef::View(n) => {
            put_u8(b, 3);
            put_str(b, n);
        }
        ObjectRef::Service => put_u8(b, 4),
    }
}

/// Decode an [`ObjectRef`].
pub fn get_objref(r: &mut Reader) -> Result<ObjectRef> {
    Ok(match r.u8()? {
        0 => ObjectRef::File(r.str()?),
        1 => {
            let n = r.str()?;
            ObjectRef::FileVersion(n, r.i64()?)
        }
        2 => ObjectRef::Collection(r.str()?),
        3 => ObjectRef::View(r.str()?),
        4 => ObjectRef::Service,
        other => return Err(bad(format!("unknown object kind {other}"))),
    })
}

/// Encode an [`AttrPredicate`].
pub fn put_predicate(b: &mut Vec<u8>, p: &AttrPredicate) {
    p.put(b)
}

/// Decode an [`AttrPredicate`].
pub fn get_predicate(r: &mut Reader) -> Result<AttrPredicate> {
    AttrPredicate::get(r)
}

/// Encode a [`FileSpec`].
pub fn put_filespec(b: &mut Vec<u8>, s: &FileSpec) {
    s.put(b)
}

/// Decode a [`FileSpec`].
pub fn get_filespec(r: &mut Reader) -> Result<FileSpec> {
    FileSpec::get(r)
}

/// Encode a [`LogicalFile`].
pub fn put_file(b: &mut Vec<u8>, f: &LogicalFile) {
    f.put(b)
}

/// Decode a [`LogicalFile`].
pub fn get_file(r: &mut Reader) -> Result<LogicalFile> {
    LogicalFile::get(r)
}

/// Encode (name, version) hit lists — query results and contents files.
pub fn put_hits(b: &mut Vec<u8>, hits: &[(String, i64)]) {
    put_u32(b, hits.len() as u32);
    for (n, v) in hits {
        put_str(b, n);
        put_i64(b, *v);
    }
}

/// Decode a (name, version) hit list.
pub fn get_hits(r: &mut Reader) -> Result<Vec<(String, i64)>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        out.push((name, r.i64()?));
    }
    Ok(out)
}

/// Encode a string list.
pub fn put_strs(b: &mut Vec<u8>, ss: &[String]) {
    put_u32(b, ss.len() as u32);
    for s in ss {
        put_str(b, s);
    }
}

/// Decode a string list.
pub fn get_strs(r: &mut Reader) -> Result<Vec<String>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

/// Encode a `u64` list (epoch vectors).
pub fn put_u64s(b: &mut Vec<u8>, vs: &[u64]) {
    put_u32(b, vs.len() as u32);
    for v in vs {
        put_u64(b, *v);
    }
}

/// Decode a `u64` list.
pub fn get_u64s(r: &mut Reader) -> Result<Vec<u64>> {
    let n = r.seq_len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.u64()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_frame_refuses_an_oversize_body() {
        let mut out = Vec::new();
        let body = vec![0u8; MAX_FRAME as usize + 1];
        let err = write_frame(&mut out, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "wrote {} bytes of a refused frame", out.len());
        // At the cap the frame goes out and reads back.
        write_frame(&mut out, &body[1..]).unwrap();
        let back = read_frame(&mut out.as_slice()).unwrap().unwrap();
        assert_eq!(back.len(), MAX_FRAME as usize);
    }

    #[test]
    fn value_roundtrip_all_types() {
        let dt = DateTime::from_seconds_from_epoch(1_068_854_400);
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::from("hi <&> there"),
            Value::Bool(true),
            Value::Date(Date::new(2003, 11, 15).unwrap()),
            Value::Time(Time::new(8, 30, 0).unwrap()),
            Value::DateTime(dt),
        ] {
            let mut b = Vec::new();
            put_value(&mut b, &v);
            let mut r = Reader::new(&b);
            let back = get_value(&mut r).unwrap();
            r.finish().unwrap();
            match (&v, &back) {
                (Value::Float(a), Value::Float(x)) if a.is_nan() => assert!(x.is_nan()),
                _ => assert_eq!(back, v),
            }
        }
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        // A string claiming u32::MAX bytes in a 10-byte frame.
        let mut b = Vec::new();
        put_u32(&mut b, u32::MAX);
        b.extend_from_slice(b"abcdef");
        assert!(Reader::new(&b).str().is_err());
        // A sequence claiming 2^31 elements.
        let mut b = Vec::new();
        put_u32(&mut b, 1 << 31);
        assert!(Reader::new(&b).seq_len().is_err());
    }
}
