//! Binary frame codec: length-prefixed frames and the compact record
//! encoding both sides of the protocol share (DESIGN.md §7.7).
//!
//! Everything is little-endian. Strings are `u32` length + UTF-8 bytes;
//! options are a presence byte; sequences are a `u32` count. The decoder
//! is a bounds-checked cursor: every length read is validated against
//! the bytes actually remaining **before** any allocation, so a hostile
//! length prefix cannot make the server allocate or block — it just
//! produces a [`FrameError`] (fuzz-tested in `bin_fuzz.rs`).

use std::io::{self, Read, Write};

use mcs::{
    Annotation, AttrOp, AttrPredicate, AttrType, Attribute, AuditRecord, Collection,
    CollectionContents, Credential, ExternalCatalog, FileSpec, FileUpdate, HistoryRecord,
    LogicalFile, ObjectRef, ObjectType, Permission, UserRecord, View, ViewContents,
};
use relstore::{Date, DateTime, Time, Value};

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

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME as usize);
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

/// Append an optional string (presence byte + string).
pub fn put_opt_str(b: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => put_u8(b, 0),
        Some(s) => {
            put_u8(b, 1);
            put_str(b, s);
        }
    }
}

/// Append an optional `i64`.
pub fn put_opt_i64(b: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_i64(b, v);
        }
    }
}

/// Append a datetime as seconds since the Unix epoch.
pub fn put_datetime(b: &mut Vec<u8>, dt: &DateTime) {
    put_i64(b, dt.seconds_from_epoch());
}

/// Append an optional datetime.
pub fn put_opt_datetime(b: &mut Vec<u8>, dt: &Option<DateTime>) {
    match dt {
        None => put_u8(b, 0),
        Some(dt) => {
            put_u8(b, 1);
            put_datetime(b, dt);
        }
    }
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

    /// Read an optional string.
    pub fn opt_str(&mut self) -> Result<Option<String>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
    }

    /// Read an optional `i64`.
    pub fn opt_i64(&mut self) -> Result<Option<i64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
    }

    /// Read a datetime (seconds since the Unix epoch).
    pub fn datetime(&mut self) -> Result<DateTime> {
        Ok(DateTime::from_seconds_from_epoch(self.i64()?))
    }

    /// Read an optional datetime.
    pub fn opt_datetime(&mut self) -> Result<Option<DateTime>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.datetime()?)),
            other => Err(bad(format!("bad option byte {other}"))),
        }
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

// ---------- enums ----------

/// One-byte codes for the catalog's small enums: `put_*` appends the
/// code, `get_*` decodes it and rejects unassigned bytes.
macro_rules! byte_enums {
    ($($ty:ident, $put:ident, $get:ident, $what:literal { $($v:ident = $code:literal),* };)*) => {$(
        #[doc = concat!("Encode an [`", stringify!($ty), "`] as one byte.")]
        pub fn $put(b: &mut Vec<u8>, v: $ty) {
            put_u8(b, match v { $($ty::$v => $code),* });
        }

        #[doc = concat!("Decode an [`", stringify!($ty), "`].")]
        pub fn $get(r: &mut Reader) -> Result<$ty> {
            Ok(match r.u8()? {
                $($code => $ty::$v,)*
                other => return Err(bad(format!(concat!("unknown ", $what, " {}"), other))),
            })
        }
    )*};
}

byte_enums! {
    AttrType, put_attr_type, get_attr_type, "attr type"
        { Str = 0, Int = 1, Float = 2, Date = 3, Time = 4, DateTime = 5 };
    Permission, put_permission, get_permission, "permission"
        { Read = 0, Write = 1, Delete = 2, Admin = 3 };
    ObjectType, put_object_type, get_object_type, "object type"
        { File = 0, Collection = 1, View = 2, Service = 3 };
    AttrOp, put_attr_op, get_attr_op, "attr op"
        { Eq = 0, Ne = 1, Lt = 2, Le = 3, Gt = 4, Ge = 5, Like = 6 };
}

// ---------- records ----------

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

/// Encode an [`Attribute`].
pub fn put_attribute(b: &mut Vec<u8>, a: &Attribute) {
    put_str(b, &a.name);
    put_value(b, &a.value);
}

/// Decode an [`Attribute`].
pub fn get_attribute(r: &mut Reader) -> Result<Attribute> {
    Ok(Attribute { name: r.str()?, value: get_value(r)? })
}

/// Encode an [`AttrPredicate`].
pub fn put_predicate(b: &mut Vec<u8>, p: &AttrPredicate) {
    put_str(b, &p.name);
    put_attr_op(b, p.op);
    put_value(b, &p.value);
}

/// Decode an [`AttrPredicate`].
pub fn get_predicate(r: &mut Reader) -> Result<AttrPredicate> {
    Ok(AttrPredicate { name: r.str()?, op: get_attr_op(r)?, value: get_value(r)? })
}

/// Encode a [`FileSpec`].
pub fn put_filespec(b: &mut Vec<u8>, s: &FileSpec) {
    put_str(b, &s.name);
    put_opt_i64(b, s.version);
    put_opt_str(b, &s.data_type);
    put_opt_str(b, &s.collection);
    put_opt_str(b, &s.container_id);
    put_opt_str(b, &s.container_service);
    put_opt_str(b, &s.master_copy);
    put_bool(b, s.audit);
    put_u32(b, s.attributes.len() as u32);
    for a in &s.attributes {
        put_attribute(b, a);
    }
}

/// Decode a [`FileSpec`].
pub fn get_filespec(r: &mut Reader) -> Result<FileSpec> {
    let name = r.str()?;
    let version = r.opt_i64()?;
    let data_type = r.opt_str()?;
    let collection = r.opt_str()?;
    let container_id = r.opt_str()?;
    let container_service = r.opt_str()?;
    let master_copy = r.opt_str()?;
    let audit = r.bool()?;
    let n = r.seq_len()?;
    let mut attributes = Vec::with_capacity(n);
    for _ in 0..n {
        attributes.push(get_attribute(r)?);
    }
    Ok(FileSpec {
        name,
        version,
        data_type,
        collection,
        container_id,
        container_service,
        master_copy,
        audit,
        attributes,
    })
}

/// Encode a [`FileUpdate`].
pub fn put_fileupdate(b: &mut Vec<u8>, u: &FileUpdate) {
    put_opt_str(b, &u.data_type);
    match u.valid {
        None => put_u8(b, 0),
        Some(v) => {
            put_u8(b, 1);
            put_bool(b, v);
        }
    }
    put_opt_str(b, &u.master_copy);
    put_opt_str(b, &u.container_id);
    put_opt_str(b, &u.container_service);
}

/// Decode a [`FileUpdate`].
pub fn get_fileupdate(r: &mut Reader) -> Result<FileUpdate> {
    let data_type = r.opt_str()?;
    let valid = match r.u8()? {
        0 => None,
        1 => Some(r.bool()?),
        other => return Err(bad(format!("bad option byte {other}"))),
    };
    Ok(FileUpdate {
        data_type,
        valid,
        master_copy: r.opt_str()?,
        container_id: r.opt_str()?,
        container_service: r.opt_str()?,
    })
}

/// Encode a [`LogicalFile`].
pub fn put_file(b: &mut Vec<u8>, f: &LogicalFile) {
    put_i64(b, f.id);
    put_str(b, &f.name);
    put_i64(b, f.version);
    put_opt_str(b, &f.data_type);
    put_bool(b, f.valid);
    put_opt_i64(b, f.collection_id);
    put_opt_str(b, &f.container_id);
    put_opt_str(b, &f.container_service);
    put_str(b, &f.creator);
    put_datetime(b, &f.created);
    put_opt_str(b, &f.last_modifier);
    put_opt_datetime(b, &f.last_modified);
    put_opt_str(b, &f.master_copy);
    put_bool(b, f.audit_enabled);
}

/// Decode a [`LogicalFile`].
pub fn get_file(r: &mut Reader) -> Result<LogicalFile> {
    Ok(LogicalFile {
        id: r.i64()?,
        name: r.str()?,
        version: r.i64()?,
        data_type: r.opt_str()?,
        valid: r.bool()?,
        collection_id: r.opt_i64()?,
        container_id: r.opt_str()?,
        container_service: r.opt_str()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        master_copy: r.opt_str()?,
        audit_enabled: r.bool()?,
    })
}

/// Encode a [`Collection`].
pub fn put_collection(b: &mut Vec<u8>, c: &Collection) {
    put_i64(b, c.id);
    put_str(b, &c.name);
    put_str(b, &c.description);
    put_opt_i64(b, c.parent_id);
    put_str(b, &c.creator);
    put_datetime(b, &c.created);
    put_opt_str(b, &c.last_modifier);
    put_opt_datetime(b, &c.last_modified);
    put_bool(b, c.audit_enabled);
}

/// Decode a [`Collection`].
pub fn get_collection(r: &mut Reader) -> Result<Collection> {
    Ok(Collection {
        id: r.i64()?,
        name: r.str()?,
        description: r.str()?,
        parent_id: r.opt_i64()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        audit_enabled: r.bool()?,
    })
}

/// Encode a [`View`].
pub fn put_view(b: &mut Vec<u8>, v: &View) {
    put_i64(b, v.id);
    put_str(b, &v.name);
    put_str(b, &v.description);
    put_str(b, &v.creator);
    put_datetime(b, &v.created);
    put_opt_str(b, &v.last_modifier);
    put_opt_datetime(b, &v.last_modified);
    put_bool(b, v.audit_enabled);
}

/// Decode a [`View`].
pub fn get_view(r: &mut Reader) -> Result<View> {
    Ok(View {
        id: r.i64()?,
        name: r.str()?,
        description: r.str()?,
        creator: r.str()?,
        created: r.datetime()?,
        last_modifier: r.opt_str()?,
        last_modified: r.opt_datetime()?,
        audit_enabled: r.bool()?,
    })
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

/// Encode [`CollectionContents`].
pub fn put_collection_contents(b: &mut Vec<u8>, c: &CollectionContents) {
    put_hits(b, &c.files);
    put_strs(b, &c.subcollections);
}

/// Decode [`CollectionContents`].
pub fn get_collection_contents(r: &mut Reader) -> Result<CollectionContents> {
    Ok(CollectionContents { files: get_hits(r)?, subcollections: get_strs(r)? })
}

/// Encode [`ViewContents`].
pub fn put_view_contents(b: &mut Vec<u8>, c: &ViewContents) {
    put_hits(b, &c.files);
    put_strs(b, &c.collections);
    put_strs(b, &c.views);
}

/// Decode [`ViewContents`].
pub fn get_view_contents(r: &mut Reader) -> Result<ViewContents> {
    Ok(ViewContents { files: get_hits(r)?, collections: get_strs(r)?, views: get_strs(r)? })
}

/// Encode an [`Annotation`].
pub fn put_annotation(b: &mut Vec<u8>, a: &Annotation) {
    put_object_type(b, a.object_type);
    put_i64(b, a.object_id);
    put_str(b, &a.text);
    put_str(b, &a.creator);
    put_datetime(b, &a.created);
}

/// Decode an [`Annotation`].
pub fn get_annotation(r: &mut Reader) -> Result<Annotation> {
    Ok(Annotation {
        object_type: get_object_type(r)?,
        object_id: r.i64()?,
        text: r.str()?,
        creator: r.str()?,
        created: r.datetime()?,
    })
}

/// Encode an [`AuditRecord`].
pub fn put_audit(b: &mut Vec<u8>, a: &AuditRecord) {
    put_object_type(b, a.object_type);
    put_i64(b, a.object_id);
    put_str(b, &a.action);
    put_str(b, &a.actor);
    put_datetime(b, &a.at);
    put_str(b, &a.details);
}

/// Decode an [`AuditRecord`].
pub fn get_audit(r: &mut Reader) -> Result<AuditRecord> {
    Ok(AuditRecord {
        object_type: get_object_type(r)?,
        object_id: r.i64()?,
        action: r.str()?,
        actor: r.str()?,
        at: r.datetime()?,
        details: r.str()?,
    })
}

/// Encode a [`HistoryRecord`].
pub fn put_history(b: &mut Vec<u8>, h: &HistoryRecord) {
    put_i64(b, h.file_id);
    put_str(b, &h.description);
    put_str(b, &h.actor);
    put_datetime(b, &h.at);
}

/// Decode a [`HistoryRecord`].
pub fn get_history(r: &mut Reader) -> Result<HistoryRecord> {
    Ok(HistoryRecord {
        file_id: r.i64()?,
        description: r.str()?,
        actor: r.str()?,
        at: r.datetime()?,
    })
}

/// Encode a [`UserRecord`].
pub fn put_user(b: &mut Vec<u8>, u: &UserRecord) {
    put_str(b, &u.dn);
    put_str(b, &u.description);
    put_str(b, &u.institution);
    put_str(b, &u.email);
    put_str(b, &u.phone);
}

/// Decode a [`UserRecord`].
pub fn get_user(r: &mut Reader) -> Result<UserRecord> {
    Ok(UserRecord {
        dn: r.str()?,
        description: r.str()?,
        institution: r.str()?,
        email: r.str()?,
        phone: r.str()?,
    })
}

/// Encode an [`ExternalCatalog`].
pub fn put_extcat(b: &mut Vec<u8>, c: &ExternalCatalog) {
    put_str(b, &c.name);
    put_str(b, &c.catalog_type);
    put_str(b, &c.host);
    put_str(b, &c.ip);
    put_str(b, &c.description);
}

/// Decode an [`ExternalCatalog`].
pub fn get_extcat(r: &mut Reader) -> Result<ExternalCatalog> {
    Ok(ExternalCatalog {
        name: r.str()?,
        catalog_type: r.str()?,
        host: r.str()?,
        ip: r.str()?,
        description: r.str()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn decoder_never_overreads() {
        // Every prefix of a valid record decodes to an error, not a panic.
        let mut b = Vec::new();
        let f = FileSpec::named("file-x").attr("a", 1i64).attr("b", "y");
        put_filespec(&mut b, &f);
        for cut in 0..b.len() {
            let mut r = Reader::new(&b[..cut]);
            assert!(get_filespec(&mut r).is_err(), "prefix of {cut} bytes decoded");
        }
        let mut r = Reader::new(&b);
        assert_eq!(get_filespec(&mut r).unwrap().attributes, f.attributes);
        r.finish().unwrap();
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
