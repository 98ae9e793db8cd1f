//! Values, types, schemas, and the on-page row encoding.
//!
//! POSTGRES is an extensible-type system: besides the builtin scalar types,
//! users can `define type` new ones (Inversion uses this for file types).
//! User-defined types carry a [`TypeId`] from the catalog and store their
//! payload as bytes; functions registered for the type interpret them.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{DbError, DbResult};

/// A type identifier. Values below [`TypeId::FIRST_USER`] are builtin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Boolean.
    pub const BOOL: TypeId = TypeId(1);
    /// 32-bit signed integer (POSTGRES `int4`).
    pub const INT4: TypeId = TypeId(2);
    /// 64-bit signed integer (the paper's `longlong`, used for file sizes).
    pub const INT8: TypeId = TypeId(3);
    /// 64-bit float.
    pub const FLOAT8: TypeId = TypeId(4);
    /// Variable-length character string (`char[]` in the paper's schemas).
    pub const TEXT: TypeId = TypeId(5);
    /// Raw byte string (file chunks).
    pub const BYTES: TypeId = TypeId(6);
    /// Object identifier (`object_id` in the paper's schemas).
    pub const OID: TypeId = TypeId(7);
    /// An instant of simulated time (`time` in the paper's schemas).
    pub const TIME: TypeId = TypeId(8);
    /// First identifier available for user-defined types.
    pub const FIRST_USER: TypeId = TypeId(100);

    /// Whether this is a builtin type.
    pub fn is_builtin(self) -> bool {
        self.0 < Self::FIRST_USER.0
    }

    /// The name of a builtin type, if this is one.
    pub fn builtin_name(self) -> Option<&'static str> {
        Some(match self {
            TypeId::BOOL => "bool",
            TypeId::INT4 => "int4",
            TypeId::INT8 => "int8",
            TypeId::FLOAT8 => "float8",
            TypeId::TEXT => "text",
            TypeId::BYTES => "bytes",
            TypeId::OID => "oid",
            TypeId::TIME => "time",
            _ => return None,
        })
    }

    /// Looks up a builtin type by name.
    pub fn from_builtin_name(name: &str) -> Option<TypeId> {
        Some(match name {
            "bool" => TypeId::BOOL,
            "int4" | "int" => TypeId::INT4,
            "int8" | "longlong" => TypeId::INT8,
            "float8" | "float" => TypeId::FLOAT8,
            "text" | "char[]" => TypeId::TEXT,
            "bytes" => TypeId::BYTES,
            "oid" | "object_id" => TypeId::OID,
            "time" => TypeId::TIME,
            _ => return None,
        })
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// SQL-ish null / missing value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 32-bit integer.
    Int4(i32),
    /// 64-bit integer.
    Int8(i64),
    /// 64-bit float.
    Float8(f64),
    /// Character string.
    Text(String),
    /// Byte string.
    Bytes(Vec<u8>),
    /// Object identifier.
    Oid(u32),
    /// Simulated-time instant, nanoseconds since the epoch.
    Time(u64),
}

impl Datum {
    /// The type of this value, or `None` for null.
    pub fn type_id(&self) -> Option<TypeId> {
        Some(match self {
            Datum::Null => return None,
            Datum::Bool(_) => TypeId::BOOL,
            Datum::Int4(_) => TypeId::INT4,
            Datum::Int8(_) => TypeId::INT8,
            Datum::Float8(_) => TypeId::FLOAT8,
            Datum::Text(_) => TypeId::TEXT,
            Datum::Bytes(_) => TypeId::BYTES,
            Datum::Oid(_) => TypeId::OID,
            Datum::Time(_) => TypeId::TIME,
        })
    }

    /// Extracts an `i64` from any integer-like datum.
    pub fn as_int(&self) -> DbResult<i64> {
        match self {
            Datum::Int4(v) => Ok(*v as i64),
            Datum::Int8(v) => Ok(*v),
            Datum::Oid(v) => Ok(*v as i64),
            Datum::Time(v) => Ok(*v as i64),
            other => Err(DbError::Eval(format!("expected integer, got {other:?}"))),
        }
    }

    /// Extracts an `f64` from any numeric datum.
    pub fn as_float(&self) -> DbResult<f64> {
        match self {
            Datum::Float8(v) => Ok(*v),
            other => Ok(other.as_int()? as f64),
        }
    }

    /// Extracts a string.
    pub fn as_text(&self) -> DbResult<&str> {
        match self {
            Datum::Text(s) => Ok(s),
            other => Err(DbError::Eval(format!("expected text, got {other:?}"))),
        }
    }

    /// Extracts a byte string.
    pub fn as_bytes(&self) -> DbResult<&[u8]> {
        match self {
            Datum::Bytes(b) => Ok(b),
            other => Err(DbError::Eval(format!("expected bytes, got {other:?}"))),
        }
    }

    /// Extracts an object identifier.
    pub fn as_oid(&self) -> DbResult<u32> {
        match self {
            Datum::Oid(v) => Ok(*v),
            Datum::Int4(v) if *v >= 0 => Ok(*v as u32),
            other => Err(DbError::Eval(format!("expected oid, got {other:?}"))),
        }
    }

    /// Extracts a boolean.
    pub fn as_bool(&self) -> DbResult<bool> {
        match self {
            Datum::Bool(b) => Ok(*b),
            other => Err(DbError::Eval(format!("expected bool, got {other:?}"))),
        }
    }

    /// Total ordering across comparable datums (used by B-tree keys and
    /// qualifications); `DatumRef::cmp_total` defines it.
    pub fn cmp_total(&self, other: &Datum) -> Ordering {
        self.view().cmp_total(other.view())
    }

    /// This datum as a [`DatumRef`]: text and bytes borrowed, nothing copied
    /// onto the heap.
    pub(crate) fn view(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Bool(b) => DatumRef::Bool(*b),
            Datum::Int4(v) => DatumRef::Int4(*v),
            Datum::Int8(v) => DatumRef::Int8(*v),
            Datum::Float8(v) => DatumRef::Float8(*v),
            Datum::Text(s) => DatumRef::Text(s.as_bytes()),
            Datum::Bytes(b) => DatumRef::Bytes(b),
            Datum::Oid(v) => DatumRef::Oid(*v),
            Datum::Time(v) => DatumRef::Time(*v),
        }
    }

    /// Appends the encoded form of this datum to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.view().type_tag());
        match self {
            Datum::Null => {}
            Datum::Bool(b) => out.push(*b as u8),
            Datum::Int4(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Int8(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Float8(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Text(s) => {
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Datum::Bytes(b) => {
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
            Datum::Oid(v) => out.extend_from_slice(&v.to_le_bytes()),
            Datum::Time(v) => out.extend_from_slice(&v.to_le_bytes()),
        }
    }

    /// Decodes one datum from `buf[*pos..]`, advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> DbResult<Datum> {
        DatumRef::decode_from(buf, pos)?.to_datum()
    }

    /// The encoded size of this datum in bytes.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Datum::Null => 0,
            Datum::Bool(_) => 1,
            Datum::Int4(_) | Datum::Oid(_) => 4,
            Datum::Int8(_) | Datum::Float8(_) | Datum::Time(_) => 8,
            Datum::Text(s) => 4 + s.len(),
            Datum::Bytes(b) => 4 + b.len(),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "null"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Int4(v) => write!(f, "{v}"),
            Datum::Int8(v) => write!(f, "{v}"),
            Datum::Float8(v) => write!(f, "{v}"),
            Datum::Text(s) => write!(f, "\"{s}\""),
            Datum::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Datum::Oid(v) => write!(f, "{v}"),
            Datum::Time(v) => write!(f, "t+{:.6}s", *v as f64 / 1e9),
        }
    }
}

/// A datum read in place from its encoding: text and bytes borrow the
/// encoded bytes, scalars are copied onto the stack. B-tree probes compare
/// these, so a probe decodes nothing onto the heap; [`DatumRef::to_datum`]
/// makes the owned [`Datum`] a caller receives.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DatumRef<'a> {
    Null,
    Bool(bool),
    Int4(i32),
    Int8(i64),
    Float8(f64),
    /// A text datum's UTF-8 bytes, not yet validated. `String` orders by
    /// bytes, so comparing these orders as the decoded text would.
    Text(&'a [u8]),
    Bytes(&'a [u8]),
    Oid(u32),
    Time(u64),
}

/// The next `N` bytes of `buf` at `*pos`, advancing `pos`.
fn take<const N: usize>(buf: &[u8], pos: &mut usize) -> Option<[u8; N]> {
    let bytes = buf.get(*pos..pos.checked_add(N)?)?.try_into().ok()?;
    *pos += N;
    Some(bytes)
}

/// The `u32`-length-prefixed byte string at `*pos`, advancing `pos`.
fn take_var<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = u32::from_le_bytes(take(buf, pos)?) as usize;
    let bytes = buf.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(bytes)
}

impl<'a> DatumRef<'a> {
    /// Total ordering across comparable datums. Nulls sort first;
    /// cross-type numeric comparisons are performed on `f64`; incomparable
    /// pairs order by type tag.
    pub fn cmp_total(self, other: DatumRef<'_>) -> Ordering {
        use DatumRef::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (Oid(a), Oid(b)) => a.cmp(&b),
            (Time(a), Time(b)) => a.cmp(&b),
            (a, b) => match (a.as_float_quiet(), b.as_float_quiet()) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => a.type_tag().cmp(&b.type_tag()),
            },
        }
    }

    fn as_float_quiet(self) -> Option<f64> {
        match self {
            DatumRef::Int4(v) => Some(v as f64),
            DatumRef::Int8(v) => Some(v as f64),
            DatumRef::Float8(v) => Some(v),
            DatumRef::Oid(v) => Some(v as f64),
            DatumRef::Time(v) => Some(v as f64),
            _ => None,
        }
    }

    fn type_tag(self) -> u8 {
        match self {
            DatumRef::Null => 0,
            DatumRef::Bool(_) => 1,
            DatumRef::Int4(_) => 2,
            DatumRef::Int8(_) => 3,
            DatumRef::Float8(_) => 4,
            DatumRef::Text(_) => 5,
            DatumRef::Bytes(_) => 6,
            DatumRef::Oid(_) => 7,
            DatumRef::Time(_) => 8,
        }
    }

    /// The owned datum; text must be valid UTF-8.
    pub fn to_datum(self) -> DbResult<Datum> {
        Ok(match self {
            DatumRef::Null => Datum::Null,
            DatumRef::Bool(b) => Datum::Bool(b),
            DatumRef::Int4(v) => Datum::Int4(v),
            DatumRef::Int8(v) => Datum::Int8(v),
            DatumRef::Float8(v) => Datum::Float8(v),
            DatumRef::Text(s) => Datum::Text(
                String::from_utf8(s.to_vec())
                    .map_err(|_| DbError::Corrupt("invalid utf8 in text datum".into()))?,
            ),
            DatumRef::Bytes(b) => Datum::Bytes(b.to_vec()),
            DatumRef::Oid(v) => Datum::Oid(v),
            DatumRef::Time(v) => Datum::Time(v),
        })
    }

    /// Reads one datum in place from `buf[*pos..]`, advancing `pos`.
    pub fn decode_from(buf: &'a [u8], pos: &mut usize) -> DbResult<DatumRef<'a>> {
        let corrupt = || DbError::Corrupt("truncated datum".into());
        let [tag] = take(buf, pos).ok_or_else(corrupt)?;
        Ok(match tag {
            0 => DatumRef::Null,
            1 => DatumRef::Bool(take::<1>(buf, pos).ok_or_else(corrupt)? != [0]),
            2 => DatumRef::Int4(i32::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?)),
            3 => DatumRef::Int8(i64::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?)),
            4 => DatumRef::Float8(f64::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?)),
            5 => DatumRef::Text(take_var(buf, pos).ok_or_else(corrupt)?),
            6 => DatumRef::Bytes(take_var(buf, pos).ok_or_else(corrupt)?),
            7 => DatumRef::Oid(u32::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?)),
            8 => DatumRef::Time(u64::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?)),
            t => return Err(DbError::Corrupt(format!("unknown datum tag {t}"))),
        })
    }
}

/// A row of datums.
pub type Row = Vec<Datum>;

/// Encodes a row: `[ncols u16][datum]*`.
pub fn encode_row(row: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.iter().map(Datum::encoded_len).sum::<usize>());
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for d in row {
        d.encode_into(&mut out);
    }
    out
}

/// The column count in a row's header.
fn row_len(buf: &[u8]) -> DbResult<usize> {
    let ncols = take(buf, &mut 0)
        .ok_or_else(|| DbError::Corrupt("row shorter than header".into()))?;
    Ok(u16::from_le_bytes(ncols) as usize)
}

/// Decodes a row produced by [`encode_row`].
pub fn decode_row(buf: &[u8]) -> DbResult<Row> {
    let ncols = row_len(buf)?;
    let mut pos = 2;
    let mut row = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        row.push(Datum::decode_from(buf, &mut pos)?);
    }
    Ok(row)
}

/// Orders the row [`encode_row`] wrote into `buf` against `key` in place,
/// as comparing the decoded row would: datum by datum with
/// [`Datum::cmp_total`], then the shorter row first. Every column is read,
/// so a truncated row is `Corrupt` just as [`decode_row`] finds it; text
/// is not checked for UTF-8.
pub(crate) fn cmp_encoded_row(buf: &[u8], key: &[Datum]) -> DbResult<Ordering> {
    let ncols = row_len(buf)?;
    let mut pos = 2;
    let mut order = Ordering::Equal;
    for i in 0..ncols {
        let d = DatumRef::decode_from(buf, &mut pos)?;
        if let (Ordering::Equal, Some(k)) = (order, key.get(i)) {
            order = d.cmp_total(k.view());
        }
    }
    Ok(order.then(ncols.cmp(&key.len())))
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: TypeId,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: TypeId) -> Self {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// An ordered list of columns describing a relation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    /// The columns, in attribute-number order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// Creates a schema from `(name, type)` pairs.
    pub fn new(cols: impl IntoIterator<Item = (&'static str, TypeId)>) -> Self {
        Schema {
            columns: cols.into_iter().map(|(n, t)| Column::new(n, t)).collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column called `name`.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Serializes the schema (for the persistent catalog).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.columns.len() as u16).to_le_bytes());
        for c in &self.columns {
            out.extend_from_slice(&(c.name.len() as u16).to_le_bytes());
            out.extend_from_slice(c.name.as_bytes());
            out.extend_from_slice(&c.ty.0.to_le_bytes());
        }
        out
    }

    /// Deserializes a schema from [`Schema::encode`] output.
    pub fn decode(buf: &[u8], pos: &mut usize) -> DbResult<Schema> {
        let corrupt = || DbError::Corrupt("truncated schema".into());
        let ncols = u16::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?) as usize;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let nlen = u16::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?) as usize;
            let name = buf.get(*pos..*pos + nlen).ok_or_else(corrupt)?;
            *pos += nlen;
            let name = String::from_utf8(name.to_vec())
                .map_err(|_| DbError::Corrupt("invalid utf8 in schema".into()))?;
            let ty = TypeId(u32::from_le_bytes(take(buf, pos).ok_or_else(corrupt)?));
            columns.push(Column { name, ty });
        }
        Ok(Schema { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Int4(-7),
            Datum::Int8(1 << 40),
            Datum::Float8(3.5),
            Datum::Text("passwd".into()),
            Datum::Bytes(vec![0, 255, 9]),
            Datum::Oid(23114),
            Datum::Time(12345),
        ]
    }

    #[test]
    fn row_roundtrips() {
        let row = sample_row();
        let enc = encode_row(&row);
        assert_eq!(decode_row(&enc).unwrap(), row);
    }

    #[test]
    fn encoded_len_matches_encoding() {
        for d in sample_row() {
            let mut buf = Vec::new();
            d.encode_into(&mut buf);
            assert_eq!(buf.len(), d.encoded_len(), "for {d:?}");
        }
    }

    #[test]
    fn truncated_row_is_an_error_not_a_panic() {
        let enc = encode_row(&sample_row());
        for cut in 0..enc.len() {
            let _ = decode_row(&enc[..cut]); // must not panic
        }
        assert!(decode_row(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn ordering_within_types() {
        assert_eq!(
            Datum::Text("abc".into()).cmp_total(&Datum::Text("abd".into())),
            Ordering::Less
        );
        assert_eq!(Datum::Int4(5).cmp_total(&Datum::Int4(5)), Ordering::Equal);
        assert_eq!(Datum::Oid(9).cmp_total(&Datum::Oid(3)), Ordering::Greater);
    }

    #[test]
    fn cross_type_numeric_ordering() {
        assert_eq!(Datum::Int4(2).cmp_total(&Datum::Int8(3)), Ordering::Less);
        assert_eq!(
            Datum::Float8(2.5).cmp_total(&Datum::Int4(2)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(
            Datum::Null.cmp_total(&Datum::Int4(i32::MIN)),
            Ordering::Less
        );
        assert_eq!(Datum::Null.cmp_total(&Datum::Null), Ordering::Equal);
    }

    #[test]
    fn schema_roundtrips() {
        let s = Schema::new([
            ("filename", TypeId::TEXT),
            ("parentid", TypeId::OID),
            ("file", TypeId::OID),
        ]);
        let enc = s.encode();
        let mut pos = 0;
        assert_eq!(Schema::decode(&enc, &mut pos).unwrap(), s);
        assert_eq!(pos, enc.len());
    }

    #[test]
    fn schema_lookup() {
        let s = Schema::new([("a", TypeId::INT4), ("b", TypeId::TEXT)]);
        assert_eq!(s.column_index("b"), Some(1));
        assert_eq!(s.column_index("z"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn builtin_type_names() {
        assert_eq!(TypeId::from_builtin_name("object_id"), Some(TypeId::OID));
        assert_eq!(TypeId::OID.builtin_name(), Some("oid"));
        assert!(TypeId(100).builtin_name().is_none());
        assert!(!TypeId::FIRST_USER.is_builtin());
        assert!(TypeId::TEXT.is_builtin());
    }

    #[test]
    fn datum_accessors() {
        assert_eq!(Datum::Int8(9).as_int().unwrap(), 9);
        assert_eq!(Datum::Oid(7).as_oid().unwrap(), 7);
        assert_eq!(Datum::Text("x".into()).as_text().unwrap(), "x");
        assert!(Datum::Text("x".into()).as_int().is_err());
        assert!(Datum::Bool(true).as_bool().unwrap());
        assert_eq!(Datum::Int4(3).as_float().unwrap(), 3.0);
    }
}
