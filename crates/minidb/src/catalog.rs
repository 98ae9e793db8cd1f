//! The system catalog: relations, types, functions, and rules.
//!
//! As in POSTGRES, the catalogs are ordinary relations. Four bootstrap
//! heaps at fixed oids below [`Catalog::FIRST_OID`] — `pg_class`,
//! `pg_type`, `pg_proc`, `pg_rule` — live on the catalog device
//! ([`DeviceId::CATALOG`]), and a committed row in one of them is the only
//! durable form a catalog entry has. DDL is therefore ordinary WAL-logged
//! row changes inside a transaction (see
//! [`crate::Session::create_table_on`]): they are replayed by first-touch
//! REDO, drained by checkpoints, audited by
//! `pg_check` and queryable (`retrieve (c.relname) from c in pg_class`) by
//! the code that does those things for every other table. There is no
//! other persistence path and no size limit but the device's.
//!
//! [`Catalog`] itself is the in-memory *cache* of those rows that every hot
//! path reads. It is filled by four sequential scans when a database is
//! reopened (`Catalog::load`); each entry kind has one `to_row`/`from_row`
//! pair over the ordinary [`Datum`] row encoding. Derived state — a heap's
//! list of indices — is rebuilt at load, not stored.
//!
//! Function *bodies* are Rust callables and cannot be serialized; like
//! POSTGRES's dynamically loaded C functions, the catalog persists each
//! function's name, signature and *implementation key*, and the
//! implementation is re-resolved from the in-process registry
//! ([`crate::funcs::FunctionRegistry`]) when invoked after a restart.

use std::collections::HashMap;

use crate::datum::{Datum, Row, Schema, TypeId};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId, Tid};

/// What kind of object a relation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelKind {
    /// A heap of tuples.
    Heap,
    /// A B-tree index over a heap.
    BTreeIndex,
}

/// Index metadata: which heap it indexes and on which columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// The indexed heap relation.
    pub table: RelId,
    /// Key column positions within the heap schema, in key order.
    pub key_columns: Vec<usize>,
    /// Versioned-unique: under any one snapshot at most one version per key
    /// is visible. The heap keeps every version, so the index holds many
    /// entries per key; what is unique is the key among the versions alive
    /// at one instant. Declared by the index's creator, whose writers keep
    /// it (an existence probe under the relation's exclusive lock), and
    /// verified by `pg_check` — not enforced on insert. Probes rely on it to
    /// stop at the first visible version.
    pub unique: bool,
}

/// One catalog row describing a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationEntry {
    /// The relation's oid.
    pub id: RelId,
    /// Unique name.
    pub name: String,
    /// Heap or index.
    pub kind: RelKind,
    /// The device it lives on.
    pub device: DeviceId,
    /// The storage its pages are addressed by on `device`, as PostgreSQL's
    /// `relfilenode`: the oid at creation. A vacuum moves a relation onto
    /// fresh storage at its commit; a system relation never moves.
    pub storage: RelId,
    /// Column layout (heaps; indices reuse their table's key columns).
    pub schema: Schema,
    /// For indices: what they index.
    pub index: Option<IndexInfo>,
    /// For heaps: the indices defined on them.
    pub indexes: Vec<RelId>,
    /// For heaps: the archive relation that the vacuum cleaner fills.
    pub archive: Option<RelId>,
    /// "For files in which the user has no interest in maintaining history,
    /// POSTGRES can be instructed not to save old versions." When set, the
    /// vacuum cleaner discards dead versions instead of archiving them.
    pub no_history: bool,
}

/// A registered type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeEntry {
    /// The type's oid.
    pub id: TypeId,
    /// Unique name (e.g. `"tm"` for Thematic Mapper images).
    pub name: String,
}

/// A registered function (the persistent half; see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcEntry {
    /// Unique function name as used in queries.
    pub name: String,
    /// Number of arguments.
    pub nargs: usize,
    /// Return type.
    pub ret: TypeId,
    /// Key into the in-process implementation registry.
    pub impl_key: String,
    /// If set, the file type this function operates on (Table 2 style).
    pub operates_on: Option<TypeId>,
}

/// When a rule's qualification is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleEvent {
    /// Evaluated when a row of the target relation is read.
    OnAccess,
    /// Evaluated when a row of the target relation is written.
    OnUpdate,
    /// Evaluated by an explicit sweep (`Db::run_rules`) — how migration
    /// daemons drive the rules system.
    Periodic,
}

/// A registered predicate rule (used for file migration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleEntry {
    /// Unique rule name.
    pub name: String,
    /// Relation whose rows the rule watches.
    pub on_rel: RelId,
    /// When the qualification is checked.
    pub event: RuleEvent,
    /// Qualification expression source (query-language syntax).
    pub qual: String,
    /// Action expression source, e.g. `migrate(file, 1)`.
    pub action: String,
}

/// The bootstrap relations' oids, fixed so that their own storage can be
/// found before any catalog row has been read.
pub const PG_CLASS: RelId = Oid(1);
/// See [`PG_CLASS`].
pub const PG_TYPE: RelId = Oid(2);
/// See [`PG_CLASS`].
pub const PG_PROC: RelId = Oid(3);
/// See [`PG_CLASS`].
pub const PG_RULE: RelId = Oid(4);
/// The transaction status relation ([`crate::xact`]), also on the catalog
/// device. Its pages hold outcomes, not rows, so it has no `pg_class` row
/// and no entry in the cache.
pub const PG_LOG: RelId = Oid(5);

/// Columns of a `pg_class` row.
const PG_CLASS_WIDTH: usize = 11;

fn system_relations() -> [(RelId, &'static str, Schema); 4] {
    use TypeId as T;
    [
        (
            PG_CLASS,
            "pg_class",
            Schema::new([
                ("oid", T::OID),
                ("relname", T::TEXT),
                ("relkind", T::TEXT),
                ("reldev", T::INT4),
                ("relschema", T::BYTES),
                ("indrelid", T::OID),
                ("indkey", T::TEXT),
                ("indisunique", T::BOOL),
                ("relarchive", T::OID),
                ("relnohistory", T::BOOL),
                ("relfilenode", T::OID),
            ]),
        ),
        (
            PG_TYPE,
            "pg_type",
            Schema::new([("oid", T::OID), ("typname", T::TEXT)]),
        ),
        (
            PG_PROC,
            "pg_proc",
            Schema::new([
                ("proname", T::TEXT),
                ("pronargs", T::INT4),
                ("prorettype", T::OID),
                ("proimpl", T::TEXT),
                ("protype", T::OID),
            ]),
        ),
        (
            PG_RULE,
            "pg_rule",
            Schema::new([
                ("rulename", T::TEXT),
                ("ev_class", T::OID),
                ("ev_type", T::TEXT),
                ("ev_qual", T::TEXT),
                ("ev_action", T::TEXT),
            ]),
        ),
    ]
}

/// Runs a row decoder. A row of the wrong width, or a column of the wrong
/// type, is corruption — never a panic, never an `Eval` error.
fn from_row<T>(
    rel: &str,
    row: &[Datum],
    width: usize,
    decode: impl FnOnce(&[Datum]) -> DbResult<T>,
) -> DbResult<T> {
    if row.len() != width {
        return Err(DbError::Corrupt(format!(
            "{rel} row has {} columns, expected {width}",
            row.len()
        )));
    }
    decode(row).map_err(|e| match e {
        DbError::Corrupt(_) => e,
        e => DbError::Corrupt(format!("{rel} row: {e}")),
    })
}

/// Zero is "none" in an oid column.
fn opt_oid(raw: u32) -> Option<Oid> {
    (raw != 0).then_some(Oid(raw))
}

impl RelationEntry {
    /// A heap named `name` on `dev` with no index, archive or
    /// `no_history`: the base the other kinds of entry are built on.
    pub fn heap(id: RelId, name: &str, device: DeviceId, schema: Schema) -> RelationEntry {
        RelationEntry {
            id,
            name: name.to_string(),
            kind: RelKind::Heap,
            device,
            storage: id,
            schema,
            index: None,
            indexes: vec![],
            archive: None,
            no_history: false,
        }
    }

    /// This entry as a `pg_class` row. `indexes` is derived, not stored.
    pub fn to_row(&self) -> Row {
        let (indrelid, indkey, indisunique) = match &self.index {
            Some(info) => {
                let cols: Vec<String> = info.key_columns.iter().map(usize::to_string).collect();
                (info.table.0, cols.join(" "), info.unique)
            }
            None => (0, String::new(), false),
        };
        vec![
            Datum::Oid(self.id.0),
            Datum::Text(self.name.clone()),
            Datum::Text(
                match self.kind {
                    RelKind::Heap => "r",
                    RelKind::BTreeIndex => "i",
                }
                .into(),
            ),
            Datum::Int4(i32::from(self.device.0)),
            Datum::Bytes(self.schema.encode()),
            Datum::Oid(indrelid),
            Datum::Text(indkey),
            Datum::Bool(indisunique),
            Datum::Oid(self.archive.map_or(0, |a| a.0)),
            Datum::Bool(self.no_history),
            Datum::Oid(self.storage.0),
        ]
    }

    /// Decodes a `pg_class` row written by [`RelationEntry::to_row`].
    pub fn from_row(row: &[Datum]) -> DbResult<RelationEntry> {
        from_row("pg_class", row, PG_CLASS_WIDTH, |r| {
            let kind = match r[2].as_text()? {
                "r" => RelKind::Heap,
                "i" => RelKind::BTreeIndex,
                k => return Err(DbError::Corrupt(format!("bad relkind \"{k}\""))),
            };
            let device = u8::try_from(r[3].as_int()?)
                .map_err(|_| DbError::Corrupt("device id out of range".into()))?;
            let index = match opt_oid(r[5].as_oid()?) {
                Some(table) => {
                    let key_columns: Result<Vec<usize>, _> =
                        r[6].as_text()?.split_whitespace().map(str::parse).collect();
                    Some(IndexInfo {
                        table,
                        key_columns: key_columns
                            .map_err(|_| DbError::Corrupt("bad index key list".into()))?,
                        unique: r[7].as_bool()?,
                    })
                }
                None => None,
            };
            Ok(RelationEntry {
                id: Oid(r[0].as_oid()?),
                name: r[1].as_text()?.to_string(),
                kind,
                device: DeviceId(device),
                storage: Oid(r[10].as_oid()?),
                schema: Schema::decode(r[4].as_bytes()?, &mut 0)?,
                index,
                indexes: vec![],
                archive: opt_oid(r[8].as_oid()?),
                no_history: r[9].as_bool()?,
            })
        })
    }
}

impl TypeEntry {
    /// This entry as a `pg_type` row.
    pub fn to_row(&self) -> Row {
        vec![Datum::Oid(self.id.0), Datum::Text(self.name.clone())]
    }

    /// Decodes a `pg_type` row.
    pub fn from_row(row: &[Datum]) -> DbResult<TypeEntry> {
        from_row("pg_type", row, 2, |r| {
            Ok(TypeEntry {
                id: TypeId(r[0].as_oid()?),
                name: r[1].as_text()?.to_string(),
            })
        })
    }
}

impl ProcEntry {
    /// This entry as a `pg_proc` row.
    pub fn to_row(&self) -> Row {
        vec![
            Datum::Text(self.name.clone()),
            Datum::Int4(self.nargs as i32),
            Datum::Oid(self.ret.0),
            Datum::Text(self.impl_key.clone()),
            Datum::Oid(self.operates_on.map_or(0, |t| t.0)),
        ]
    }

    /// Decodes a `pg_proc` row.
    pub fn from_row(row: &[Datum]) -> DbResult<ProcEntry> {
        from_row("pg_proc", row, 5, |r| {
            Ok(ProcEntry {
                name: r[0].as_text()?.to_string(),
                nargs: usize::try_from(r[1].as_int()?)
                    .map_err(|_| DbError::Corrupt("negative argument count".into()))?,
                ret: TypeId(r[2].as_oid()?),
                impl_key: r[3].as_text()?.to_string(),
                operates_on: opt_oid(r[4].as_oid()?).map(|o| TypeId(o.0)),
            })
        })
    }
}

impl RuleEntry {
    /// This entry as a `pg_rule` row.
    pub fn to_row(&self) -> Row {
        vec![
            Datum::Text(self.name.clone()),
            Datum::Oid(self.on_rel.0),
            Datum::Text(
                match self.event {
                    RuleEvent::OnAccess => "access",
                    RuleEvent::OnUpdate => "update",
                    RuleEvent::Periodic => "periodic",
                }
                .into(),
            ),
            Datum::Text(self.qual.clone()),
            Datum::Text(self.action.clone()),
        ]
    }

    /// Decodes a `pg_rule` row.
    pub fn from_row(row: &[Datum]) -> DbResult<RuleEntry> {
        from_row("pg_rule", row, 5, |r| {
            Ok(RuleEntry {
                name: r[0].as_text()?.to_string(),
                on_rel: Oid(r[1].as_oid()?),
                event: match r[2].as_text()? {
                    "access" => RuleEvent::OnAccess,
                    "update" => RuleEvent::OnUpdate,
                    "periodic" => RuleEvent::Periodic,
                    k => return Err(DbError::Corrupt(format!("bad rule event \"{k}\""))),
                },
                qual: r[3].as_text()?.to_string(),
                action: r[4].as_text()?.to_string(),
            })
        })
    }
}

/// The catalog proper: the in-memory cache of the four system relations.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: HashMap<RelId, RelationEntry>,
    rel_by_name: HashMap<String, RelId>,
    /// Where each user relation's `pg_class` row sits — committed, or
    /// inserted by the transaction creating the relation: a drop, a replace
    /// or the verifier finds the row here, never by scanning.
    class_tids: HashMap<RelId, Tid>,
    types: HashMap<TypeId, TypeEntry>,
    type_by_name: HashMap<String, TypeId>,
    procs: HashMap<String, ProcEntry>,
    rules: Vec<RuleEntry>,
}

impl Catalog {
    /// First oid handed out to user objects; everything below is a system
    /// relation.
    pub const FIRST_OID: u32 = 1000;

    /// Whether `rel` is one of the bootstrap relations.
    pub fn is_system(rel: RelId) -> bool {
        rel.0 < Self::FIRST_OID
    }

    /// A catalog holding only the bootstrap relations.
    pub fn new() -> Catalog {
        let mut cat = Catalog::default();
        for (id, name, schema) in system_relations() {
            cat.add_relation(RelationEntry::heap(id, name, DeviceId::CATALOG, schema))
                .expect("system relation names are distinct");
        }
        cat
    }

    /// Fills the cache from the visible rows of the four system relations
    /// (in `pg_class`, `pg_type`, `pg_proc`, `pg_rule` order), as scanned
    /// when a database is reopened.
    pub(crate) fn load(&mut self, [class, types, procs, rules]: [Vec<(Tid, Row)>; 4]) -> DbResult<()> {
        let mut rels = class
            .into_iter()
            .map(|(tid, row)| Ok((tid, RelationEntry::from_row(&row)?)))
            .collect::<DbResult<Vec<_>>>()?;
        // A heap's oid is below those of its indices, so in oid order every
        // index finds its heap already present to attach to.
        rels.sort_by_key(|(_, e)| e.id);
        for (tid, entry) in rels {
            self.class_tids.insert(entry.id, tid);
            self.add_relation(entry)?;
        }
        for (_, row) in types {
            self.define_type(TypeEntry::from_row(&row)?)?;
        }
        for (_, row) in procs {
            self.define_proc(ProcEntry::from_row(&row)?)?;
        }
        for (_, row) in rules {
            self.define_rule(RuleEntry::from_row(&row)?)?;
        }
        Ok(())
    }

    /// Where `id`'s `pg_class` row sits, if it has one.
    pub(crate) fn class_tid(&self, id: RelId) -> Option<Tid> {
        self.class_tids.get(&id).copied()
    }

    /// Records where `id`'s `pg_class` row now sits.
    pub(crate) fn set_class_tid(&mut self, id: RelId, tid: Tid) {
        self.class_tids.insert(id, tid);
    }

    /// Registers a relation entry; an index is attached to its heap's
    /// `indexes` (a dangling one is left for [`Catalog::check`] to report).
    pub(crate) fn add_relation(&mut self, entry: RelationEntry) -> DbResult<()> {
        if self.rel_by_name.contains_key(&entry.name) {
            return Err(DbError::AlreadyExists(format!(
                "relation \"{}\"",
                entry.name
            )));
        }
        self.rel_by_name.insert(entry.name.clone(), entry.id);
        if let Some(table) = entry.index.as_ref().and_then(|i| self.relations.get_mut(&i.table)) {
            table.indexes.push(entry.id);
        }
        self.relations.insert(entry.id, entry);
        Ok(())
    }

    /// Removes a relation entry and the rules that watch it.
    pub(crate) fn remove_relation(&mut self, id: RelId) -> DbResult<RelationEntry> {
        let entry = self
            .relations
            .remove(&id)
            .ok_or_else(|| DbError::NotFound(format!("relation {id}")))?;
        self.rel_by_name.remove(&entry.name);
        self.class_tids.remove(&id);
        self.rules.retain(|r| r.on_rel != id);
        // Detach from any table that listed this as an index.
        if let Some(info) = &entry.index {
            if let Some(table) = self.relations.get_mut(&info.table) {
                table.indexes.retain(|&i| i != id);
            }
        }
        Ok(entry)
    }

    /// Looks up a relation by oid.
    pub fn relation(&self, id: RelId) -> DbResult<&RelationEntry> {
        self.relations
            .get(&id)
            .ok_or_else(|| DbError::NotFound(format!("relation {id}")))
    }

    /// Mutable lookup by oid.
    pub(crate) fn relation_mut(&mut self, id: RelId) -> DbResult<&mut RelationEntry> {
        self.relations
            .get_mut(&id)
            .ok_or_else(|| DbError::NotFound(format!("relation {id}")))
    }

    /// Looks up a relation by name.
    pub fn relation_by_name(&self, name: &str) -> DbResult<&RelationEntry> {
        let id = self
            .rel_by_name
            .get(name)
            .ok_or_else(|| DbError::NotFound(format!("relation \"{name}\"")))?;
        self.relation(*id)
    }

    /// All relations, unordered.
    pub fn relations(&self) -> impl Iterator<Item = &RelationEntry> {
        self.relations.values()
    }

    /// Every `(device, storage)` the database keeps: each catalogued
    /// relation's, and the status relation's, which no row names.
    pub fn storage(&self) -> impl Iterator<Item = (DeviceId, RelId)> + '_ {
        let status = std::iter::once((DeviceId::CATALOG, PG_LOG));
        self.relations().map(|e| (e.device, e.storage)).chain(status)
    }

    /// Registers a user-defined type (its id a fresh oid).
    pub(crate) fn define_type(&mut self, entry: TypeEntry) -> DbResult<()> {
        let name = &entry.name;
        if self.type_by_name.contains_key(name) || TypeId::from_builtin_name(name).is_some() {
            return Err(DbError::AlreadyExists(format!("type \"{name}\"")));
        }
        self.type_by_name.insert(name.clone(), entry.id);
        self.types.insert(entry.id, entry);
        Ok(())
    }

    /// Resolves a type name (builtin or user-defined).
    pub fn type_by_name(&self, name: &str) -> DbResult<TypeId> {
        if let Some(t) = TypeId::from_builtin_name(name) {
            return Ok(t);
        }
        self.type_by_name
            .get(name)
            .copied()
            .ok_or_else(|| DbError::NotFound(format!("type \"{name}\"")))
    }

    /// The name of a type id.
    pub fn type_name(&self, id: TypeId) -> DbResult<String> {
        if let Some(n) = id.builtin_name() {
            return Ok(n.to_string());
        }
        self.types
            .get(&id)
            .map(|t| t.name.clone())
            .ok_or_else(|| DbError::NotFound(format!("type {}", id.0)))
    }

    /// Registers a function's persistent definition.
    pub(crate) fn define_proc(&mut self, entry: ProcEntry) -> DbResult<()> {
        if self.procs.contains_key(&entry.name) {
            return Err(DbError::AlreadyExists(format!(
                "function \"{}\"",
                entry.name
            )));
        }
        self.procs.insert(entry.name.clone(), entry);
        Ok(())
    }

    /// Looks up a function definition.
    pub fn proc(&self, name: &str) -> DbResult<&ProcEntry> {
        self.procs
            .get(name)
            .ok_or_else(|| DbError::NotFound(format!("function \"{name}\"")))
    }

    /// All registered function definitions.
    pub fn procs(&self) -> impl Iterator<Item = &ProcEntry> {
        self.procs.values()
    }

    /// Registers a rule.
    pub(crate) fn define_rule(&mut self, rule: RuleEntry) -> DbResult<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(DbError::AlreadyExists(format!("rule \"{}\"", rule.name)));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Removes the type ([`PG_TYPE`]), function ([`PG_PROC`]) or rule
    /// ([`PG_RULE`]) named `name`, by the system relation `rel` it is in.
    pub(crate) fn undefine(&mut self, rel: RelId, name: &str) {
        match rel {
            PG_TYPE => drop(self.type_by_name.remove(name).map(|id| self.types.remove(&id))),
            PG_PROC => drop(self.procs.remove(name)),
            _ => self.rules.retain(|r| r.name != name),
        }
    }

    /// Rules watching `rel` for `event`.
    pub fn rules_for(&self, rel: RelId, event: RuleEvent) -> Vec<&RuleEntry> {
        self.rules
            .iter()
            .filter(|r| r.on_rel == rel && r.event == event)
            .collect()
    }

    /// All rules.
    pub fn rules(&self) -> &[RuleEntry] {
        &self.rules
    }

    /// The `pg_type`, `pg_proc` and `pg_rule` rows this cache stands for,
    /// in that order, each keyed by the name its entry defines.
    pub(crate) fn defined_rows(&self) -> [HashMap<String, Row>; 3] {
        [
            self.types.values().map(|e| (e.name.clone(), e.to_row())).collect(),
            self.procs.values().map(|e| (e.name.clone(), e.to_row())).collect(),
            self.rules.iter().map(|e| (e.name.clone(), e.to_row())).collect(),
        ]
    }

    /// Cross-checks the catalog's internal references.
    ///
    /// Every index ↔ heap link must be bidirectional, index key columns must
    /// fall inside the indexed heap's schema, archives must exist and be
    /// heaps, `kind` must agree with the presence of `index` metadata, and
    /// every rule must watch a relation that exists.
    pub fn check(&self) -> Vec<crate::check::Finding> {
        use crate::check::Finding;
        let mut out = Vec::new();
        for e in self.relations() {
            match (e.kind, &e.index) {
                (RelKind::BTreeIndex, None) => out.push(Finding::new(
                    &e.name,
                    "catalog-index-info",
                    "index relation has no index metadata",
                )),
                (RelKind::Heap, Some(_)) => out.push(Finding::new(
                    &e.name,
                    "catalog-index-info",
                    "heap relation carries index metadata",
                )),
                _ => {}
            }
            if let Some(info) = &e.index {
                match self.relation(info.table) {
                    Ok(table) => {
                        if table.kind != RelKind::Heap {
                            out.push(Finding::new(
                                &e.name,
                                "catalog-dangling-rel",
                                format!("indexed relation {} is not a heap", table.name),
                            ));
                        }
                        if !table.indexes.contains(&e.id) {
                            out.push(Finding::new(
                                &e.name,
                                "catalog-dangling-rel",
                                format!("table {} does not list this index", table.name),
                            ));
                        }
                        for &col in &info.key_columns {
                            if col >= table.schema.columns.len() {
                                out.push(Finding::new(
                                    &e.name,
                                    "catalog-key-column",
                                    format!(
                                        "key column {col} outside schema of {} ({} columns)",
                                        table.name,
                                        table.schema.columns.len()
                                    ),
                                ));
                            }
                        }
                    }
                    Err(_) => out.push(Finding::new(
                        &e.name,
                        "catalog-dangling-rel",
                        format!("indexed table {:?} is not in the catalog", info.table),
                    )),
                }
            }
            for &idx in &e.indexes {
                match self.relation(idx) {
                    Ok(ie) => {
                        if ie.index.as_ref().map(|i| i.table) != Some(e.id) {
                            out.push(Finding::new(
                                &e.name,
                                "catalog-dangling-rel",
                                format!("listed index {} does not point back", ie.name),
                            ));
                        }
                    }
                    Err(_) => out.push(Finding::new(
                        &e.name,
                        "catalog-dangling-rel",
                        format!("listed index {idx:?} is not in the catalog"),
                    )),
                }
            }
            if let Some(arch) = e.archive {
                match self.relation(arch) {
                    Ok(ae) if ae.kind != RelKind::Heap => out.push(Finding::new(
                        &e.name,
                        "catalog-dangling-rel",
                        format!("archive {} is not a heap", ae.name),
                    )),
                    Ok(_) => {}
                    Err(_) => out.push(Finding::new(
                        &e.name,
                        "catalog-dangling-rel",
                        format!("archive relation {arch:?} is not in the catalog"),
                    )),
                }
            }
        }
        for r in self.rules.iter().filter(|r| self.relation(r.on_rel).is_err()) {
            out.push(Finding::new(
                &r.name,
                "catalog-dangling-rel",
                format!("rule watches relation {:?}, which is not in the catalog", r.on_rel),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_entry(id: u32, name: &str) -> RelationEntry {
        let schema = Schema::new([("a", TypeId::INT4), ("b", TypeId::TEXT), ("c", TypeId::OID)]);
        RelationEntry::heap(Oid(id), name, DeviceId::DEFAULT, schema)
    }

    fn index_entry(id: u32, name: &str, table: RelId, cols: &[usize]) -> RelationEntry {
        RelationEntry {
            kind: RelKind::BTreeIndex,
            index: Some(IndexInfo {
                table,
                key_columns: cols.to_vec(),
                unique: false,
            }),
            ..RelationEntry::heap(Oid(id), name, DeviceId(2), Schema::default())
        }
    }

    #[test]
    fn bootstrap_relations_are_present() {
        let cat = Catalog::new();
        for (id, name, schema) in system_relations() {
            let e = cat.relation_by_name(name).unwrap();
            assert_eq!((e.id, &e.schema, e.device), (id, &schema, DeviceId::CATALOG));
            assert!(id.0 < Catalog::FIRST_OID);
        }
        assert!(cat.check().is_empty());
    }

    #[test]
    fn relation_registration_and_lookup() {
        let mut cat = Catalog::new();
        let e = heap_entry(1000, "naming");
        let id = e.id;
        cat.add_relation(e).unwrap();
        assert_eq!(cat.relation(id).unwrap().name, "naming");
        assert_eq!(cat.relation_by_name("naming").unwrap().id, id);
        assert!(cat.relation_by_name("nope").is_err());
        // Duplicate name rejected.
        let dup = heap_entry(1001, "naming");
        assert!(matches!(
            cat.add_relation(dup),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn an_index_attaches_to_its_heap_and_detaches_on_removal() {
        let mut cat = Catalog::new();
        let table = heap_entry(1000, "t");
        let tid = table.id;
        cat.add_relation(table).unwrap();
        let idx = index_entry(1001, "t_idx", tid, &[0]);
        let idx_id = idx.id;
        cat.add_relation(idx).unwrap();
        assert_eq!(cat.relation(tid).unwrap().indexes, vec![idx_id]);
        assert!(cat.check().is_empty());
        cat.remove_relation(idx_id).unwrap();
        assert!(cat.relation(tid).unwrap().indexes.is_empty());
    }

    #[test]
    fn a_removed_relation_takes_its_rules_and_a_dangling_rule_is_a_finding() {
        let mut cat = Catalog::new();
        cat.add_relation(heap_entry(1000, "t")).unwrap();
        let on = |name: &str, rel| RuleEntry { name: name.into(), on_rel: rel, ..migrate_cold() };
        cat.define_rule(on("watch_t", Oid(1000))).unwrap();
        assert!(cat.check().is_empty());
        cat.remove_relation(Oid(1000)).unwrap();
        assert!(cat.rules().is_empty());
        cat.define_rule(on("orphan", Oid(1000))).unwrap();
        let findings = cat.check();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, "catalog-dangling-rel");
    }

    #[test]
    fn types_builtin_and_user() {
        let mut cat = Catalog::new();
        assert_eq!(cat.type_by_name("int4").unwrap(), TypeId::INT4);
        let tm = TypeId(1000);
        let named = |id, name: &str| TypeEntry { id, name: name.into() };
        cat.define_type(named(tm, "tm")).unwrap();
        assert!(!tm.is_builtin());
        assert_eq!(cat.type_by_name("tm").unwrap(), tm);
        assert_eq!(cat.type_name(tm).unwrap(), "tm");
        for taken in ["tm", "int4"] {
            assert!(matches!(
                cat.define_type(named(TypeId(tm.0 + 1), taken)),
                Err(DbError::AlreadyExists(_))
            ));
        }
    }

    fn snow() -> ProcEntry {
        ProcEntry {
            name: "snow".into(),
            nargs: 1,
            ret: TypeId::INT8,
            impl_key: "inversion.snow".into(),
            operates_on: Some(TypeId(200)),
        }
    }

    fn migrate_cold() -> RuleEntry {
        RuleEntry {
            name: "migrate_cold".into(),
            on_rel: Oid(5),
            event: RuleEvent::Periodic,
            qual: "atime < 100".into(),
            action: "migrate(file, 1)".into(),
        }
    }

    #[test]
    fn procs_and_rules() {
        let mut cat = Catalog::new();
        cat.define_proc(snow()).unwrap();
        assert_eq!(cat.proc("snow").unwrap().impl_key, "inversion.snow");
        assert!(cat.proc("rain").is_err());
        assert!(cat.define_proc(snow()).is_err());

        cat.define_rule(migrate_cold()).unwrap();
        assert_eq!(cat.rules_for(Oid(5), RuleEvent::Periodic).len(), 1);
        assert!(cat.rules_for(Oid(5), RuleEvent::OnAccess).is_empty());
    }

    /// One populated catalog and the rows that make it durable, in the
    /// shape a reopened database scans them.
    fn populated() -> (Catalog, [Vec<(Tid, Row)>; 4]) {
        let mut cat = Catalog::new();
        let mut t = heap_entry(1000, "fileatt");
        let arch = heap_entry(1001, "fileatt,arch");
        t.archive = Some(arch.id);
        t.storage = Oid(1004); // Moved by a vacuum.
        t.no_history = true;
        let idx = index_entry(1002, "fileatt_idx", t.id, &[0, 2]);
        let ty = TypeEntry {
            id: TypeId(1003),
            name: "avhrr".into(),
        };
        let every = [RuleEvent::OnAccess, RuleEvent::OnUpdate, RuleEvent::Periodic];
        let rules = every.map(|event| RuleEntry {
            name: format!("{event:?}"),
            on_rel: t.id,
            event,
            ..migrate_cold()
        });
        let at = |i: usize| Tid::new(i as u32, 7);
        // The index row precedes its heap's, as after an archive attach
        // moved the heap's row to the tail.
        let class = vec![(at(0), idx.to_row()), (at(1), t.to_row()), (at(2), arch.to_row())];
        let rows = [
            class,
            vec![(at(0), ty.to_row())],
            vec![(at(0), snow().to_row())],
            rules.iter().map(|r| (at(0), r.to_row())).collect(),
        ];
        for e in [t, arch, idx] {
            cat.add_relation(e).unwrap();
        }
        cat.define_type(ty).unwrap();
        cat.define_proc(snow()).unwrap();
        for r in rules {
            cat.define_rule(r).unwrap();
        }
        (cat, rows)
    }

    #[test]
    fn rows_roundtrip_every_entry_kind_through_load() {
        let (cat, rows) = populated();
        let mut loaded = Catalog::new();
        loaded.load(rows).unwrap();
        for name in ["fileatt", "fileatt,arch", "fileatt_idx"] {
            let e = cat.relation_by_name(name).unwrap();
            assert_eq!(loaded.relation(e.id).unwrap(), e, "{name}");
        }
        let idx = cat.relation_by_name("fileatt_idx").unwrap().id;
        assert_eq!(loaded.class_tid(idx), Some(Tid::new(0, 7)));
        assert_eq!(loaded.type_by_name("avhrr"), cat.type_by_name("avhrr"));
        assert_eq!(loaded.proc("snow").unwrap(), &snow());
        assert_eq!(loaded.rules(), cat.rules());
        assert!(loaded.check().is_empty());
    }

    #[test]
    fn damaged_rows_are_corrupt_never_a_panic() {
        let (_, rows) = populated();
        let decoders: [fn(&[Datum]) -> bool; 4] = [
            |r| matches!(RelationEntry::from_row(r), Err(DbError::Corrupt(_))),
            |r| matches!(TypeEntry::from_row(r), Err(DbError::Corrupt(_))),
            |r| matches!(ProcEntry::from_row(r), Err(DbError::Corrupt(_))),
            |r| matches!(RuleEntry::from_row(r), Err(DbError::Corrupt(_))),
        ];
        let garbage = [
            Datum::Null,
            Datum::Int4(-1),
            Datum::Text("?".into()),
            Datum::Bytes(vec![0xff; 3]),
            Datum::Bool(true),
        ];
        for (rows, corrupt) in rows.iter().zip(decoders) {
            let (_, row) = &rows[0];
            for cut in 0..row.len() {
                assert!(corrupt(&row[..cut]), "truncated to {cut} columns");
            }
            // Any single column replaced by a value of another type either
            // still decodes (text for text) or is reported as corruption.
            for col in 0..row.len() {
                for g in &garbage {
                    let mut bad = row.clone();
                    bad[col] = g.clone();
                    let _ = corrupt(&bad);
                }
                let mut bad = row.clone();
                bad[col] = Datum::Null;
                assert!(corrupt(&bad), "null in column {col}");
            }
        }
        // A torn schema blob and a scribbled key list inside intact columns.
        let (_, idx_row) = &rows[0][0];
        let mut bad = idx_row.clone();
        bad[6] = Datum::Text("0 x".into());
        assert!(matches!(
            RelationEntry::from_row(&bad),
            Err(DbError::Corrupt(_))
        ));
        let (_, heap_row) = &rows[0][1];
        let schema = heap_row[4].as_bytes().unwrap().to_vec();
        for cut in 0..schema.len() {
            let mut bad = heap_row.clone();
            bad[4] = Datum::Bytes(schema[..cut].to_vec());
            assert!(matches!(
                RelationEntry::from_row(&bad),
                Err(DbError::Corrupt(_))
            ));
        }
        let mut loaded = Catalog::new();
        let mut rows = rows;
        rows[0][1].1.truncate(4);
        assert!(matches!(loaded.load(rows), Err(DbError::Corrupt(_))));
    }
}
