//! The system catalog: relations, types, functions, and rules.
//!
//! POSTGRES keeps catalogs in ordinary relations; here they are kept as an
//! explicitly serialized structure persisted on the catalog device, which
//! keeps bootstrap simple while preserving what matters for the paper:
//! catalog contents survive crashes, and types/functions/rules are
//! first-class registered objects.
//!
//! Function *bodies* are Rust callables and cannot be serialized; like
//! POSTGRES's dynamically loaded C functions, the catalog persists each
//! function's name, signature and *implementation key*, and the
//! implementation is re-resolved from the in-process registry
//! ([`crate::funcs::FunctionRegistry`]) when invoked after a restart.

use std::collections::HashMap;

use crate::datum::{Schema, TypeId};
use crate::error::{DbError, DbResult};
use crate::ids::{DeviceId, Oid, RelId};

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

/// The catalog proper.
#[derive(Debug, Default)]
pub struct Catalog {
    next_oid: u32,
    relations: HashMap<RelId, RelationEntry>,
    rel_by_name: HashMap<String, RelId>,
    types: HashMap<TypeId, TypeEntry>,
    type_by_name: HashMap<String, TypeId>,
    procs: HashMap<String, ProcEntry>,
    rules: Vec<RuleEntry>,
}

impl Catalog {
    /// First oid handed out to user objects.
    pub const FIRST_OID: u32 = 1000;

    /// Creates an empty catalog.
    pub fn new() -> Catalog {
        Catalog {
            next_oid: Self::FIRST_OID,
            ..Default::default()
        }
    }

    /// Allocates a fresh oid.
    pub fn alloc_oid(&mut self) -> Oid {
        let oid = Oid(self.next_oid);
        self.next_oid += 1;
        oid
    }

    /// Registers a relation entry.
    pub fn add_relation(&mut self, entry: RelationEntry) -> DbResult<()> {
        if self.rel_by_name.contains_key(&entry.name) {
            return Err(DbError::AlreadyExists(format!(
                "relation \"{}\"",
                entry.name
            )));
        }
        self.rel_by_name.insert(entry.name.clone(), entry.id);
        self.relations.insert(entry.id, entry);
        Ok(())
    }

    /// Removes a relation entry.
    pub fn remove_relation(&mut self, id: RelId) -> DbResult<RelationEntry> {
        let entry = self
            .relations
            .remove(&id)
            .ok_or_else(|| DbError::NotFound(format!("relation {id}")))?;
        self.rel_by_name.remove(&entry.name);
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
    pub fn relation_mut(&mut self, id: RelId) -> DbResult<&mut RelationEntry> {
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

    /// Registers a user-defined type, allocating its id.
    pub fn define_type(&mut self, name: &str) -> DbResult<TypeId> {
        if self.type_by_name.contains_key(name) || TypeId::from_builtin_name(name).is_some() {
            return Err(DbError::AlreadyExists(format!("type \"{name}\"")));
        }
        let id = TypeId(self.next_oid.max(TypeId::FIRST_USER.0));
        self.next_oid = id.0 + 1;
        self.types.insert(
            id,
            TypeEntry {
                id,
                name: name.to_string(),
            },
        );
        self.type_by_name.insert(name.to_string(), id);
        Ok(id)
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
    pub fn define_proc(&mut self, entry: ProcEntry) -> DbResult<()> {
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
    pub fn define_rule(&mut self, rule: RuleEntry) -> DbResult<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(DbError::AlreadyExists(format!("rule \"{}\"", rule.name)));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Removes a rule by name.
    pub fn remove_rule(&mut self, name: &str) -> DbResult<()> {
        let before = self.rules.len();
        self.rules.retain(|r| r.name != name);
        if self.rules.len() == before {
            return Err(DbError::NotFound(format!("rule \"{name}\"")));
        }
        Ok(())
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

    /// Cross-checks the catalog's internal references.
    ///
    /// Every index ↔ heap link must be bidirectional, index key columns must
    /// fall inside the indexed heap's schema, archives must exist and be
    /// heaps, and `kind` must agree with the presence of `index` metadata.
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
        out
    }

    /// Serializes the whole catalog.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&self.next_oid.to_le_bytes());

        let mut rels: Vec<_> = self.relations.values().collect();
        rels.sort_by_key(|r| r.id.0);
        out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
        for r in rels {
            out.extend_from_slice(&r.id.0.to_le_bytes());
            put_str(&mut out, &r.name);
            out.push(match r.kind {
                RelKind::Heap => 0,
                RelKind::BTreeIndex => 1,
            });
            out.push(r.device.0);
            out.extend_from_slice(&r.schema.encode());
            match &r.index {
                None => out.push(0),
                Some(info) => {
                    out.push(1);
                    out.extend_from_slice(&info.table.0.to_le_bytes());
                    out.extend_from_slice(&(info.key_columns.len() as u16).to_le_bytes());
                    for &c in &info.key_columns {
                        out.extend_from_slice(&(c as u16).to_le_bytes());
                    }
                }
            }
            out.extend_from_slice(&(r.indexes.len() as u16).to_le_bytes());
            for i in &r.indexes {
                out.extend_from_slice(&i.0.to_le_bytes());
            }
            out.extend_from_slice(&r.archive.map(|a| a.0).unwrap_or(0).to_le_bytes());
            out.push(r.no_history as u8);
        }

        let mut types: Vec<_> = self.types.values().collect();
        types.sort_by_key(|t| t.id.0);
        out.extend_from_slice(&(types.len() as u32).to_le_bytes());
        for t in types {
            out.extend_from_slice(&t.id.0.to_le_bytes());
            put_str(&mut out, &t.name);
        }

        let mut procs: Vec<_> = self.procs.values().collect();
        procs.sort_by_key(|p| p.name.clone());
        out.extend_from_slice(&(procs.len() as u32).to_le_bytes());
        for p in procs {
            put_str(&mut out, &p.name);
            out.extend_from_slice(&(p.nargs as u16).to_le_bytes());
            out.extend_from_slice(&p.ret.0.to_le_bytes());
            put_str(&mut out, &p.impl_key);
            out.extend_from_slice(&p.operates_on.map(|t| t.0).unwrap_or(0).to_le_bytes());
        }

        out.extend_from_slice(&(self.rules.len() as u32).to_le_bytes());
        for r in &self.rules {
            put_str(&mut out, &r.name);
            out.extend_from_slice(&r.on_rel.0.to_le_bytes());
            out.push(match r.event {
                RuleEvent::OnAccess => 0,
                RuleEvent::OnUpdate => 1,
                RuleEvent::Periodic => 2,
            });
            put_str(&mut out, &r.qual);
            put_str(&mut out, &r.action);
        }
        out
    }

    /// Deserializes a catalog from [`Catalog::encode`] output.
    pub fn decode(buf: &[u8]) -> DbResult<Catalog> {
        let corrupt = || DbError::Corrupt("truncated catalog".into());
        let mut pos = 0usize;
        macro_rules! take {
            ($n:expr) => {{
                let s = buf.get(pos..pos + $n).ok_or_else(corrupt)?;
                pos += $n;
                s
            }};
        }
        macro_rules! get_u32 {
            () => {
                u32::from_le_bytes(take!(4).try_into().unwrap())
            };
        }
        macro_rules! get_u16 {
            () => {
                u16::from_le_bytes(take!(2).try_into().unwrap())
            };
        }
        macro_rules! get_str {
            () => {{
                let len = get_u32!() as usize;
                String::from_utf8(take!(len).to_vec())
                    .map_err(|_| DbError::Corrupt("bad utf8 in catalog".into()))?
            }};
        }

        let mut cat = Catalog::new();
        cat.next_oid = get_u32!();

        let nrels = get_u32!();
        for _ in 0..nrels {
            let id = Oid(get_u32!());
            let name = get_str!();
            let kind = match take!(1)[0] {
                0 => RelKind::Heap,
                1 => RelKind::BTreeIndex,
                k => return Err(DbError::Corrupt(format!("bad relkind {k}"))),
            };
            let device = DeviceId(take!(1)[0]);
            let schema = Schema::decode(buf, &mut pos)?;
            let index = match take!(1)[0] {
                0 => None,
                1 => {
                    let table = Oid(get_u32!());
                    let ncols = get_u16!() as usize;
                    let mut key_columns = Vec::with_capacity(ncols);
                    for _ in 0..ncols {
                        key_columns.push(get_u16!() as usize);
                    }
                    Some(IndexInfo { table, key_columns })
                }
                k => return Err(DbError::Corrupt(format!("bad index flag {k}"))),
            };
            let nidx = get_u16!() as usize;
            let mut indexes = Vec::with_capacity(nidx);
            for _ in 0..nidx {
                indexes.push(Oid(get_u32!()));
            }
            let archive_raw = get_u32!();
            let archive = if archive_raw == 0 {
                None
            } else {
                Some(Oid(archive_raw))
            };
            let no_history = take!(1)[0] != 0;
            cat.add_relation(RelationEntry {
                id,
                name,
                kind,
                device,
                schema,
                index,
                indexes,
                archive,
                no_history,
            })?;
        }

        let ntypes = get_u32!();
        for _ in 0..ntypes {
            let id = TypeId(get_u32!());
            let name = get_str!();
            cat.types.insert(
                id,
                TypeEntry {
                    id,
                    name: name.clone(),
                },
            );
            cat.type_by_name.insert(name, id);
        }

        let nprocs = get_u32!();
        for _ in 0..nprocs {
            let name = get_str!();
            let nargs = get_u16!() as usize;
            let ret = TypeId(get_u32!());
            let impl_key = get_str!();
            let op_raw = get_u32!();
            let operates_on = if op_raw == 0 {
                None
            } else {
                Some(TypeId(op_raw))
            };
            cat.procs.insert(
                name.clone(),
                ProcEntry {
                    name,
                    nargs,
                    ret,
                    impl_key,
                    operates_on,
                },
            );
        }

        let nrules = get_u32!();
        for _ in 0..nrules {
            let name = get_str!();
            let on_rel = Oid(get_u32!());
            let event = match take!(1)[0] {
                0 => RuleEvent::OnAccess,
                1 => RuleEvent::OnUpdate,
                2 => RuleEvent::Periodic,
                k => return Err(DbError::Corrupt(format!("bad rule event {k}"))),
            };
            let qual = get_str!();
            let action = get_str!();
            cat.rules.push(RuleEntry {
                name,
                on_rel,
                event,
                qual,
                action,
            });
        }
        Ok(cat)
    }
}

#[cfg(test)]
impl Catalog {
    fn clone_for_test(&self) -> Catalog {
        Catalog::decode(&self.encode()).expect("catalog roundtrip")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap_entry(cat: &mut Catalog, name: &str) -> RelationEntry {
        let id = cat.alloc_oid();
        RelationEntry {
            id,
            name: name.into(),
            kind: RelKind::Heap,
            device: DeviceId::DEFAULT,
            schema: Schema::new([("a", TypeId::INT4)]),
            index: None,
            indexes: vec![],
            archive: None,
            no_history: false,
        }
    }

    #[test]
    fn oids_are_unique_and_dense() {
        let mut cat = Catalog::new();
        let a = cat.alloc_oid();
        let b = cat.alloc_oid();
        assert_ne!(a, b);
        assert!(a.0 >= Catalog::FIRST_OID);
    }

    #[test]
    fn relation_registration_and_lookup() {
        let mut cat = Catalog::new();
        let e = heap_entry(&mut cat, "naming");
        let id = e.id;
        cat.add_relation(e).unwrap();
        assert_eq!(cat.relation(id).unwrap().name, "naming");
        assert_eq!(cat.relation_by_name("naming").unwrap().id, id);
        assert!(cat.relation_by_name("nope").is_err());
        // Duplicate name rejected.
        let mut dup = heap_entry(&mut cat, "naming");
        dup.name = "naming".into();
        assert!(matches!(
            cat.add_relation(dup),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn remove_relation_detaches_index() {
        let mut cat = Catalog::new();
        let table = heap_entry(&mut cat, "t");
        let tid = table.id;
        cat.add_relation(table).unwrap();
        let idx_id = cat.alloc_oid();
        cat.add_relation(RelationEntry {
            id: idx_id,
            name: "t_idx".into(),
            kind: RelKind::BTreeIndex,
            device: DeviceId::DEFAULT,
            schema: Schema::default(),
            index: Some(IndexInfo {
                table: tid,
                key_columns: vec![0],
            }),
            indexes: vec![],
            archive: None,
            no_history: false,
        })
        .unwrap();
        cat.relation_mut(tid).unwrap().indexes.push(idx_id);
        cat.remove_relation(idx_id).unwrap();
        assert!(cat.relation(tid).unwrap().indexes.is_empty());
    }

    #[test]
    fn types_builtin_and_user() {
        let mut cat = Catalog::new();
        assert_eq!(cat.type_by_name("int4").unwrap(), TypeId::INT4);
        let tm = cat.define_type("tm").unwrap();
        assert!(tm.0 >= TypeId::FIRST_USER.0);
        assert_eq!(cat.type_by_name("tm").unwrap(), tm);
        assert_eq!(cat.type_name(tm).unwrap(), "tm");
        assert!(matches!(
            cat.define_type("tm"),
            Err(DbError::AlreadyExists(_))
        ));
        assert!(matches!(
            cat.define_type("int4"),
            Err(DbError::AlreadyExists(_))
        ));
    }

    #[test]
    fn procs_and_rules() {
        let mut cat = Catalog::new();
        cat.define_proc(ProcEntry {
            name: "snow".into(),
            nargs: 1,
            ret: TypeId::INT8,
            impl_key: "inversion.snow".into(),
            operates_on: Some(TypeId(200)),
        })
        .unwrap();
        assert_eq!(cat.proc("snow").unwrap().impl_key, "inversion.snow");
        assert!(cat.proc("rain").is_err());
        assert!(cat
            .define_proc(ProcEntry {
                name: "snow".into(),
                nargs: 1,
                ret: TypeId::INT8,
                impl_key: "x".into(),
                operates_on: None,
            })
            .is_err());

        cat.define_rule(RuleEntry {
            name: "migrate_cold".into(),
            on_rel: Oid(5),
            event: RuleEvent::Periodic,
            qual: "atime < 100".into(),
            action: "migrate(file, 1)".into(),
        })
        .unwrap();
        assert_eq!(cat.rules_for(Oid(5), RuleEvent::Periodic).len(), 1);
        assert!(cat.rules_for(Oid(5), RuleEvent::OnAccess).is_empty());
        assert!(cat.remove_rule("nope").is_err());
        cat.remove_rule("migrate_cold").unwrap();
        assert!(cat.rules().is_empty());
    }

    #[test]
    fn encode_decode_roundtrips_everything() {
        let mut cat = Catalog::new();
        let t = heap_entry(&mut cat, "fileatt");
        let tid = t.id;
        cat.add_relation(t).unwrap();
        let idx = cat.alloc_oid();
        cat.add_relation(RelationEntry {
            id: idx,
            name: "fileatt_idx".into(),
            kind: RelKind::BTreeIndex,
            device: DeviceId(2),
            schema: Schema::default(),
            index: Some(IndexInfo {
                table: tid,
                key_columns: vec![0, 2],
            }),
            indexes: vec![],
            archive: None,
            no_history: false,
        })
        .unwrap();
        cat.relation_mut(tid).unwrap().indexes.push(idx);
        cat.relation_mut(tid).unwrap().archive = Some(Oid(999));
        cat.relation_mut(tid).unwrap().no_history = true;
        let ty = cat.define_type("avhrr").unwrap();
        cat.define_proc(ProcEntry {
            name: "pixelavg".into(),
            nargs: 1,
            ret: TypeId::FLOAT8,
            impl_key: "inversion.pixelavg".into(),
            operates_on: Some(ty),
        })
        .unwrap();
        cat.define_rule(RuleEntry {
            name: "r".into(),
            on_rel: tid,
            event: RuleEvent::OnUpdate,
            qual: "size > 10".into(),
            action: "migrate(file, 1)".into(),
        })
        .unwrap();

        let dec = Catalog::decode(&cat.encode()).unwrap();
        assert_eq!(dec.next_oid, cat.next_oid);
        assert_eq!(dec.relation(tid).unwrap(), cat.relation(tid).unwrap());
        assert_eq!(dec.relation(idx).unwrap(), cat.relation(idx).unwrap());
        assert_eq!(dec.type_by_name("avhrr").unwrap(), ty);
        assert_eq!(dec.proc("pixelavg").unwrap(), cat.proc("pixelavg").unwrap());
        assert_eq!(dec.rules(), cat.rules());
        // Fresh oids from the decoded catalog do not collide.
        let mut dec = dec;
        let fresh = dec.alloc_oid();
        assert!(fresh.0 >= cat.next_oid);
    }

    #[test]
    fn decode_garbage_fails_cleanly() {
        assert!(Catalog::decode(&[1, 2, 3]).is_err());
        let mut cat = Catalog::new();
        cat.add_relation(heap_entry(&mut cat.clone_for_test(), "x"))
            .ok();
        let enc = Catalog::new().encode();
        for cut in 0..enc.len() {
            let _ = Catalog::decode(&enc[..cut]); // Must not panic.
        }
    }
}
