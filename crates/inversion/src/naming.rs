//! Namespace management: pathname parsing, resolution, and directory ops.
//!
//! "Inversion stores the file system namespace in a table
//! `naming(filename, parentid, file)` ... A hierarchical namespace is
//! imposed by having individual files point at their parent's naming
//! entries." Resolution walks the `(parentid, filename)` B-tree index one
//! component at a time; pathname construction walks the `(file)` index
//! upward. All of it is ordinary transactional table access, so namespace
//! changes commit or abort atomically with everything else.

use minidb::{Datum, Oid, Session, Tid};

use crate::fs::{
    dir_fileatt_row, file_fileatt_row, CreateMode, FileKind, FileStat, InvError, InvResult,
    InversionFs, N_FILE, N_FILENAME, N_PARENTID,
};

/// Splits an absolute path into components, resolving `.` and `..`
/// lexically.
pub fn parse_path(path: &str) -> InvResult<Vec<String>> {
    if !path.starts_with('/') {
        return Err(InvError::BadPath(format!("{path}: paths must be absolute")));
    }
    let mut out: Vec<String> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            c => out.push(c.to_string()),
        }
    }
    Ok(out)
}

impl InversionFs {
    /// Looks up one directory entry, returning `(naming tid, child oid)`.
    pub(crate) fn lookup_child(
        &self,
        session: &mut Session,
        parent: Oid,
        name: &str,
    ) -> InvResult<Option<(Tid, Oid)>> {
        let key = [Datum::Oid(parent.0), Datum::Text(name.to_string())];
        let hit = session.index_lookup_unique(self.rels.naming_dir_idx, &key)?;
        Ok(hit.map(|(tid, row)| (tid, Oid(row[N_FILE].as_oid().unwrap_or(0)))))
    }

    /// Checks that `(parent, name)` is free *for this transaction to claim*.
    ///
    /// The lookup is an ordinary read: under `naming`'s lock it sees the
    /// latest committed entries. Taking the *exclusive* lock before it is a
    /// lock-order choice: two creators that each read under the shared
    /// lock and upgrade at the insert would wait on one another until one
    /// is refused with `Deadlock`.
    pub(crate) fn name_free_for_write(
        &self,
        session: &mut Session,
        parent: Oid,
        name: &str,
    ) -> InvResult<bool> {
        session.lock_exclusive(self.rels.naming)?;
        Ok(self.lookup_child(session, parent, name)?.is_none())
    }

    /// Resolves `path` to a file oid.
    pub fn resolve(&self, session: &mut Session, path: &str) -> InvResult<Oid> {
        let comps = parse_path(path)?;
        let mut cur = self.root;
        for (i, comp) in comps.iter().enumerate() {
            let Some((_, child)) = self.lookup_child(session, cur, comp)? else {
                return Err(InvError::NoSuchPath(path.to_string()));
            };
            // Intermediate components must be directories.
            if i + 1 < comps.len() {
                let stat = self.stat_oid(session, child)?;
                if stat.kind != FileKind::Directory {
                    return Err(InvError::NotADirectory(comp.clone()));
                }
            }
            cur = child;
        }
        Ok(cur)
    }

    /// Resolves the parent directory of `path`, returning
    /// `(parent oid, final component)`.
    pub(crate) fn resolve_parent(&self, session: &mut Session, path: &str) -> InvResult<(Oid, String)> {
        let mut comps = parse_path(path)?;
        let name = comps
            .pop()
            .ok_or_else(|| InvError::BadPath(format!("{path}: no final component")))?;
        let mut cur = self.root;
        for comp in &comps {
            let Some((_, child)) = self.lookup_child(session, cur, comp)? else {
                return Err(InvError::NoSuchPath(path.to_string()));
            };
            let stat = self.stat_oid(session, child)?;
            if stat.kind != FileKind::Directory {
                return Err(InvError::NotADirectory(comp.clone()));
            }
            cur = child;
        }
        Ok((cur, name))
    }

    /// Constructs the absolute pathname of `oid` ("routines ... to construct
    /// pathnames for particular file identifiers").
    pub fn path_of(&self, session: &mut Session, oid: Oid) -> InvResult<String> {
        if oid == self.root {
            return Ok("/".into());
        }
        let mut parts: Vec<String> = Vec::new();
        let mut cur = oid;
        for _depth in 0..4096 {
            let key = [Datum::Oid(cur.0)];
            let hits = session.index_scan_eq(self.rels.naming_file_idx, &key)?;
            let (_, row) = hits
                .into_iter()
                .next()
                .ok_or_else(|| InvError::NoSuchPath(format!("oid {cur}")))?;
            let name = row[N_FILENAME].as_text()?.to_string();
            let parent = Oid(row[N_PARENTID].as_oid()?);
            if name == "/" {
                break;
            }
            parts.push(name);
            if parent == self.root {
                break;
            }
            cur = parent;
        }
        parts.reverse();
        Ok(format!("/{}", parts.join("/")))
    }

    /// Lists a directory: `(name, oid)` pairs in name order.
    pub fn readdir(&self, session: &mut Session, dir: Oid) -> InvResult<Vec<(String, Oid)>> {
        let stat = self.stat_oid(session, dir)?;
        if stat.kind != FileKind::Directory {
            return Err(InvError::NotADirectory(format!("oid {dir}")));
        }
        // Prefix range scan over (parentid, *): the bare [oid] key sorts
        // before any [oid, name] and [oid, U+10FFFF...] after.
        let lo = [Datum::Oid(dir.0)];
        let hi = [Datum::Oid(dir.0), Datum::Text("\u{10FFFF}".into())];
        let mut out = Vec::new();
        match session.as_of() {
            Some(_) => {
                // A listing of the past filters a scan of `naming`: only a
                // point probe also searches the archive the vacuum cleaner
                // moved old entries to, and a range walk cannot.
                for (_, row) in session.seq_scan(self.rels.naming)? {
                    if row[N_PARENTID].as_oid()? == dir.0 {
                        out.push((
                            row[N_FILENAME].as_text()?.to_string(),
                            Oid(row[N_FILE].as_oid()?),
                        ));
                    }
                }
                out.sort();
            }
            None => {
                session.index_scan_range(
                    self.rels.naming_dir_idx,
                    Some(&lo),
                    Some(&hi),
                    |_, row| {
                        out.push((
                            row[N_FILENAME].as_text().unwrap_or_default().to_string(),
                            Oid(row[N_FILE].as_oid().unwrap_or(0)),
                        ));
                        Ok(true)
                    },
                )?;
            }
        }
        Ok(out)
    }

    /// Creates a new regular file — data relation, chunk index, directory
    /// entry, `fileatt` row — all in the caller's session (transaction);
    /// returns its stat.
    pub(crate) fn create_file_at(
        &self,
        session: &mut Session,
        path: &str,
        mode: &CreateMode,
    ) -> InvResult<FileStat> {
        let (parent, name) = self.resolve_parent(session, path)?;
        if !self.name_free_for_write(session, parent, &name)? {
            return Err(InvError::Exists(path.to_string()));
        }
        let pstat = self.stat_oid(session, parent)?;
        if pstat.kind != FileKind::Directory {
            return Err(InvError::NotADirectory(path.to_string()));
        }
        let oid = self.db().alloc_oid()?;
        let (datarel, chunkidx) = self.create_data_rel(session, oid, mode.device, mode.no_history)?;
        let now = self.db().now();
        session.insert(
            self.rels.naming,
            vec![Datum::Text(name), Datum::Oid(parent.0), Datum::Oid(oid.0)],
        )?;
        let row = file_fileatt_row(oid, mode, now, datarel, chunkidx);
        session.insert(self.rels.fileatt, row.clone())?;
        InversionFs::stat_from_row(&row)
    }

    /// Creates a directory.
    pub(crate) fn mkdir_at(
        &self,
        session: &mut Session,
        path: &str,
        owner: &str,
    ) -> InvResult<Oid> {
        let (parent, name) = self.resolve_parent(session, path)?;
        if !self.name_free_for_write(session, parent, &name)? {
            return Err(InvError::Exists(path.to_string()));
        }
        let oid = self.db().alloc_oid()?;
        let now = self.db().now();
        session.insert(
            self.rels.naming,
            vec![Datum::Text(name), Datum::Oid(parent.0), Datum::Oid(oid.0)],
        )?;
        session.insert(self.rels.fileatt, dir_fileatt_row(oid, owner, now))?;
        Ok(oid)
    }

    /// Removes a name (and the file's `fileatt` row). Directories must be
    /// empty. The file's data table keeps all historical versions, so a
    /// removed file remains reachable through time travel — this is what
    /// makes `p_undelete` possible.
    pub(crate) fn unlink_at(&self, session: &mut Session, path: &str) -> InvResult<()> {
        let (parent, name) = self.resolve_parent(session, path)?;
        let Some((ntid, oid)) = self.lookup_child(session, parent, &name)? else {
            return Err(InvError::NoSuchPath(path.to_string()));
        };
        let stat = self.stat_oid(session, oid)?;
        if stat.kind == FileKind::Directory && !self.readdir(session, oid)?.is_empty() {
            return Err(InvError::NotEmpty(path.to_string()));
        }
        session.delete(self.rels.naming, ntid)?;
        if let Some((atid, _)) = self.fileatt_row(session, oid)? {
            session.delete(self.rels.fileatt, atid)?;
        }
        Ok(())
    }

    /// Renames `from` to `to` (both absolute). The file keeps its oid, so
    /// open descriptors and `fileatt` are untouched; only `naming` changes.
    pub(crate) fn rename_at(&self, session: &mut Session, from: &str, to: &str) -> InvResult<()> {
        let (fparent, fname) = self.resolve_parent(session, from)?;
        let Some((ntid, oid)) = self.lookup_child(session, fparent, &fname)? else {
            return Err(InvError::NoSuchPath(from.to_string()));
        };
        let (tparent, tname) = self.resolve_parent(session, to)?;
        if !self.name_free_for_write(session, tparent, &tname)? {
            return Err(InvError::Exists(to.to_string()));
        }
        let tp_stat = self.stat_oid(session, tparent)?;
        if tp_stat.kind != FileKind::Directory {
            return Err(InvError::NotADirectory(to.to_string()));
        }
        // A directory may not move under itself: walk the destination's
        // ancestry; hitting the source means the rename would create a
        // cycle in parent pointers.
        let mut cur = tparent;
        for _depth in 0..4096 {
            if cur == oid {
                return Err(InvError::Invalid(format!(
                    "cannot move {from} inside itself"
                )));
            }
            if cur == self.root || !cur.is_valid() {
                break;
            }
            let hits = session.index_scan_eq(self.rels.naming_file_idx, &[Datum::Oid(cur.0)])?;
            let Some((_, row)) = hits.into_iter().next() else {
                break;
            };
            cur = Oid(row[N_PARENTID].as_oid()?);
        }
        session.update(
            self.rels.naming,
            ntid,
            vec![Datum::Text(tname), Datum::Oid(tparent.0), Datum::Oid(oid.0)],
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_paths() {
        assert_eq!(parse_path("/").unwrap(), Vec::<String>::new());
        assert_eq!(parse_path("/etc/passwd").unwrap(), vec!["etc", "passwd"]);
        assert_eq!(parse_path("//a///b/").unwrap(), vec!["a", "b"]);
        assert_eq!(parse_path("/a/./b").unwrap(), vec!["a", "b"]);
        assert_eq!(parse_path("/a/../b").unwrap(), vec!["b"]);
        assert_eq!(parse_path("/../..").unwrap(), Vec::<String>::new());
        assert!(parse_path("relative/path").is_err());
        assert!(parse_path("").is_err());
    }

    #[test]
    fn mkdir_resolve_readdir() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        let etc = fs.mkdir_at(&mut s, "/etc", "root").unwrap();
        fs.mkdir_at(&mut s, "/usr", "root").unwrap();
        fs.mkdir_at(&mut s, "/etc/rc.d", "root").unwrap();
        assert_eq!(fs.resolve(&mut s, "/etc").unwrap(), etc);
        let entries = fs.readdir(&mut s, fs.root()).unwrap();
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["etc", "usr"]);
        let entries = fs.readdir(&mut s, etc).unwrap();
        assert_eq!(entries[0].0, "rc.d");
        s.commit().unwrap();
    }

    #[test]
    fn paper_table_1_structure() {
        // Table 1: naming entries for "/etc/passwd" chain root -> etc ->
        // passwd via parentid.
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        fs.mkdir_at(&mut s, "/etc", "root").unwrap();
        fs.create_file_at(&mut s, "/etc/passwd", &CreateMode::default())
            .unwrap();
        let rows = s.seq_scan(fs.db().relation_id("naming").unwrap()).unwrap();
        s.commit().unwrap();

        let find = |name: &str| {
            rows.iter()
                .map(|(_, r)| r)
                .find(|r| r[N_FILENAME].as_text().unwrap() == name)
                .unwrap()
        };
        let root = find("/");
        let etc = find("etc");
        let passwd = find("passwd");
        assert_eq!(root[N_PARENTID].as_oid().unwrap(), 0);
        assert_eq!(
            etc[N_PARENTID].as_oid().unwrap(),
            root[N_FILE].as_oid().unwrap()
        );
        assert_eq!(
            passwd[N_PARENTID].as_oid().unwrap(),
            etc[N_FILE].as_oid().unwrap()
        );
    }

    #[test]
    fn path_of_inverts_resolve() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        fs.mkdir_at(&mut s, "/users", "root").unwrap();
        fs.mkdir_at(&mut s, "/users/mao", "mao").unwrap();
        let f = fs
            .create_file_at(&mut s, "/users/mao/thesis.tex", &CreateMode::default())
            .unwrap();
        assert_eq!(
            fs.path_of(&mut s, f.oid).unwrap(),
            "/users/mao/thesis.tex"
        );
        assert_eq!(fs.path_of(&mut s, fs.root()).unwrap(), "/");
        s.commit().unwrap();
    }

    #[test]
    fn resolution_errors() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        assert!(matches!(
            fs.resolve(&mut s, "/nope"),
            Err(InvError::NoSuchPath(_))
        ));
        fs.create_file_at(&mut s, "/file", &CreateMode::default())
            .unwrap();
        // A file used as a directory component.
        assert!(matches!(
            fs.resolve(&mut s, "/file/deeper"),
            Err(InvError::NotADirectory(_))
        ));
        // Duplicate creation.
        assert!(matches!(
            fs.create_file_at(&mut s, "/file", &CreateMode::default()),
            Err(InvError::Exists(_))
        ));
        s.abort().unwrap();
    }

    #[test]
    fn unlink_and_rmdir_semantics() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        fs.mkdir_at(&mut s, "/d", "root").unwrap();
        fs.create_file_at(&mut s, "/d/f", &CreateMode::default())
            .unwrap();
        // Non-empty directory refuses.
        assert!(matches!(
            fs.unlink_at(&mut s, "/d"),
            Err(InvError::NotEmpty(_))
        ));
        fs.unlink_at(&mut s, "/d/f").unwrap();
        assert!(matches!(
            fs.resolve(&mut s, "/d/f"),
            Err(InvError::NoSuchPath(_))
        ));
        fs.unlink_at(&mut s, "/d").unwrap();
        assert!(fs.resolve(&mut s, "/d").is_err());
        s.commit().unwrap();
    }

    #[test]
    fn rename_moves_between_directories() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        fs.mkdir_at(&mut s, "/a", "root").unwrap();
        fs.mkdir_at(&mut s, "/b", "root").unwrap();
        let f = fs
            .create_file_at(&mut s, "/a/x", &CreateMode::default())
            .unwrap();
        fs.rename_at(&mut s, "/a/x", "/b/y").unwrap();
        assert!(fs.resolve(&mut s, "/a/x").is_err());
        assert_eq!(fs.resolve(&mut s, "/b/y").unwrap(), f.oid);
        assert_eq!(fs.path_of(&mut s, f.oid).unwrap(), "/b/y");
        // Rename onto an existing name fails.
        fs.create_file_at(&mut s, "/a/z", &CreateMode::default())
            .unwrap();
        assert!(matches!(
            fs.rename_at(&mut s, "/a/z", "/b/y"),
            Err(InvError::Exists(_))
        ));
        s.commit().unwrap();
    }

    #[test]
    fn namespace_changes_are_transactional() {
        let fs = InversionFs::open_in_memory().unwrap();
        // Abort a mkdir: it never happened.
        let mut s = fs.db().begin().unwrap();
        fs.mkdir_at(&mut s, "/ghost", "root").unwrap();
        s.abort().unwrap();
        let mut s = fs.db().begin().unwrap();
        assert!(fs.resolve(&mut s, "/ghost").is_err());
        s.commit().unwrap();
    }

    #[test]
    fn historical_resolution_after_unlink() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut s = fs.db().begin().unwrap();
        let f = fs
            .create_file_at(&mut s, "/doomed", &CreateMode::default())
            .unwrap();
        s.commit().unwrap();
        let t_alive = fs.db().now();

        let mut s = fs.db().begin().unwrap();
        fs.unlink_at(&mut s, "/doomed").unwrap();
        s.commit().unwrap();

        let mut s = fs.db().begin().unwrap();
        assert!(fs.resolve(&mut s, "/doomed").is_err());
        let mut past = fs.db().snapshot_at(t_alive);
        assert_eq!(fs.resolve(&mut past, "/doomed").unwrap(), f.oid);
        // Historical readdir shows it too.
        let entries = fs.readdir(&mut past, fs.root()).unwrap();
        assert_eq!(entries, vec![("doomed".into(), f.oid)]);
        s.commit().unwrap();
    }
}
