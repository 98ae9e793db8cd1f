//! Running user code inside the data manager.
//!
//! "A final strategy is to exploit the extensibility of Inversion to run the
//! benchmark directly in the file system ... the routines for the benchmark
//! were declared to POSTGRES as user-defined functions, and were dynamically
//! loaded into the POSTGRES data manager on invocation. This represents the
//! best performance available to users under Inversion, since the benchmark
//! and the file system are running in the same address space, and no data
//! must be copied between them."
//!
//! [`InversionFs::client`] is that path: a direct [`InvClient`] — no
//! network endpoint, no cross-address-space copies; only device and
//! buffer-cache costs accrue. [`register_procedure`] registers such a
//! closure in the catalog so it can be *invoked from the query language*
//! like any other user-defined function.

use minidb::{Datum, DbResult, TypeId};

use crate::api::InvClient;
use crate::fs::{InvResult, InversionFs};

/// Registers `f` as a query-language function `name()` executing inside the
/// data manager with its own client. The function takes the datum arguments
/// and must return a datum.
pub fn register_procedure(
    fs: &InversionFs,
    name: &str,
    nargs: usize,
    ret: TypeId,
    f: impl Fn(&mut InvClient, &[Datum]) -> DbResult<Datum> + Send + Sync + 'static,
) -> InvResult<()> {
    let key = format!("inversion.proc.{name}");
    fs.register_function(&key, move |fs, _s, args| {
        // The procedure gets its own client (and thus its own transaction
        // scope); POSTGRES ran dynamically loaded code with the data
        // manager's permissions in exactly this way.
        let mut client = fs.client();
        f(&mut client, args)
    });
    crate::types::ensure_defined(fs.db().define_function(name, nargs, ret, &key, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CreateMode;
    use minidb::DbError;

    #[test]
    fn registered_procedure_callable_from_query_language() {
        let fs = InversionFs::open_in_memory().unwrap();
        let mut c = fs.client();
        c.write_all("/data", CreateMode::default(), &vec![9u8; 4000])
            .unwrap();

        register_procedure(&fs, "filesize_of", 1, TypeId::INT8, |client, args| {
            let path = args[0].as_text()?.to_string();
            let stat = client
                .p_stat(&path, None)
                .map_err(|e| DbError::Eval(e.to_string()))?;
            Ok(Datum::Int8(stat.size as i64))
        })
        .unwrap();

        let mut s = fs.db().begin().unwrap();
        let r = s.query(r#"retrieve (n = filesize_of("/data"))"#).unwrap();
        s.commit().unwrap();
        assert_eq!(r.rows[0][0], Datum::Int8(4000));
    }

    #[test]
    fn reregistration_is_idempotent() {
        let fs = InversionFs::open_in_memory().unwrap();
        for _ in 0..2 {
            register_procedure(&fs, "noop", 0, TypeId::BOOL, |_c, _a| Ok(Datum::Bool(true)))
                .unwrap();
        }
        assert!(fs.db().resolve_function("noop").is_ok());
    }
}
