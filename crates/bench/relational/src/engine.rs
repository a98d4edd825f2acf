//! The relational baseline database.

use crate::table::{decode_row_tagged, encode_row_tagged, ColumnDef, TableId};
use sim_storage::{BTreeId, FileId, IoSnapshot, RecordId, StorageEngine, StorageError};
use sim_types::{ordered, Value};
use std::collections::HashMap;

struct TableState {
    name: String,
    columns: Vec<ColumnDef>,
    file: FileId,
    /// Column index → index tree.
    indexes: HashMap<usize, (BTreeId, bool)>,
    row_count: usize,
}

/// A small relational database over the shared storage substrate.
pub struct RelationalDb {
    engine: StorageEngine,
    tables: Vec<TableState>,
    by_name: HashMap<String, TableId>,
}

impl RelationalDb {
    /// A new database with `pool_capacity` buffer frames.
    pub fn new(pool_capacity: usize) -> RelationalDb {
        RelationalDb {
            engine: StorageEngine::new(pool_capacity),
            tables: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// I/O statistics (shared substrate: comparable with the SIM side).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.engine.io_snapshot()
    }

    /// Drop all cached pages (cold-start experiments).
    pub fn clear_cache(&self) {
        let _ = self.engine.pool().clear_cache();
    }

    /// Create a table. Column names are lower-cased.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: &[(&str, bool)], // (name, unique)
    ) -> Result<TableId, StorageError> {
        let file = self.engine.create_file()?;
        let mut defs = Vec::with_capacity(columns.len());
        let mut indexes = HashMap::new();
        for (i, (cname, unique)) in columns.iter().enumerate() {
            defs.push(ColumnDef {
                name: cname.to_ascii_lowercase(),
                unique: *unique,
                indexed: *unique,
            });
            if *unique {
                indexes.insert(i, (self.engine.create_btree(true)?, true));
            }
        }
        let id = TableId(self.tables.len() as u32);
        self.tables.push(TableState {
            name: name.to_ascii_lowercase(),
            columns: defs,
            file,
            indexes,
            row_count: 0,
        });
        self.by_name.insert(name.to_ascii_lowercase(), id);
        Ok(id)
    }

    /// Add a secondary (non-unique) index on a column, building it from
    /// existing rows.
    pub fn create_index(&mut self, table: TableId, column: &str) -> Result<(), StorageError> {
        let col = self.column_index(table, column)?;
        if self.tables[table.0 as usize].indexes.contains_key(&col) {
            return Ok(());
        }
        let tree = self.engine.create_btree(false)?;
        let rows = self.engine.heap_scan_all(self.tables[table.0 as usize].file)?;
        let mut txn = self.engine.begin();
        for (rid, bytes) in rows {
            let row =
                decode_row_tagged(&bytes).ok_or_else(|| StorageError::Corrupt("bad row".into()))?;
            if !row[col].is_null() {
                let key = ordered::encode_key(std::slice::from_ref(&row[col]));
                self.engine.btree_insert(&mut txn, tree, &key, &rid.to_bytes())?;
            }
        }
        self.engine.commit(txn)?;
        let t = &mut self.tables[table.0 as usize];
        t.indexes.insert(col, (tree, false));
        t.columns[col].indexed = true;
        Ok(())
    }

    /// Look a table up by name.
    pub fn table(&self, name: &str) -> Option<TableId> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    /// Column position by name.
    pub fn column_index(&self, table: TableId, column: &str) -> Result<usize, StorageError> {
        let t = &self.tables[table.0 as usize];
        t.columns
            .iter()
            .position(|c| c.name == column.to_ascii_lowercase())
            .ok_or_else(|| StorageError::UnknownStructure(format!("column {column} of {}", t.name)))
    }

    /// Number of rows.
    pub fn row_count(&self, table: TableId) -> usize {
        self.tables[table.0 as usize].row_count
    }

    /// Insert a row.
    pub fn insert(&mut self, table: TableId, values: &[Value]) -> Result<RecordId, StorageError> {
        let t = &self.tables[table.0 as usize];
        assert_eq!(values.len(), t.columns.len(), "arity mismatch on {}", t.name);
        let file = t.file;
        let indexes: Vec<(usize, BTreeId)> =
            t.indexes.iter().map(|(c, (tree, _))| (*c, *tree)).collect();
        let bytes = encode_row_tagged(values);
        let mut txn = self.engine.begin();
        let rid = self.engine.heap_insert(&mut txn, file, &bytes)?;
        for (col, tree) in indexes {
            if !values[col].is_null() {
                let key = ordered::encode_key(std::slice::from_ref(&values[col]));
                if let Err(e) = self.engine.btree_insert(&mut txn, tree, &key, &rid.to_bytes()) {
                    self.engine.abort(txn)?;
                    return Err(e);
                }
            }
        }
        self.engine.commit(txn)?;
        self.tables[table.0 as usize].row_count += 1;
        Ok(rid)
    }

    /// Full scan.
    pub fn scan(&self, table: TableId) -> Result<Vec<Vec<Value>>, StorageError> {
        let t = &self.tables[table.0 as usize];
        self.engine
            .heap_scan_all(t.file)?
            .into_iter()
            .map(|(_, b)| {
                decode_row_tagged(&b).ok_or_else(|| StorageError::Corrupt("bad row".into()))
            })
            .collect()
    }

    /// Rows where `column = value`, via an index when available.
    pub fn select_eq(
        &self,
        table: TableId,
        column: &str,
        value: &Value,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let col = self.column_index(table, column)?;
        let t = &self.tables[table.0 as usize];
        if let Some((tree, _)) = t.indexes.get(&col) {
            let key = ordered::encode_key(std::slice::from_ref(value));
            let mut out = Vec::new();
            for rid_bytes in self.engine.btree_scan_key(*tree, &key)? {
                let rid = RecordId::from_bytes(&rid_bytes)?;
                if let Some(bytes) = self.engine.heap_get(t.file, rid)? {
                    out.push(
                        decode_row_tagged(&bytes)
                            .ok_or_else(|| StorageError::Corrupt("bad row".into()))?,
                    );
                }
            }
            return Ok(out);
        }
        Ok(self.scan(table)?.into_iter().filter(|r| r[col].total_cmp(value).is_eq()).collect())
    }

    /// Nested-loop (or index-nested-loop) equi-join: returns concatenated
    /// rows where `left.lcol = right.rcol`.
    pub fn join_eq(
        &self,
        left: TableId,
        lcol: &str,
        right: TableId,
        rcol: &str,
    ) -> Result<Vec<Vec<Value>>, StorageError> {
        let lc = self.column_index(left, lcol)?;
        let rc = self.column_index(right, rcol)?;
        let right_indexed = self.tables[right.0 as usize].indexes.contains_key(&rc);
        let left_rows = self.scan(left)?;
        let mut out = Vec::new();
        if right_indexed {
            for l in left_rows {
                if l[lc].is_null() {
                    continue;
                }
                for r in self.select_eq(right, rcol, &l[lc])? {
                    let mut row = l.clone();
                    row.extend(r);
                    out.push(row);
                }
            }
        } else {
            let right_rows = self.scan(right)?;
            for l in left_rows {
                if l[lc].is_null() {
                    continue;
                }
                for r in &right_rows {
                    if l[lc].total_cmp(&r[rc]).is_eq() {
                        let mut row = l.clone();
                        row.extend(r.clone());
                        out.push(row);
                    }
                }
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for RelationalDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationalDb").field("tables", &self.tables.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: i64) -> Value {
        Value::Int(n)
    }

    #[test]
    fn create_insert_scan() {
        let mut db = RelationalDb::new(64);
        let t = db.create_table("person", &[("id", true), ("name", false)]).unwrap();
        db.insert(t, &[v(1), Value::Str("Ann".into())]).unwrap();
        db.insert(t, &[v(2), Value::Str("Bob".into())]).unwrap();
        assert_eq!(db.row_count(t), 2);
        assert_eq!(db.scan(t).unwrap().len(), 2);
        assert_eq!(db.table("PERSON"), Some(t));
    }

    #[test]
    fn unique_index_enforced_and_probed() {
        let mut db = RelationalDb::new(64);
        let t = db.create_table("person", &[("id", true), ("name", false)]).unwrap();
        db.insert(t, &[v(1), Value::Str("Ann".into())]).unwrap();
        assert!(matches!(
            db.insert(t, &[v(1), Value::Str("Dup".into())]),
            Err(StorageError::DuplicateKey)
        ));
        // The failed insert rolled back fully.
        assert_eq!(db.scan(t).unwrap().len(), 1);
        let rows = db.select_eq(t, "id", &v(1)).unwrap();
        assert_eq!(rows[0][1], Value::Str("Ann".into()));
    }

    #[test]
    fn secondary_index_backfills() {
        let mut db = RelationalDb::new(64);
        let t = db.create_table("enroll", &[("student", false), ("course", false)]).unwrap();
        for i in 0..100 {
            db.insert(t, &[v(i % 10), v(i)]).unwrap();
        }
        db.create_index(t, "student").unwrap();
        assert_eq!(db.select_eq(t, "student", &v(3)).unwrap().len(), 10);
    }

    #[test]
    fn joins_with_and_without_index() {
        let mut db = RelationalDb::new(128);
        let s = db.create_table("student", &[("id", true), ("advisor", false)]).unwrap();
        let i = db.create_table("instructor", &[("id", true), ("name", false)]).unwrap();
        db.insert(i, &[v(10), Value::Str("Ann".into())]).unwrap();
        db.insert(i, &[v(11), Value::Str("Joe".into())]).unwrap();
        db.insert(s, &[v(1), v(10)]).unwrap();
        db.insert(s, &[v(2), v(10)]).unwrap();
        db.insert(s, &[v(3), v(11)]).unwrap();
        db.insert(s, &[v(4), Value::Null]).unwrap();
        let joined = db.join_eq(s, "advisor", i, "id").unwrap();
        assert_eq!(joined.len(), 3, "null advisors do not join");
        // Join through an unindexed column too.
        let joined2 = db.join_eq(i, "id", s, "advisor").unwrap();
        assert_eq!(joined2.len(), 3);
    }
}
