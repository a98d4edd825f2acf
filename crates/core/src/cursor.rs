//! A cursor-style host-language interface.
//!
//! The paper's InfoExec environment "supports SIM database interfaces in
//! COBOL, ALGOL and Pascal" which consume the *fully structured* output
//! form — "multiple record formats, and every output record is described by
//! one of these formats … particularly useful in the host language
//! interfaces to SIM" (§4.5). [`StructuredCursor`] is the Rust equivalent:
//! a query's records delivered one at a time, each tagged with its format
//! and level number, so an application can rebuild the hierarchy without
//! materializing a cross-product table.

use crate::database::Database;
use crate::error::SimError;
use sim_query::{QueryOutput, StructRecord};
use sim_types::Value;

/// One delivered record.
#[derive(Debug, Clone, PartialEq)]
pub struct CursorRecord {
    /// Format index (which TYPE 1/3 variable produced it).
    pub format: usize,
    /// Level number (§4.5/§4.7).
    pub level: u32,
    /// Column names of this format.
    pub columns: Vec<String>,
    /// The values, parallel to `columns`.
    pub values: Vec<Value>,
}

/// A forward-only cursor over a query's structured output.
#[derive(Debug)]
pub struct StructuredCursor {
    formats: Vec<Vec<String>>,
    records: std::vec::IntoIter<StructRecord>,
}

impl StructuredCursor {
    /// The record formats (column names per TYPE 1/3 variable, in loop
    /// order) — the "multiple record formats" of §4.5.
    pub fn formats(&self) -> &[Vec<String>] {
        &self.formats
    }

    /// Fetch the next record, or `None` at end of set.
    pub fn fetch(&mut self) -> Option<CursorRecord> {
        let rec = self.records.next()?;
        Some(CursorRecord {
            columns: self.formats[rec.format].clone(),
            format: rec.format,
            level: rec.level,
            values: rec.values,
        })
    }
}

impl Iterator for StructuredCursor {
    type Item = CursorRecord;

    fn next(&mut self) -> Option<CursorRecord> {
        self.fetch()
    }
}

impl Database {
    /// Open a structured cursor over a retrieve. The query is executed with
    /// the `STRUCTURE` output mode regardless of how it was written.
    pub fn open_cursor(&self, dml: &str) -> Result<StructuredCursor, SimError> {
        // Rewrite the mode on the parsed statement, then take the ordinary
        // retrieve route (plan cache, plan verifier) on its rendering.
        let parsed = sim_dml::parse_statement(dml).map_err(sim_query::QueryError::from)?;
        let sim_dml::Statement::Retrieve(mut r) = parsed else {
            return Err(SimError::Query(sim_query::QueryError::Analyze(
                "open_cursor accepts a single retrieve statement".into(),
            )));
        };
        r.mode = sim_dml::OutputMode::Structure;
        let out = self.query(&sim_dml::Statement::Retrieve(r).to_string())?;
        let QueryOutput::Structure { formats, records } = out else {
            unreachable!("mode forced to Structure");
        };
        Ok(StructuredCursor { formats, records: records.into_iter() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::university();
        db.set_enforce_verifies(false);
        db.run(
            r#"Insert course(course-no := 1, title := "A", credits := 3).
               Insert course(course-no := 2, title := "B", credits := 4).
               Insert student(name := "S", soc-sec-no := 1,
                   courses-enrolled := course with (course-no = 1)).
               Modify student (courses-enrolled := include course with (course-no = 2))
                   Where soc-sec-no = 1."#,
        )
        .unwrap();
        db
    }

    #[test]
    fn cursor_streams_structured_records() {
        let db = db();
        let mut cur =
            db.open_cursor("From student Retrieve name, title of courses-enrolled.").unwrap();
        assert_eq!(cur.formats().len(), 2);
        let first = cur.fetch().unwrap();
        assert_eq!(first.format, 0);
        assert_eq!(first.level, 1);
        assert_eq!(first.values, vec![Value::Str("S".into())]);
        let kids: Vec<CursorRecord> = cur.collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|r| r.format == 1 && r.level == 2));
        assert_eq!(kids[0].columns, vec!["title of courses-enrolled".to_string()]);
    }

    #[test]
    fn cursor_rejects_updates_and_scripts() {
        let db = db();
        assert!(db.open_cursor("Delete student.").is_err());
        assert!(db.open_cursor("From student Retrieve name. From course Retrieve title.").is_err());
    }

    #[test]
    fn cursor_is_an_iterator() {
        let db = db();
        let total: usize = db.open_cursor("From course Retrieve title.").unwrap().count();
        assert_eq!(total, 2);
    }
}
