//! Cross-crate integration: the full life of a database through the public
//! facade — DDL, population, queries, updates, integrity, introspection.

use sim::{Database, Value};

fn s(v: &str) -> Value {
    Value::Str(v.into())
}

#[test]
fn custom_schema_end_to_end() {
    let mut db = Database::create(
        r#"
        Type priority = symbolic (low, medium, high);

        Class Project (
            code: integer unique required;
            title: string[60] required;
            kind: subrole (funded-project) );

        Subclass Funded-Project of Project (
            budget: number[12,2] );

        Class Engineer (
            badge: integer unique required;
            name: string[40] required;
            assignments: project inverse is staff mv (max 4) );

        Verify sane-budget on Funded-Project
            assert budget >= 0
            else "budgets cannot be negative";
        "#,
    )
    .expect("schema compiles");

    db.run(
        r#"
        Insert project(code := 1, title := "Skunkworks").
        Insert funded-project(code := 2, title := "Mainline", budget := 250000.00).
        Insert engineer(badge := 10, name := "Mel",
            assignments := project with (code = 1)).
        Insert engineer(badge := 11, name := "Lin").
        Modify engineer (assignments := include project with (code = 2))
            Where badge = 10.
        Modify engineer (assignments := include project with (code = 2))
            Where badge = 11.
        "#,
    )
    .unwrap();

    // Inverse maintained automatically.
    let out = db.query("From project Retrieve title, name of staff Where code = 2.").unwrap();
    assert_eq!(out.rows(), &[vec![s("Mainline"), s("Mel")], vec![s("Mainline"), s("Lin")]]);

    // Role extension via INSERT … FROM.
    db.run_one(r#"Insert funded-project From project Where code = 1 (budget := 10000.00)."#)
        .unwrap();
    let out = db.query("From funded-project Retrieve title, budget.").unwrap();
    assert_eq!(out.rows().len(), 2);

    // The VERIFY fires and rolls back.
    let err = db.run_one(r#"Modify funded-project (budget := 0 - 1) Where code = 1."#).unwrap_err();
    assert!(err.is_integrity_violation());
    let out = db.query("From funded-project Retrieve budget Where code = 1.").unwrap();
    assert_eq!(out.rows()[0][0].to_string(), "10000.00");

    // MAX 4 assignments enforced by the mapper.
    db.run(
        r#"Insert project(code := 3, title := "P3").
           Insert project(code := 4, title := "P4").
           Modify engineer (assignments := include project with (code = 3)) Where badge = 10.
           Modify engineer (assignments := include project with (code = 4)) Where badge = 10."#,
    )
    .unwrap();
    db.run_one(r#"Insert project(code := 5, title := "P5")."#).unwrap();
    let err = db
        .run_one(
            r#"Modify engineer (assignments := include project with (code = 5)) Where badge = 10."#,
        )
        .unwrap_err();
    assert!(err.to_string().contains("MAX"), "{err}");

    // Deleting a project detaches it from every engineer.
    db.run_one("Delete project Where code = 2.").unwrap();
    let out = db.query("From engineer Retrieve name, count(assignments) of engineer.").unwrap();
    assert_eq!(out.rows(), &[vec![s("Mel"), Value::Int(3)], vec![s("Lin"), Value::Int(0)]]);
}

#[test]
fn subrole_and_isa_track_role_changes() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    db.run(
        r#"Insert person(name := "Flip", soc-sec-no := 9).
           Insert student From person Where soc-sec-no = 9 (student-nbr := 2001)."#,
    )
    .unwrap();
    let out = db.query("From person Retrieve name Where person isa student.").unwrap();
    assert_eq!(out.rows(), &[vec![s("Flip")]]);

    db.run_one("Delete student Where soc-sec-no = 9.").unwrap();
    let out = db.query("From person Retrieve name Where person isa student.").unwrap();
    assert!(out.rows().is_empty());
    // The subrole read reflects the change too.
    let out = db.query("From person Retrieve profession Where soc-sec-no = 9.").unwrap();
    assert_eq!(out.rows(), &[vec![Value::Null]], "no roles -> padded null");
}

#[test]
fn io_statistics_move() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let before = db.io_snapshot();
    db.run(r#"Insert person(name := "IO", soc-sec-no := 77)."#).unwrap();
    db.clear_cache();
    let after_write = db.io_snapshot().since(&before);
    assert!(after_write.writes > 0, "flushing dirty pages counts writes");
    let before = db.io_snapshot();
    db.query("From person Retrieve name.").unwrap();
    let after_cold = db.io_snapshot().since(&before);
    assert!(after_cold.reads > 0, "cold scan reads blocks");
    let before = db.io_snapshot();
    db.query("From person Retrieve name.").unwrap();
    let after_hot = db.io_snapshot().since(&before);
    assert_eq!(after_hot.reads, 0, "hot scan is served from the buffer pool");
}

#[test]
fn secondary_index_changes_plan_and_results_stay_equal() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut script = String::new();
    for k in 0..100 {
        script.push_str(&format!("Insert person(name := \"P-{}\", soc-sec-no := {k}).\n", k % 10));
    }
    db.run(&script).unwrap();

    let q = "From person Retrieve soc-sec-no Where name = \"P-3\".";
    let before_plan = db.explain(q).unwrap();
    assert!(before_plan.explanation[0].contains("scan"));
    let rows_before = db.query(q).unwrap().rows().to_vec();
    assert_eq!(rows_before.len(), 10);

    db.create_index("person", "name").unwrap();
    let after_plan = db.explain(q).unwrap();
    assert!(after_plan.explanation[0].contains("index probe"), "{:?}", after_plan.explanation);
    assert!(after_plan.estimated_io < before_plan.estimated_io);
    let rows_after = db.query(q).unwrap().rows().to_vec();
    assert_eq!(rows_before, rows_after, "plans differ, answers must not");
}

#[test]
fn range_queries_via_index() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut script = String::new();
    for k in 0..50 {
        script.push_str(&format!("Insert person(name := \"R\", soc-sec-no := {k}).\n"));
    }
    db.run(&script).unwrap();
    let q = "From person Retrieve soc-sec-no Where soc-sec-no >= 40.";
    let plan = db.explain(q).unwrap();
    assert!(
        plan.explanation[0].contains("range"),
        "unique index should serve the range: {:?}",
        plan.explanation
    );
    let out = db.query(q).unwrap();
    assert_eq!(out.rows().len(), 10);
    // Boundary inclusivity both ways.
    let le = db.query("From person Retrieve soc-sec-no Where soc-sec-no <= 9.").unwrap();
    assert_eq!(le.rows().len(), 10);
    let lt = db.query("From person Retrieve soc-sec-no Where soc-sec-no < 9.").unwrap();
    assert_eq!(lt.rows().len(), 9);
}

#[test]
fn three_valued_logic_in_where_clauses() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    db.run(
        r#"Insert person(name := "HasDate", soc-sec-no := 1, birthdate := "1960-01-01").
           Insert person(name := "NoDate", soc-sec-no := 2)."#,
    )
    .unwrap();
    // Unknown rejects: the null birthdate matches neither the predicate nor
    // its negation.
    let pos = db.query("From person Retrieve name Where birthdate < \"1970-01-01\".").unwrap();
    assert_eq!(pos.rows(), &[vec![s("HasDate")]]);
    let neg = db.query("From person Retrieve name Where not birthdate < \"1970-01-01\".").unwrap();
    assert!(neg.rows().is_empty());
    // IS-null probing via equality is also unknown (3VL, not SQL IS NULL).
    let eq_null = db.query("From person Retrieve name Where birthdate = null.").unwrap();
    assert!(eq_null.rows().is_empty());
}

#[test]
fn catalog_introspection_matches_paper_schema() {
    let db = Database::university();
    let stats = db.catalog().stats();
    assert_eq!(stats.base_classes, 3);
    assert_eq!(stats.subclasses, 3);
    assert_eq!(stats.dvas, 13);
    // 9 declared EVAs in §7 (spouse self-inverse counted once as a pair):
    // spouse, advisor/advisees, courses-enrolled/students-enrolled,
    // major-department, courses-taught/teachers, assigned-department/
    // instructors-employed, prerequisites/prerequisite-of, courses-offered.
    assert_eq!(stats.eva_pairs, 8);
}

#[test]
fn hash_index_serves_equality_but_not_ranges() {
    let mut db = Database::university();
    db.set_enforce_verifies(false);
    let mut script = String::new();
    for k in 0..200 {
        script.push_str(&format!("Insert person(name := \"H-{}\", soc-sec-no := {k}).\n", k % 20));
    }
    db.run(&script).unwrap();
    db.create_hash_index("person", "name").unwrap();

    let eq = "From person Retrieve soc-sec-no Where name = \"H-7\".";
    let plan = db.explain(eq).unwrap();
    assert!(plan.explanation[0].contains("hash probe"), "{:?}", plan.explanation);
    assert_eq!(db.query(eq).unwrap().rows().len(), 10);
    // Maintained on update.
    db.run_one("Modify person (name := \"H-7\") Where soc-sec-no = 0.").unwrap();
    assert_eq!(db.query(eq).unwrap().rows().len(), 11);

    // Ranges cannot use the hash index ("random keys" serve equality only).
    let range = "From person Retrieve soc-sec-no Where name >= \"H-7\".";
    let plan = db.explain(range).unwrap();
    assert!(plan.explanation[0].contains("scan"), "{:?}", plan.explanation);
}
