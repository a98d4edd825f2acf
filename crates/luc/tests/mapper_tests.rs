//! End-to-end LUC Mapper tests over the paper's UNIVERSITY schema.

use sim_catalog::{AttrId, Catalog, ClassId};
use sim_ddl::university_catalog;
use sim_luc::{AttrOut, AttrValue, Mapper, MapperError};
use sim_types::{Date, Decimal, Surrogate, Value};
use std::sync::Arc;

struct Uni {
    mapper: Mapper,
}

#[allow(dead_code)]
impl Uni {
    fn class(&self, name: &str) -> ClassId {
        self.mapper.catalog().class_by_name(name).unwrap_or_else(|| panic!("class {name}")).id
    }

    fn attr(&self, class: &str, name: &str) -> AttrId {
        let c = self.class(class);
        self.mapper
            .catalog()
            .resolve_attr(c, name)
            .unwrap_or_else(|| panic!("attribute {name} on {class}"))
    }

    fn catalog(&self) -> &Catalog {
        self.mapper.catalog()
    }
}

fn new_uni() -> Uni {
    Uni { mapper: Mapper::new(Arc::new(university_catalog()), 256).expect("mapper") }
}

fn insert_person(uni: &mut Uni, txn: &mut sim_storage::Txn, name: &str, ssn: i64) -> Surrogate {
    let person = uni.class("person");
    let name_attr = uni.attr("person", "name");
    let ssn_attr = uni.attr("person", "soc-sec-no");
    uni.mapper
        .insert_entity(
            txn,
            person,
            &[
                (name_attr, AttrValue::Scalar(Value::Str(name.into()))),
                (ssn_attr, AttrValue::Scalar(Value::Int(ssn))),
            ],
        )
        .expect("insert person")
}

fn insert_student(uni: &mut Uni, txn: &mut sim_storage::Txn, name: &str, ssn: i64) -> Surrogate {
    let student = uni.class("student");
    let name_attr = uni.attr("person", "name");
    let ssn_attr = uni.attr("person", "soc-sec-no");
    uni.mapper
        .insert_entity(
            txn,
            student,
            &[
                (name_attr, AttrValue::Scalar(Value::Str(name.into()))),
                (ssn_attr, AttrValue::Scalar(Value::Int(ssn))),
            ],
        )
        .expect("insert student")
}

fn insert_course(
    uni: &mut Uni,
    txn: &mut sim_storage::Txn,
    no: i64,
    title: &str,
    credits: i64,
) -> Surrogate {
    let course = uni.class("course");
    uni.mapper
        .insert_entity(
            txn,
            course,
            &[
                (uni.attr("course", "course-no"), AttrValue::Scalar(Value::Int(no))),
                (uni.attr("course", "title"), AttrValue::Scalar(Value::Str(title.into()))),
                (uni.attr("course", "credits"), AttrValue::Scalar(Value::Int(credits))),
            ],
        )
        .expect("insert course")
}

#[test]
fn insert_student_creates_person_role_too() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "John Doe", 456887766);
    uni.mapper.commit(txn).unwrap();

    assert!(uni.mapper.has_role(s, uni.class("student")).unwrap());
    assert!(uni.mapper.has_role(s, uni.class("person")).unwrap());
    assert!(!uni.mapper.has_role(s, uni.class("instructor")).unwrap());
    assert_eq!(uni.mapper.entity_count(uni.class("person")), 1);
    assert_eq!(uni.mapper.entity_count(uni.class("student")), 1);

    // Inherited attribute readable through the student role.
    let name = uni.mapper.read_attr(s, uni.attr("person", "name")).unwrap();
    assert_eq!(name, AttrOut::Single(Value::Str("John Doe".into())));
}

#[test]
fn subrole_profession_reflects_roles() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "John Doe", 456887766);
    uni.mapper.commit(txn).unwrap();

    let profession = uni.attr("person", "profession");
    // profession: subrole (student, instructor) — student is label 0.
    assert_eq!(
        uni.mapper.read_attr(s, profession).unwrap(),
        AttrOut::Multi(vec![Value::Str("student".into())])
    );

    // Make John an instructor too (paper §4.9 example 2).
    let mut txn = uni.mapper.begin();
    uni.mapper
        .extend_role(
            &mut txn,
            s,
            uni.class("instructor"),
            &[(uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(1729)))],
        )
        .unwrap();
    uni.mapper.commit(txn).unwrap();

    assert_eq!(
        uni.mapper.read_attr(s, profession).unwrap(),
        AttrOut::Multi(vec![Value::Str("student".into()), Value::Str("instructor".into())])
    );
    assert!(uni.mapper.has_role(s, uni.class("instructor")).unwrap());
    assert_eq!(
        uni.mapper.read_attr(s, uni.attr("instructor", "employee-nbr")).unwrap(),
        AttrOut::Single(Value::Int(1729))
    );
}

#[test]
fn subroles_are_read_only() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "X", 100000001);
    let profession = uni.attr("person", "profession");
    let err = uni.mapper.set_attr(&mut txn, s, profession, AttrValue::Multi(vec![])).unwrap_err();
    assert!(matches!(err, MapperError::ReadOnly(_)));
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn unique_soc_sec_no_enforced() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    insert_person(&mut uni, &mut txn, "A", 111111111);
    let person = uni.class("person");
    let err = uni
        .mapper
        .insert_entity(
            &mut txn,
            person,
            &[
                (uni.attr("person", "name"), AttrValue::Scalar(Value::Str("B".into()))),
                (uni.attr("person", "soc-sec-no"), AttrValue::Scalar(Value::Int(111111111))),
            ],
        )
        .unwrap_err();
    assert!(matches!(err, MapperError::UniqueViolation(_)));
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn required_attributes_enforced() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let person = uni.class("person");
    // soc-sec-no is required.
    let err = uni
        .mapper
        .insert_entity(
            &mut txn,
            person,
            &[(uni.attr("person", "name"), AttrValue::Scalar(Value::Str("B".into())))],
        )
        .unwrap_err();
    assert!(matches!(err, MapperError::RequiredViolation(_)));
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn domain_validation_enforced() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "X", 100000002);
    // student-nbr: id-number = integer (1001..39999, 60001..99999).
    let err = uni
        .mapper
        .set_attr(
            &mut txn,
            s,
            uni.attr("student", "student-nbr"),
            AttrValue::Scalar(Value::Int(50000)),
        )
        .unwrap_err();
    assert!(matches!(err, MapperError::Type(_)));
    uni.mapper
        .set_attr(
            &mut txn,
            s,
            uni.attr("student", "student-nbr"),
            AttrValue::Scalar(Value::Int(1729)),
        )
        .unwrap();
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn spouse_is_one_to_one_and_self_inverse() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let a = insert_person(&mut uni, &mut txn, "A", 1);
    let b = insert_person(&mut uni, &mut txn, "B", 2);
    let c = insert_person(&mut uni, &mut txn, "C", 3);
    let spouse = uni.attr("person", "spouse");

    uni.mapper.set_attr(&mut txn, a, spouse, AttrValue::Scalar(Value::Entity(b))).unwrap();
    assert_eq!(uni.mapper.read_attr(a, spouse).unwrap(), AttrOut::Single(Value::Entity(b)));
    assert_eq!(uni.mapper.read_attr(b, spouse).unwrap(), AttrOut::Single(Value::Entity(a)));

    // Remarriage: A marries C; B is widowed automatically (1:1).
    uni.mapper.set_attr(&mut txn, a, spouse, AttrValue::Scalar(Value::Entity(c))).unwrap();
    assert_eq!(uni.mapper.read_attr(a, spouse).unwrap(), AttrOut::Single(Value::Entity(c)));
    assert_eq!(uni.mapper.read_attr(c, spouse).unwrap(), AttrOut::Single(Value::Entity(a)));
    assert_eq!(uni.mapper.read_attr(b, spouse).unwrap(), AttrOut::Single(Value::Null));
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn advisor_advisees_stay_synchronized() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s1 = insert_student(&mut uni, &mut txn, "S1", 11);
    let s2 = insert_student(&mut uni, &mut txn, "S2", 12);
    let instructor = uni.class("instructor");
    let i1 = uni
        .mapper
        .insert_entity(
            &mut txn,
            instructor,
            &[
                (uni.attr("person", "soc-sec-no"), AttrValue::Scalar(Value::Int(21))),
                (uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(1001))),
            ],
        )
        .unwrap();
    let advisor = uni.attr("student", "advisor");
    let advisees = uni.attr("instructor", "advisees");

    uni.mapper.set_attr(&mut txn, s1, advisor, AttrValue::Scalar(Value::Entity(i1))).unwrap();
    uni.mapper.set_attr(&mut txn, s2, advisor, AttrValue::Scalar(Value::Entity(i1))).unwrap();
    assert_eq!(uni.mapper.eva_partners(i1, advisees).unwrap(), vec![s1, s2]);

    // Clearing the single-valued side removes it from the inverse.
    uni.mapper.set_attr(&mut txn, s1, advisor, AttrValue::Scalar(Value::Null)).unwrap();
    assert_eq!(uni.mapper.eva_partners(i1, advisees).unwrap(), vec![s2]);
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn advisees_max_10_enforced() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let instructor = uni.class("instructor");
    let i1 = uni
        .mapper
        .insert_entity(
            &mut txn,
            instructor,
            &[
                (uni.attr("person", "soc-sec-no"), AttrValue::Scalar(Value::Int(5000))),
                (uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(1002))),
            ],
        )
        .unwrap();
    let advisor = uni.attr("student", "advisor");
    for k in 0..10 {
        let s = insert_student(&mut uni, &mut txn, &format!("S{k}"), 100 + k);
        uni.mapper.set_attr(&mut txn, s, advisor, AttrValue::Scalar(Value::Entity(i1))).unwrap();
    }
    let s11 = insert_student(&mut uni, &mut txn, "S11", 999);
    let err = uni
        .mapper
        .set_attr(&mut txn, s11, advisor, AttrValue::Scalar(Value::Entity(i1)))
        .unwrap_err();
    assert!(matches!(err, MapperError::MaxViolation(_)), "got {err}");
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn many_many_enrollment_and_include_exclude() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "John Doe", 456887766);
    let algebra = insert_course(&mut uni, &mut txn, 101, "Algebra I", 4);
    let calculus = insert_course(&mut uni, &mut txn, 102, "Calculus I", 4);
    let enrolled = uni.attr("student", "courses-enrolled");
    let students = uni.attr("course", "students-enrolled");

    uni.mapper.include_value(&mut txn, s, enrolled, Value::Entity(algebra)).unwrap();
    uni.mapper.include_value(&mut txn, s, enrolled, Value::Entity(calculus)).unwrap();
    assert_eq!(uni.mapper.eva_partners(s, enrolled).unwrap(), vec![algebra, calculus]);
    assert_eq!(uni.mapper.eva_partners(algebra, students).unwrap(), vec![s]);

    // DISTINCT: re-including is a no-op.
    uni.mapper.include_value(&mut txn, s, enrolled, Value::Entity(algebra)).unwrap();
    assert_eq!(uni.mapper.eva_partners(s, enrolled).unwrap().len(), 2);

    // "Let John Doe drop Algebra I" (paper example 3).
    assert!(uni.mapper.exclude_value(&mut txn, s, enrolled, &Value::Entity(algebra)).unwrap());
    assert_eq!(uni.mapper.eva_partners(s, enrolled).unwrap(), vec![calculus]);
    assert!(uni.mapper.eva_partners(algebra, students).unwrap().is_empty());
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn symmetric_prerequisites() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let calc1 = insert_course(&mut uni, &mut txn, 201, "Calculus I", 4);
    let calc2 = insert_course(&mut uni, &mut txn, 202, "Calculus II", 4);
    let prereq = uni.attr("course", "prerequisites");
    let prereq_of = uni.attr("course", "prerequisite-of");

    uni.mapper.include_value(&mut txn, calc2, prereq, Value::Entity(calc1)).unwrap();
    assert_eq!(uni.mapper.eva_partners(calc2, prereq).unwrap(), vec![calc1]);
    assert_eq!(uni.mapper.eva_partners(calc1, prereq_of).unwrap(), vec![calc2]);
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn delete_subclass_role_keeps_superclass() {
    // Paper §4.8: "if an entity of STUDENT is deleted, it will continue to
    // exist in class PERSON."
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "John Doe", 456887766);
    let course = insert_course(&mut uni, &mut txn, 301, "Algebra I", 4);
    let enrolled = uni.attr("student", "courses-enrolled");
    uni.mapper.include_value(&mut txn, s, enrolled, Value::Entity(course)).unwrap();

    uni.mapper.delete_role(&mut txn, s, uni.class("student")).unwrap();
    assert!(!uni.mapper.has_role(s, uni.class("student")).unwrap());
    assert!(uni.mapper.has_role(s, uni.class("person")).unwrap());
    // The enrollment (an EVA of the deleted role) is gone (§4.8).
    let students = uni.attr("course", "students-enrolled");
    assert!(uni.mapper.eva_partners(course, students).unwrap().is_empty());
    // Person attributes survive.
    assert_eq!(
        uni.mapper.read_attr(s, uni.attr("person", "name")).unwrap(),
        AttrOut::Single(Value::Str("John Doe".into()))
    );
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn delete_person_cascades_to_all_roles() {
    // Paper §4.8: "if an entity of PERSON is deleted, it will also be
    // deleted from STUDENT, INSTRUCTOR and TEACHING-ASSISTANT classes."
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "John Doe", 456887766);
    uni.mapper
        .extend_role(
            &mut txn,
            s,
            uni.class("instructor"),
            &[(uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(1729)))],
        )
        .unwrap();
    uni.mapper
        .extend_role(
            &mut txn,
            s,
            uni.class("teaching-assistant"),
            &[(uni.attr("teaching-assistant", "teaching-load"), AttrValue::Scalar(Value::Int(5)))],
        )
        .unwrap();
    assert!(uni.mapper.has_role(s, uni.class("teaching-assistant")).unwrap());
    assert_eq!(
        uni.mapper.read_attr(s, uni.attr("teaching-assistant", "teaching-load")).unwrap(),
        AttrOut::Single(Value::Int(5))
    );

    uni.mapper.delete_role(&mut txn, s, uni.class("person")).unwrap();
    assert!(!uni.mapper.has_role(s, uni.class("person")).unwrap());
    assert!(!uni.mapper.has_role(s, uni.class("teaching-assistant")).unwrap());
    assert_eq!(uni.mapper.entity_count(uni.class("person")), 0);
    // The unique index entry is gone: the SSN is reusable.
    let s2 = insert_person(&mut uni, &mut txn, "Reborn", 456887766);
    assert_ne!(s2, s);
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn teaching_assistant_requires_aux_record_via_both_parents() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let ta_class = uni.class("teaching-assistant");
    let ta = uni
        .mapper
        .insert_entity(
            &mut txn,
            ta_class,
            &[
                (uni.attr("person", "soc-sec-no"), AttrValue::Scalar(Value::Int(777))),
                (uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(2001))),
                (
                    uni.attr("teaching-assistant", "teaching-load"),
                    AttrValue::Scalar(Value::Int(10)),
                ),
            ],
        )
        .unwrap();
    uni.mapper.commit(txn).unwrap();
    // All four roles held.
    for class in ["person", "student", "instructor", "teaching-assistant"] {
        assert!(uni.mapper.has_role(ta, uni.class(class)).unwrap(), "missing role {class}");
    }
    assert_eq!(
        uni.mapper.read_attr(ta, uni.attr("teaching-assistant", "teaching-load")).unwrap(),
        AttrOut::Single(Value::Int(10))
    );
    // instructor-status subrole of the student role reports teaching-assistant.
    assert_eq!(
        uni.mapper.read_attr(ta, uni.attr("student", "instructor-status")).unwrap(),
        AttrOut::Single(Value::Str("teaching-assistant".into()))
    );
}

#[test]
fn decimal_salary_round_trips() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let instructor = uni.class("instructor");
    let i = uni
        .mapper
        .insert_entity(
            &mut txn,
            instructor,
            &[
                (uni.attr("person", "soc-sec-no"), AttrValue::Scalar(Value::Int(31))),
                (uni.attr("instructor", "employee-nbr"), AttrValue::Scalar(Value::Int(1003))),
                (
                    uni.attr("instructor", "salary"),
                    AttrValue::Scalar(Value::Decimal(Decimal::parse("55000.50").unwrap())),
                ),
            ],
        )
        .unwrap();
    uni.mapper.commit(txn).unwrap();
    assert_eq!(
        uni.mapper.read_attr(i, uni.attr("instructor", "salary")).unwrap(),
        AttrOut::Single(Value::Decimal(Decimal::parse("55000.50").unwrap()))
    );
}

#[test]
fn dates_round_trip() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let p = insert_person(&mut uni, &mut txn, "Dated", 41);
    let birthdate = uni.attr("person", "birthdate");
    uni.mapper
        .set_attr(
            &mut txn,
            p,
            birthdate,
            AttrValue::Scalar(Value::Str("1964-07-04".into())), // coerced to a date
        )
        .unwrap();
    uni.mapper.commit(txn).unwrap();
    assert_eq!(
        uni.mapper.read_attr(p, birthdate).unwrap(),
        AttrOut::Single(Value::Date(Date::from_ymd(1964, 7, 4).unwrap()))
    );
}

#[test]
fn entities_of_returns_surrogate_order_including_subclasses() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let p1 = insert_person(&mut uni, &mut txn, "P1", 51);
    let s1 = insert_student(&mut uni, &mut txn, "S1", 52);
    let p2 = insert_person(&mut uni, &mut txn, "P2", 53);
    let s2 = insert_student(&mut uni, &mut txn, "S2", 54);
    uni.mapper.commit(txn).unwrap();

    assert_eq!(uni.mapper.entities_of(uni.class("person")).unwrap(), vec![p1, s1, p2, s2]);
    assert_eq!(uni.mapper.entities_of(uni.class("student")).unwrap(), vec![s1, s2]);
    assert!(uni.mapper.entities_of(uni.class("instructor")).unwrap().is_empty());
}

#[test]
fn unique_index_lookup() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let p = insert_person(&mut uni, &mut txn, "Find Me", 456887766);
    uni.mapper.commit(txn).unwrap();
    let ssn = uni.attr("person", "soc-sec-no");
    assert_eq!(uni.mapper.lookup_unique(ssn, &Value::Int(456887766)).unwrap(), Some(p));
    assert_eq!(uni.mapper.lookup_unique(ssn, &Value::Int(1)).unwrap(), None);
    assert!(uni.mapper.has_index(ssn));
}

#[test]
fn secondary_index_create_and_lookup() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let a = insert_person(&mut uni, &mut txn, "Alice", 61);
    let b = insert_person(&mut uni, &mut txn, "Bob", 62);
    let a2 = insert_person(&mut uni, &mut txn, "Alice", 63);
    uni.mapper.commit(txn).unwrap();

    let name = uni.attr("person", "name");
    assert!(!uni.mapper.has_index(name));
    assert_eq!(uni.mapper.lookup_eq(name, &Value::Str("Alice".into()), false).unwrap(), None);
    uni.mapper.create_index(name).unwrap();
    let found = uni.mapper.lookup_eq(name, &Value::Str("Alice".into()), false).unwrap().unwrap();
    assert_eq!(found.len(), 2);
    assert!(found.contains(&a) && found.contains(&a2));
    assert_eq!(
        uni.mapper.lookup_eq(name, &Value::Str("Bob".into()), false).unwrap().unwrap(),
        vec![b]
    );
    // Index maintained on subsequent writes.
    let mut txn = uni.mapper.begin();
    uni.mapper.set_attr(&mut txn, b, name, AttrValue::Scalar(Value::Str("Alice".into()))).unwrap();
    uni.mapper.commit(txn).unwrap();
    assert_eq!(
        uni.mapper.lookup_eq(name, &Value::Str("Alice".into()), false).unwrap().unwrap().len(),
        3
    );
}

#[test]
fn abort_rolls_back_entity_and_links() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "Persistent", 71);
    let c = insert_course(&mut uni, &mut txn, 401, "Kept", 3);
    uni.mapper.commit(txn).unwrap();

    let enrolled = uni.attr("student", "courses-enrolled");
    let mut txn = uni.mapper.begin();
    let ghost = insert_student(&mut uni, &mut txn, "Ghost", 72);
    uni.mapper.include_value(&mut txn, s, enrolled, Value::Entity(c)).unwrap();
    uni.mapper.abort(txn).unwrap();

    assert!(!uni.mapper.has_role(ghost, uni.class("person")).unwrap());
    assert!(uni.mapper.eva_partners(s, enrolled).unwrap().is_empty());
    // The unique SSN of the ghost is free again.
    let mut txn = uni.mapper.begin();
    insert_person(&mut uni, &mut txn, "Reuse", 72);
    uni.mapper.commit(txn).unwrap();
}

#[test]
fn mv_dva_separate_unit_round_trips() {
    // Build a tiny schema with an unbounded MV DVA.
    let mut cat = Catalog::new();
    let c = cat.define_base_class("Box").unwrap();
    let tags = cat
        .add_dva(c, "tags", sim_types::Domain::string(10), sim_catalog::AttributeOptions::mv())
        .unwrap();
    cat.finalize().unwrap();
    let mut mapper = Mapper::new(Arc::new(cat), 64).unwrap();
    let mut txn = mapper.begin();
    let b = mapper.insert_entity(&mut txn, c, &[]).unwrap();
    mapper.include_value(&mut txn, b, tags, Value::Str("red".into())).unwrap();
    mapper.include_value(&mut txn, b, tags, Value::Str("big".into())).unwrap();
    mapper.include_value(&mut txn, b, tags, Value::Str("red".into())).unwrap(); // multiset!
    mapper.commit(txn).unwrap();

    let vals = mapper.read_attr(b, tags).unwrap().into_values();
    assert_eq!(vals.len(), 3, "non-distinct MV DVA is a multiset");

    let mut txn = mapper.begin();
    assert!(mapper.exclude_value(&mut txn, b, tags, &Value::Str("red".into())).unwrap());
    mapper.commit(txn).unwrap();
    assert_eq!(mapper.read_attr(b, tags).unwrap().into_values().len(), 2);
}

#[test]
fn bounded_mv_dva_embedded_array() {
    let mut cat = Catalog::new();
    let c = cat.define_base_class("Box").unwrap();
    let nums = cat
        .add_dva(c, "nums", sim_types::Domain::integer(), sim_catalog::AttributeOptions::mv_max(3))
        .unwrap();
    cat.finalize().unwrap();
    let mut mapper = Mapper::new(Arc::new(cat), 64).unwrap();
    let mut txn = mapper.begin();
    let b = mapper.insert_entity(&mut txn, c, &[]).unwrap();
    for v in [1, 2, 3] {
        mapper.include_value(&mut txn, b, nums, Value::Int(v)).unwrap();
    }
    let err = mapper.include_value(&mut txn, b, nums, Value::Int(4)).unwrap_err();
    assert!(matches!(err, MapperError::MaxViolation(_)));
    mapper.commit(txn).unwrap();
    assert_eq!(
        mapper.read_attr(b, nums).unwrap(),
        AttrOut::Multi(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
    );
}

#[test]
fn eva_range_checked() {
    let mut uni = new_uni();
    let mut txn = uni.mapper.begin();
    let s = insert_student(&mut uni, &mut txn, "S", 81);
    let p = insert_person(&mut uni, &mut txn, "NotAnInstructor", 82);
    let advisor = uni.attr("student", "advisor");
    let err =
        uni.mapper.set_attr(&mut txn, s, advisor, AttrValue::Scalar(Value::Entity(p))).unwrap_err();
    assert!(matches!(err, MapperError::NoSuchEntity(_)));
    uni.mapper.commit(txn).unwrap();
}
