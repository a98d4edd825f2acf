//! Attribute operations and relationship maintenance (second `impl Mapper`
//! block; see [`crate::mapper`] for the struct).
//!
//! Everything here preserves the paper's structural-integrity promise:
//! "SIM automatically maintains the inverse of every declared EVA and
//! guarantees that an EVA and its inverse will stay synchronized at all
//! times" (§3.2), and "the Mapper assures the structural integrity of data
//! reflected in LUC interconnections" (§5.1).

use crate::error::MapperError;
use crate::layout::{AttrPlacement, ClassStorage, FieldKind, PairMapping};
use crate::mapper::{decode_surr_key, surr_key, AttrOut, AttrValue, Mapper};
use crate::value_codec::{encode_value, Decoder, FieldValue};
use sim_catalog::{AttrId, Attribute, ClassId};
use sim_storage::{BTreeId, RecordId, Txn};
use sim_types::{ordered, ByteReader, Domain, Surrogate, TypeError, Value};

/// An equality-probe value prepared for index key encoding.
enum Probe {
    /// Probe with this (possibly coerced) value.
    Key(Value),
    /// The value lies outside the attribute's domain: no stored entry can
    /// equal it, so the lookup is an empty result — not an error. This
    /// mirrors the evaluator, which compares the out-of-domain literal
    /// against in-domain stored values and simply never finds it equal.
    Miss,
}

/// Prepare an equality-probe value against an attribute domain.
///
/// Representation-changing domains (symbolic labels and date strings) must
/// be re-encoded to the stored representation before key encoding. Numeric
/// probes are left raw: `ordered::encode_key` gives Int/Float/Decimal one
/// unified rank, exactly matching the evaluator's mixed-numeric compare,
/// whereas domain coercion would reject e.g. a float probe on an integer
/// domain that the evaluator happily compares.
fn eq_probe(domain: Option<&Domain>, value: &Value) -> Result<Probe, MapperError> {
    let Some(domain) = domain else { return Ok(Probe::Key(value.clone())) };
    let numeric_domain =
        matches!(domain, Domain::Integer { .. } | Domain::Number { .. } | Domain::Real);
    let numeric_value = matches!(value, Value::Int(_) | Value::Float(_) | Value::Decimal(_));
    if numeric_value && numeric_domain {
        return Ok(Probe::Key(value.clone()));
    }
    match domain.coerce(value.clone()) {
        Ok(v) => Ok(Probe::Key(v)),
        Err(TypeError::DomainViolation(_)) => Ok(Probe::Miss),
        // Incompatible types and malformed literals error in the evaluator
        // too (`Value::compare`), so the indexed plan must not silently
        // return an empty result where a scan would fail the query.
        Err(e) => Err(e.into()),
    }
}

/// Prepare a range-scan bound against an attribute domain.
///
/// Unlike [`eq_probe`], an out-of-domain bound is still a perfectly good
/// fence (`x < 999999` is satisfiable even when 999999 exceeds the declared
/// range), so no bound is ever a guaranteed miss. Only date strings change
/// representation; symbolic domains never reach here because the planner
/// refuses range scans on them (index order is symbol-code order, not the
/// label-string order the evaluator compares with).
fn range_bound(domain: Option<&Domain>, value: &Value) -> Result<Value, MapperError> {
    if let (Some(Domain::Date), Value::Str(s)) = (domain, value) {
        return Ok(Value::Date(sim_types::Date::parse(s)?));
    }
    Ok(value.clone())
}

fn encode_mv_value(v: &Value) -> Result<Vec<u8>, MapperError> {
    let mut out = Vec::new();
    encode_value(v, &mut out)?;
    Ok(out)
}

fn decode_mv_value(bytes: &[u8]) -> Result<Value, MapperError> {
    Decoder::new(bytes).value()
}

impl Mapper {
    // ----- reading ---------------------------------------------------------------

    /// Read an attribute's value(s) for an entity. Symbolic DVA values come
    /// back as their declared labels (like subroles, §3.2: values are
    /// retrieved "symbolically"), so DML comparisons against label strings
    /// work naturally; storage keeps the compact index form.
    pub fn read_attr(&self, surr: Surrogate, attr_id: AttrId) -> Result<AttrOut, MapperError> {
        let out = self.read_attr_raw(surr, attr_id)?;
        let attr = self.catalog.attribute(attr_id)?;
        if let Some(domain) = attr.dva_domain() {
            let label = |v: Value| match v {
                Value::Symbol(i) => domain
                    .symbol_label(i)
                    .map(|l| Value::Str(l.to_owned()))
                    .unwrap_or(Value::Symbol(i)),
                other => other,
            };
            return Ok(match out {
                AttrOut::Single(v) => AttrOut::Single(label(v)),
                AttrOut::Multi(vs) => AttrOut::Multi(vs.into_iter().map(label).collect()),
            });
        }
        Ok(out)
    }

    fn read_attr_raw(&self, surr: Surrogate, attr_id: AttrId) -> Result<AttrOut, MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Derived) => Err(MapperError::ShapeMismatch(format!(
                "{} is a derived attribute; it is computed by the query layer",
                attr.name
            ))),
            Some(AttrPlacement::Subrole) => self.read_subrole(surr, &attr),
            Some(AttrPlacement::Field { class, index, kind }) => {
                let field = self.field_get(surr, class, index)?;
                Ok(match (kind, field) {
                    (FieldKind::ScalarDva | FieldKind::ForeignKeyEva, FieldValue::Scalar(v)) => {
                        AttrOut::Single(v)
                    }
                    (FieldKind::EmbeddedArrayDva, FieldValue::Scalar(Value::Null)) => {
                        AttrOut::Multi(Vec::new())
                    }
                    (FieldKind::EmbeddedArrayDva, FieldValue::Array(vs)) => AttrOut::Multi(vs),
                    (FieldKind::PointerEva { .. }, FieldValue::Scalar(Value::Null)) => {
                        if attr.options.multivalued {
                            AttrOut::Multi(Vec::new())
                        } else {
                            AttrOut::Single(Value::Null)
                        }
                    }
                    (FieldKind::PointerEva { .. }, FieldValue::Hints(hints)) => {
                        let vals: Vec<Value> =
                            hints.iter().map(|(s, _)| Value::Entity(*s)).collect();
                        if attr.options.multivalued {
                            AttrOut::Multi(vals)
                        } else {
                            AttrOut::Single(vals.first().cloned().unwrap_or(Value::Null))
                        }
                    }
                    (_, other) => {
                        return Err(MapperError::ShapeMismatch(format!(
                            "field of {} has unexpected stored shape {other:?}",
                            attr.name
                        )));
                    }
                })
            }
            Some(AttrPlacement::SeparateMvDva) => {
                let tree = self.mv_dva_trees[&attr_id];
                let values = self
                    .engine
                    .btree_scan_key(tree, &surr_key(surr))?
                    .iter()
                    .map(|b| decode_mv_value(b))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(AttrOut::Multi(values))
            }
            Some(AttrPlacement::Structure { structure, .. }) => {
                let partners = self.structure_partners(structure, attr_id, surr)?;
                let vals: Vec<Value> = partners.into_iter().map(Value::Entity).collect();
                if attr.options.multivalued {
                    Ok(AttrOut::Multi(vals))
                } else {
                    Ok(AttrOut::Single(vals.first().cloned().unwrap_or(Value::Null)))
                }
            }
            None => Err(MapperError::NoSuchEntity(format!("attribute {} unplanned", attr.name))),
        }
    }

    fn read_subrole(&self, surr: Surrogate, attr: &Attribute) -> Result<AttrOut, MapperError> {
        let sim_catalog::AttributeKind::Subrole { labels } = &attr.kind else {
            return Err(MapperError::ShapeMismatch(format!("{} is not a subrole", attr.name)));
        };
        let family = self.family_index(attr.owner)?;
        let roles = self
            .locate(family, surr)?
            .ok_or_else(|| MapperError::NoSuchEntity(format!("{surr}")))?
            .1;
        let mut held = Vec::new();
        for label in labels {
            let class = self
                .catalog
                .class_by_name(label)
                .ok_or_else(|| MapperError::NoSuchEntity(format!("subrole label {label}")))?;
            if roles & self.bit_of(class.id) != 0 {
                // Subroles "retrieve symbolically all the roles an entity
                // participates in" (paper 3.2): return the label itself.
                held.push(Value::Str(class.name.clone()));
            }
        }
        if attr.options.multivalued {
            Ok(AttrOut::Multi(held))
        } else {
            Ok(AttrOut::Single(held.into_iter().next().unwrap_or(Value::Null)))
        }
    }

    /// The partner surrogates of an EVA.
    pub fn eva_partners(
        &self,
        surr: Surrogate,
        attr: AttrId,
    ) -> Result<Vec<Surrogate>, MapperError> {
        self.stats.eva_traversals.inc();
        let out = self.read_attr(surr, attr)?;
        Ok(out.into_values().iter().filter_map(Value::as_entity).collect())
    }

    // ----- field access ------------------------------------------------------------

    pub(crate) fn field_get(
        &self,
        surr: Surrogate,
        class: ClassId,
        index: usize,
    ) -> Result<FieldValue, MapperError> {
        let family = self.family_index(class)?;
        let phys = self.layout.class_phys(class).expect("planned class");
        match phys.storage {
            ClassStorage::Tree => {
                let loaded = self.load(family, surr)?;
                let group = loaded.rec.group(class).ok_or_else(|| {
                    MapperError::NoSuchEntity(format!(
                        "{surr} does not hold the {} role",
                        self.catalog.class(class).map(|c| c.name.clone()).unwrap_or_default()
                    ))
                })?;
                group
                    .get(index)
                    .cloned()
                    .ok_or_else(|| MapperError::ShapeMismatch("field index out of range".into()))
            }
            ClassStorage::Aux(aux) => {
                let (_, rec) = self.load_aux(family, aux, surr)?;
                rec.fields
                    .get(index)
                    .cloned()
                    .ok_or_else(|| MapperError::ShapeMismatch("field index out of range".into()))
            }
        }
    }

    pub(crate) fn field_set(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        class: ClassId,
        index: usize,
        value: FieldValue,
    ) -> Result<(), MapperError> {
        let family = self.family_index(class)?;
        let phys = self.layout.class_phys(class).expect("planned class").clone();
        match phys.storage {
            ClassStorage::Tree => {
                let mut loaded = self.load(family, surr)?;
                let group = loaded.rec.group_mut(class).ok_or_else(|| {
                    MapperError::NoSuchEntity(format!("{surr} lacks the role for this field"))
                })?;
                if index >= group.len() {
                    return Err(MapperError::ShapeMismatch("field index out of range".into()));
                }
                group[index] = value;
                self.store(txn, loaded)?;
            }
            ClassStorage::Aux(aux) => {
                let (rid, mut rec) = self.load_aux(family, aux, surr)?;
                if index >= rec.fields.len() {
                    return Err(MapperError::ShapeMismatch("field index out of range".into()));
                }
                rec.fields[index] = value;
                self.store_aux(txn, family, aux, rid, &rec)?;
            }
        }
        Ok(())
    }

    // ----- writing -------------------------------------------------------------------

    /// Assign an attribute (`attr := value`, §4.8).
    pub fn set_attr(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr_id: AttrId,
        value: AttrValue,
    ) -> Result<(), MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        if attr.is_subrole() {
            return Err(MapperError::ReadOnly(format!(
                "{} is a system-maintained subrole",
                attr.name
            )));
        }
        if attr.is_derived() {
            return Err(MapperError::ReadOnly(format!("{} is a derived attribute", attr.name)));
        }
        self.optimizer_stats.note_writes(attr.owner.0, 1);
        if attr.is_dva() {
            return self.set_dva(txn, surr, &attr, value);
        }
        // EVA.
        match value {
            AttrValue::Scalar(v) => {
                if attr.options.multivalued {
                    return Err(MapperError::ShapeMismatch(format!(
                        "{} is multi-valued; assign a set or use include/exclude",
                        attr.name
                    )));
                }
                let partner = match v {
                    Value::Null => None,
                    Value::Entity(p) => Some(p),
                    other => {
                        return Err(MapperError::ShapeMismatch(format!(
                            "EVA {} needs an entity value, got {}",
                            attr.name,
                            other.type_name()
                        )));
                    }
                };
                if attr.options.required && partner.is_none() {
                    return Err(MapperError::RequiredViolation(attr.name.clone()));
                }
                self.set_eva_single(txn, surr, &attr, partner)
            }
            AttrValue::Multi(vs) => {
                if !attr.options.multivalued {
                    return Err(MapperError::ShapeMismatch(format!(
                        "{} is single-valued",
                        attr.name
                    )));
                }
                // Replace the whole set.
                for p in self.eva_partners(surr, attr_id)? {
                    self.unlink(txn, &attr, surr, p)?;
                }
                for v in vs {
                    let Value::Entity(p) = v else {
                        return Err(MapperError::ShapeMismatch(format!(
                            "EVA {} needs entity values",
                            attr.name
                        )));
                    };
                    self.link(txn, &attr, surr, p)?;
                }
                Ok(())
            }
        }
    }

    fn set_dva(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr: &Attribute,
        value: AttrValue,
    ) -> Result<(), MapperError> {
        let domain = attr.dva_domain().expect("DVA has a domain").clone();
        match self.layout.placement(attr.id) {
            Some(AttrPlacement::Field { class, index, kind: FieldKind::ScalarDva }) => {
                let AttrValue::Scalar(raw) = value else {
                    return Err(MapperError::ShapeMismatch(format!(
                        "{} is single-valued",
                        attr.name
                    )));
                };
                let new = domain.coerce(raw)?;
                if attr.options.required && new.is_null() {
                    return Err(MapperError::RequiredViolation(attr.name.clone()));
                }
                let old = match self.field_get(surr, class, index)? {
                    FieldValue::Scalar(v) => v,
                    _ => Value::Null,
                };
                self.maintain_value_indexes(txn, attr, surr, Some(&old), Some(&new))?;
                self.field_set(txn, surr, class, index, FieldValue::Scalar(new))?;
                Ok(())
            }
            Some(AttrPlacement::Field { class, index, kind: FieldKind::EmbeddedArrayDva }) => {
                let AttrValue::Multi(raw) = value else {
                    return Err(MapperError::ShapeMismatch(format!(
                        "{} is multi-valued; assign a set",
                        attr.name
                    )));
                };
                let values = self.coerce_mv(attr, &domain, raw)?;
                self.field_set(txn, surr, class, index, FieldValue::Array(values))?;
                Ok(())
            }
            Some(AttrPlacement::SeparateMvDva) => {
                let AttrValue::Multi(raw) = value else {
                    return Err(MapperError::ShapeMismatch(format!(
                        "{} is multi-valued; assign a set",
                        attr.name
                    )));
                };
                let values = self.coerce_mv(attr, &domain, raw)?;
                let tree = self.mv_dva_trees[&attr.id];
                for existing in self.engine.btree_scan_key(tree, &surr_key(surr))? {
                    self.engine.btree_delete(txn, tree, &surr_key(surr), &existing)?;
                }
                for v in &values {
                    self.engine.btree_insert(txn, tree, &surr_key(surr), &encode_mv_value(v)?)?;
                }
                Ok(())
            }
            other => Err(MapperError::ShapeMismatch(format!(
                "DVA {} has unexpected placement {other:?}",
                attr.name
            ))),
        }
    }

    fn coerce_mv(
        &self,
        attr: &Attribute,
        domain: &sim_types::Domain,
        raw: Vec<Value>,
    ) -> Result<Vec<Value>, MapperError> {
        let mut values = Vec::with_capacity(raw.len());
        for v in raw {
            let coerced = domain.coerce(v)?;
            if attr.options.distinct && values.iter().any(|x: &Value| x.total_cmp(&coerced).is_eq())
            {
                continue; // DISTINCT: silently keep set semantics
            }
            values.push(coerced);
        }
        if let Some(max) = attr.options.max {
            if values.len() > max as usize {
                return Err(MapperError::MaxViolation(format!(
                    "{}: {} values exceed MAX {max}",
                    attr.name,
                    values.len()
                )));
            }
        }
        Ok(values)
    }

    /// `attr := include <value>` on a multi-valued attribute (§4.8).
    pub fn include_value(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr_id: AttrId,
        value: Value,
    ) -> Result<(), MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        if !attr.options.multivalued {
            return Err(MapperError::ShapeMismatch(format!(
                "include needs a multi-valued attribute; {} is single-valued",
                attr.name
            )));
        }
        self.optimizer_stats.note_writes(attr.owner.0, 1);
        if attr.is_eva() {
            let Value::Entity(p) = value else {
                return Err(MapperError::ShapeMismatch(format!(
                    "EVA {} needs an entity value",
                    attr.name
                )));
            };
            return self.link(txn, &attr, surr, p);
        }
        // MV DVA.
        let domain = attr.dva_domain().expect("DVA").clone();
        let v = domain.coerce(value)?;
        let current = self.read_attr(surr, attr_id)?.into_values();
        if attr.options.distinct && current.iter().any(|x| x.total_cmp(&v).is_eq()) {
            return Ok(());
        }
        if let Some(max) = attr.options.max {
            if current.len() >= max as usize {
                return Err(MapperError::MaxViolation(format!(
                    "{} already holds MAX {max} values",
                    attr.name
                )));
            }
        }
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Field { class, index, kind: FieldKind::EmbeddedArrayDva }) => {
                let mut vs = current;
                vs.push(v);
                self.field_set(txn, surr, class, index, FieldValue::Array(vs))?;
            }
            Some(AttrPlacement::SeparateMvDva) => {
                let tree = self.mv_dva_trees[&attr_id];
                self.engine.btree_insert(txn, tree, &surr_key(surr), &encode_mv_value(&v)?)?;
            }
            other => {
                return Err(MapperError::ShapeMismatch(format!(
                    "unexpected placement {other:?} for {}",
                    attr.name
                )));
            }
        }
        Ok(())
    }

    /// `attr := exclude <value>` on a multi-valued attribute (§4.8).
    /// Returns whether a value was removed.
    pub fn exclude_value(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr_id: AttrId,
        value: &Value,
    ) -> Result<bool, MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        if !attr.options.multivalued {
            return Err(MapperError::ShapeMismatch(format!(
                "exclude needs a multi-valued attribute; {} is single-valued",
                attr.name
            )));
        }
        self.optimizer_stats.note_writes(attr.owner.0, 1);
        if attr.is_eva() {
            let Value::Entity(p) = value else {
                return Err(MapperError::ShapeMismatch(format!(
                    "EVA {} needs an entity value",
                    attr.name
                )));
            };
            return self.unlink(txn, &attr, surr, *p);
        }
        let domain = attr.dva_domain().expect("DVA").clone();
        let v = domain.coerce(value.clone())?;
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Field { class, index, kind: FieldKind::EmbeddedArrayDva }) => {
                let mut vs = self.read_attr(surr, attr_id)?.into_values();
                match vs.iter().position(|x| x.total_cmp(&v).is_eq()) {
                    Some(pos) => {
                        vs.remove(pos);
                        self.field_set(txn, surr, class, index, FieldValue::Array(vs))?;
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
            Some(AttrPlacement::SeparateMvDva) => {
                let tree = self.mv_dva_trees[&attr_id];
                Ok(self.engine.btree_delete(txn, tree, &surr_key(surr), &encode_mv_value(&v)?)?)
            }
            other => Err(MapperError::ShapeMismatch(format!(
                "unexpected placement {other:?} for {}",
                attr.name
            ))),
        }
    }

    // ----- EVA machinery ------------------------------------------------------------

    fn set_eva_single(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr: &Attribute,
        partner: Option<Surrogate>,
    ) -> Result<(), MapperError> {
        match self.layout.placement(attr.id) {
            Some(AttrPlacement::Field { kind: FieldKind::ForeignKeyEva, .. }) => {
                self.set_foreign_key(txn, surr, attr, partner)
            }
            Some(
                AttrPlacement::Structure { .. }
                | AttrPlacement::Field { kind: FieldKind::PointerEva { .. }, .. },
            ) => {
                for old in self.eva_partners(surr, attr.id)? {
                    if Some(old) != partner {
                        self.unlink(txn, attr, surr, old)?;
                    }
                }
                if let Some(p) = partner {
                    if !self.eva_partners(surr, attr.id)?.contains(&p) {
                        self.link(txn, attr, surr, p)?;
                    }
                }
                Ok(())
            }
            other => Err(MapperError::ShapeMismatch(format!(
                "EVA {} has unexpected placement {other:?}",
                attr.name
            ))),
        }
    }

    fn fk_field(&self, attr_id: AttrId) -> (ClassId, usize) {
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Field { class, index, kind: FieldKind::ForeignKeyEva }) => {
                (class, index)
            }
            other => panic!("attribute is not a foreign-key EVA: {other:?}"),
        }
    }

    fn set_foreign_key(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        attr: &Attribute,
        partner: Option<Surrogate>,
    ) -> Result<(), MapperError> {
        let inv_id = attr.eva_inverse().expect("finalized EVA");
        let range = attr.eva_range().expect("EVA range");
        let (own_class, own_index) = self.fk_field(attr.id);
        let (inv_class, inv_index) = self.fk_field(inv_id);

        let old = match self.field_get(surr, own_class, own_index)? {
            FieldValue::Scalar(Value::Entity(s)) => Some(s),
            _ => None,
        };
        if old == partner {
            return Ok(());
        }
        // Detach the old partner's back-reference.
        if let Some(o) = old {
            if o != surr {
                self.field_set(txn, o, inv_class, inv_index, FieldValue::null())?;
            }
        }
        if let Some(p) = partner {
            if !self.has_role(p, range)? {
                return Err(MapperError::NoSuchEntity(format!(
                    "{p} is not a {} (range of {})",
                    self.catalog.class(range)?.name,
                    attr.name
                )));
            }
            // Steal the partner from its previous 1:1 counterpart.
            let prev = match self.field_get(p, inv_class, inv_index)? {
                FieldValue::Scalar(Value::Entity(s)) => Some(s),
                _ => None,
            };
            if let Some(q) = prev {
                if q != surr {
                    self.field_set(txn, q, own_class, own_index, FieldValue::null())?;
                }
            }
            if p != surr {
                self.field_set(
                    txn,
                    p,
                    inv_class,
                    inv_index,
                    FieldValue::Scalar(Value::Entity(surr)),
                )?;
            }
            self.field_set(txn, surr, own_class, own_index, FieldValue::Scalar(Value::Entity(p)))?;
            if p == surr {
                // Self-link with a self-inverse EVA: one field carries it.
                return Ok(());
            }
        } else {
            self.field_set(txn, surr, own_class, own_index, FieldValue::null())?;
        }
        Ok(())
    }

    /// The structure trees for a plan: `(forward, reverse, common?)`.
    fn structure_trees(&self, plan_idx: usize) -> (BTreeId, BTreeId, bool) {
        match self.layout.structures[plan_idx].mapping {
            PairMapping::Common => (self.common_fwd, self.common_rev, true),
            PairMapping::Dedicated => {
                let (f, r) = self.dedicated[&plan_idx];
                (f, r, false)
            }
            PairMapping::ForeignKey => unreachable!("FK pairs have no structure"),
        }
    }

    fn structure_key(&self, plan_idx: usize, common: bool, surr: Surrogate) -> Vec<u8> {
        let mut key = Vec::with_capacity(12);
        if common {
            key.extend_from_slice(&(plan_idx as u32).to_be_bytes());
        }
        key.extend_from_slice(&surr_key(surr));
        key
    }

    /// Partner surrogates of `surr` along direction `attr_id` of structure
    /// `plan_idx`.
    pub(crate) fn structure_partners(
        &self,
        plan_idx: usize,
        attr_id: AttrId,
        surr: Surrogate,
    ) -> Result<Vec<Surrogate>, MapperError> {
        let plan = &self.layout.structures[plan_idx];
        let (fwd, rev, common) = self.structure_trees(plan_idx);
        let key = self.structure_key(plan_idx, common, surr);
        let symmetric = plan.fwd_attr == plan.inv_attr;
        let mut partners = Vec::new();
        if symmetric || attr_id == plan.fwd_attr {
            for v in self.engine.btree_scan_key(fwd, &key)? {
                partners.push(decode_surr_key(&v)?);
            }
        }
        if symmetric || attr_id == plan.inv_attr {
            for v in self.engine.btree_scan_key(rev, &key)? {
                partners.push(decode_surr_key(&v)?);
            }
        }
        Ok(partners)
    }

    /// Create a relationship instance through `attr` (the direction the
    /// caller used): structure entries in both directions plus pointer-hint
    /// maintenance, enforcing DISTINCT / MAX / single-valued-inverse
    /// semantics.
    pub(crate) fn link(
        &mut self,
        txn: &mut Txn,
        attr: &Attribute,
        owner: Surrogate,
        partner: Surrogate,
    ) -> Result<(), MapperError> {
        let inv_id = attr.eva_inverse().expect("finalized EVA");
        let inv = self.catalog.attribute(inv_id)?.clone();
        let range = attr.eva_range().expect("EVA");
        if !self.has_role(partner, range)? {
            return Err(MapperError::NoSuchEntity(format!(
                "{partner} is not a {} (range of {})",
                self.catalog.class(range)?.name,
                attr.name
            )));
        }

        // EVAs are sets of entities (§3.2) regardless of the DISTINCT
        // option: re-linking an existing pair must be a no-op. Letting the
        // pair accumulate would double the structure-tree entries, and a
        // later single-valued steal would remove only one copy — leaving a
        // phantom partner behind.
        let current = self.eva_partners(owner, attr.id)?;
        if current.contains(&partner) {
            return Ok(());
        }

        // Single-valued sides: replace rather than accumulate.
        if !attr.options.multivalued {
            for old in current.clone() {
                self.unlink(txn, attr, owner, old)?;
            }
        }
        if !inv.options.multivalued {
            for old in self.eva_partners(partner, inv_id)? {
                if old != owner {
                    self.unlink(txn, &inv, partner, old)?;
                }
            }
        }

        // MAX checks after replacement semantics.
        if let Some(max) = attr.options.max {
            if self.eva_partners(owner, attr.id)?.len() >= max as usize {
                return Err(MapperError::MaxViolation(format!(
                    "{} already has MAX {max} values",
                    attr.name
                )));
            }
        }
        if let Some(max) = inv.options.max {
            if self.eva_partners(partner, inv_id)?.len() >= max as usize {
                return Err(MapperError::MaxViolation(format!(
                    "{} of {partner} already has MAX {max} values",
                    inv.name
                )));
            }
        }

        let plan_idx = self.plan_of(attr.id)?;
        let plan = self.layout.structures[plan_idx].clone();
        let (fwd, rev, common) = self.structure_trees(plan_idx);
        // Store entries canonically: forward tree keyed by the fwd-attr
        // owner. When the caller used the inverse direction, swap.
        let (a, b) = if attr.id == plan.fwd_attr { (owner, partner) } else { (partner, owner) };
        let ka = self.structure_key(plan_idx, common, a);
        let kb = self.structure_key(plan_idx, common, b);
        self.engine.btree_insert(txn, fwd, &ka, &surr_key(b))?;
        self.engine.btree_insert(txn, rev, &kb, &surr_key(a))?;

        self.update_hints(txn, attr, owner, partner, true)?;
        if inv_id != attr.id {
            self.update_hints(txn, &inv, partner, owner, true)?;
        }
        Ok(())
    }

    /// Remove one relationship instance. Returns whether it existed.
    pub(crate) fn unlink(
        &mut self,
        txn: &mut Txn,
        attr: &Attribute,
        owner: Surrogate,
        partner: Surrogate,
    ) -> Result<bool, MapperError> {
        let inv_id = attr.eva_inverse().expect("finalized EVA");
        let plan_idx = self.plan_of(attr.id)?;
        let plan = self.layout.structures[plan_idx].clone();
        let (fwd, rev, common) = self.structure_trees(plan_idx);
        let symmetric = plan.fwd_attr == plan.inv_attr;

        let (a, b) = if attr.id == plan.fwd_attr { (owner, partner) } else { (partner, owner) };
        let ka = self.structure_key(plan_idx, common, a);
        let kb = self.structure_key(plan_idx, common, b);
        let mut existed = self.engine.btree_delete(txn, fwd, &ka, &surr_key(b))?;
        if existed {
            self.engine.btree_delete(txn, rev, &kb, &surr_key(a))?;
        } else if symmetric {
            // The symmetric pair may be stored with roles swapped.
            existed = self.engine.btree_delete(txn, fwd, &kb, &surr_key(a))?;
            if existed {
                self.engine.btree_delete(txn, rev, &ka, &surr_key(b))?;
            }
        }
        if !existed {
            return Ok(false);
        }
        let inv = self.catalog.attribute(inv_id)?.clone();
        self.update_hints(txn, attr, owner, partner, false)?;
        if inv_id != attr.id {
            self.update_hints(txn, &inv, partner, owner, false)?;
        }
        Ok(true)
    }

    fn plan_of(&self, attr_id: AttrId) -> Result<usize, MapperError> {
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Structure { structure, .. }) => Ok(structure),
            Some(AttrPlacement::Field {
                kind: FieldKind::PointerEva { structure, .. }, ..
            }) => Ok(structure),
            other => Err(MapperError::ShapeMismatch(format!(
                "attribute has no relationship structure ({other:?})"
            ))),
        }
    }

    /// Maintain the inline hint list of a pointer/clustered-mapped side.
    fn update_hints(
        &mut self,
        txn: &mut Txn,
        side_attr: &Attribute,
        on: Surrogate,
        other: Surrogate,
        add: bool,
    ) -> Result<(), MapperError> {
        let Some(AttrPlacement::Field { class, index, kind: FieldKind::PointerEva { .. } }) =
            self.layout.placement(side_attr.id)
        else {
            return Ok(()); // not pointer-mapped: nothing to do
        };
        let other_family =
            self.family_index(self.catalog.attribute(side_attr.id)?.eva_range().expect("EVA"))?;
        let mut hints = match self.field_get(on, class, index)? {
            FieldValue::Hints(h) => h,
            _ => Vec::new(),
        };
        if add {
            let rid = self
                .locate(other_family, other)?
                .map(|(rid, _)| rid)
                .ok_or_else(|| MapperError::NoSuchEntity(format!("{other}")))?;
            hints.push((other, rid));
        } else if let Some(pos) = hints.iter().position(|(s, _)| *s == other) {
            hints.remove(pos);
        }
        self.field_set(txn, on, class, index, FieldValue::Hints(hints))?;
        Ok(())
    }

    /// Access the *first instance* of a relationship, physically fetching
    /// the partner's record, and return its surrogate. This is the 5.1
    /// cost-model probe: with the owner's record resident, it costs 0 block
    /// reads under a clustered mapping (partner shares the owner's block),
    /// 1 under a pointer mapping (one direct block access, no index), and an
    /// index descent plus a record fetch under the structure mappings.
    pub fn first_instance(
        &self,
        surr: Surrogate,
        attr_id: AttrId,
    ) -> Result<Option<Surrogate>, MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        let range = attr
            .eva_range()
            .ok_or_else(|| MapperError::ShapeMismatch(format!("{} is not an EVA", attr.name)))?;
        match self.layout.placement(attr_id) {
            Some(AttrPlacement::Field { class, index, kind: FieldKind::PointerEva { .. } }) => {
                let FieldValue::Hints(hints) = self.field_get(surr, class, index)? else {
                    return Ok(None);
                };
                let Some(&(partner, hint)) = hints.first() else { return Ok(None) };
                Ok(self.follow_hint(partner, hint, range)?.map(|_| partner))
            }
            Some(AttrPlacement::Field { class, index, kind: FieldKind::ForeignKeyEva }) => {
                let FieldValue::Scalar(Value::Entity(partner)) =
                    self.field_get(surr, class, index)?
                else {
                    return Ok(None);
                };
                let family = self.family_index(range)?;
                self.load(family, partner)?; // physically fetch the record
                Ok(Some(partner))
            }
            Some(AttrPlacement::Structure { structure, .. }) => {
                let partners = self.structure_partners(structure, attr_id, surr)?;
                let Some(&partner) = partners.first() else { return Ok(None) };
                let family = self.family_index(range)?;
                self.load(family, partner)?;
                Ok(Some(partner))
            }
            other => Err(MapperError::ShapeMismatch(format!(
                "{}: unexpected placement {other:?}",
                attr.name
            ))),
        }
    }

    /// Resolve a pointer hint to the partner's record, repairing the hint on
    /// the fly if the record has moved. Returns the partner's (rid, bytes).
    pub fn follow_hint(
        &self,
        partner: Surrogate,
        hint: RecordId,
        range_class: ClassId,
    ) -> Result<Option<(RecordId, Vec<u8>)>, MapperError> {
        let family = self.family_index(range_class)?;
        let file = self.families[family].tree_file;
        if let Some(bytes) = self.engine.heap_get(file, hint)? {
            // Validate: the record at the hint must carry the surrogate.
            if ByteReader::new(&bytes).u64() == Ok(partner.raw()) {
                return Ok(Some((hint, bytes)));
            }
        }
        // Stale hint: fall back to the surrogate index.
        match self.locate(family, partner)? {
            Some((rid, _)) => Ok(self.engine.heap_get(file, rid)?.map(|b| (rid, b))),
            None => Ok(None),
        }
    }

    // ----- insert-time helpers ---------------------------------------------------------

    /// If the assignments link this new entity through a clustered EVA to a
    /// partner in the same family, return the partner's record id for
    /// near-placement (§5.2's dependent clustering).
    pub(crate) fn cluster_target(
        &self,
        family: usize,
        assigns: &[(AttrId, AttrValue)],
    ) -> Result<Option<RecordId>, MapperError> {
        for (attr_id, value) in assigns {
            let attr = self.catalog.attribute(*attr_id)?;
            if !attr.is_eva() {
                continue;
            }
            let inv = attr.eva_inverse().expect("finalized");
            let clustered = |a: AttrId| {
                matches!(
                    self.layout.placement(a),
                    Some(AttrPlacement::Field {
                        kind: FieldKind::PointerEva { clustered: true, .. },
                        ..
                    })
                )
            };
            if !clustered(*attr_id) && !clustered(inv) {
                continue;
            }
            let partner = match value {
                AttrValue::Scalar(Value::Entity(p)) => Some(*p),
                AttrValue::Multi(vs) => vs.iter().find_map(Value::as_entity),
                _ => None,
            };
            if let Some(p) = partner {
                let range = attr.eva_range().expect("EVA");
                if self.family_index(range)? == family {
                    if let Some((rid, _)) = self.locate(family, p)? {
                        return Ok(Some(rid));
                    }
                }
            }
        }
        Ok(None)
    }

    /// Validate REQUIRED attributes after an insert/extend. `new_bits`
    /// restricts the check to newly added roles (role extension).
    pub(crate) fn check_required(
        &self,
        surr: Surrogate,
        class: ClassId,
        new_bits: Option<u64>,
    ) -> Result<(), MapperError> {
        let mut classes = vec![class];
        classes.extend(self.catalog.ancestors(class));
        for c in classes {
            if let Some(bits) = new_bits {
                if bits & self.bit_of(c) == 0 {
                    continue;
                }
            }
            let attrs = self.catalog.class(c)?.attributes.clone();
            for attr_id in attrs {
                let attr = self.catalog.attribute(attr_id)?;
                if !attr.options.required || attr.is_subrole() || attr.is_derived() {
                    continue;
                }
                let empty = match self.read_attr(surr, attr_id)? {
                    AttrOut::Single(Value::Null) => true,
                    AttrOut::Single(_) => false,
                    AttrOut::Multi(vs) => vs.is_empty(),
                };
                if empty {
                    return Err(MapperError::RequiredViolation(format!(
                        "{} of {}",
                        attr.name,
                        self.catalog.class(c)?.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Detach everything owned by one class role of one entity (cascaded
    /// delete support).
    pub(crate) fn detach_class_data(
        &mut self,
        txn: &mut Txn,
        surr: Surrogate,
        class: ClassId,
    ) -> Result<(), MapperError> {
        let attrs = self.catalog.class(class)?.attributes.clone();
        for attr_id in attrs {
            let attr = self.catalog.attribute(attr_id)?.clone();
            if attr.is_subrole() || attr.is_derived() {
                continue;
            }
            if attr.is_dva() {
                match self.layout.placement(attr_id) {
                    Some(AttrPlacement::Field { class: c, index, kind: FieldKind::ScalarDva }) => {
                        let old = match self.field_get(surr, c, index)? {
                            FieldValue::Scalar(v) => v,
                            _ => Value::Null,
                        };
                        self.maintain_value_indexes(txn, &attr, surr, Some(&old), None)?;
                    }
                    Some(AttrPlacement::SeparateMvDva) => {
                        let tree = self.mv_dva_trees[&attr_id];
                        for existing in self.engine.btree_scan_key(tree, &surr_key(surr))? {
                            self.engine.btree_delete(txn, tree, &surr_key(surr), &existing)?;
                        }
                    }
                    _ => {} // embedded arrays vanish with the record
                }
                continue;
            }
            // EVA.
            match self.layout.placement(attr_id) {
                Some(AttrPlacement::Field { kind: FieldKind::ForeignKeyEva, .. }) => {
                    self.set_foreign_key(txn, surr, &attr, None)?;
                }
                _ => {
                    for p in self.eva_partners(surr, attr_id)? {
                        self.unlink(txn, &attr, surr, p)?;
                    }
                }
            }
        }
        Ok(())
    }

    // ----- secondary indexes --------------------------------------------------------------

    fn maintain_value_indexes(
        &mut self,
        txn: &mut Txn,
        attr: &Attribute,
        surr: Surrogate,
        old: Option<&Value>,
        new: Option<&Value>,
    ) -> Result<(), MapperError> {
        let trees: Vec<(BTreeId, bool)> = self
            .unique_idx
            .get(&attr.id)
            .map(|t| (*t, true))
            .into_iter()
            .chain(self.secondary_idx.get(&attr.id).map(|t| (*t, false)))
            .collect();
        for (tree, unique) in trees {
            if let Some(o) = old {
                if !o.is_null() {
                    self.engine.btree_delete(
                        txn,
                        tree,
                        &ordered::encode_key(std::slice::from_ref(o)),
                        &surr_key(surr),
                    )?;
                }
            }
            if let Some(n) = new {
                if !n.is_null() {
                    let key = ordered::encode_key(std::slice::from_ref(n));
                    let result = self.engine.btree_insert(txn, tree, &key, &surr_key(surr));
                    match result {
                        Ok(()) => {}
                        Err(sim_storage::StorageError::DuplicateKey) if unique => {
                            return Err(MapperError::UniqueViolation(format!(
                                "{} = {n}",
                                attr.name
                            )));
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
        }
        if let Some(&hidx) = self.hash_idx.get(&attr.id) {
            if let Some(o) = old {
                if !o.is_null() {
                    self.engine.hash_delete(
                        txn,
                        hidx,
                        &ordered::encode_key(std::slice::from_ref(o)),
                        &surr_key(surr),
                    )?;
                }
            }
            if let Some(n) = new {
                if !n.is_null() {
                    let key = ordered::encode_key(std::slice::from_ref(n));
                    self.engine.hash_insert(txn, hidx, &key, &surr_key(surr))?;
                }
            }
        }
        Ok(())
    }

    /// Create a secondary (non-unique) index on a single-valued DVA and
    /// populate it from existing data.
    pub fn create_index(&mut self, attr_id: AttrId) -> Result<(), MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        if !attr.is_dva() || attr.options.multivalued {
            return Err(MapperError::Unsupported(format!(
                "secondary indexes require a single-valued DVA; {} is not one",
                attr.name
            )));
        }
        if self.secondary_idx.contains_key(&attr_id) || self.unique_idx.contains_key(&attr_id) {
            return Ok(()); // already indexed
        }
        let tree = self.engine.create_btree(false)?;
        let mut txn = self.engine.begin();
        for surr in self.entities_of(attr.owner)? {
            // Raw (stored) representation: write-path maintenance and probe
            // coercion both key on it — `read_attr` would label-map symbolic
            // values and leave the bulk-built entries unreachable.
            if let AttrOut::Single(v) = self.read_attr_raw(surr, attr_id)? {
                if !v.is_null() {
                    let key = ordered::encode_key(std::slice::from_ref(&v));
                    self.engine.btree_insert(&mut txn, tree, &key, &surr_key(surr))?;
                }
            }
        }
        // Record the binding before committing so a durable commit's
        // metadata already names the new index.
        self.secondary_idx.insert(attr_id, tree);
        self.ddl_generation += 1;
        self.commit(txn)?;
        Ok(())
    }

    /// Create a hash index on a single-valued DVA — the "random keys (based
    /// on hashing)" access method of §5.2. Serves equality probes only.
    pub fn create_hash_index(&mut self, attr_id: AttrId) -> Result<(), MapperError> {
        let attr = self.catalog.attribute(attr_id)?.clone();
        if !attr.is_dva() || attr.options.multivalued {
            return Err(MapperError::Unsupported(format!(
                "hash indexes require a single-valued DVA; {} is not one",
                attr.name
            )));
        }
        if self.hash_idx.contains_key(&attr_id) {
            return Ok(());
        }
        let hidx = self.engine.create_hash(64, false)?;
        let mut txn = self.engine.begin();
        for surr in self.entities_of(attr.owner)? {
            // Raw representation, for the same reason as `create_index`.
            if let AttrOut::Single(v) = self.read_attr_raw(surr, attr_id)? {
                if !v.is_null() {
                    let key = ordered::encode_key(std::slice::from_ref(&v));
                    self.engine.hash_insert(&mut txn, hidx, &key, &surr_key(surr))?;
                }
            }
        }
        self.hash_idx.insert(attr_id, hidx);
        self.ddl_generation += 1;
        self.commit(txn)?;
        Ok(())
    }

    /// Whether equality lookups on this attribute can use an index.
    pub fn has_index(&self, attr_id: AttrId) -> bool {
        self.unique_idx.contains_key(&attr_id)
            || self.secondary_idx.contains_key(&attr_id)
            || self.hash_idx.contains_key(&attr_id)
    }

    /// Whether the attribute has a B-tree index (unique or secondary) —
    /// serves both equality and range probes.
    pub fn has_btree_index(&self, attr_id: AttrId) -> bool {
        self.unique_idx.contains_key(&attr_id) || self.secondary_idx.contains_key(&attr_id)
    }

    /// Whether the attribute has a hash index — equality probes only.
    pub fn has_hash_index(&self, attr_id: AttrId) -> bool {
        self.hash_idx.contains_key(&attr_id)
    }

    /// Height of the attribute's index, if any (optimizer probe cost).
    pub fn index_height(&self, attr_id: AttrId) -> Option<usize> {
        self.unique_idx
            .get(&attr_id)
            .or_else(|| self.secondary_idx.get(&attr_id))
            .and_then(|t| self.engine.btree_height(*t).ok())
    }

    /// Unique-index lookup.
    pub fn lookup_unique(
        &self,
        attr_id: AttrId,
        value: &Value,
    ) -> Result<Option<Surrogate>, MapperError> {
        let Some(&tree) = self.unique_idx.get(&attr_id) else {
            return Ok(None);
        };
        let attr = self.catalog.attribute(attr_id)?;
        let v = match eq_probe(attr.dva_domain(), value)? {
            Probe::Key(v) => v,
            Probe::Miss => return Ok(None),
        };
        let key = ordered::encode_key(std::slice::from_ref(&v));
        self.engine.btree_lookup_first(tree, &key)?.as_deref().map(decode_surr_key).transpose()
    }

    /// Indexed equality lookup. `prefer_hash` routes through the hash
    /// index when one exists (the plan's chosen probe method); otherwise a
    /// unique B-tree wins over a secondary one, and the hash index is the
    /// last resort. `None` when the attribute has no index at all.
    pub fn lookup_eq(
        &self,
        attr_id: AttrId,
        value: &Value,
        prefer_hash: bool,
    ) -> Result<Option<Vec<Surrogate>>, MapperError> {
        let attr = self.catalog.attribute(attr_id)?;
        let v = match eq_probe(attr.dva_domain(), value)? {
            Probe::Key(v) => v,
            Probe::Miss => return Ok(self.has_index(attr_id).then(Vec::new)),
        };
        let key = ordered::encode_key(std::slice::from_ref(&v));
        let unique = self.unique_idx.get(&attr_id);
        let secondary = self.secondary_idx.get(&attr_id);
        let hash_first = prefer_hash || (unique.is_none() && secondary.is_none());
        if let Some(&hidx) = self.hash_idx.get(&attr_id).filter(|_| hash_first) {
            self.stats.index_probes_hash.inc();
            let mut out: Vec<Surrogate> = self
                .engine
                .hash_get(hidx, &key)?
                .iter()
                .map(|b| decode_surr_key(b))
                .collect::<Result<_, _>>()?;
            out.sort(); // hash order is arbitrary; restore surrogate order
            return Ok(Some(out));
        }
        if let Some(&tree) = unique {
            self.stats.index_probes_btree.inc();
            let first = self.engine.btree_lookup_first(tree, &key)?;
            return Ok(Some(
                first.as_deref().map(decode_surr_key).transpose()?.into_iter().collect(),
            ));
        }
        if let Some(&tree) = secondary {
            self.stats.index_probes_btree.inc();
            let found = self.engine.btree_scan_key(tree, &key)?;
            return found.iter().map(|b| decode_surr_key(b)).collect::<Result<_, _>>().map(Some);
        }
        Ok(None)
    }

    /// Range lookup on an indexed attribute: surrogates whose value is in
    /// `[lo, hi)` (either bound optional); `hi_inclusive` widens the upper
    /// bound to `<= hi`.
    pub fn lookup_range(
        &self,
        attr_id: AttrId,
        lo: Option<&Value>,
        hi: Option<&Value>,
        hi_inclusive: bool,
    ) -> Result<Option<Vec<Surrogate>>, MapperError> {
        let Some(&tree) =
            self.unique_idx.get(&attr_id).or_else(|| self.secondary_idx.get(&attr_id))
        else {
            return Ok(None);
        };
        self.stats.index_probes_btree.inc();
        let domain = self.catalog.attribute(attr_id)?.dva_domain();
        let lo_key = lo
            .map(|v| range_bound(domain, v))
            .transpose()?
            .map(|v| ordered::encode_key(std::slice::from_ref(&v)));
        let hi_key = hi.map(|v| range_bound(domain, v)).transpose()?.map(|v| {
            let mut k = ordered::encode_key(std::slice::from_ref(&v));
            if hi_inclusive {
                // Single-value encodings are prefix-free, so any key equal to
                // the encoding sorts strictly below encoding ++ 0xFF.
                k.push(0xFF);
            }
            k
        });
        self.engine
            .btree_scan_range(tree, lo_key.as_deref(), hi_key.as_deref())?
            .iter()
            .map(|(_, v)| decode_surr_key(v))
            .collect::<Result<_, _>>()
            .map(Some)
    }
}
