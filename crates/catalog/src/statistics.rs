//! Optimizer statistics (paper §5.1): the measured facts the cost-based
//! planner estimates cardinality from.
//!
//! Per class: entity cardinality and heap block count at the last full-scan
//! `\analyze`, plus a counter of DML writes since (staleness tracking).
//! Per single-valued DVA: row/non-null/distinct counts and an equi-depth
//! histogram over ordered domains. Per EVA / multi-valued DVA: average
//! fan-out (links per owner).
//!
//! This module owns only the *data* and its byte codec (the blob rides in
//! the Mapper's `AppMeta` so a reopened database keeps its statistics);
//! collection lives in `sim-luc`, estimation in `sim-query`.

use sim_types::{ByteReader, Date, Decimal, Surrogate, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Maximum equi-depth buckets per histogram.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Per-class facts from the last analyze.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Entity count at analyze time.
    pub rows: u64,
    /// Heap blocks of the class's tree file at analyze time.
    pub blocks: u64,
    /// DML writes touching this class since analyze (inserts, role
    /// extensions/removals, attribute assignments). Estimates degrade
    /// gracefully as this grows; it is the staleness signal.
    pub mods_since_analyze: u64,
}

impl ClassStats {
    /// Fraction of the class modified since analyze (0 when fresh; can
    /// exceed 1 under churn).
    pub fn staleness(&self) -> f64 {
        if self.rows == 0 {
            // Any write to a class analyzed empty makes the stats stale.
            if self.mods_since_analyze > 0 {
                1.0
            } else {
                0.0
            }
        } else {
            self.mods_since_analyze as f64 / self.rows as f64
        }
    }
}

/// Per-attribute facts (single-valued DVAs) from the last analyze.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrStats {
    /// Owner-class entity count at analyze time.
    pub rows: u64,
    /// Entities with a non-null value.
    pub non_null: u64,
    /// Distinct non-null values.
    pub distinct: u64,
    /// Equi-depth histogram over the non-null values (ordered domains only).
    pub histogram: Option<Histogram>,
}

impl AttrStats {
    /// Fraction of entities whose value is null.
    pub fn null_fraction(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            1.0 - self.non_null as f64 / self.rows as f64
        }
    }

    /// Selectivity of `attr = <constant>`: uniform share of one distinct
    /// value among the non-null fraction.
    pub fn eq_selectivity(&self) -> f64 {
        if self.rows == 0 || self.distinct == 0 {
            0.0
        } else {
            (self.non_null as f64 / self.rows as f64) / self.distinct as f64
        }
    }
}

/// Per-EVA (or multi-valued DVA) fan-out from the last analyze.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FanOutStats {
    /// Owner entities scanned.
    pub owners: u64,
    /// Total partners/values reached.
    pub links: u64,
}

impl FanOutStats {
    /// Average partners per owner (1.0 when never measured on any owner,
    /// matching the pre-statistics heuristic of "a link exists").
    pub fn average(&self) -> f64 {
        if self.owners == 0 {
            1.0
        } else {
            self.links as f64 / self.owners as f64
        }
    }
}

/// One equi-depth bucket: values in `lower ..= upper` (by
/// [`Value::total_cmp`]), `count` of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Smallest value in the bucket.
    pub lower: Value,
    /// Largest value in the bucket (inclusive fence).
    pub upper: Value,
    /// Values in the bucket.
    pub count: u64,
}

/// An equi-depth histogram over non-null values of one attribute.
///
/// Buckets hold roughly `total / buckets.len()` values each; an equal run
/// is never split across buckets, so heavy skew widens one bucket instead
/// of lying about its neighbours. Fences are orderd by `Value::total_cmp`,
/// which PR 4 made agree with the B-tree order-key encoding (floats via
/// `total_cmp`), so histogram fractions and index range scans see the same
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// The buckets, in ascending fence order.
    pub buckets: Vec<Bucket>,
}

impl Histogram {
    /// Build from a set of non-null values (consumed; sorted internally).
    /// Returns `None` for an empty input.
    pub fn build(mut values: Vec<Value>, max_buckets: usize) -> Option<Histogram> {
        if values.is_empty() || max_buckets == 0 {
            return None;
        }
        values.sort_by(sim_types::Value::total_cmp);
        let n = values.len();
        let depth = n.div_ceil(max_buckets).max(1);
        let mut buckets: Vec<Bucket> = Vec::new();
        let mut i = 0;
        while i < n {
            let lower = values[i].clone();
            let mut j = (i + depth).min(n);
            // Never split a run of equal values across a fence.
            while j < n && values[j].total_cmp(&values[j - 1]) == Ordering::Equal {
                j += 1;
            }
            buckets.push(Bucket { lower, upper: values[j - 1].clone(), count: (j - i) as u64 });
            i = j;
        }
        Some(Histogram { buckets })
    }

    /// Total values represented.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Estimated fraction of values `<= v` (when `inclusive`) or `< v`.
    /// Full buckets below contribute exactly; the bucket containing `v`
    /// contributes half its count — so the estimate is within one bucket
    /// of exact.
    pub fn fraction_below(&self, v: &Value, inclusive: bool) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let mut covered = 0.0;
        for b in &self.buckets {
            let upper_below = match b.upper.total_cmp(v) {
                Ordering::Less => true,
                Ordering::Equal => inclusive,
                Ordering::Greater => false,
            };
            if upper_below {
                covered += b.count as f64;
                continue;
            }
            let lower_above = match b.lower.total_cmp(v) {
                Ordering::Greater => true,
                Ordering::Equal => !inclusive,
                Ordering::Less => false,
            };
            if !lower_above {
                covered += b.count as f64 * 0.5;
            }
            break;
        }
        covered / total as f64
    }

    /// Estimated fraction of values in the range
    /// `(lo, lo_inclusive) .. (hi, hi_inclusive)` — `None` bound = open end.
    pub fn range_fraction(&self, lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>) -> f64 {
        let above = match hi {
            Some((v, incl)) => self.fraction_below(v, incl),
            None => 1.0,
        };
        let below = match lo {
            // Values strictly below the lower bound (or <= it when the
            // bound itself is excluded).
            Some((v, incl)) => self.fraction_below(v, !incl),
            None => 0.0,
        };
        (above - below).clamp(0.0, 1.0)
    }
}

/// The whole statistics store: keyed by raw `ClassId.0` / `AttrId.0`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsStore {
    /// Per-class stats.
    pub classes: BTreeMap<u32, ClassStats>,
    /// Per single-valued DVA stats.
    pub attrs: BTreeMap<u32, AttrStats>,
    /// Per EVA / MV-DVA fan-out.
    pub fan_out: BTreeMap<u32, FanOutStats>,
}

/// What a full-scan analyze produced (REPL/facade report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeSummary {
    /// Classes profiled.
    pub classes: usize,
    /// Single-valued attributes profiled.
    pub attributes: usize,
    /// Histograms built.
    pub histograms: usize,
    /// EVA / MV-DVA fan-outs measured.
    pub fan_outs: usize,
}

impl std::fmt::Display for AnalyzeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analyzed {} classes, {} attributes ({} histograms), {} fan-outs",
            self.classes, self.attributes, self.histograms, self.fan_outs
        )
    }
}

impl StatsStore {
    /// True when no analyze has ever populated the store.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty() && self.attrs.is_empty() && self.fan_out.is_empty()
    }

    /// Per-class stats, if analyzed.
    pub fn class(&self, class: u32) -> Option<&ClassStats> {
        self.classes.get(&class)
    }

    /// Per-attribute stats, if analyzed.
    pub fn attr(&self, attr: u32) -> Option<&AttrStats> {
        self.attrs.get(&attr)
    }

    /// Fan-out stats, if analyzed.
    pub fn fan_out(&self, attr: u32) -> Option<&FanOutStats> {
        self.fan_out.get(&attr)
    }

    /// Record `n` DML writes against a class (staleness counter).
    pub fn note_writes(&mut self, class: u32, n: u64) {
        if let Some(c) = self.classes.get_mut(&class) {
            c.mods_since_analyze = c.mods_since_analyze.saturating_add(n);
        }
    }

    // ----- codec (rides inside AppMeta) -----------------------------------

    /// Serialize (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.classes.len() as u32).to_le_bytes());
        for (id, c) in &self.classes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&c.rows.to_le_bytes());
            out.extend_from_slice(&c.blocks.to_le_bytes());
            out.extend_from_slice(&c.mods_since_analyze.to_le_bytes());
        }
        out.extend_from_slice(&(self.attrs.len() as u32).to_le_bytes());
        for (id, a) in &self.attrs {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&a.rows.to_le_bytes());
            out.extend_from_slice(&a.non_null.to_le_bytes());
            out.extend_from_slice(&a.distinct.to_le_bytes());
            match &a.histogram {
                None => out.push(0),
                Some(h) => {
                    out.push(1);
                    out.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
                    for b in &h.buckets {
                        encode_value(&b.lower, &mut out);
                        encode_value(&b.upper, &mut out);
                        out.extend_from_slice(&b.count.to_le_bytes());
                    }
                }
            }
        }
        out.extend_from_slice(&(self.fan_out.len() as u32).to_le_bytes());
        for (id, f) in &self.fan_out {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&f.owners.to_le_bytes());
            out.extend_from_slice(&f.links.to_le_bytes());
        }
        out
    }

    /// Decode bytes produced by [`StatsStore::encode`]. The error is a
    /// human-readable corruption description.
    pub fn decode(bytes: &[u8]) -> Result<StatsStore, String> {
        let mut r = ByteReader::new(bytes);
        let mut store = StatsStore::default();
        for _ in 0..r.u32()? {
            let id = r.u32()?;
            store.classes.insert(
                id,
                ClassStats { rows: r.u64()?, blocks: r.u64()?, mods_since_analyze: r.u64()? },
            );
        }
        for _ in 0..r.u32()? {
            let id = r.u32()?;
            let rows = r.u64()?;
            let non_null = r.u64()?;
            let distinct = r.u64()?;
            let histogram = match r.u8()? {
                0 => None,
                1 => {
                    let n = r.u32()? as usize;
                    let mut buckets = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        let lower = decode_value(&mut r)?;
                        let upper = decode_value(&mut r)?;
                        buckets.push(Bucket { lower, upper, count: r.u64()? });
                    }
                    Some(Histogram { buckets })
                }
                other => return Err(format!("bad histogram tag {other}")),
            };
            store.attrs.insert(id, AttrStats { rows, non_null, distinct, histogram });
        }
        for _ in 0..r.u32()? {
            let id = r.u32()?;
            store.fan_out.insert(id, FanOutStats { owners: r.u64()?, links: r.u64()? });
        }
        r.finish()?;
        Ok(store)
    }
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(2);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Decimal(d) => {
            out.push(3);
            out.extend_from_slice(&d.mantissa().to_le_bytes());
            out.push(d.scale());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(u8::from(*b));
        }
        Value::Date(d) => {
            out.push(6);
            out.extend_from_slice(&d.day_number().to_le_bytes());
        }
        Value::Symbol(s) => {
            out.push(7);
            out.extend_from_slice(&s.to_le_bytes());
        }
        Value::Entity(s) => {
            out.push(8);
            out.extend_from_slice(&s.raw().to_le_bytes());
        }
    }
}

fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, String> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Int(i64::from_le_bytes(r.array()?)),
        2 => Value::Float(f64::from_bits(r.u64()?)),
        3 => {
            let mantissa = i128::from_le_bytes(r.array()?);
            let scale = r.u8()?;
            Value::Decimal(
                Decimal::from_parts(mantissa, scale).map_err(|e| format!("bad decimal: {e}"))?,
            )
        }
        4 => {
            let len = r.u32()? as usize;
            Value::Str(
                String::from_utf8(r.take(len)?.to_vec()).map_err(|_| "bad utf8".to_string())?,
            )
        }
        5 => Value::Bool(r.u8()? != 0),
        6 => Value::Date(Date::from_day_number(i32::from_le_bytes(r.array()?))),
        7 => Value::Symbol(r.u16()?),
        8 => Value::Entity(Surrogate::from_raw(r.u64()?)),
        other => return Err(format!("bad value tag {other}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn histogram_equi_depth_invariants() {
        let vals: Vec<Value> = (0..100).map(Value::Int).collect();
        let h = Histogram::build(vals, 8).unwrap();
        assert_eq!(h.total(), 100);
        assert!(h.buckets.len() <= 8);
        for w in h.buckets.windows(2) {
            assert!(w[0].upper.total_cmp(&w[1].lower) == Ordering::Less);
        }
        for b in &h.buckets {
            assert!(b.lower.total_cmp(&b.upper) != Ordering::Greater);
            assert!(b.count > 0);
        }
    }

    #[test]
    fn histogram_never_splits_equal_runs() {
        // 90 copies of 5 and ten other values: the run must land whole in
        // one bucket.
        let mut vals = vec![Value::Int(5); 90];
        vals.extend(ints(&[0, 1, 2, 3, 4, 6, 7, 8, 9, 10]));
        let h = Histogram::build(vals, 8).unwrap();
        let holding: Vec<&Bucket> = h
            .buckets
            .iter()
            .filter(|b| {
                b.lower.total_cmp(&Value::Int(5)) != Ordering::Greater
                    && b.upper.total_cmp(&Value::Int(5)) != Ordering::Less
            })
            .collect();
        assert_eq!(holding.len(), 1);
        assert!(holding[0].count >= 90);
    }

    #[test]
    fn fraction_below_is_monotone() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 50)).collect();
        let h = Histogram::build(vals, 16).unwrap();
        let mut last = 0.0;
        for v in 0..50 {
            let f = h.fraction_below(&Value::Int(v), true);
            assert!(f >= last - 1e-12);
            last = f;
        }
        assert!((h.fraction_below(&Value::Int(49), true) - 1.0).abs() < 1e-9);
        assert!(h.fraction_below(&Value::Int(-1), true) == 0.0);
    }

    #[test]
    fn range_fraction_clamps() {
        let h = Histogram::build(ints(&[1, 2, 3, 4, 5]), 4).unwrap();
        let inverted = h.range_fraction(Some((&Value::Int(4), true)), Some((&Value::Int(2), true)));
        assert!(inverted >= 0.0);
        let all = h.range_fraction(None, None);
        assert!((all - 1.0).abs() < 1e-9);
    }

    #[test]
    fn store_roundtrip() {
        let mut store = StatsStore::default();
        store.classes.insert(1, ClassStats { rows: 10, blocks: 2, mods_since_analyze: 3 });
        store.attrs.insert(
            7,
            AttrStats {
                rows: 10,
                non_null: 9,
                distinct: 4,
                histogram: Histogram::build(ints(&[1, 1, 2, 3, 9]), 4),
            },
        );
        store.attrs.insert(8, AttrStats { rows: 10, non_null: 0, distinct: 0, histogram: None });
        store.fan_out.insert(9, FanOutStats { owners: 10, links: 25 });
        let bytes = store.encode();
        assert_eq!(StatsStore::decode(&bytes).unwrap(), store);
        // Codec covers every Value variant used as a fence.
        let fences = vec![
            Value::Null,
            Value::Int(-5),
            Value::Float(2.5),
            Value::Decimal(Decimal::from_parts(1234, 2).unwrap()),
            Value::Str("abc".into()),
            Value::Bool(true),
            Value::Date(Date::from_ymd(1988, 6, 1).unwrap()),
            Value::Symbol(3),
            Value::Entity(Surrogate::from_raw(42)),
        ];
        let mut buf = Vec::new();
        for f in &fences {
            encode_value(f, &mut buf);
        }
        let mut r = ByteReader::new(&buf);
        for f in &fences {
            assert_eq!(&decode_value(&mut r).unwrap(), f);
        }
    }

    #[test]
    fn damage_is_rejected() {
        let mut store = StatsStore::default();
        store.classes.insert(1, ClassStats { rows: 1, blocks: 1, mods_since_analyze: 0 });
        let mut bytes = store.encode();
        bytes.push(0);
        assert!(StatsStore::decode(&bytes).is_err());
        let good = store.encode();
        assert!(StatsStore::decode(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn staleness_and_selectivity_math() {
        let c = ClassStats { rows: 100, blocks: 5, mods_since_analyze: 25 };
        assert!((c.staleness() - 0.25).abs() < 1e-12);
        let a = AttrStats { rows: 100, non_null: 80, distinct: 20, histogram: None };
        assert!((a.null_fraction() - 0.2).abs() < 1e-12);
        assert!((a.eq_selectivity() - 0.04).abs() < 1e-12);
        let f = FanOutStats { owners: 10, links: 35 };
        assert!((f.average() - 3.5).abs() < 1e-12);
        assert!((FanOutStats::default().average() - 1.0).abs() < 1e-12);
    }
}
