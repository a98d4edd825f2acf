//! The Mapper's application metadata — what rides inside the storage
//! engine's commit records so a database can be reopened.
//!
//! The base structure plan (families, surrogate indexes, MV-DVA trees, the
//! Common EVA Structure, dedicated structures, UNIQUE indexes) is a pure
//! function of the catalog, created in a deterministic order — reopening
//! rebinds those by replaying the same order against the recovered engine.
//! What *cannot* be derived is recorded here: the schema source itself
//! (opaque bytes to this crate; the layer above parses it back into a
//! catalog), the surrogate high-water mark, and the user-created secondary
//! and hash indexes.

use crate::error::MapperError;
use sim_types::ByteReader;

const MAGIC: &[u8; 4] = b"SIMA";
/// Version 2: numeric index keys switched to the two-part (f64 approx +
/// exact mantissa) order encoding, so index bytes persisted by version 1
/// databases are incompatible — they are refused at open and must be
/// rebuilt from schema + data.
///
/// Version 3 appends the optimizer-statistics blob ([`sim_catalog::
/// statistics::StatsStore`] bytes; opaque here). Version 2 metadata is
/// still accepted — it simply reopens with no statistics.
const VERSION: u16 = 3;
const MIN_VERSION: u16 = 2;

/// Everything a reopen needs beyond the catalog-derived structure plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AppMeta {
    /// The schema source (DDL text) the database was created with.
    pub schema: Vec<u8>,
    /// The next surrogate the allocator would mint.
    pub next_surrogate: u64,
    /// User-created secondary B-tree indexes: `(attr id, btree id)`.
    pub secondary: Vec<(u32, u32)>,
    /// User-created hash indexes: `(attr id, hash index id)`.
    pub hash: Vec<(u32, u32)>,
    /// Encoded optimizer statistics (empty = never analyzed). Opaque bytes
    /// at this layer; the mapper decodes them on reopen.
    pub stats: Vec<u8>,
}

fn corrupt(what: &str) -> MapperError {
    MapperError::Persist(format!("bad app metadata: {what}"))
}

impl AppMeta {
    /// Serialize (little-endian, length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.schema.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(
            &(u64::try_from(self.schema.len()).unwrap_or(u64::MAX)).to_le_bytes(),
        );
        out.extend_from_slice(&self.schema);
        out.extend_from_slice(&self.next_surrogate.to_le_bytes());
        out.extend_from_slice(&(self.secondary.len() as u32).to_le_bytes());
        for (attr, tree) in &self.secondary {
            out.extend_from_slice(&attr.to_le_bytes());
            out.extend_from_slice(&tree.to_le_bytes());
        }
        out.extend_from_slice(&(self.hash.len() as u32).to_le_bytes());
        for (attr, hidx) in &self.hash {
            out.extend_from_slice(&attr.to_le_bytes());
            out.extend_from_slice(&hidx.to_le_bytes());
        }
        out.extend_from_slice(&(u64::try_from(self.stats.len()).unwrap_or(u64::MAX)).to_le_bytes());
        out.extend_from_slice(&self.stats);
        out
    }

    /// Decode bytes produced by [`AppMeta::encode`].
    pub fn decode(bytes: &[u8]) -> Result<AppMeta, MapperError> {
        let mut r = ByteReader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(corrupt("magic mismatch"));
        }
        let version = r.u16()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        let schema = blob(&mut r, "schema")?;
        let next_surrogate = r.u64()?;
        let secondary = pairs(&mut r)?;
        let hash = pairs(&mut r)?;
        let stats = if version >= 3 { blob(&mut r, "stats")? } else { Vec::new() };
        r.finish()?;
        Ok(AppMeta { schema, next_surrogate, secondary, hash, stats })
    }
}

/// A `u64`-length-prefixed byte string.
fn blob(r: &mut ByteReader<'_>, what: &str) -> Result<Vec<u8>, MapperError> {
    let len =
        usize::try_from(r.u64()?).map_err(|_| corrupt(&format!("{what} length overflows")))?;
    Ok(r.take(len)?.to_vec())
}

/// A `u32`-count-prefixed list of `(u32, u32)` pairs.
fn pairs(r: &mut ByteReader<'_>) -> Result<Vec<(u32, u32)>, MapperError> {
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push((r.u32()?, r.u32()?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let meta = AppMeta {
            schema: b"CLASS PERSON (name: STRING[30]);".to_vec(),
            next_surrogate: 42,
            secondary: vec![(3, 17), (9, 21)],
            hash: vec![(4, 0)],
            stats: vec![1, 2, 3, 4],
        };
        assert_eq!(AppMeta::decode(&meta.encode()).unwrap(), meta);
    }

    #[test]
    fn version2_without_stats_is_accepted() {
        // A pre-statistics (version 2) blob: same layout minus the trailing
        // stats length + bytes.
        let meta = AppMeta {
            schema: b"CLASS X ();".to_vec(),
            next_surrogate: 7,
            secondary: vec![(1, 2)],
            hash: vec![],
            stats: Vec::new(),
        };
        let v3 = meta.encode();
        let mut v2 = v3[..v3.len() - 8].to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert_eq!(AppMeta::decode(&v2).unwrap(), meta);
        // But a version-2 blob with trailing bytes is still rejected.
        v2.push(0);
        assert!(AppMeta::decode(&v2).is_err());
    }

    #[test]
    fn empty_roundtrip() {
        let meta = AppMeta::default();
        assert_eq!(AppMeta::decode(&meta.encode()).unwrap(), meta);
    }

    #[test]
    fn damage_is_rejected() {
        let mut bytes = AppMeta::default().encode();
        bytes[0] ^= 0xFF;
        assert!(AppMeta::decode(&bytes).is_err());
        let good = AppMeta::default().encode();
        assert!(AppMeta::decode(&good[..good.len() - 1]).is_err());
        let mut extra = AppMeta::default().encode();
        extra.push(0);
        assert!(AppMeta::decode(&extra).is_err());
    }
}
