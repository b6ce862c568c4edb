//! Summary persistence — cache keys and the one on-disk format shared by
//! `--summary-cache` and the shared summary store.
//!
//! Re-solving unchanged code dominates whole-module cost on repeated
//! invocations. [`ModuleSummaries`] is deterministic and per-function,
//! so it can be persisted between runs and reused for every function
//! whose *meaning-relevant inputs* did not change. This module provides the two halves of that:
//!
//! * [`SummaryKeys`] — one 64-bit key per function,
//!
//!   ```text
//!   key(f) = H( scc_key(C_f) ∥ body(f) )
//!   scc_key(C) = H( sorted member bodies of C
//!                 ∥ sorted (callee name, callee scc_key) pairs )
//!   ```
//!
//!   where `body(f)` is [`sraa_ir::body_fingerprint`] and `C_f` is `f`'s
//!   component in the call-graph condensation. Because callee-SCC keys
//!   fold in transitively, editing one function changes the key of
//!   exactly the functions that can *reach* it in the call graph — the
//!   set whose summaries its edit can influence. Invalidation is thus
//!   structural, not tracked: a stale entry simply stops matching. The
//!   key is the whole identity of a summary: a function's own name is
//!   not part of it, so a renamed or duplicated function with an
//!   unchanged body (and unchanged callees) finds its old summary.
//!
//! * The **segment** — a versioned, checksummed, endianness-safe binary
//!   `key → summary` map ([`SummaryMap`]) with no names. A
//!   `--summary-cache` file is one segment holding one run's keys, sorted
//!   by key and written atomically with [`save`], so it stays bounded and
//!   byte-deterministic; the shared store ([`crate::store`]) keeps a
//!   directory of them. Any defect — truncation, corruption, a version or
//!   constraint-config mismatch, a file in another layout — surfaces as a
//!   [`PersistError`] so callers can fall back to a cold solve; a
//!   persisted summary can make a run *slower to load*, never wrong.
//!
//! # Segment format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"SRAASTOR"
//!      8     2  format version (u16)
//!     10     1  GenConfig encoding (bit0 extended, bit1 param_pairs,
//!               bit2 range_offsets)
//!     11     1  reserved (0)
//!     12     4  entry count (u32)
//!     16     …  entries: key u64, fact count u32, fact indices u32×n
//!   last     8  FNV-1a checksum of every preceding byte
//! ```

use crate::constraints::GenConfig;
use crate::summary::{FunctionSummary, ModuleSummaries};
use sraa_ir::{body_fingerprint, CallGraph, Condensation, Fnv64, FuncId, Module};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version. Bump on any change to the byte layout **or**
/// to the fingerprint/key scheme (a key computed by a different scheme
/// must never be compared against a stored one).
pub const FORMAT_VERSION: u16 = 1;

const MAGIC: &[u8; 8] = b"SRAASTOR";
/// Magic + version + config + reserved + count.
const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;

/// Content-addressed summaries, `key → summary` with no names: the
/// per-module prior a warm run reads, and the shape of one shared-store
/// shard.
pub type SummaryMap = HashMap<u64, FunctionSummary>;

pub(crate) fn encode_gen_config(cfg: GenConfig) -> u8 {
    (cfg.extended as u8) | (cfg.param_pairs as u8) << 1 | (cfg.range_offsets as u8) << 2
}

/// Per-function summary keys for one module, propagated bottom-up over
/// the call-graph condensation (see the module docs for the scheme).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SummaryKeys {
    per_func: Vec<u64>,
}

impl SummaryKeys {
    /// Computes every function's key over the summary phase's call graph
    /// and condensation. The module must be in its final (e-SSA) form —
    /// the same form summaries are computed on.
    pub(crate) fn compute(module: &Module, cg: &CallGraph, cond: &Condensation) -> Self {
        let bodies: Vec<u64> = (0..module.num_functions())
            .map(|i| body_fingerprint(module, FuncId::from_index(i)))
            .collect();

        let mut scc_key = vec![0u64; cond.len()];
        let mut per_func = vec![0u64; module.num_functions()];
        for (ci, members) in cond.bottom_up() {
            // Member bodies, ordered by name so the key does not depend on
            // function numbering.
            let mut named: Vec<(&str, u64)> = members
                .iter()
                .map(|&f| (module.function(f).name.as_str(), bodies[f.index()]))
                .collect();
            named.sort_unstable();
            // `(name, component key)` of every external callee (already
            // computed: bottom-up order visits callees first). Keyed per
            // *name*, not as a bare key set: two identical-bodied callees
            // share a component key, and collapsing them would let a
            // mutation of one slip past its callers' keys — a stale
            // (unsound) warm summary. Names are unique, so deduplicating
            // the pairs is exact.
            let mut ext: Vec<(&str, u64)> = members
                .iter()
                .flat_map(|&f| cg.callees(f))
                .filter(|&&g| cond.component_of(g) != ci)
                .map(|&g| (module.function(g).name.as_str(), scc_key[cond.component_of(g)]))
                .collect();
            ext.sort_unstable();
            ext.dedup();

            let mut h = Fnv64::new();
            h.write_u32(named.len() as u32);
            for (_, body) in &named {
                h.write_u64(*body);
            }
            h.write_u32(ext.len() as u32);
            for (name, k) in &ext {
                h.write_str(name);
                h.write_u64(*k);
            }
            scc_key[ci] = h.finish();

            for &f in members {
                let mut h = Fnv64::new();
                h.write_u64(scc_key[ci]);
                h.write_u64(bodies[f.index()]);
                per_func[f.index()] = h.finish();
            }
        }
        SummaryKeys { per_func }
    }

    /// The key of function `f`.
    pub fn of(&self, f: FuncId) -> u64 {
        self.per_func[f.index()]
    }
}

/// Why a persisted file could not be used. Every variant is a *fall back
/// to cold* signal, never a panic.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read (includes not-found; callers that treat
    /// a missing cache as an ordinary cold start should check
    /// [`PersistError::is_not_found`]).
    Io(std::io::Error),
    /// Shorter than the fixed header + checksum, or an entry runs past
    /// the end.
    Truncated,
    /// Bad magic, failed checksum, or malformed entries.
    Corrupted(&'static str),
    /// Written by a different format (or fingerprint-scheme) version.
    VersionMismatch {
        /// The version recorded in the file.
        found: u16,
    },
    /// Written under different constraint-generation options; summaries
    /// are config-dependent, so reuse would be unsound.
    ConfigMismatch,
}

impl PersistError {
    /// Whether the error is simply "no cache file yet".
    pub fn is_not_found(&self) -> bool {
        matches!(self, PersistError::Io(e) if e.kind() == std::io::ErrorKind::NotFound)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cannot read cache: {e}"),
            PersistError::Truncated => f.write_str("cache file is truncated"),
            PersistError::Corrupted(what) => write!(f, "cache file is corrupted ({what})"),
            PersistError::VersionMismatch { found } => {
                write!(f, "cache format version {found} (this build writes {FORMAT_VERSION})")
            }
            PersistError::ConfigMismatch => {
                f.write_str("cache was written under different constraint-generation options")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Encodes `entries` as one segment, in the order given.
pub(crate) fn encode_segment<'a>(
    entries: impl ExactSizeIterator<Item = (u64, &'a FunctionSummary)>,
    cfg_byte: u8,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 16 * entries.len() + CHECKSUM_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(cfg_byte);
    out.push(0);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (key, summary) in entries {
        out.extend_from_slice(&key.to_le_bytes());
        let facts = summary.args_lt_ret();
        out.extend_from_slice(&(facts.len() as u32).to_le_bytes());
        for &j in facts {
            out.extend_from_slice(&j.to_le_bytes());
        }
    }
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Parses one segment, verifying magic, version, checksum and the
/// constraint-generation options it was written under.
pub(crate) fn decode_segment(
    bytes: &[u8],
    cfg_byte: u8,
) -> Result<Vec<(u64, FunctionSummary)>, PersistError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(PersistError::Truncated);
    }
    if &bytes[0..8] != MAGIC {
        return Err(PersistError::Corrupted("bad magic"));
    }
    let version = u16::from_le_bytes([bytes[8], bytes[9]]);
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch { found: version });
    }
    let (payload, tail) = bytes.split_at(bytes.len() - CHECKSUM_LEN);
    let mut h = Fnv64::new();
    h.write(payload);
    if h.finish().to_le_bytes() != tail {
        return Err(PersistError::Corrupted("checksum mismatch"));
    }
    if bytes[10] != cfg_byte {
        return Err(PersistError::ConfigMismatch);
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    // The FNV checksum is integrity, not authentication: a crafted file
    // can carry any count it likes, so bound it by what the payload
    // could possibly hold (an entry is ≥ 12 bytes) before allocating —
    // a defective file must fall back to cold, never abort on OOM.
    if count > (payload.len() - HEADER_LEN) / 12 {
        return Err(PersistError::Corrupted("entry count exceeds payload"));
    }
    let mut cur = Cursor { bytes: payload, at: HEADER_LEN };
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let key = cur.u64()?;
        let nfacts = cur.u32()? as usize;
        let mut facts = Vec::with_capacity(nfacts.min(1024));
        for _ in 0..nfacts {
            facts.push(cur.u32()?);
        }
        entries.push((key, FunctionSummary { args_lt_ret: facts.into() }));
    }
    if cur.at != payload.len() {
        return Err(PersistError::Corrupted("trailing bytes after entries"));
    }
    Ok(entries)
}

/// Writes `summaries` to `path` as one segment: every key of the run
/// once, sorted by key, so the file is bounded by the module and
/// byte-identical across runs and platforms. Atomic (write-temp-then-
/// rename via `write_atomic`): two processes healing or refreshing the
/// same file concurrently each publish a complete file — a reader can
/// observe either version, never an interleaving.
pub fn save(path: &Path, summaries: &ModuleSummaries, cfg: GenConfig) -> std::io::Result<()> {
    let mut entries: Vec<(u64, &FunctionSummary)> = summaries.entries().collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries.dedup_by_key(|&mut (k, _)| k);
    write_atomic(path, &encode_segment(entries.into_iter(), encode_gen_config(cfg)))
}

/// Reads the segment at `path` as a prior for the next run.
pub fn load(path: &Path, cfg: GenConfig) -> Result<SummaryMap, PersistError> {
    let bytes = std::fs::read(path).map_err(PersistError::Io)?;
    Ok(decode_segment(&bytes, encode_gen_config(cfg))?.into_iter().collect())
}

/// Atomically replaces `path` with `bytes`: the bytes are written to a
/// uniquely named temporary file in the *same directory* (rename is only
/// atomic within a filesystem) and renamed over the target. Used by
/// [`save`] and by the shared store's segment writer ([`crate::store`]).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "cache".to_owned());
    let tmp = dir.join(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })
}

/// Bounds-checked little-endian reader over a segment payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.at.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::var_index::VarIndex;

    fn cold(src: &str) -> (Module, ModuleSummaries) {
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let (sums, ..) =
            ModuleSummaries::compute(&m, &ranges, &index, &EngineConfig::default(), None, None);
        (m, sums)
    }

    const SRC: &str = r#"
        int next(int i) { return i + 1; }
        int twice(int i) { return next(next(i)); }
        int main() { return twice(1); }
    "#;

    fn summary(facts: &[u32]) -> FunctionSummary {
        FunctionSummary { args_lt_ret: facts.to_vec().into() }
    }

    fn reseal(bytes: &mut [u8]) {
        let last = bytes.len() - CHECKSUM_LEN;
        let mut h = Fnv64::new();
        h.write(&bytes[..last]);
        let sum = h.finish().to_le_bytes();
        bytes[last..].copy_from_slice(&sum);
    }

    #[test]
    fn keys_change_exactly_for_reverse_reachable_functions() {
        let (m1, s1) = cold(SRC);
        let (m2, s2) = cold(&SRC.replace("i + 1", "i + 2"));
        let (k1, k2) = (s1.keys(), s2.keys());
        // Editing `next` re-keys next, twice and main (all reach it) …
        for name in ["next", "twice", "main"] {
            let f = m1.function_by_name(name).unwrap();
            assert_ne!(k1.of(f), k2.of(f), "{name} must be invalidated");
        }
        // … while editing `main` re-keys only main.
        let (m3, s3) = cold(&SRC.replace("twice(1)", "twice(2)"));
        for name in ["next", "twice"] {
            let f = m1.function_by_name(name).unwrap();
            assert_eq!(k1.of(f), s3.keys().of(f), "{name} must stay valid");
        }
        let main = m1.function_by_name("main").unwrap();
        assert_ne!(k1.of(main), s3.keys().of(main));
        assert_eq!((m2.num_functions(), m3.num_functions()), (3, 3));
    }

    #[test]
    fn segment_bytes_round_trip_and_reject_defects() {
        let entries = vec![(7u64, summary(&[0, 2])), (u64::MAX, summary(&[])), (42, summary(&[1]))];
        let cfg = encode_gen_config(GenConfig::default());
        let bytes = encode_segment(entries.iter().map(|(k, s)| (*k, s)), cfg);
        assert_eq!(decode_segment(&bytes, cfg).unwrap(), entries);

        // Truncations at every prefix length parse-fail cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_segment(&bytes[..cut], cfg).is_err(), "prefix {cut}");
        }
        // Any single flipped bit is caught (checksum or field checks).
        for at in [0, 9, HEADER_LEN + 1, bytes.len() - 3] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(decode_segment(&bad, cfg).is_err(), "flip at {at}");
        }
        // A different GenConfig is a mismatch, not a silent reuse.
        assert!(matches!(decode_segment(&bytes, cfg ^ 1), Err(PersistError::ConfigMismatch)));
        // A hostile entry count with a re-sealed (non-cryptographic)
        // checksum must be rejected before allocation, not abort on OOM.
        let mut hostile = bytes.clone();
        hostile[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut hostile);
        assert!(matches!(
            decode_segment(&hostile, cfg),
            Err(PersistError::Corrupted("entry count exceeds payload"))
        ));
        // A future format version is refused with the right variant.
        let mut vnext = bytes.clone();
        vnext[8..10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        reseal(&mut vnext);
        assert!(matches!(
            decode_segment(&vnext, cfg),
            Err(PersistError::VersionMismatch { found }) if found == FORMAT_VERSION + 1
        ));
        // Errors render human-readably and `is_not_found` is precise.
        assert!(!PersistError::Truncated.is_not_found());
        assert!(PersistError::Io(std::io::Error::from(std::io::ErrorKind::NotFound)).is_not_found());
        for e in [
            PersistError::Truncated,
            PersistError::Corrupted("x"),
            PersistError::VersionMismatch { found: 9 },
            PersistError::ConfigMismatch,
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }

    #[test]
    fn save_writes_one_sorted_deterministic_segment() {
        // `next` and `nxt` have identical bodies and no callees: one key,
        // so the file holds one entry for the pair.
        let src = format!("int nxt(int i) {{ return i + 1; }}\n{SRC}");
        let (m, sums) = cold(&src);
        let dir = std::env::temp_dir().join(format!("sraa_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summaries.bin");
        save(&path, &sums, GenConfig::default()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let decoded = decode_segment(&bytes, encode_gen_config(GenConfig::default())).unwrap();
        assert_eq!(decoded.len(), 3, "four functions, three distinct keys");
        assert!(decoded.windows(2).all(|w| w[0].0 < w[1].0), "entries sorted by key");
        let again = cold(&src).1;
        save(&path, &again, GenConfig::default()).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "byte-identical across runs");

        let prior = load(&path, GenConfig::default()).expect("load back");
        for (f, s) in sums.iter() {
            assert_eq!(prior.get(&sums.keys().of(f)), Some(s), "{}", m.function(f).name);
        }
        let missing = load(Path::new("/nonexistent/sraa.cache"), GenConfig::default());
        assert!(matches!(&missing, Err(e) if e.is_not_found()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file torn mid-write — the observable state an interrupted
    /// in-place rewrite would leave behind — must load-fail cleanly, and
    /// the atomic rewrite must heal it without leaving temp litter.
    #[test]
    fn torn_cache_file_reloads_cleanly_and_heals_atomically() {
        let (_, sums) = cold(SRC);
        let dir = std::env::temp_dir().join(format!("sraa_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summaries.bin");
        save(&path, &sums, GenConfig::default()).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Tear the file at every interesting cut point and reload.
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN + 5, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(load(&path, GenConfig::default()).is_err(), "torn at {cut} must not parse");
            // Healing is a fresh atomic save over the torn file.
            save(&path, &sums, GenConfig::default()).unwrap();
            assert_eq!(load(&path, GenConfig::default()).unwrap().len(), 3, "healed at {cut}");
        }

        // write-temp-then-rename must not leave temporaries behind, even
        // after the rename-failure cleanup path (rename onto a directory).
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        assert!(write_atomic(&blocked, b"x").is_err());
        let stray: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
