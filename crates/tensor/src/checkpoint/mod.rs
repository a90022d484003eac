//! Durable, crash-consistent checkpointing.
//!
//! Four pieces compose the subsystem:
//!
//! * **Format v2** (this module): a sectioned, checksummed serialization of
//!   a full training [`Snapshot`] — f32 parameter entries, optional
//!   optimizer state (AdamW m/v moments), the step counter, and RNG
//!   state. Every entry carries a CRC32, every section carries a CRC32,
//!   and the file ends in a whole-file CRC32 footer, so *any* torn write or
//!   bit flip surfaces as a typed [`CheckpointError`] — never as silently
//!   wrong tensors. Version-1 files (params-only, f32, unchecksummed) are
//!   refused with [`CheckpointError::UnsupportedVersion`], and v2 files
//!   holding data of the retired bf16 tier with
//!   [`CheckpointError::RetiredBf16`].
//! * **[`CheckpointDir`]** ([`dir`]): the atomic on-disk protocol —
//!   write-to-temp → fsync → rename → directory-fsync per shard, a
//!   versioned manifest committing each step (world size, grid axes,
//!   per-shard content digests), retain-last-K garbage collection, and
//!   newest-*valid* selection on open.
//! * **[`SnapshotWriter`]** ([`writer`]): a background thread that drains
//!   clone-on-snapshot (`Arc`-shared, O(1) per tensor) jobs so the
//!   training step never blocks on disk I/O.
//! * **[`DiskFaultPlan`]** ([`faults`]): deterministic disk fault
//!   injection (truncation, bit flips, crash-before-rename, stale
//!   manifests) in the same schedule-addressable style as the collectives'
//!   `FaultPlan` / `TransportFaultPlan`.
//!
//! Loading matches parameters by *name* (order-independent) and verifies
//! shapes, so a checkpoint survives refactors that reorder module
//! construction. Ranks of a distributed run each save their own
//! shard-local snapshot; FSDP shards carry [`ShardMeta`] so a w=4
//! checkpoint reshards into a w=3 world on load ([`merge_shards`]).
//!
//! # Checksums
//!
//! Every checksum is [`crc32`], which runs on the SIMD dispatch
//! ([`crate::simd::crc32`]): a carry-less-multiply fold on the vector
//! tiers and slicing-by-8 on the scalar tier, the same value on all of
//! them. Restore is CRC-bound: selection checks each shard's entry,
//! section and footer CRCs, and the rank's own load checks them again, so
//! each byte is checksummed several times.
//!
//! The nested CRCs have one consequence worth knowing. A CRC over a region
//! that holds a block followed by the block's own CRC does not depend on
//! the block's bytes, and every byte of a v2 file sits in such a block. So
//! the footer detects corruption, but it is the same for any two
//! snapshots of the same layout and cannot tell them apart; the manifest
//! binds each shard by its content digest instead (see [`dir`]).

pub mod dir;
pub mod faults;
pub mod writer;

pub use dir::{CheckpointDir, ValidCheckpoint};
pub use faults::{DiskFault, DiskFaultPlan};
pub use writer::SnapshotWriter;

use std::fmt;
use std::io::{self, Read, Write};

use crate::param::ParamStore;
use crate::rng::RngState;
use crate::shape::Shape;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"DCHK";
const VERSION: u32 = 2;

const SEC_PARAMS: u8 = 1;
const SEC_OPTIM: u8 = 2;
const SEC_STEP: u8 = 3;
const SEC_RNG: u8 = 4;
const SEC_END: u8 = 0xFF;

/// Parameter-entry dtype tags. Only f32 is written; tag 1 marks the
/// retired bf16 tier and is refused as [`CheckpointError::RetiredBf16`].
const DTYPE_F32: u8 = 0;
const DTYPE_RETIRED_BF16: u8 = 1;
/// Optimizer-entry mask bit of the retired bf16 tier's f32 master copy.
const OPTIM_RETIRED_MASTER: u8 = 1 << 2;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — the checksum of every entry, section,
// file footer, and manifest line in the subsystem (see "Checksums" above).
// ---------------------------------------------------------------------------

/// IEEE CRC32 of `bytes` (the same polynomial as zlib / ethernet), on the
/// SIMD dispatch: the same value on every ISA tier.
pub fn crc32(bytes: &[u8]) -> u32 {
    crate::simd::crc32(bytes)
}

// ---------------------------------------------------------------------------
// Typed errors: corruption is an error, never wrong data.
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be written, read, or selected. Every disk
/// corruption mode maps to a variant here — the recovery driver and the
/// fault-injection tests match on causes, not strings.
#[derive(Clone, Debug, PartialEq)]
pub enum CheckpointError {
    /// An OS-level I/O failure (`op` names the failing operation).
    Io {
        op: &'static str,
        kind: io::ErrorKind,
        detail: String,
    },
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// A format version this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream ended mid-structure (torn/truncated write).
    Truncated {
        offset: usize,
        needed: usize,
        len: usize,
    },
    /// Structurally invalid contents (bad lengths, tags, UTF-8, ...).
    Malformed(String),
    /// A parameter entry tagged bf16 (dtype tag 1), or an optimizer entry
    /// carrying a bf16 parameter's f32 master copy (mask bit `1 << 2`):
    /// data of the retired bf16 tier, which this build does not read.
    RetiredBf16 { name: String },
    /// A parameter entry's CRC32 does not match its bytes.
    EntryCrc { name: String },
    /// A section's CRC32 does not match its body.
    SectionCrc { tag: u8 },
    /// The whole-file footer CRC32 does not match.
    FileCrc,
    /// A named parameter's checkpointed shape disagrees with the store.
    ShapeMismatch {
        name: String,
        checkpoint: Vec<usize>,
        store: Vec<usize>,
    },
    /// A manifest references a shard file that does not exist.
    MissingShard { step: u64, rank: usize },
    /// A shard file's bytes do not match the manifest's recorded checksum.
    ShardCrc { step: u64, rank: usize },
    /// A manifest file is unreadable, corrupt, or self-inconsistent.
    BadManifest { step: u64, what: String },
    /// Restoring a `world`-rank checkpoint into a different-sized world
    /// without reshardable entries.
    WorldMismatch { checkpoint: usize, world: usize },
    /// Replicated (unsharded) entries disagree across shard files, so no
    /// single value can be restored.
    InconsistentReplica { name: String },
    /// No manifest in the directory survived validation.
    NoValidCheckpoint,
    /// The background snapshot writer thread is gone.
    WriterDead,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use CheckpointError::*;
        match self {
            Io { op, kind, detail } => write!(f, "{op}: {kind:?}: {detail}"),
            BadMagic => write!(f, "bad checkpoint magic"),
            UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Truncated { offset, needed, len } => {
                write!(f, "truncated checkpoint: needed {needed} bytes at offset {offset}, file has {len}")
            }
            Malformed(what) => write!(f, "malformed checkpoint: {what}"),
            RetiredBf16 { name } => {
                write!(f, "entry {name} holds bf16 data; the bf16 tier is retired")
            }
            EntryCrc { name } => write!(f, "entry CRC mismatch for parameter {name}"),
            SectionCrc { tag } => write!(f, "section CRC mismatch (tag {tag})"),
            FileCrc => write!(f, "whole-file CRC mismatch"),
            ShapeMismatch { name, checkpoint, store } => write!(
                f,
                "shape mismatch for {name}: checkpoint {checkpoint:?} vs store {store:?}"
            ),
            MissingShard { step, rank } => write!(f, "step {step}: shard for rank {rank} missing"),
            ShardCrc { step, rank } => {
                write!(f, "step {step}: shard for rank {rank} fails its manifest checksum")
            }
            BadManifest { step, what } => write!(f, "step {step}: bad manifest: {what}"),
            WorldMismatch { checkpoint, world } => write!(
                f,
                "checkpoint was saved by a {checkpoint}-rank world, cannot restore into {world} ranks"
            ),
            InconsistentReplica { name } => {
                write!(f, "replicated entry {name} differs across shard files")
            }
            NoValidCheckpoint => write!(f, "no valid checkpoint in directory"),
            WriterDead => write!(f, "background snapshot writer has exited"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io {
            op: "io",
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

pub(crate) fn io_err(op: &'static str, e: io::Error) -> CheckpointError {
    CheckpointError::Io {
        op,
        kind: e.kind(),
        detail: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Snapshot model
// ---------------------------------------------------------------------------

/// How a 1-D shard entry relates to the full parameter it came from (the
/// FSDP flatten-pad-split layout). [`merge_shards`] uses this to reassemble
/// the full tensor when restoring into a different world size.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardMeta {
    /// Rank that owned this shard when it was saved.
    pub rank: usize,
    /// World size the parameter was sharded over.
    pub world: usize,
    /// Flattened length padded to a multiple of `world`.
    pub padded: usize,
    /// Dims of the full (unsharded) parameter.
    pub full_dims: Vec<usize>,
}

/// Optimizer state for one parameter, matched by name like the parameter
/// entries themselves.
#[derive(Clone)]
pub struct OptimEntry {
    pub name: String,
    /// First moment.
    pub m: Option<Tensor>,
    /// Second moment.
    pub v: Option<Tensor>,
}

/// Serializable optimizer state (AdamW's step counter and per-parameter
/// moments; the optimizer type itself exports/imports this).
#[derive(Clone, Default)]
pub struct OptimState {
    /// Optimizer step counter (bias-correction time).
    pub t: u64,
    pub entries: Vec<OptimEntry>,
}

/// A full training-state snapshot: parameters plus the optional optimizer /
/// step / RNG sections of format v2. Tensors are `Arc`-shared, so building
/// a snapshot from live state is O(1) per tensor (clone-on-snapshot) — the
/// property [`SnapshotWriter`] relies on to keep the training step off the
/// I/O path.
#[derive(Clone, Default)]
pub struct Snapshot {
    pub entries: Vec<SnapEntry>,
    pub optim: Option<OptimState>,
    /// Training step the snapshot was taken at.
    pub step: u64,
    pub rng: Option<RngState>,
}

/// One parameter entry of a [`Snapshot`] or of [`merge_shards`]' output
/// (clonable; `Tensor` clones are O(1)).
#[derive(Clone)]
pub struct SnapEntry {
    pub name: String,
    pub value: Tensor,
    /// Present when the entry is one rank's shard of a larger parameter.
    pub shard: Option<ShardMeta>,
}

impl fmt::Debug for SnapEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SnapEntry({} {:?}", self.name, self.value.dims())?;
        if let Some(s) = &self.shard {
            write!(f, " shard {}/{}", s.rank, s.world)?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Snapshot(step {}, {} entries, optim: {}, rng: {})",
            self.step,
            self.entries.len(),
            self.optim.is_some(),
            self.rng.is_some()
        )
    }
}

impl Snapshot {
    /// Params-only snapshot of a store at `step`.
    pub fn of_store(store: &ParamStore, step: u64) -> Snapshot {
        Snapshot {
            entries: store
                .iter()
                .map(|(_, name, value)| SnapEntry {
                    name: name.to_string(),
                    value: value.clone(),
                    shard: None,
                })
                .collect(),
            optim: None,
            step,
            rng: None,
        }
    }

    pub fn with_optim(mut self, optim: OptimState) -> Snapshot {
        self.optim = Some(optim);
        self
    }

    pub fn with_rng(mut self, rng: RngState) -> Snapshot {
        self.rng = Some(rng);
        self
    }

    /// Serialize to format-v2 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        write_v2(self)
    }

    /// Deserialize format-v2 bytes, validating every checksum; any other
    /// version is [`CheckpointError::UnsupportedVersion`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        let mut b = Bytes::new(bytes);
        if b.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        match b.u32()? {
            2 => read_v2(bytes),
            v => Err(CheckpointError::UnsupportedVersion(v)),
        }
    }

    /// Restore parameter values into `store` by name; returns the number
    /// restored. See [`load_store`] for matching semantics.
    pub fn apply_to(&self, store: &mut ParamStore) -> Result<usize, CheckpointError> {
        apply_named(
            store,
            self.entries.iter().map(|e| (e.name.as_str(), &e.value)),
        )
    }
}

// ---------------------------------------------------------------------------
// Byte-level writers/readers (bulk I/O: one contiguous buffer per file,
// payloads moved with byte-slice copies, never element-at-a-time syscalls)
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    let start = out.len();
    out.resize(start + xs.len() * 4, 0);
    for (chunk, x) in out[start..].chunks_exact_mut(4).zip(xs) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Positioned reader over a byte slice; every shortfall is a typed
/// [`CheckpointError::Truncated`] carrying the exact offset.
struct Bytes<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Bytes<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Bytes { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
                len: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CheckpointError> {
        let raw = self.take(n.checked_mul(4).ok_or_else(len_overflow)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.u32()? as usize;
        if n > MAX_NAME {
            return Err(CheckpointError::Malformed(format!(
                "name length {n} exceeds cap"
            )));
        }
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|e| CheckpointError::Malformed(format!("non-UTF-8 name: {e}")))
    }

    fn dims(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let ndim = self.u32()? as usize;
        if ndim > MAX_NDIM {
            return Err(CheckpointError::Malformed(format!(
                "ndim {ndim} exceeds cap"
            )));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut numel = 1usize;
        for _ in 0..ndim {
            let d = self.u64()? as usize;
            numel = numel.checked_mul(d).ok_or_else(len_overflow)?;
            dims.push(d);
        }
        // Guard: a corrupted dim can't demand more payload than the file
        // could possibly hold (turns absurd allocations into Truncated).
        if numel > self.buf.len().saturating_mul(2).max(1 << 20) {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: numel,
                len: self.buf.len(),
            });
        }
        Ok(dims)
    }
}

/// Sanity caps: far above anything real, far below anything that could be
/// a length-field corruption trying to allocate the address space.
const MAX_NAME: usize = 1 << 16;
const MAX_NDIM: usize = 16;

fn len_overflow() -> CheckpointError {
    CheckpointError::Malformed("length field overflows".into())
}

fn numel_of(dims: &[usize]) -> usize {
    dims.iter().product()
}

// ---------------------------------------------------------------------------
// v2 writer
// ---------------------------------------------------------------------------

fn write_tensor_raw(out: &mut Vec<u8>, t: &Tensor) {
    put_u32(out, t.ndim() as u32);
    for &d in t.dims() {
        put_u64(out, d as u64);
    }
    put_f32s(out, t.data());
}

fn params_body(entries: &[SnapEntry]) -> Vec<u8> {
    let mut body = Vec::new();
    put_u32(&mut body, entries.len() as u32);
    for e in entries {
        let start = body.len();
        put_u32(&mut body, e.name.len() as u32);
        body.extend_from_slice(e.name.as_bytes());
        body.push(DTYPE_F32);
        body.push(if e.shard.is_some() { 1 } else { 0 });
        put_u32(&mut body, e.value.ndim() as u32);
        for &d in e.value.dims() {
            put_u64(&mut body, d as u64);
        }
        if let Some(s) = &e.shard {
            put_u32(&mut body, s.rank as u32);
            put_u32(&mut body, s.world as u32);
            put_u64(&mut body, s.padded as u64);
            put_u32(&mut body, s.full_dims.len() as u32);
            for &d in &s.full_dims {
                put_u64(&mut body, d as u64);
            }
        }
        put_f32s(&mut body, e.value.data());
        let crc = crc32(&body[start..]);
        put_u32(&mut body, crc);
    }
    body
}

fn optim_body(o: &OptimState) -> Vec<u8> {
    let mut body = Vec::new();
    put_u64(&mut body, o.t);
    put_u32(&mut body, o.entries.len() as u32);
    for e in &o.entries {
        put_u32(&mut body, e.name.len() as u32);
        body.extend_from_slice(e.name.as_bytes());
        body.push((e.m.is_some() as u8) | (e.v.is_some() as u8) << 1);
        for t in [&e.m, &e.v].into_iter().flatten() {
            write_tensor_raw(&mut body, t);
        }
    }
    body
}

fn push_section(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    put_u64(out, body.len() as u64);
    out.extend_from_slice(body);
    put_u32(out, crc32(body));
}

fn write_v2(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    push_section(&mut out, SEC_PARAMS, &params_body(&snap.entries));
    if let Some(o) = &snap.optim {
        push_section(&mut out, SEC_OPTIM, &optim_body(o));
    }
    push_section(&mut out, SEC_STEP, &snap.step.to_le_bytes());
    if let Some(r) = &snap.rng {
        let mut body = Vec::with_capacity(37);
        for s in r.s {
            put_u64(&mut body, s);
        }
        body.push(r.spare.is_some() as u8);
        put_f32s(&mut body, &[r.spare.unwrap_or(0.0)]);
        push_section(&mut out, SEC_RNG, &body);
    }
    out.push(SEC_END);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

// ---------------------------------------------------------------------------
// Readers (v2)
// ---------------------------------------------------------------------------

fn read_tensor_raw(b: &mut Bytes) -> Result<Tensor, CheckpointError> {
    let dims = b.dims()?;
    let data = b.f32s(numel_of(&dims))?;
    Ok(Tensor::from_vec(data, Shape::new(&dims)))
}

/// One parameter entry's header, up to its f32 payload: `(name, dims,
/// shard meta)`.
type EntryHead = (String, Vec<usize>, Option<ShardMeta>);

fn read_entry_head(b: &mut Bytes) -> Result<EntryHead, CheckpointError> {
    let name = b.string()?;
    match b.u8()? {
        DTYPE_F32 => {}
        DTYPE_RETIRED_BF16 => return Err(CheckpointError::RetiredBf16 { name }),
        d => return Err(CheckpointError::Malformed(format!("unknown dtype tag {d}"))),
    }
    let flags = b.u8()?;
    let dims = b.dims()?;
    let shard = if flags & 1 != 0 {
        let rank = b.u32()? as usize;
        let world = b.u32()? as usize;
        let padded = b.u64()? as usize;
        let full_dims = b.dims()?;
        if world == 0 || rank >= world || !padded.is_multiple_of(world) {
            return Err(CheckpointError::Malformed(format!(
                "entry {name}: bad shard meta rank {rank} world {world} padded {padded}"
            )));
        }
        Some(ShardMeta {
            rank,
            world,
            padded,
            full_dims,
        })
    } else {
        None
    };
    Ok((name, dims, shard))
}

fn read_params_v2(body: &[u8]) -> Result<Vec<SnapEntry>, CheckpointError> {
    let mut b = Bytes::new(body);
    let count = b.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let start = b.pos;
        let (name, dims, shard) = read_entry_head(&mut b)?;
        let value = Tensor::from_vec(b.f32s(numel_of(&dims))?, Shape::new(&dims));
        let got = crc32(&body[start..b.pos]);
        let want = b.u32()?;
        if got != want {
            return Err(CheckpointError::EntryCrc { name });
        }
        out.push(SnapEntry { name, value, shard });
    }
    Ok(out)
}

/// CRC32 of a serialized snapshot's own checksum fields, in file order:
/// every parameter entry's CRC, every section's CRC, then the file footer.
///
/// This, not the footer, is what binds a shard's contents. A CRC over a
/// region that holds a block followed by that block's own CRC does not
/// depend on the block's bytes (the appended CRC cancels them out of the
/// register), and every byte of a v2 file sits in such a block. So the
/// footer is the same for any two snapshots with the same layout, and the
/// whole-file CRC is the constant residue `0x2144DF1C`. The checksum
/// fields do depend on the contents, and walking the framing to collect
/// them reads no payload. The walk does not verify anything:
/// [`Snapshot::from_bytes`] does.
pub fn content_digest(bytes: &[u8]) -> Result<u32, CheckpointError> {
    let mut crcs = Vec::new();
    let mut b = Bytes::new(bytes);
    b.take(8)?; // magic + version
    loop {
        let tag = b.u8()?;
        if tag == SEC_END {
            break;
        }
        let len = b.u64()? as usize;
        let body = b.take(len)?;
        if tag == SEC_PARAMS {
            let mut e = Bytes::new(body);
            for _ in 0..e.u32()? {
                let (_, dims, _) = read_entry_head(&mut e)?;
                let payload = numel_of(&dims).checked_mul(4).ok_or_else(len_overflow)?;
                e.take(payload)?;
                crcs.extend_from_slice(e.take(4)?);
            }
        }
        crcs.extend_from_slice(b.take(4)?);
    }
    crcs.extend_from_slice(b.take(4)?);
    Ok(crc32(&crcs))
}

fn read_optim_v2(body: &[u8]) -> Result<OptimState, CheckpointError> {
    let mut b = Bytes::new(body);
    let t = b.u64()?;
    let count = b.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let name = b.string()?;
        let mask = b.u8()?;
        if mask & OPTIM_RETIRED_MASTER != 0 {
            return Err(CheckpointError::RetiredBf16 { name });
        }
        let mut slot = |bit: u8| -> Result<Option<Tensor>, CheckpointError> {
            if mask & bit != 0 {
                Ok(Some(read_tensor_raw(&mut b)?))
            } else {
                Ok(None)
            }
        };
        let m = slot(1)?;
        let v = slot(2)?;
        entries.push(OptimEntry { name, m, v });
    }
    Ok(OptimState { t, entries })
}

fn read_v2(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    // Footer first: the last 4 bytes checksum everything before them, so a
    // torn tail is caught before any section parse can be misled.
    if bytes.len() < 13 {
        return Err(CheckpointError::Truncated {
            offset: 0,
            needed: 13,
            len: bytes.len(),
        });
    }
    let (head, foot) = bytes.split_at(bytes.len() - 4);
    if crc32(head) != u32::from_le_bytes(foot.try_into().unwrap()) {
        return Err(CheckpointError::FileCrc);
    }
    let mut b = Bytes::new(head);
    b.take(8)?; // magic + version, validated by the dispatcher
    let mut snap = Snapshot::default();
    loop {
        let tag = b.u8()?;
        if tag == SEC_END {
            break;
        }
        let len = b.u64()? as usize;
        let body = b.take(len)?;
        let want = b.u32()?;
        if crc32(body) != want {
            return Err(CheckpointError::SectionCrc { tag });
        }
        match tag {
            SEC_PARAMS => snap.entries = read_params_v2(body)?,
            SEC_OPTIM => snap.optim = Some(read_optim_v2(body)?),
            SEC_STEP => {
                let mut sb = Bytes::new(body);
                snap.step = sb.u64()?;
            }
            SEC_RNG => {
                let mut sb = Bytes::new(body);
                let s = [sb.u64()?, sb.u64()?, sb.u64()?, sb.u64()?];
                let has_spare = sb.u8()? != 0;
                let spare_val = sb.f32s(1)?[0];
                snap.rng = Some(RngState {
                    s,
                    spare: has_spare.then_some(spare_val),
                });
            }
            other => {
                // Unknown-but-checksummed sections from a newer writer are
                // skipped (forward compatibility), not an error.
                let _ = other;
            }
        }
    }
    if b.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after end tag",
            b.remaining()
        )));
    }
    Ok(snap)
}

// ---------------------------------------------------------------------------
// Store-level convenience API (v2-writing, typed errors)
// ---------------------------------------------------------------------------

/// Serialize every parameter of `store` to `w` (format v2, params-only).
pub fn save_store(store: &ParamStore, w: &mut impl Write) -> Result<(), CheckpointError> {
    let bytes = Snapshot::of_store(store, 0).to_bytes();
    w.write_all(&bytes)
        .map_err(|e| io_err("write checkpoint", e))
}

fn apply_named<'a>(
    store: &mut ParamStore,
    entries: impl Iterator<Item = (&'a str, &'a Tensor)>,
) -> Result<usize, CheckpointError> {
    let mut restored = 0;
    for (name, value) in entries {
        let id = store.ids().find(|&id| store.name(id) == name);
        if let Some(id) = id {
            if store.get(id).dims() != value.dims() {
                return Err(CheckpointError::ShapeMismatch {
                    name: name.to_string(),
                    checkpoint: value.dims().to_vec(),
                    store: store.get(id).dims().to_vec(),
                });
            }
            store.set(id, value.clone());
            restored += 1;
        }
    }
    Ok(restored)
}

/// Restore parameters into `store` by name. Returns the number restored.
/// Errors if a named parameter has a mismatched shape; entries with no
/// matching parameter are ignored (forward compatibility), as are store
/// parameters absent from the checkpoint.
pub fn load_store(store: &mut ParamStore, r: &mut impl Read) -> Result<usize, CheckpointError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)
        .map_err(|e| io_err("read checkpoint", e))?;
    Snapshot::from_bytes(&bytes)?.apply_to(store)
}

/// Restore `entries` (e.g. the output of [`merge_shards`]) into `store` by
/// name, with the same matching semantics as [`load_store`]. Returns the
/// number restored.
pub fn apply_entries(
    store: &mut ParamStore,
    entries: &[SnapEntry],
) -> Result<usize, CheckpointError> {
    apply_named(store, entries.iter().map(|e| (e.name.as_str(), &e.value)))
}

// ---------------------------------------------------------------------------
// Reshard-on-load
// ---------------------------------------------------------------------------

/// Merge the per-rank shard snapshots of one checkpoint step into full
/// entries:
///
/// * entries carrying [`ShardMeta`] are reassembled — shards concatenated
///   in rank order, padding stripped, reshaped to the full dims — so a
///   checkpoint saved by a w=4 world restores into any world size;
/// * unsharded (replicated) entries must be **bitwise identical** across
///   every shard file that carries them ([`CheckpointError::InconsistentReplica`]
///   otherwise) and contribute one value.
///
/// The inputs must be the complete shard set (`world` snapshots, in rank
/// order) of a single manifest; [`CheckpointDir::load_all_shards`] produces
/// exactly that.
pub fn merge_shards(shards: &[Snapshot]) -> Result<Vec<SnapEntry>, CheckpointError> {
    let mut out: Vec<SnapEntry> = Vec::new();
    let mut seen: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    // name → partial shard collection
    let mut pending: Vec<(String, ShardMeta, Vec<Option<Tensor>>)> = Vec::new();
    let mut pending_ix: std::collections::HashMap<String, usize> = std::collections::HashMap::new();

    for snap in shards {
        for e in &snap.entries {
            match &e.shard {
                None => {
                    if let Some(&i) = seen.get(&e.name) {
                        let prev: &SnapEntry = &out[i];
                        let same = prev.value.dims() == e.value.dims()
                            && prev
                                .value
                                .data()
                                .iter()
                                .zip(e.value.data())
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                        if !same {
                            return Err(CheckpointError::InconsistentReplica {
                                name: e.name.clone(),
                            });
                        }
                    } else {
                        seen.insert(e.name.clone(), out.len());
                        out.push(SnapEntry {
                            name: e.name.clone(),
                            value: e.value.clone(),
                            shard: None,
                        });
                    }
                }
                Some(meta) => {
                    let ix = *pending_ix.entry(e.name.clone()).or_insert_with(|| {
                        pending.push((e.name.clone(), meta.clone(), vec![None; meta.world]));
                        pending.len() - 1
                    });
                    let (_, first, slots) = &mut pending[ix];
                    if first.world != meta.world || first.full_dims != meta.full_dims {
                        return Err(CheckpointError::Malformed(format!(
                            "entry {}: shard metadata disagrees across shard files",
                            e.name
                        )));
                    }
                    slots[meta.rank] = Some(e.value.clone());
                }
            }
        }
    }

    for (name, meta, slots) in pending {
        let mut flat: Vec<f32> = Vec::with_capacity(meta.padded);
        for (rank, slot) in slots.into_iter().enumerate() {
            let shard = slot.ok_or(CheckpointError::Malformed(format!(
                "entry {name}: shard of rank {rank} absent from the shard set"
            )))?;
            flat.extend_from_slice(&shard.to_vec());
        }
        if flat.len() != meta.padded {
            return Err(CheckpointError::Malformed(format!(
                "entry {name}: shards total {} elements, padded length is {}",
                flat.len(),
                meta.padded
            )));
        }
        let numel = numel_of(&meta.full_dims);
        flat.truncate(numel);
        out.push(SnapEntry {
            name,
            value: Tensor::from_vec(flat, Shape::new(&meta.full_dims)),
            shard: None,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn store_with(names: &[(&str, Vec<usize>)]) -> ParamStore {
        let mut s = ParamStore::new();
        let mut rng = Rng::new(3);
        for (name, dims) in names {
            s.add(*name, Tensor::randn(Shape::new(dims), 1.0, &mut rng));
        }
        s
    }

    #[test]
    fn checkpoint_roundtrip_preserves_everything() {
        let store = store_with(&[("a.w", vec![4, 3]), ("a.b", vec![3]), ("ln.gamma", vec![8])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();

        let mut fresh = store_with(&[("a.w", vec![4, 3]), ("a.b", vec![3]), ("ln.gamma", vec![8])]);
        // perturb, then restore
        let id = fresh.ids().next().unwrap();
        fresh.set(id, Tensor::zeros([4, 3]));
        let n = load_store(&mut fresh, &mut buf.as_slice()).unwrap();
        assert_eq!(n, 3);
        for ((_, _, a), (_, _, b)) in store.iter().zip(fresh.iter()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
    }

    #[test]
    fn checkpoint_load_matches_by_name_not_order() {
        let store = store_with(&[("x", vec![2]), ("y", vec![3])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        // build target with reversed registration order
        let mut target = store_with(&[("y", vec![3]), ("x", vec![2])]);
        let n = load_store(&mut target, &mut buf.as_slice()).unwrap();
        assert_eq!(n, 2);
        let xid = target.ids().find(|&i| target.name(i) == "x").unwrap();
        let want = store.ids().find(|&i| store.name(i) == "x").unwrap();
        assert_eq!(target.get(xid).to_vec(), store.get(want).to_vec());
    }

    #[test]
    fn checkpoint_shape_mismatch_rejected() {
        let store = store_with(&[("w", vec![4])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        let mut target = store_with(&[("w", vec![5])]);
        match load_store(&mut target, &mut buf.as_slice()) {
            Err(CheckpointError::ShapeMismatch { name, .. }) => assert_eq!(name, "w"),
            other => panic!("want ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_unknown_entries_ignored() {
        let store = store_with(&[("old", vec![2]), ("shared", vec![3])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        let mut target = store_with(&[("shared", vec![3]), ("new", vec![4])]);
        let n = load_store(&mut target, &mut buf.as_slice()).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn checkpoint_corrupt_magic_detected() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let mut s = ParamStore::new();
        assert_eq!(
            load_store(&mut s, &mut buf.as_slice()),
            Err(CheckpointError::BadMagic)
        );
    }

    #[test]
    fn checkpoint_v1_files_are_refused() {
        // A v1 file written byte-for-byte in the retired layout:
        // magic | version=1 | count | (name_len, name, ndim, dims, f32 data)*
        let values = [1.5f32, -2.25, 3.0, 0.125, -0.5, 10.0];
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"DCHK");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes()); // one entry
        v1.extend_from_slice(&(b"w".len() as u32).to_le_bytes());
        v1.extend_from_slice(b"w");
        v1.extend_from_slice(&2u32.to_le_bytes()); // ndim
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        for x in values {
            v1.extend_from_slice(&x.to_le_bytes());
        }

        let mut store = ParamStore::new();
        store.add("w", Tensor::zeros([3, 2]));
        let err = load_store(&mut store, &mut v1.as_slice()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::UnsupportedVersion(1)),
            "{err}"
        );
        // Nothing was restored.
        let id = store.ids().next().unwrap();
        assert_eq!(store.get(id).to_vec(), vec![0.0; 6]);
    }

    #[test]
    fn checkpoint_snapshot_sections_roundtrip() {
        let store = store_with(&[("a", vec![3, 2]), ("b", vec![5])]);
        let mut rng = Rng::new(11);
        let _burn: Vec<f32> = (0..7).map(|_| rng.normal()).collect(); // nontrivial state
        let optim = OptimState {
            t: 42,
            entries: vec![
                OptimEntry {
                    name: "a".into(),
                    m: Some(Tensor::randn([3, 2], 1.0, &mut rng.clone())),
                    v: Some(Tensor::randn([3, 2], 0.1, &mut rng.clone())),
                },
                OptimEntry {
                    name: "b".into(),
                    m: None,
                    v: Some(Tensor::ones([5])),
                },
            ],
        };
        let snap = Snapshot::of_store(&store, 17)
            .with_optim(optim.clone())
            .with_rng(rng.state());
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();

        assert_eq!(back.step, 17);
        let ro = back.optim.expect("optim section");
        assert_eq!(ro.t, 42);
        assert_eq!(ro.entries.len(), 2);
        assert_eq!(
            ro.entries[0].m.as_ref().unwrap().to_vec(),
            optim.entries[0].m.as_ref().unwrap().to_vec()
        );
        assert!(ro.entries[1].m.is_none());
        assert_eq!(ro.entries[1].v.as_ref().unwrap().to_vec(), vec![1.0; 5]);
        // Restored RNG continues the exact stream.
        let rs = back.rng.expect("rng section");
        let mut a = Rng::from_state(&rs);
        let mut b = rng;
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.normal().to_bits(), b.normal().to_bits());
        }
    }

    #[test]
    fn checkpoint_truncation_yields_typed_error() {
        let store = store_with(&[("w", vec![32, 4])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        for cut in [1, 7, 13, buf.len() / 2, buf.len() - 1] {
            let err = Snapshot::from_bytes(&buf[..cut]).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::FileCrc
                        | CheckpointError::BadMagic
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_bit_flip_yields_typed_error() {
        let store = store_with(&[("w", vec![16, 4]), ("b", vec![4])]);
        let mut buf = Vec::new();
        save_store(&store, &mut buf).unwrap();
        let reference = Snapshot::from_bytes(&buf).unwrap();
        for pos in (0..buf.len()).step_by(17) {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {pos} must not load"
            );
        }
        let _ = reference;
    }

    #[test]
    fn checkpoint_merge_shards_reassembles_and_checks_replicas() {
        // 10 elements sharded over 4 ranks: padded to 12, shard_len 3.
        let full: Vec<f32> = (0..10).map(|i| i as f32 * 0.5).collect();
        let mut padded = full.clone();
        padded.resize(12, 0.0);
        let shared = Tensor::from_vec(vec![7.0, 8.0], [2]);
        let shards: Vec<Snapshot> = (0..4)
            .map(|rank| Snapshot {
                entries: vec![
                    SnapEntry {
                        name: "w".into(),
                        value: Tensor::from_vec(padded[rank * 3..(rank + 1) * 3].to_vec(), [3]),
                        shard: Some(ShardMeta {
                            rank,
                            world: 4,
                            padded: 12,
                            full_dims: vec![5, 2],
                        }),
                    },
                    SnapEntry {
                        name: "g".into(),
                        value: shared.clone(),
                        shard: None,
                    },
                ],
                optim: None,
                step: 4,
                rng: None,
            })
            .collect();
        let merged = merge_shards(&shards).unwrap();
        let w = merged.iter().find(|e| e.name == "w").unwrap();
        assert_eq!(w.value.dims(), &[5, 2]);
        assert_eq!(w.value.to_vec(), full);
        let g = merged.iter().find(|e| e.name == "g").unwrap();
        assert_eq!(g.value.to_vec(), vec![7.0, 8.0]);

        // A diverging replica must be a typed error, not a silent pick.
        let mut bad = shards;
        bad[2].entries[1].value = Tensor::from_vec(vec![7.0, 9.0], [2]);
        match merge_shards(&bad) {
            Err(CheckpointError::InconsistentReplica { name }) => assert_eq!(name, "g"),
            other => panic!("want InconsistentReplica, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
