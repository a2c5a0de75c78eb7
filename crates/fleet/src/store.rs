//! The durable store: versioned state events and the write-ahead log they
//! append to, which a compaction replaces atomically.
//!
//! Every durable mutation of fleet state is a [`StateEvent`]; issuing a
//! challenge and accepting a proof are not durable (see the durability
//! model below). The live path and crash recovery share one `apply` code
//! path (in [`crate::shard`]): a mutation is first encoded and appended to
//! the shard's WAL, then applied to the in-memory state; recovery replays
//! the same events through the same apply. A compaction writes the state
//! back out as events too ([`Wal::replace`]), so what is persisted is
//! exactly what is executed — there is no separate serialization of "the
//! state" that could drift from the state machine.
//!
//! # Framing
//!
//! Events use the wire codec's machinery in [`crate::wire`]: the
//! `codec!` table below states each [`StateEvent`] variant's tag byte and
//! field order once, and the fields go through the same `Codec` impls as
//! the wire messages (a verdict's report is encoded exactly as in a
//! `Verdict` frame). So: little-endian integers, `u32` length-prefixed
//! strings, and no announced length able to drive an allocation past the
//! input size plus one 64 KiB output region. A log file is:
//!
//! ```text
//! [ b"DWAL" ][ version u8 ]            file header
//! [ len u32 ][ crc u32 ][ payload ]*   records, until EOF
//! ```
//!
//! where `crc` is a chunked FNV-1a/64 folded to 32 bits over the payload
//! and each payload is one versioned event
//! (`[EVENT_VERSION][tag][fields…]`).
//!
//! # Durability model
//!
//! Process-crash consistency: every record reaches the kernel with
//! `write` before the mutation it describes is applied, and no record is
//! ever held in user space across an API call. Only what the durable
//! guarantees need is logged:
//!
//! - **G1**, no challenge is reused and no pre-crash proof is accepted
//!   after a restart: each shard logs one [`StateEvent::BootEpoch`] when
//!   it opens, and nonces and session ids are (boot epoch, in-memory
//!   counter) pairs, so `issue` and `submit` log nothing;
//! - **G2**, a verdict a drain returned survives any crash together with
//!   the device's counters: a verify pass stages the
//!   [`StateEvent::VerdictRecorded`] records of one batch in the log's
//!   reusable buffer and hands them over in **one** `write`
//!   ([`Wal::stage`] + [`Wal::flush`]) before it returns them;
//! - **G3**, the registry, keys and epochs survive: registrations,
//!   deregistrations and the fleet-level events cost one `write` each.
//!
//! A crash forgets every session still open (`Issued` or `Submitted`),
//! every expired one, and the anti-replay windows. A late submit to a
//! forgotten session fails as unknown and the device re-attests under a
//! fresh challenge; a captured pre-crash proof fails on the MAC in any
//! new session. There is no per-record `fsync`: power loss may rewind to
//! the last compaction, which `fsync`s its log and, after the rename,
//! the directory.
//!
//! # Corruption tolerance
//!
//! A crash can tear the final record (partial write) or leave trailing
//! garbage. [`read_events`] therefore stops at the first record that is
//! short, fails its checksum, or does not decode — returning the valid
//! prefix and **never panicking** — and [`Wal::open`] cuts the file back
//! to that prefix, so later appends are not stranded behind the torn
//! bytes. A torn suffix is by definition a mutation that never completed
//! (no verdict in it was returned), so dropping it recovers a consistent
//! earlier state. A torn verify-pass write therefore recovers a prefix of
//! that batch's verdicts; the rest are forgotten with the other open
//! sessions.
//!
//! A complete header or checksummed record of **another version** is not
//! corruption but a foreign format, and fails recovery with
//! [`RecoverError::Format`] rather than reading as an empty log.

use crate::registry::{DeviceId, OpId};
use crate::session::SessionId;
use crate::wire::{codec, Codec, Reader, WireError, Writer};
use dialed::pipeline::InstrumentMode;
use dialed::report::Report;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Current event-encoding version, bumped on any incompatible change.
/// Version 3 has boot-epoch records and self-contained verdicts, and no
/// issue, accepted-proof or expiry records.
pub const EVENT_VERSION: u8 = 3;

/// WAL file magic: "Dialed WAL".
pub const WAL_MAGIC: [u8; 4] = *b"DWAL";

/// Current WAL file-format version. Since version 2 a shard's log is its
/// only durable file: compaction rewrites it as events. Version 3 places
/// device `d` on shard `d mod N`; a version-2 directory placed devices by
/// a hash ring, so its segments hold other devices than their shard now
/// owns, and it is refused rather than migrated.
pub const WAL_VERSION: u8 = 3;

/// Bytes of the file header: magic plus version.
const WAL_HEADER_LEN: usize = WAL_MAGIC.len() + 1;

/// One durable state mutation. Fleet-level events (layout, operations,
/// epoch) live in the meta log; everything else is per-shard.
#[derive(Clone, PartialEq, Debug)]
pub enum StateEvent {
    /// Pins the shard count the fleet's state was laid out with. Always
    /// the first event of a meta log; recovery fails without it rather
    /// than guess a layout that would re-route devices.
    ShardLayout {
        /// Number of state shards.
        shards: u32,
    },
    /// An operation was registered. The instrumented image itself is a
    /// code artifact re-supplied at recovery (via
    /// [`OpCatalog`](crate::OpCatalog)); the event pins its identity.
    OpRegistered {
        /// Assigned operation id.
        op: OpId,
        /// Operator-facing name — the catalog lookup key at recovery.
        name: String,
        /// Instrumentation mode the image was registered with.
        mode: InstrumentMode,
    },
    /// The provisioning-key epoch advanced to `epoch`.
    EpochBumped {
        /// The new epoch value.
        epoch: u64,
    },
    /// A device was provisioned. `key_seed` and `epoch` are the durable
    /// key material — the record's key schedule is re-derived from them.
    DeviceRegistered {
        /// Assigned device id.
        device: DeviceId,
        /// Operation the device is bound to.
        op: OpId,
        /// Provisioning seed.
        key_seed: u64,
        /// Key-rotation epoch at provisioning time.
        epoch: u64,
    },
    /// A device was removed from the fleet.
    DeviceDeregistered {
        /// The removed device.
        device: DeviceId,
    },
    /// A shard opened, fresh or recovered, and started boot epoch
    /// `epoch`: one more than the last epoch its state holds, or 0 for a
    /// fresh shard. Its nonces and session ids are (epoch, counter) pairs.
    BootEpoch {
        /// The new boot epoch.
        epoch: u64,
    },
    /// Verification resolved a session. The record carries the session's
    /// coordinates, so recovery rebuilds the resolved session from it
    /// alone: the challenge re-derives from the fleet label, device and
    /// nonce.
    VerdictRecorded {
        /// The resolved session.
        session: SessionId,
        /// The device the session was issued to.
        device: DeviceId,
        /// Operation the device proved.
        op: OpId,
        /// The session's challenge nonce.
        nonce: u64,
        /// Logical issue time.
        issued_at: u64,
        /// Logical submission deadline (inclusive).
        deadline: u64,
        /// The verifier's report.
        report: Report,
    },
    /// A prune of resolved sessions ran at logical time `now`.
    PruneSweep {
        /// Prune time.
        now: u64,
    },
    /// Compaction only: a device's counters, less the verdicts that
    /// [`StateEvent::VerdictRecorded`] records later in the log count.
    DeviceCounters {
        /// The device.
        device: DeviceId,
        /// Highest nonce the device has a verified proof for.
        last_verified: Option<u64>,
        /// Verified sessions no later record counts.
        verified: u64,
        /// Rejected sessions no later record counts.
        rejected: u64,
    },
    /// Compaction only: no device id below `next` is issued again.
    DeviceIdMark {
        /// One past the highest device id the shard ever installed.
        next: u64,
    },
}

codec!(OpId(_));
codec!(DeviceId(_));
codec!(SessionId(_));
codec!(enum InstrumentMode as "instrument mode" { 0 => Original, 1 => CfaOnly, 2 => Full });
codec!(enum StateEvent as "state event" {
    1 => ShardLayout { shards },
    2 => OpRegistered { op, name, mode },
    3 => EpochBumped { epoch },
    4 => DeviceRegistered { device, op, key_seed, epoch },
    5 => DeviceDeregistered { device },
    6 => BootEpoch { epoch },
    7 => VerdictRecorded { session, device, op, nonce, issued_at, deadline, report },
    8 => PruneSweep { now },
    9 => DeviceCounters { device, last_verified, verified, rejected },
    10 => DeviceIdMark { next },
});

/// Encodes one event as a versioned payload (no record framing — the WAL
/// adds length and checksum when appending).
#[must_use]
pub fn encode_event(ev: &StateEvent) -> Vec<u8> {
    let mut w = Writer(Vec::new());
    encode_event_into(&mut w, ev);
    w.0
}

/// [`encode_event`] into an existing writer (the WAL's reusable record
/// buffer).
fn encode_event_into(w: &mut Writer, ev: &StateEvent) {
    w.bytes(&[EVENT_VERSION]);
    ev.put(w);
}

/// Decodes one event payload. Total: any malformed input yields a
/// [`WireError`], never a panic.
///
/// # Errors
///
/// Fails on an unknown version or tag, any truncation, or trailing bytes.
pub fn decode_event(bytes: &[u8]) -> Result<StateEvent, WireError> {
    let mut r = Reader::new(bytes);
    let version = u8::get(&mut r)?;
    if version != EVENT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let ev = StateEvent::get(&mut r)?;
    r.finish(ev)
}

/// The record checksum: FNV-1a/64 over 8-byte little-endian chunks
/// (length-salted zero-padded tail), folded to 32 bits. Chunked rather
/// than per-byte so checksumming a multi-KB proof payload costs one
/// multiply per word. Not cryptographic (the WAL is a local trust-domain file);
/// it detects torn writes and bit rot, which is all recovery needs to
/// find the valid prefix.
#[must_use]
pub(crate) fn record_sum(bytes: &[u8]) -> u32 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = (h ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rem.len()].copy_from_slice(rem);
    // Salt the pad with the tail length so `[1]` and `[1, 0]` differ.
    tail[7] ^= 0xA5 ^ rem.len() as u8;
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    (h ^ (h >> 32)) as u32
}

/// An append-only event log with a checksummed record framing and a
/// corruption-tolerant reader.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Records staged for the next write; reused so appends do not
    /// allocate per event.
    staged: Vec<u8>,
    /// Bytes in the file, header included.
    len: u64,
}

impl Wal {
    /// Opens `path` for appending after its first `valid` bytes — the
    /// prefix length [`read_events`] reported — cutting off any torn tail
    /// past them. With `valid` 0 the log starts over with a fresh header.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn open(path: &Path, valid: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        if file.metadata()?.len() != valid {
            file.set_len(valid)?;
        }
        let mut len = valid;
        if valid == 0 {
            // No fsync: like appends, the header rides the page cache
            // (see the module docs), and a headerless segment reads as
            // empty — a valid prefix.
            file.write_all(&WAL_MAGIC)?;
            file.write_all(&[WAL_VERSION])?;
            len = WAL_HEADER_LEN as u64;
        }
        Ok(Self { file, staged: Vec::new(), len })
    }

    /// Bytes in the log file, header included.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.len
    }

    /// Encodes `ev` as one `[len][crc][payload]` record at the end of the
    /// staging buffer. Nothing reaches the file until [`Wal::flush`].
    pub fn stage(&mut self, ev: &StateEvent) {
        // Encode the payload in place after an 8-byte frame placeholder,
        // then back-fill length and checksum: one buffer, zero copies.
        let start = self.staged.len();
        self.staged.extend_from_slice(&[0u8; 8]);
        let mut w = Writer(std::mem::take(&mut self.staged));
        encode_event_into(&mut w, ev);
        self.staged = w.0;
        let payload = &self.staged[start + 8..];
        let len = u32::try_from(payload.len()).expect("event longer than u32::MAX");
        let crc = record_sum(payload);
        self.staged[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.staged[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Hands every staged record to the kernel in one `write` and empties
    /// the staging buffer.
    ///
    /// # Errors
    ///
    /// Propagates write errors. Callers treat a failure as fail-stop: a
    /// mutation whose event cannot be made durable must not be applied,
    /// or anti-replay state could silently regress on the next restart.
    pub fn flush(&mut self) -> io::Result<()> {
        let written = self.file.write_all(&self.staged);
        if written.is_ok() {
            self.len += self.staged.len() as u64;
        }
        self.staged.clear();
        written
    }

    /// Appends one event: [`Wal::stage`] then [`Wal::flush`].
    ///
    /// # Errors
    ///
    /// As [`Wal::flush`].
    pub fn append(&mut self, ev: &StateEvent) -> io::Result<()> {
        self.stage(ev);
        self.flush()
    }

    /// Writes a log holding exactly `events` to `<path>.tmp`, `fsync`s it,
    /// renames it to `path` and `fsync`s the directory; returns it open for
    /// appending. A crash leaves the old file at `path` or the whole new
    /// one, and once this returns the rename survives power loss.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn replace(path: &Path, events: impl IntoIterator<Item = StateEvent>) -> io::Result<Self> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let mut wal = Self::open(&tmp, 0)?;
        for ev in events {
            wal.stage(&ev);
        }
        if let Err(e) = wal.flush().and_then(|()| wal.sync()) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Appends stage one batch at a time: drop the whole log's buffer.
        wal.staged = Vec::new();
        std::fs::rename(&tmp, path)?;
        // fsync(2): syncing a file does not persist its directory entry.
        // Without this, power loss could keep a later delete of the old
        // log and lose the rename.
        File::open(path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(wal)
    }

    /// Forces appended records to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` errors.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Reads the valid event prefix of the log at `path`, returning its
/// events and its length in bytes (header included; 0 when there is no
/// complete header) — the length [`Wal::open`] resumes appending at.
///
/// A missing file, a short or corrupt header, and any torn / checksum-
/// failing / undecodable record all terminate the read *gracefully*: the
/// events decoded up to that point are returned and the suffix is
/// ignored. This function never panics on any file contents.
///
/// # Errors
///
/// [`RecoverError::Format`] for a complete header, or a record whose
/// checksum holds, that carries another version; otherwise only genuine
/// I/O failures (permissions, device errors). Corruption is not an error.
pub fn read_events(path: &Path) -> Result<(Vec<StateEvent>, u64), RecoverError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(e.into()),
    }
    if bytes.len() < WAL_HEADER_LEN || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        // A header that never finished writing (or was overwritten) means
        // the valid prefix is empty.
        return Ok((Vec::new(), 0));
    }
    let format =
        |found, expected| RecoverError::Format { file: path.to_path_buf(), found, expected };
    if bytes[WAL_MAGIC.len()] != WAL_VERSION {
        return Err(format(bytes[WAL_MAGIC.len()], WAL_VERSION));
    }
    let mut events = Vec::new();
    let mut pos = WAL_HEADER_LEN;
    loop {
        let rest = &bytes[pos..];
        if rest.len() < 8 {
            break; // torn record header (or clean EOF)
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        // A length past EOF is a torn payload; stop at the valid prefix.
        // (This also bounds the slice below — no announced length can
        // reach past the bytes actually on disk.)
        let Some(payload) = rest.get(8..8 + len) else { break };
        if record_sum(payload) != crc {
            break;
        }
        match decode_event(payload) {
            Ok(ev) => events.push(ev),
            Err(WireError::UnsupportedVersion(found)) => {
                return Err(format(found, EVENT_VERSION));
            }
            Err(_) => break,
        }
        pos += 8 + len;
    }
    Ok((events, pos as u64))
}

/// Recovery failures for [`Fleet::recover`](crate::Fleet::recover).
#[derive(Debug)]
pub enum RecoverError {
    /// A file-system operation failed.
    Io(io::Error),
    /// The meta log carries no [`StateEvent::ShardLayout`] — the directory
    /// is not a fleet state directory (or its header was destroyed), so
    /// there is no layout to recover under.
    MissingLayout,
    /// The meta log references an operation the supplied catalog cannot
    /// rebuild (operations are code artifacts, not persisted state).
    UnknownOp(String),
    /// A complete file header or checksummed record carries a format
    /// version this build does not read. There is no migration: the
    /// directory was written by another format and is refused rather than
    /// recovered as empty.
    Format {
        /// The log file.
        file: PathBuf,
        /// Version found in it.
        found: u8,
        /// Version this build reads.
        expected: u8,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery I/O failure: {e}"),
            RecoverError::Format { file, found, expected } => write!(
                f,
                "{} is format version {found}, this build reads version {expected}",
                file.display()
            ),
            RecoverError::MissingLayout => {
                write!(f, "meta log holds no shard layout — not a recoverable state directory")
            }
            RecoverError::UnknownOp(name) => {
                write!(f, "operation {name:?} is in the log but not in the recovery catalog")
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dialed::report::{RejectReason, VerifyStats};

    fn sample_events() -> Vec<StateEvent> {
        vec![
            StateEvent::ShardLayout { shards: 4 },
            StateEvent::OpRegistered {
                op: OpId(0),
                name: "naïve-op ✓".into(),
                mode: InstrumentMode::Full,
            },
            StateEvent::EpochBumped { epoch: 3 },
            StateEvent::DeviceRegistered {
                device: DeviceId(7),
                op: OpId(0),
                key_seed: 9,
                epoch: 3,
            },
            StateEvent::DeviceDeregistered { device: DeviceId(7) },
            StateEvent::BootEpoch { epoch: 2 },
            StateEvent::VerdictRecorded {
                session: SessionId(11),
                device: DeviceId(7),
                op: OpId(0),
                nonce: 2 << 40,
                issued_at: 5,
                deadline: 69,
                report: dialed::report::Report::rejected(RejectReason::MacMismatch),
            },
            StateEvent::VerdictRecorded {
                session: SessionId(12),
                device: DeviceId(7),
                op: OpId(0),
                nonce: (2 << 40) + 1,
                issued_at: 6,
                deadline: 70,
                report: dialed::report::Report::clean(VerifyStats {
                    emulated_insns: 1,
                    ..VerifyStats::default()
                }),
            },
            StateEvent::PruneSweep { now: 200 },
            StateEvent::DeviceCounters {
                device: DeviceId(7),
                last_verified: Some(2 << 40),
                verified: 5,
                rejected: 1,
            },
            StateEvent::DeviceCounters {
                device: DeviceId(8),
                last_verified: None,
                verified: 0,
                rejected: 3,
            },
            StateEvent::DeviceIdMark { next: 9 },
        ]
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dialed-store-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    /// `sample_events()` as bytes, in hex: a codec change that moves a
    /// single byte of any record kind fails here, not at recovery.
    const PINNED_EVENTS: [&str; 12] = [
        "030104000000",
        "0302000000000d0000006e61c3af76652d6f7020e29c9302",
        "03030300000000000000",
        "030407000000000000000000000009000000000000000300000000000000",
        "03050700000000000000",
        "03060200000000000000",
        "03070b0000000000000007000000000000000000000000000000000200000500\
         0000000000004500000000000000010100000000040000000000000000000000\
         0000000000000000000000000000000000000000000000000000000000",
        "03070c0000000000000007000000000000000000000001000000000200000600\
         0000000000004600000000000000000000000001000000000000000000000000\
         000000000000000000000000000000000000000000000000000000",
        "0308c800000000000000",
        "0309070000000000000001000000000002000005000000000000000100000000\
         000000",
        "0309080000000000000000000000000000000000000000000000000300000000\
         000000",
        "030a0900000000000000",
    ];

    #[test]
    fn every_event_round_trips() {
        let events = sample_events();
        assert_eq!(events.len(), PINNED_EVENTS.len());
        for (ev, pinned) in events.into_iter().zip(PINNED_EVENTS) {
            let bytes = encode_event(&ev);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "{ev:?}");
            assert_eq!(decode_event(&bytes).as_ref(), Ok(&ev), "{ev:?}");
            // And every truncation errors, never panics.
            for cut in 0..bytes.len() {
                assert!(decode_event(&bytes[..cut]).is_err(), "prefix {cut} of {ev:?}");
            }
        }
    }

    /// The events of the log's valid prefix.
    fn events_of(path: &Path) -> Vec<StateEvent> {
        read_events(path).unwrap().0
    }

    /// A fresh log at `path` holding `events`.
    fn write_log(path: &Path, events: &[StateEvent]) -> Wal {
        let _ = std::fs::remove_file(path);
        let mut wal = Wal::open(path, 0).unwrap();
        for ev in events {
            wal.append(ev).unwrap();
        }
        wal
    }

    #[test]
    fn wal_appends_and_reads_back() {
        let path = tmp_path("round-trip");
        let events = sample_events();
        let mut wal = write_log(&path, &events);
        wal.sync().unwrap();
        assert_eq!(wal.size(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_events(&path).unwrap(), (events.clone(), wal.size()));
        // Reopening appends after the existing records.
        drop(wal);
        let mut wal = Wal::open(&path, read_events(&path).unwrap().1).unwrap();
        wal.append(&StateEvent::PruneSweep { now: 999 }).unwrap();
        drop(wal);
        let read = events_of(&path);
        assert_eq!(read.len(), events.len() + 1);
        assert_eq!(read.last(), Some(&StateEvent::PruneSweep { now: 999 }));
    }

    #[test]
    fn staged_records_reach_the_file_in_one_flush() {
        let path = tmp_path("staged");
        let events = sample_events();
        let mut wal = write_log(&path, &[]);
        for ev in &events {
            wal.stage(ev);
        }
        assert_eq!(events_of(&path), Vec::new(), "staging writes nothing");
        wal.flush().unwrap();
        assert_eq!(events_of(&path), events);
        wal.flush().unwrap();
        assert_eq!(events_of(&path), events, "a flush empties the stage");
    }

    #[test]
    fn reopening_cuts_a_torn_tail() {
        // A record appended after recovery from a torn write must not be
        // stranded behind the torn bytes, where the next read stops.
        let path = tmp_path("reopen-torn");
        let events = sample_events();
        drop(write_log(&path, &events));
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (kept, valid) = read_events(&path).unwrap();
        assert_eq!(kept, events[..events.len() - 1]);
        let mut wal = Wal::open(&path, valid).unwrap();
        wal.append(&StateEvent::EpochBumped { epoch: 9 }).unwrap();
        assert_eq!(wal.size(), std::fs::metadata(&path).unwrap().len());
        let mut expect = kept;
        expect.push(StateEvent::EpochBumped { epoch: 9 });
        assert_eq!(events_of(&path), expect);
    }

    #[test]
    fn torn_tail_yields_valid_prefix() {
        let path = tmp_path("torn");
        let events = sample_events();
        drop(write_log(&path, &events));
        let full = std::fs::read(&path).unwrap();
        // Every truncation point recovers some prefix of the events,
        // without panicking.
        let mut last_len = 0usize;
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = events_of(&path);
            assert_eq!(got.as_slice(), &events[..got.len()], "cut at {cut}");
            assert!(got.len() >= last_len.saturating_sub(1));
            last_len = got.len();
        }
    }

    #[test]
    fn corrupt_record_stops_the_read_at_the_prefix() {
        let path = tmp_path("corrupt");
        let events = sample_events();
        drop(write_log(&path, &events));
        let full = std::fs::read(&path).unwrap();
        // Flip one payload byte somewhere in the middle of the file: the
        // checksum catches it and the read stops before that record.
        let mid = full.len() / 2;
        let mut bad = full.clone();
        bad[mid] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        let got = events_of(&path);
        assert!(got.len() < events.len());
        assert_eq!(got.as_slice(), &events[..got.len()]);
        // Destroying the header recovers the empty prefix.
        let mut bad = full;
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert_eq!(read_events(&path).unwrap(), (Vec::new(), 0));
        // A missing file is an empty log, not an error.
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_events(&path).unwrap(), (Vec::new(), 0));
    }

    #[test]
    fn hostile_length_cannot_overallocate() {
        let path = tmp_path("hostile-len");
        drop(write_log(&path, &[StateEvent::EpochBumped { epoch: 1 }]));
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim a 4 GiB record: the reader must stop, not allocate.
        let header = WAL_HEADER_LEN;
        bytes[header..header + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_events(&path).unwrap(), (Vec::new(), header as u64));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let path = tmp_path("atomic");
        drop(write_log(&path, &sample_events()));
        let mut wal = Wal::replace(&path, [StateEvent::BootEpoch { epoch: 4 }]).unwrap();
        assert_eq!(events_of(&path), [StateEvent::BootEpoch { epoch: 4 }]);
        assert!(!path.with_file_name("wal.log.tmp").exists(), "the temp file is renamed away");
        // The replacement stays open for appending, at its own end.
        wal.append(&StateEvent::PruneSweep { now: 1 }).unwrap();
        assert_eq!(wal.size(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(events_of(&path).len(), 2);
    }
}
