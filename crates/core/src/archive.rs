//! Graceful shutdown to cold storage.
//!
//! The paper's failure analysis (§1) notes the one scheduled scenario in
//! which *all* mirrors go down — planned maintenance — "in which case the
//! database can gracefully shut down". This module provides that path: a
//! self-describing archive of the committed database that can be written
//! to any medium and later re-hydrated onto a fresh set of mirrors.

use perseas_rnram::RemoteMemory;
use perseas_simtime::SimClock;
use perseas_txn::TxnError;

use crate::config::PerseasConfig;
use crate::layout::crc32;
use crate::perseas::{Perseas, Phase};

const ARCHIVE_MAGIC: u64 = 0x5045_5253_4152_4348; // "PERSARCH"
const ARCHIVE_VERSION: u32 = 1;

impl<M: RemoteMemory> Perseas<M> {
    /// Serialises the committed database into a self-describing,
    /// CRC-protected archive for scheduled all-mirrors-down maintenance.
    /// The instance must be idle (no open transaction).
    ///
    /// # Errors
    ///
    /// Fails with [`TxnError::BusyInTransaction`] inside a transaction and
    /// [`TxnError::Crashed`] after a crash.
    pub fn archive(&self) -> Result<Vec<u8>, TxnError> {
        match self.phase {
            Phase::Crashed => return Err(TxnError::Crashed),
            Phase::InTxn => return Err(TxnError::BusyInTransaction),
            Phase::Setup | Phase::Ready => {}
        }
        self.ensure_no_open_txns()?;
        let mut out = Vec::new();
        out.extend_from_slice(&ARCHIVE_MAGIC.to_le_bytes());
        out.extend_from_slice(&ARCHIVE_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.last_committed.to_le_bytes());
        for region in &self.regions {
            out.extend_from_slice(&(region.len() as u64).to_le_bytes());
            out.extend_from_slice(region);
        }
        let crc = crc32(&[&out]);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Re-hydrates an archive onto fresh mirrors: allocates regions,
    /// restores their contents, and publishes, yielding a ready database
    /// whose transaction ids continue after the archived history.
    ///
    /// # Errors
    ///
    /// Fails on corrupt archives ([`TxnError::Unavailable`] with a
    /// description) and on mirror allocation failures.
    pub fn restore(mirrors: Vec<M>, cfg: PerseasConfig, archive: &[u8]) -> Result<Self, TxnError> {
        Perseas::restore_with_clock(mirrors, cfg, archive, SimClock::new())
    }

    /// Like [`Perseas::restore`], charging work to `clock`.
    ///
    /// # Errors
    ///
    /// See [`Perseas::restore`].
    pub fn restore_with_clock(
        mirrors: Vec<M>,
        cfg: PerseasConfig,
        archive: &[u8],
        clock: SimClock,
    ) -> Result<Self, TxnError> {
        let corrupt = |m: &str| TxnError::Unavailable(format!("corrupt archive: {m}"));
        if archive.len() < 28 {
            return Err(corrupt("too short"));
        }
        let (body, crc_bytes) = archive.split_at(archive.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(&[body]) != stored {
            return Err(corrupt("CRC mismatch"));
        }
        let magic = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        if magic != ARCHIVE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
        if version != ARCHIVE_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let region_count = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes")) as usize;
        let last_committed = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));

        let mut db = Perseas::init_with_clock(mirrors, cfg, clock)?;
        let mut at = 24usize;
        for _ in 0..region_count {
            let len_bytes = body
                .get(at..at + 8)
                .ok_or_else(|| corrupt("truncated region header"))?;
            let len = u64::from_le_bytes(len_bytes.try_into().expect("8 bytes")) as usize;
            at += 8;
            let data = body
                .get(at..at + len)
                .ok_or_else(|| corrupt("truncated region data"))?;
            at += len;
            let r = db.malloc(len)?;
            db.write(r, 0, data)?;
        }
        if at != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        db.init_remote_db()?;
        // Continue the archived history rather than reusing ids.
        db.last_committed = last_committed;
        db.next_txn_id = last_committed + 1;
        // Publish the continued commit record to every mirror.
        for mi in 0..db.mirrors.len() {
            let m = &mut db.mirrors[mi];
            m.backend
                .remote_write(
                    m.meta.id,
                    crate::layout::OFF_COMMIT,
                    &last_committed.to_le_bytes(),
                )
                .and_then(|()| m.backend.flush().map(|_| ()))
                .map_err(crate::perseas::unavailable)?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perseas_rnram::SimRemote;

    fn built() -> (Perseas<SimRemote>, perseas_txn::RegionId) {
        let mut db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default()).unwrap();
        let r = db.malloc(64).unwrap();
        db.init_remote_db().unwrap();
        for i in 0..5u64 {
            db.begin_transaction().unwrap();
            db.set_range(r, 0, 8).unwrap();
            db.write(r, 0, &(i + 1).to_le_bytes()).unwrap();
            db.commit_transaction().unwrap();
        }
        (db, r)
    }

    #[test]
    fn archive_restore_roundtrip() {
        let (db, r) = built();
        let archive = db.archive().unwrap();
        let restored = Perseas::restore(
            vec![SimRemote::new("new")],
            PerseasConfig::default(),
            &archive,
        )
        .unwrap();
        assert_eq!(
            restored.region_snapshot(r).unwrap(),
            db.region_snapshot(r).unwrap()
        );
        assert_eq!(restored.last_committed(), 5);

        // The restored database keeps committing with continued ids...
        let mut restored = restored;
        restored.begin_transaction().unwrap();
        restored.set_range(r, 8, 8).unwrap();
        restored.write(r, 8, &[7; 8]).unwrap();
        restored.commit_transaction().unwrap();
        assert_eq!(restored.last_committed(), 6);

        // ...and its mirror recovers like any other.
        let node = restored.mirror_backend(0).unwrap().node().clone();
        let backend = SimRemote::with_parts(
            perseas_simtime::SimClock::new(),
            node,
            perseas_sci::SciParams::dolphin_1998(),
        );
        let mut restored = restored;
        restored.crash();
        let (db2, report) = Perseas::recover(backend, PerseasConfig::default()).unwrap();
        assert_eq!(report.last_committed, 6);
        assert_eq!(&db2.region_snapshot(r).unwrap()[8..16], &[7; 8]);
    }

    #[test]
    fn archive_refused_mid_transaction() {
        let (mut db, r) = built();
        db.begin_transaction().unwrap();
        db.set_range(r, 0, 4).unwrap();
        assert_eq!(db.archive().unwrap_err(), TxnError::BusyInTransaction);
    }

    #[test]
    fn corrupt_archives_are_rejected() {
        let (db, _) = built();
        let archive = db.archive().unwrap();

        let mut flipped = archive.clone();
        flipped[30] ^= 1;
        assert!(Perseas::<SimRemote>::restore(
            vec![SimRemote::new("x")],
            PerseasConfig::default(),
            &flipped
        )
        .is_err());

        assert!(Perseas::<SimRemote>::restore(
            vec![SimRemote::new("x")],
            PerseasConfig::default(),
            &archive[..10]
        )
        .is_err());

        let mut bad_magic = archive.clone();
        bad_magic[0] ^= 0xFF;
        // Fix the CRC so only the magic check can reject it.
        let len = bad_magic.len();
        let crc = crc32(&[&bad_magic[..len - 4]]);
        bad_magic[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = Perseas::<SimRemote>::restore(
            vec![SimRemote::new("x")],
            PerseasConfig::default(),
            &bad_magic,
        )
        .unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn empty_database_archives_too() {
        let db = Perseas::init(vec![SimRemote::new("m")], PerseasConfig::default()).unwrap();
        let archive = db.archive().unwrap();
        let restored = Perseas::restore(
            vec![SimRemote::new("n")],
            PerseasConfig::default(),
            &archive,
        )
        .unwrap();
        assert_eq!(restored.last_committed(), 0);
    }

    /// Every durable encoding and one wire frame, byte for byte as the
    /// bitwise CRC-32 produced them: swapping the CRC implementation must
    /// not move a single byte of any record, slot, archive or frame.
    #[test]
    fn encodings_match_golden_bytes() {
        use crate::layout::{encode_group_header, RedoRecord, UndoRecord};
        use perseas_rnram::protocol::{write_frame, Request};

        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }

        let undo = UndoRecord {
            txn_id: 9,
            region: 1,
            offset: 128,
            len: 40,
        };
        let payload: Vec<u8> = (0..40u8).collect();
        let mut undo_bytes = vec![0u8; undo.encoded_len()];
        undo.encode_into(&mut undo_bytes, 0, &payload);

        let redo = RedoRecord {
            txn_id: 10,
            region: 2,
            offset: 4096,
            len: 33,
        };
        let payload: Vec<u8> = (0..33u8).map(|i| i.wrapping_mul(7)).collect();
        let mut redo_bytes = vec![0u8; redo.encoded_len()];
        redo.encode_into(&mut redo_bytes, 0, &payload);

        let (db, _) = built();
        let archive = db.archive().unwrap();

        let mut frame = Vec::new();
        let write = Request::Write {
            seg: 3,
            offset: 64,
            data: b"golden".to_vec(),
        };
        write_frame(&mut frame, &write.encode()).unwrap();

        let got = [
            ("undo", hex(&undo_bytes)),
            ("redo", hex(&redo_bytes)),
            ("group", hex(&encode_group_header(1234))),
            ("archive", hex(&archive)),
            ("frame", hex(&frame)),
        ];
        let want = [
            "4f444e5509000000000000000100000080000000000000002800000000000000a5a1f9af000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627",
            "4f4445520a00000000000000020000000010000000000000210000000000000069005f5800070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0",
            "50555247d204000000000000cc8022f9",
            "4843524153524550010000000100000005000000000000004000000000000000050000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005a2eb26c",
            "170000000303000000000000004000000000000000676f6c64656e4c60b9fe",
        ];
        for ((name, bytes), want) in got.iter().zip(want) {
            assert_eq!(bytes, want, "{name} encoding changed");
        }
    }
}
