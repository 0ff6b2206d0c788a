//! The reference model the engine's images are checked against: plain
//! byte vectors that apply every write at once. It shares no code with
//! the engine, so a defect in the engine cannot hide in the model.

use perseas_core::{RegionId, TransactionalMemory, TxnError, TxnStats};
use perseas_simtime::SimClock;

#[derive(Debug, Default)]
pub struct Model {
    regions: Vec<Vec<u8>>,
    open: bool,
    clock: SimClock,
}

impl Model {
    pub fn regions(&self) -> &[Vec<u8>] {
        &self.regions
    }

    fn region(&self, region: RegionId) -> Result<&Vec<u8>, TxnError> {
        self.regions
            .get(region.as_raw() as usize)
            .ok_or(TxnError::UnknownRegion(region))
    }

    fn range(
        &self,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<std::ops::Range<usize>, TxnError> {
        let region_len = self.region(region)?.len();
        match offset.checked_add(len) {
            Some(end) if end <= region_len => Ok(offset..end),
            _ => Err(TxnError::OutOfBounds {
                region,
                offset,
                len,
                region_len,
            }),
        }
    }
}

impl TransactionalMemory for Model {
    fn system_name(&self) -> &'static str {
        "model"
    }

    fn alloc_region(&mut self, len: usize) -> Result<RegionId, TxnError> {
        self.regions.push(vec![0; len]);
        Ok(RegionId::from_raw(self.regions.len() as u32 - 1))
    }

    fn publish(&mut self) -> Result<(), TxnError> {
        Ok(())
    }

    fn begin_transaction(&mut self) -> Result<(), TxnError> {
        if self.open {
            return Err(TxnError::TransactionAlreadyActive);
        }
        self.open = true;
        Ok(())
    }

    fn set_range(&mut self, region: RegionId, offset: usize, len: usize) -> Result<(), TxnError> {
        self.range(region, offset, len).map(|_| ())
    }

    fn write(&mut self, region: RegionId, offset: usize, data: &[u8]) -> Result<(), TxnError> {
        let r = self.range(region, offset, data.len())?;
        self.regions[region.as_raw() as usize][r].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, region: RegionId, offset: usize, buf: &mut [u8]) -> Result<(), TxnError> {
        let r = self.range(region, offset, buf.len())?;
        buf.copy_from_slice(&self.region(region)?[r]);
        Ok(())
    }

    fn commit_transaction(&mut self) -> Result<(), TxnError> {
        self.open = false;
        Ok(())
    }

    fn abort_transaction(&mut self) -> Result<(), TxnError> {
        // The benchmark's workloads never abort; a model that cannot roll
        // back must not pretend to.
        Err(TxnError::Unavailable("the model has no rollback".into()))
    }

    fn in_transaction(&self) -> bool {
        self.open
    }

    fn clock(&self) -> &SimClock {
        &self.clock
    }

    fn stats(&self) -> TxnStats {
        TxnStats::new()
    }

    fn region_len(&self, region: RegionId) -> Result<usize, TxnError> {
        Ok(self.region(region)?.len())
    }
}
