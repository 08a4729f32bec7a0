// conform-fixture: crates/sim/src/pool_demo.rs
//! R16 firing fixture: pooled buffers taken from `RoundBuffers` but never
//! retired — one leaks on the fall-through exit, one past a `?` exit.

pub struct Demo {
    buffers: RoundBuffers,
}

impl Demo {
    /// Takes the pair log and lets it drop: the pool never sees it again.
    pub fn leaky_sum(&mut self, n: usize) -> u64 {
        let scratch = self.buffers.take_sparse();
        let mut total = 0u64;
        for v in scratch.iter().take(n) {
            total = total.wrapping_add(*v);
        }
        total
    }

    /// Exits through `?` while the sparse buffer is still checked out.
    pub fn early_exit(&mut self, src: &Source) -> Result<u64, ReadError> {
        let staging = self.buffers.take_sparse();
        let head = src.read_head()?;
        self.buffers.retire_sparse(staging);
        Ok(head)
    }
}
