// conform-fixture: crates/sim/src/pool_demo.rs
//! R16 clean fixture: every taken buffer is retired on the same path or
//! moved out of the function (struct-literal escape).

pub struct Demo {
    buffers: RoundBuffers,
}

impl Demo {
    /// Take, use, retire — the balanced shape R16 demands.
    pub fn balanced_sum(&mut self, n: usize) -> u64 {
        let scratch = self.buffers.take_sparse();
        let mut total = 0u64;
        for v in scratch.iter().take(n) {
            total = total.wrapping_add(*v);
        }
        self.buffers.retire_sparse(scratch);
        total
    }

    /// Retire before the `?` exit can fire, then re-take afterwards.
    pub fn guarded_exit(&mut self, src: &Source) -> Result<u64, ReadError> {
        let staging = self.buffers.take_sparse();
        self.buffers.retire_sparse(staging);
        let head = src.read_head()?;
        Ok(head)
    }

    /// Moving the buffer into a struct literal transfers the obligation to
    /// the new owner (which carries the pool handle for its own retire).
    pub fn escapes(&mut self, pool: ArenaPool) -> Inboxes {
        let (data, offsets) = take_arena_parts(&pool);
        Inboxes {
            data,
            offsets,
            pool,
        }
    }
}
