//! Steady-state allocation audit for a whole training step.
//!
//! A training step builds and drops the same activations every step. The
//! thread-local buffer pool (`dchag_tensor::scratch`) hands those buffers
//! back, so once the pool is warm a step must ask the allocator for no
//! large block: a fresh large block is what the system allocator unmaps
//! on free and page-faults back in on the next step. A counting global
//! allocator counts every request of [`LARGE_BLOCK`] bytes or more (new
//! blocks and reallocations) made on any thread while steps 4–8 run, after
//! 3 warm-up steps.
//!
//! It runs a flat MAE on one rank and a D-CHAG MAE on two thread ranks,
//! at a shape whose activations exceed [`LARGE_BLOCK`]. On the two-rank
//! world some buffers are dropped by the peer rank (a collective's staging
//! buffer goes to whichever rank releases it last), so the count could
//! depend on the schedule; CI runs this file repeatedly under CPU load.
//!
//! The file holds a single `#[test]` so no concurrent test can tick the
//! counter mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dchag::prelude::*;
use dchag_core::train_step;
use dchag_model::AdamW;

/// Requests of this many bytes or more are counted (64 KiB).
const LARGE_BLOCK: usize = 64 * 1024;

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= LARGE_BLOCK && COUNTING.load(Ordering::Relaxed) {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counting touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note(new);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: usize = 3;
const STEPS: usize = 8;

/// Large blocks requested while steps `WARMUP + 1..=STEPS` of a `world`-rank
/// MAE run: flat (`Tree0-C`) on one rank, D-CHAG-L on more.
fn large_blocks_per_warm_steps(world: usize) -> usize {
    // 32 channels of 16×16 at patch 4, batch 2: the `[B, C, P, D]` token
    // tensor is 128 KiB and the loss mask 64 KiB.
    let cfg = ModelConfig::tiny(32);
    let mut drng = Rng::new(7);
    let imgs = Tensor::randn([2, 32, 16, 16], 0.5, &mut drng);
    let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut drng);
    LARGE.store(0, Ordering::SeqCst);
    run_ranks(world, |ctx| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let mut opt = AdamW::new(1e-3);
        let flat = (world == 1).then(|| {
            let tree = TreeConfig::tree0(UnitKind::CrossAttention);
            MaeModel::new(&mut store, &mut rng, &cfg, 3, tree)
        });
        let dchag = (world > 1).then(|| {
            let tree = TreeConfig::tree(4, UnitKind::Linear);
            build_mae(&mut store, &mut rng, &cfg, 3, tree, &ctx.comm)
        });
        let counting = |on: bool| {
            ctx.comm.barrier();
            if ctx.comm.rank() == 0 {
                COUNTING.store(on, Ordering::SeqCst);
            }
            ctx.comm.barrier();
        };
        for step in 0..STEPS {
            if step == WARMUP {
                counting(true);
            }
            train_step(&mut store, &mut opt, 1.0, None, |bind| {
                match (&flat, &dchag) {
                    (Some(m), _) => m.forward_loss(bind, &imgs, &mask).0,
                    (_, Some(m)) => m.forward_loss(bind, &imgs, &mask).0,
                    _ => unreachable!("one model is built"),
                }
            });
        }
        counting(false);
    });
    LARGE.load(Ordering::SeqCst)
}

#[test]
fn warm_training_steps_request_no_large_block() {
    let flat = large_blocks_per_warm_steps(1);
    let dchag = large_blocks_per_warm_steps(2);
    assert_eq!(
        (flat, dchag),
        (0, 0),
        "blocks of {LARGE_BLOCK} bytes or more requested over {} warm steps: \
         flat MAE {flat}, D-CHAG w=2 MAE {dchag} (the buffer pool missed)",
        STEPS - WARMUP
    );
}
