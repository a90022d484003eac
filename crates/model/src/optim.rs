//! AdamW optimizer with decoupled weight decay and global-norm gradient
//! clipping, operating on a [`ParamStore`] and the per-parameter gradient
//! vector produced by a binder.

use dchag_tensor::checkpoint::{OptimEntry, OptimState};
use dchag_tensor::prelude::*;

/// AdamW hyper-parameters and per-parameter moment state.
pub struct AdamW {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    /// Decoupled weight decay, applied only to matrix-shaped parameters
    /// (LayerNorm affines and biases are exempt, the usual convention).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl AdamW {
    pub fn new(lr: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Serialize the full optimizer state (step counter, m/v moments),
    /// keyed by parameter *name* so restore survives store
    /// reconstruction and reordering. Tensors are `Arc`-shared — this is
    /// O(1) per parameter, safe to hand to a background checkpoint writer.
    pub fn export_state(&self, store: &ParamStore) -> OptimState {
        let mut entries = Vec::new();
        for (i, (_, name, _)) in store.iter().enumerate() {
            let m = self.m.get(i).cloned().flatten();
            let v = self.v.get(i).cloned().flatten();
            if m.is_some() || v.is_some() {
                entries.push(OptimEntry {
                    name: name.to_string(),
                    m,
                    v,
                });
            }
        }
        OptimState { t: self.t, entries }
    }

    /// Restore state captured by [`AdamW::export_state`], matching entries
    /// to `store`'s parameters by name. Parameters absent from `state`
    /// keep zero-initialized moments (the fresh-parameter behaviour);
    /// checkpoint entries with no matching parameter are ignored.
    pub fn import_state(&mut self, store: &ParamStore, state: &OptimState) {
        self.ensure_state(store);
        self.t = state.t;
        for (i, (_, name, _)) in store.iter().enumerate() {
            let entry = state.entries.iter().find(|e| e.name == name);
            self.m[i] = entry.and_then(|e| e.m.clone());
            self.v[i] = entry.and_then(|e| e.v.clone());
        }
    }

    fn ensure_state(&mut self, store: &ParamStore) {
        while self.m.len() < store.len() {
            self.m.push(None);
            self.v.push(None);
        }
    }

    /// Apply one update. `grads[i]` is the gradient of parameter `i` (None =
    /// not used this step, skipped).
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Option<Tensor>]) {
        self.ensure_state(store);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);

        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let Some(g) = grads.get(i).and_then(|g| g.as_ref()) else {
                continue;
            };
            assert_eq!(
                store.get(id).dims(),
                g.dims(),
                "grad shape for {}",
                store.name(id)
            );

            let shape = store.get(id).shape().clone();
            let m_prev = self.m[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(shape.clone()));
            let v_prev = self.v[i]
                .take()
                .unwrap_or_else(|| Tensor::zeros(shape.clone()));

            // Fused single-sweep update: moments and parameter mutate their
            // own (uniquely owned) buffers instead of allocating three
            // fresh tensors per parameter per step. The sweep itself is the
            // runtime-dispatched SIMD kernel (`dchag_tensor::simd`), so the
            // whole update is lane-parallel with no per-element libm sqrt.
            let decay = if shape.ndim() >= 2 {
                self.weight_decay
            } else {
                0.0
            };
            let coeffs = dchag_tensor::simd::AdamParams {
                beta1: self.beta1,
                beta2: self.beta2,
                bias_c1: bc1,
                bias_c2: bc2,
                lr: self.lr,
                eps: self.eps,
                weight_decay: decay,
            };
            let mut mdat = m_prev.into_data();
            let mut vdat = v_prev.into_data();
            let mut m_slot = None;
            let mut v_slot = None;
            store.update(id, |p| {
                // The parameter buffer is reused in place.
                let mut pdat = p.into_data();
                dchag_tensor::simd::adamw_sweep(&mut pdat, &mut mdat, &mut vdat, g.data(), &coeffs);
                m_slot = Some(Tensor::from_vec(mdat, shape.clone()));
                v_slot = Some(Tensor::from_vec(vdat, shape.clone()));
                Tensor::from_vec(pdat, shape.clone())
            });
            self.m[i] = m_slot;
            self.v[i] = v_slot;
        }
    }
}

/// Scale all gradients so the global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(grads: &mut [Option<Tensor>], max_norm: f32) -> f32 {
    let mut sq = 0f64;
    for g in grads.iter().flatten() {
        for &x in g.data() {
            sq += (x as f64) * (x as f64);
        }
    }
    let norm = sq.sqrt() as f32;
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut().flatten() {
            // Reuse the gradient buffer when uniquely owned (the common
            // case after the tape is dropped) instead of reallocating.
            let shape = g.shape().clone();
            let mut data = std::mem::replace(g, Tensor::scalar(0.0)).into_data();
            for x in data.iter_mut() {
                *x *= scale;
            }
            *g = Tensor::from_vec(data, shape);
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_store() -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let id = s.add("x", Tensor::from_vec(vec![5.0, -3.0], [2]));
        (s, id)
    }

    #[test]
    fn adamw_descends_quadratic() {
        // minimize |x|² — gradient = 2x
        let (mut store, id) = quad_store();
        let mut opt = AdamW::new(0.1);
        for _ in 0..200 {
            let g = store.get(id).map(|x| 2.0 * x);
            opt.step(&mut store, &[Some(g)]);
        }
        assert!(store.get(id).max_abs() < 0.1, "{:?}", store.get(id));
    }

    #[test]
    fn skips_params_without_grads() {
        let (mut store, id) = quad_store();
        let before = store.get(id).to_vec();
        let mut opt = AdamW::new(0.1);
        opt.step(&mut store, &[None]);
        assert_eq!(store.get(id).to_vec(), before);
    }

    #[test]
    fn weight_decay_only_on_matrices() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones([2, 2]));
        let b = store.add("b", Tensor::ones([2]));
        let mut opt = AdamW::new(0.0).with_weight_decay(0.5);
        // zero-valued grads: pure decay effect
        opt.step(
            &mut store,
            &[Some(Tensor::zeros([2, 2])), Some(Tensor::zeros([2]))],
        );
        // lr = 0 -> even decay is scaled by lr, nothing changes
        assert_eq!(store.get(w).to_vec(), vec![1.0; 4]);
        let mut opt = AdamW::new(0.1).with_weight_decay(0.5);
        opt.step(
            &mut store,
            &[Some(Tensor::zeros([2, 2])), Some(Tensor::zeros([2]))],
        );
        assert!(store.get(w).at(0) < 1.0, "matrix decayed");
        assert_eq!(store.get(b).to_vec(), vec![1.0, 1.0], "bias not decayed");
    }

    #[test]
    fn clip_scales_down_large_grads() {
        let mut grads = vec![Some(Tensor::full([4], 3.0)), None];
        let norm = clip_global_norm(&mut grads, 1.0);
        assert!((norm - 6.0).abs() < 1e-5);
        let clipped: f32 = grads[0]
            .as_ref()
            .unwrap()
            .data()
            .iter()
            .map(|x| x * x)
            .sum::<f32>()
            .sqrt();
        assert!((clipped - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_leaves_small_grads_alone() {
        let mut grads = vec![Some(Tensor::full([2], 0.1))];
        clip_global_norm(&mut grads, 10.0);
        assert_eq!(grads[0].as_ref().unwrap().to_vec(), vec![0.1, 0.1]);
    }

    #[test]
    fn checkpoint_optimizer_state_roundtrip_continues_bitwise() {
        // Splitting a run at step 10 through export/import must give the
        // exact trajectory of the uninterrupted run — including the bias
        // correction (t).
        let build = || {
            let mut s = ParamStore::new();
            s.add("w", Tensor::from_vec(vec![5.0, -3.0, 2.0, -1.0], [2, 2]));
            s.add("xb", Tensor::from_vec(vec![1.0, 0.5], [2]));
            s
        };
        let grads = |store: &ParamStore| -> Vec<Option<Tensor>> {
            store
                .iter()
                .map(|(_, _, t)| {
                    let g: Vec<f32> = t.to_vec().iter().map(|x| 2.0 * x).collect();
                    Some(Tensor::from_vec(g, t.shape().clone()))
                })
                .collect()
        };
        // Uninterrupted: 20 steps.
        let mut store_a = build();
        let mut opt_a = AdamW::new(0.05).with_weight_decay(0.1);
        for _ in 0..20 {
            let g = grads(&store_a);
            opt_a.step(&mut store_a, &g);
        }
        // Interrupted: 10 steps, checkpoint, restore into *fresh* objects
        // (reversed registration order to exercise name matching), 10 more.
        let mut store_b = build();
        let mut opt_b = AdamW::new(0.05).with_weight_decay(0.1);
        for _ in 0..10 {
            let g = grads(&store_b);
            opt_b.step(&mut store_b, &g);
        }
        let state = opt_b.export_state(&store_b);
        let snap: Vec<(String, Tensor)> = store_b
            .iter()
            .map(|(_, n, t)| (n.to_string(), t.clone()))
            .collect();

        let mut store_c = ParamStore::new();
        store_c.add("xb", Tensor::zeros([2]));
        store_c.add("w", Tensor::zeros([2, 2]));
        for (name, value) in &snap {
            let id = store_c.ids().find(|&i| store_c.name(i) == name).unwrap();
            store_c.set(id, value.clone());
        }
        let mut opt_c = AdamW::new(0.05).with_weight_decay(0.1);
        opt_c.import_state(&store_c, &state);
        assert_eq!(opt_c.steps(), 10);
        for _ in 0..10 {
            let g = grads(&store_c);
            opt_c.step(&mut store_c, &g);
        }
        for (_, name, want) in store_a.iter() {
            let id = store_c.ids().find(|&i| store_c.name(i) == name).unwrap();
            let got = store_c.get(id);
            assert_eq!(
                got.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.to_vec()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
                "{name} must match bitwise"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        let run = || {
            let (mut store, id) = quad_store();
            let mut opt = AdamW::new(0.05);
            for _ in 0..50 {
                let g = store.get(id).map(|x| 2.0 * x);
                opt.step(&mut store, &[Some(g)]);
            }
            store.get(id).to_vec()
        };
        assert_eq!(run(), run());
    }
}
