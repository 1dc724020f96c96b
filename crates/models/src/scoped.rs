//! Shared machinery for item-scoped autograd models (NeuMF, NGCF,
//! LightGCN): lazy growth of the item block of an embedding parameter,
//! and the checkpoint envelope that round-trips the materialized id set.

use ptf_tensor::{derive_seed, init, Adam, ItemScope, Matrix, ParamId, Params, ScopeIndex};

/// Stream discriminators inside one scoped model's seed namespace (the
/// same constants as `MfModel`'s, applied to a different derived master).
pub(crate) const DENSE_INIT_STREAM: u64 = 1;
pub(crate) const ITEM_INIT_STREAM: u64 = 2;

/// The RNG for a scoped model's non-item parameters (user embeddings,
/// MLP/propagation weights). A separate stream from the item rows, so the
/// dense draws cannot depend on the item scope — the keystone of
/// `Full`-vs-`Rows` bit-parity.
pub(crate) fn dense_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(derive_seed(seed, 0, DENSE_INIT_STREAM))
}

/// The per-row item-init seed of a scoped model.
pub(crate) fn item_seed(seed: u64) -> u64 {
    derive_seed(seed, 0, ITEM_INIT_STREAM)
}

/// Builds the eagerly materialized item block of an embedding parameter:
/// one row per scoped id, each from its `(item_seed, id)`-derived stream.
pub(crate) fn scoped_item_rows(
    scope: &ItemScope,
    dim: usize,
    std: f32,
    seed: u64,
) -> ptf_tensor::Matrix {
    match scope {
        ItemScope::Full(n) => init::derived_normal_rows(0..*n as u32, dim, std, seed),
        ItemScope::Rows { ids, .. } => {
            init::derived_normal_rows(ids.iter().copied(), dim, std, seed)
        }
    }
}

/// Materializes every id in `ids` that the scope does not hold yet:
/// inserts the derived-init row into the item block of `emb` (which
/// starts `row_offset` rows into the parameter — NGCF/LightGCN put user
/// rows first) and a zero row into the optimizer moments at the same
/// position. Returns true if anything was inserted (graph models must
/// rebuild their propagation operator, since node indices shifted).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ensure_item_rows(
    scope: &mut ScopeIndex,
    params: &mut Params,
    adam: &mut Adam,
    emb: ParamId,
    row_offset: usize,
    item_seed: u64,
    std: f32,
    ids: impl Iterator<Item = u32>,
) -> bool {
    let mut inserted_any = false;
    let mut buf: Vec<f32> = Vec::new();
    for id in ids {
        let (pos, inserted) = scope.insert(id);
        if !inserted {
            continue;
        }
        inserted_any = true;
        let dim = params.get(emb).cols();
        buf.clear();
        buf.resize(dim, 0.0);
        init::derived_normal_row(item_seed, id, std, &mut buf);
        params.get_mut(emb).insert_row(row_offset + pos, &buf);
        adam.insert_zero_row(emb, row_offset + pos);
    }
    inserted_any
}

/// Evicts every materialized id the keep set does not cover — the exact
/// inverse of [`ensure_item_rows`], applied coherently to the embedding
/// rows and the optimizer moments.
///
/// Row-scoped models remove id, parameter row, and both moment rows
/// together (walking ids in descending order so earlier positions stay
/// valid). Dense seed-derived models cannot shrink, so they reset the
/// evicted rows in place — parameter row back to its derived init, moment
/// rows to zero — which is the same post-state a row-scoped model
/// re-materializes into. Legacy dense models built from a sequential RNG
/// (`item_seed == 0` sentinel) have no reproducible init and evict
/// nothing. Returns the number of rows evicted/reset.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evict_item_rows(
    scope: &mut ScopeIndex,
    params: &mut Params,
    adam: &mut Adam,
    emb: ParamId,
    row_offset: usize,
    item_seed: u64,
    std: f32,
    keep_sorted: &[u32],
) -> usize {
    debug_assert!(keep_sorted.windows(2).all(|w| w[0] < w[1]), "keep ids must be sorted unique");
    match scope.ids() {
        None => {
            if item_seed == 0 {
                return 0;
            }
            let dim = params.get(emb).cols();
            let mut buf = vec![0.0f32; dim];
            let mut k = 0usize;
            let mut reset = 0usize;
            for id in 0..scope.num_items() as u32 {
                while k < keep_sorted.len() && keep_sorted[k] < id {
                    k += 1;
                }
                if k < keep_sorted.len() && keep_sorted[k] == id {
                    continue;
                }
                init::derived_normal_row(item_seed, id, std, &mut buf);
                let at = row_offset + id as usize;
                params.get_mut(emb).row_mut(at).copy_from_slice(&buf);
                adam.zero_moment_row(emb, at);
                reset += 1;
            }
            reset
        }
        Some(ids) => {
            // snapshot the victims, then drop back-to-front so every
            // not-yet-processed position is unaffected by earlier removals
            let victims: Vec<u32> =
                ids.iter().copied().filter(|id| keep_sorted.binary_search(id).is_err()).collect();
            for &id in victims.iter().rev() {
                let pos = scope.remove(id).expect("victim was materialized");
                params.get_mut(emb).remove_row(row_offset + pos);
                adam.remove_row(emb, row_offset + pos);
            }
            victims.len()
        }
    }
}

/// Full-state envelope: everything a model needs to *resume training
/// bit-identically* — parameters, scope mapping, init seed, optimizer
/// step counter + both moment buffers, and (for models that own one) the
/// raw state of the training-time RNG. This is the cohort runtime's
/// client-recycling format and what `ptf train --save` writes. All u64s
/// travel as hex strings — the vendored JSON layer routes bare integers
/// through `f64`, which silently rounds values ≥ 2⁵³.
#[derive(serde::Serialize, serde::Deserialize)]
struct FullWire {
    arch: String,
    /// `None` = dense identity mapping over the whole catalogue.
    item_ids: Option<Vec<u32>>,
    item_seed: String,
    params: Params,
    adam_t: String,
    adam_m: Vec<Matrix>,
    adam_v: Vec<Matrix>,
    /// xoshiro256++ state of the model-owned training RNG (NGCF's
    /// dropout stream), 4 hex words; `None` for RNG-free models.
    rng: Option<Vec<String>>,
}

/// Serializes a model's complete training state as a [`FullWire`]
/// envelope (dense and scoped models alike — the scope travels inside).
pub(crate) fn export_full_state(
    arch: &str,
    scope: &ScopeIndex,
    params: &Params,
    item_seed: u64,
    adam: &Adam,
    rng: Option<&rand::rngs::StdRng>,
) -> Option<String> {
    let (t, m, v) = adam.export_state();
    serde_json::to_string(&FullWire {
        arch: arch.to_string(),
        item_ids: scope.ids().map(<[u32]>::to_vec),
        item_seed: format!("{item_seed:016x}"),
        params: params.clone(),
        adam_t: format!("{t:x}"),
        adam_m: m,
        adam_v: v,
        rng: rng.map(|r| r.state().iter().map(|w| format!("{w:016x}")).collect()),
    })
    .ok()
}

/// Restores a [`export_full_state`] envelope into
/// `(scope, params, adam)`, returning the envelope's training RNG if it
/// carried one. The scope may *reshape* in either direction: a sparse
/// envelope restores its id set (however grown), a dense envelope
/// densifies the live model — either way the whole parameter store and
/// both optimizer moment buffers are replaced, so the restored model
/// continues training bit-identically to the exported one.
///
/// On error the model may be left partially restored; callers must
/// discard it (the cohort runtime rebuilds from scratch or aborts).
#[allow(clippy::too_many_arguments)]
pub(crate) fn import_full_state(
    arch: &str,
    scope: &mut ScopeIndex,
    params: &mut Params,
    adam: &mut Adam,
    emb: ParamId,
    row_offset: usize,
    live_item_seed: &mut u64,
    json: &str,
) -> Result<Option<rand::rngs::StdRng>, String> {
    let wire: FullWire = serde_json::from_str(json)
        .map_err(|e| format!("bad full-state checkpoint (expected {arch} envelope): {e}"))?;
    if wire.arch != arch {
        return Err(format!("architecture mismatch: expected {arch}, got {}", wire.arch));
    }
    if wire.params.len() != params.len() {
        return Err(format!("parameter count mismatch: {} vs {}", wire.params.len(), params.len()));
    }
    let num_items = scope.num_items();
    let item_rows = wire.item_ids.as_ref().map_or(num_items, Vec::len);
    for ((id, name_new, mat_new), (_, name_live, mat_live)) in wire.params.iter().zip(params.iter())
    {
        if name_new != name_live {
            return Err(format!("parameter name mismatch: {name_new:?} vs {name_live:?}"));
        }
        if id == emb {
            if mat_new.cols() != mat_live.cols() || mat_new.rows() != row_offset + item_rows {
                return Err(format!(
                    "shape mismatch for {name_new:?}: {:?} does not fit {item_rows} item rows",
                    mat_new.shape(),
                ));
            }
        } else if mat_new.shape() != mat_live.shape() {
            return Err(format!(
                "shape mismatch for {name_new:?}: {:?} vs {:?}",
                mat_new.shape(),
                mat_live.shape()
            ));
        }
    }
    if let Some(ids) = &wire.item_ids {
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("checkpoint item ids must be sorted and unique".to_string());
        }
        if ids.last().is_some_and(|&l| l as usize >= num_items) {
            return Err("checkpoint item id out of range".to_string());
        }
    }
    let item_seed = u64::from_str_radix(&wire.item_seed, 16)
        .map_err(|e| format!("bad checkpoint item seed: {e}"))?;
    let t = u64::from_str_radix(&wire.adam_t, 16)
        .map_err(|e| format!("bad checkpoint step counter: {e}"))?;
    let rng = match &wire.rng {
        None => None,
        Some(words) => {
            if words.len() != 4 {
                return Err(format!("rng state must be 4 words, got {}", words.len()));
            }
            let mut s = [0u64; 4];
            for (slot, word) in s.iter_mut().zip(words) {
                *slot = u64::from_str_radix(word, 16)
                    .map_err(|e| format!("bad checkpoint rng word: {e}"))?;
            }
            Some(rand::rngs::StdRng::from_state(s))
        }
    };
    *scope = match wire.item_ids {
        None => ScopeIndex::dense(num_items),
        Some(ids) => ScopeIndex::from_scope(&ItemScope::Rows { num_items, ids }),
    };
    *params = wire.params;
    *live_item_seed = item_seed;
    adam.restore_state(params, t, wire.adam_m, wire.adam_v)?;
    Ok(rng)
}
