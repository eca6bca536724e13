//! Morsel-driven batch kernels and accumulation.
//!
//! Execution processes fixed-size morsels (`MORSEL` rows), either a
//! contiguous natural-order range or a slice of a shuffled visit order.
//! Progressive engines scan a physically pre-shuffled copy of the fact
//! table in natural order (`idebench_storage::Dataset::shuffled_copy`),
//! so the gathered path (`Rows::Gather`) serves only wander's online
//! queries and progressive sessions whose seed differs from the live
//! copy's. Every kernel reads a column from its stage slot, as a `Flat`
//! slice indexed by morsel position plus an optional validity mask. Per
//! morsel:
//!
//! 1. **Filter staging.** The stage slots the filter reads are made flat
//!    (see `crate::plan::StageSpec`). A fact column in a natural-order
//!    morsel is read in place. In a shuffled-order morsel it is gathered
//!    once, in a loop of independent loads. A joined column gathers its
//!    foreign-key column once and translates it through the plan's
//!    per-dimension join cache. A nullable column folds its validity
//!    bitmap into the slot's mask.
//! 2. **Filter words.** The filter tree is evaluated into a bitmask
//!    (`Mask`). A range or IN predicate writes one `u64` per 64 rows from
//!    a flat slice, and only for words its caller still cares about: an
//!    AND hands each conjunct its running mask, so words already zero are
//!    skipped and the AND stops once the mask is empty; an OR hands each
//!    child the words not yet full. A care word with few bits set is
//!    tested bit by bit. Integer columns compare against the range's
//!    exact integer bounds (`crate::plan::RangeTest`).
//! 3. **Late gathers.** A morsel the filter fully rejects stops here. The
//!    remaining (binning and measure) slots are staged next, and every
//!    gather in this phase reads only the filter-passing positions.
//! 4. **Bin slots.** Dense slots (or sparse keys) are computed from flat
//!    slices. A width bucketing over an integer-domain column looks its
//!    slot up in the plan's compile-time table
//!    (`crate::plan::SlotTable`); a float column, or an integer span above
//!    the table cap, uses the arithmetic `WidthSlots::slot_of`.
//! 5. **Accumulate.** Matching rows are folded into the accumulator in
//!    row order, so every per-bin floating-point sequence is that of the
//!    scalar reference path.
//!
//! The dense path exploits that an all-nominal binning has a bin space
//! bounded by dictionary sizes: accumulators live in a flat array indexed
//! by `code0 + code1 * dict_len0`, replacing the per-row hash probe of the
//! scalar reference path.

use crate::aggregate::{BinAcc, GroupedAcc, MeasureAcc};
use crate::plan::{
    AccMode, CompiledPlan, PlannedDim, PlannedFilter, RangeTest, StagePhases, StageSpec,
    WidthSlots, NULL_CODE,
};
use idebench_core::{AggFunc, BinCoord, BinKey};
use idebench_storage::{Column, ColumnSlice, SelVec};
use rustc_hash::FxHashMap;

/// Rows per morsel. A multiple of 64 so morsel masks align with
/// [`idebench_storage::SelVec`] words.
pub const MORSEL: usize = 1024;
const WORDS: usize = MORSEL / 64;

/// A per-morsel bitmask (bit `i` = row `i` of the morsel).
pub(crate) type Mask = [u64; WORDS];

/// The mask of morsel positions `0..n`.
#[inline]
fn tail_mask(n: usize) -> Mask {
    let mut mask = [0u64; WORDS];
    for (w, word) in mask.iter_mut().enumerate() {
        let lo = w * 64;
        if n >= lo + 64 {
            *word = u64::MAX;
        } else if n > lo {
            *word = (1u64 << (n - lo)) - 1;
        }
    }
    mask
}

/// `a & b`, word by word.
#[inline]
fn and(a: &Mask, b: &Mask) -> Mask {
    std::array::from_fn(|w| a[w] & b[w])
}

/// Calls `f(i)` for every morsel position `i` selected by `sel`; full words
/// run as straight loops.
#[inline(always)]
fn for_each_pos(sel: &Mask, mut f: impl FnMut(usize)) {
    for (w, &bits) in sel.iter().enumerate() {
        if bits == u64::MAX {
            (w * 64..w * 64 + 64).for_each(&mut f);
        } else {
            let mut bits = bits;
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// The rows of one morsel.
#[derive(Clone, Copy)]
pub(crate) enum Rows<'a> {
    /// Natural-order rows `base..base + len`.
    Natural { base: usize, len: usize },
    /// Rows gathered through a shuffle/order slice.
    Gather(&'a [u32]),
}

impl Rows<'_> {
    /// Number of rows (≤ [`MORSEL`]).
    #[inline]
    pub fn len(&self) -> usize {
        match *self {
            Rows::Natural { len, .. } => len,
            Rows::Gather(order) => order.len(),
        }
    }

    /// The fact row at morsel position `i`.
    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        match *self {
            Rows::Natural { base, .. } => base + i,
            Rows::Gather(order) => order[i] as usize,
        }
    }
}

/// A column's values as a flat typed slice.
#[derive(Clone, Copy)]
pub(crate) enum Flat<'a> {
    F64(&'a [f64]),
    I64(&'a [i64]),
    Codes(&'a [u32]),
}

/// The value type of a [`Flat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlatKind {
    F64,
    I64,
    Codes,
}

impl<'a> Flat<'a> {
    /// A column payload as a flat slice.
    #[inline]
    fn of(data: ColumnSlice<'a>) -> Flat<'a> {
        match data {
            ColumnSlice::F64(d) => Flat::F64(d),
            ColumnSlice::I64(d) => Flat::I64(d),
            ColumnSlice::Codes(d, _) => Flat::Codes(d),
        }
    }

    /// Elements `base..base + len`.
    #[inline]
    fn slice(self, base: usize, len: usize) -> Flat<'a> {
        match self {
            Flat::F64(d) => Flat::F64(&d[base..base + len]),
            Flat::I64(d) => Flat::I64(&d[base..base + len]),
            Flat::Codes(d) => Flat::Codes(&d[base..base + len]),
        }
    }

    /// The numeric value at position `i`.
    #[inline(always)]
    fn num(self, i: usize) -> f64 {
        match self {
            Flat::F64(d) => d[i],
            Flat::I64(d) => d[i] as f64,
            Flat::Codes(d) => f64::from(d[i]),
        }
    }
}

// -------------------------------------------------------------- binding

/// A [`CompiledPlan`] bound to borrowed column slices for one `advance`.
/// Filter leaves, binning dimensions and measures name the stage slot they
/// read.
pub(crate) struct BoundPlan<'a> {
    filter: Option<BoundFilter<'a>>,
    dims: Vec<BoundDim<'a>>,
    measures: Vec<Option<usize>>,
    /// Per-morsel staging instructions, parallel to the accumulator's
    /// stage buffers.
    stages: Vec<BoundStage<'a>>,
    /// Distinct FK columns gathered once per morsel, parallel to the
    /// accumulator's FK staging buffers.
    fks: Vec<&'a [i64]>,
    /// Filter-phase vs. post-filter-phase staging split.
    phases: &'a StagePhases,
}

enum BoundFilter<'a> {
    Range { slot: usize, test: RangeTest },
    In { slot: usize, member: &'a [bool] },
    And(Vec<BoundFilter<'a>>),
    Or(Vec<BoundFilter<'a>>),
}

enum BoundDim<'a> {
    Nominal {
        slot: usize,
        /// Dictionary size bounding this dimension's bin space (stride).
        dict_len: u32,
    },
    Width {
        slot: usize,
        width: f64,
        anchor: f64,
        /// The arithmetic slot function and bin-space size when the
        /// dimension was lowered to dense slots.
        dense: Option<(WidthSlots, u32)>,
        /// The dense lowering's slot table over integer values
        /// (`(min, slots)`), when the plan built one.
        table: Option<(i64, &'a [u32])>,
    },
}

/// A [`StageSpec`] bound to borrowed slices for one `advance`.
pub(crate) enum BoundStage<'a> {
    Own {
        col: &'a Column,
    },
    JoinCodes {
        fk_slot: usize,
        cache: &'a [u32],
    },
    JoinNum {
        fk_slot: usize,
        vals: &'a [f64],
        valid: Option<&'a SelVec>,
    },
}

impl BoundStage<'_> {
    /// Whether staged positions can be null (the slot's mask matters).
    fn nullable(&self) -> bool {
        match self {
            BoundStage::Own { col } => col.validity().is_some(),
            BoundStage::JoinCodes { .. } => true,
            BoundStage::JoinNum { valid, .. } => valid.is_some(),
        }
    }
}

impl PlannedFilter {
    fn bind(&self) -> BoundFilter<'_> {
        match self {
            PlannedFilter::Range { col, test } => BoundFilter::Range {
                slot: col.slot(),
                test: *test,
            },
            PlannedFilter::In { col, member } => BoundFilter::In {
                slot: col.slot(),
                member,
            },
            PlannedFilter::And(children) => {
                BoundFilter::And(children.iter().map(PlannedFilter::bind).collect())
            }
            PlannedFilter::Or(children) => {
                BoundFilter::Or(children.iter().map(PlannedFilter::bind).collect())
            }
        }
    }
}

impl CompiledPlan {
    /// Binds the plan to borrowed slices (index lookups only; no name
    /// resolution or hashing — cheap enough to do per `advance`).
    pub(crate) fn bind(&self) -> BoundPlan<'_> {
        BoundPlan {
            filter: self.filter.as_ref().map(PlannedFilter::bind),
            dims: self
                .dims
                .iter()
                .map(|d| match d {
                    PlannedDim::Nominal { col, dict_len } => BoundDim::Nominal {
                        slot: col.slot(),
                        dict_len: (*dict_len).max(1) as u32,
                    },
                    PlannedDim::Width {
                        col,
                        width,
                        anchor,
                        dense,
                        table,
                    } => BoundDim::Width {
                        slot: col.slot(),
                        width: *width,
                        anchor: *anchor,
                        dense: dense.map(|d| (WidthSlots::new(d, *width, *anchor), d.len as u32)),
                        table: table.as_ref().map(|t| (t.min, t.slots.as_slice())),
                    },
                })
                .collect(),
            measures: self
                .measures
                .iter()
                .map(|m| m.as_ref().map(|c| c.slot()))
                .collect(),
            stages: self
                .stages
                .iter()
                .map(|s| match s {
                    StageSpec::Own(col) => BoundStage::Own { col: col.get() },
                    StageSpec::JoinCodes { fk_slot, cache } => BoundStage::JoinCodes {
                        fk_slot: *fk_slot,
                        cache,
                    },
                    StageSpec::JoinNum {
                        fk_slot,
                        vals,
                        valid,
                    } => BoundStage::JoinNum {
                        fk_slot: *fk_slot,
                        vals,
                        valid: valid.as_ref(),
                    },
                })
                .collect(),
            fks: self
                .fk_cols
                .iter()
                .map(|(t, i)| {
                    t.column_at(*i)
                        .as_int()
                        .expect("fk column validated at compile time")
                })
                .collect(),
            phases: &self.phases,
        }
    }
}

// -------------------------------------------------------------- staging

/// Scratch values of one stage slot for the current morsel.
enum StageVals {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Codes(Vec<u32>),
}

/// Scratch buffer of one stage slot for the current morsel: flat values
/// plus a validity mask.
struct StageBuf {
    vals: StageVals,
    mask: Mask,
}

impl StageBuf {
    /// An own-column slot allocates its values on its first gather: a
    /// natural-order scan reads the column in place and never needs them.
    fn for_spec(spec: &StageSpec) -> StageBuf {
        let len = if matches!(spec, StageSpec::Own(_)) {
            0
        } else {
            MORSEL
        };
        StageBuf {
            vals: match spec.kind() {
                FlatKind::F64 => StageVals::F64(vec![0.0; len]),
                FlatKind::I64 => StageVals::I64(vec![0; len]),
                FlatKind::Codes => StageVals::Codes(vec![0; len]),
            },
            mask: [0u64; WORDS],
        }
    }

    fn flat(&self, n: usize) -> Flat<'_> {
        match &self.vals {
            StageVals::F64(v) => Flat::F64(&v[..n]),
            StageVals::I64(v) => Flat::I64(&v[..n]),
            StageVals::Codes(v) => Flat::Codes(&v[..n]),
        }
    }
}

/// Where one morsel's kernels read their columns: the morsel's rows plus
/// the plan's stage slots.
#[derive(Clone, Copy)]
struct Morsel<'m> {
    rows: Rows<'m>,
    specs: &'m [BoundStage<'m>],
    bufs: &'m [StageBuf],
}

impl<'m> Morsel<'m> {
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Stage slot `slot` as this morsel's kernels read it.
    #[inline]
    fn src(&self, slot: usize) -> Src<'m> {
        let (spec, buf) = (&self.specs[slot], &self.bufs[slot]);
        let vals = match (spec, self.rows) {
            (BoundStage::Own { col }, Rows::Natural { base, len }) => {
                Flat::of(col.typed()).slice(base, len)
            }
            _ => buf.flat(self.len()),
        };
        Src {
            vals,
            mask: spec.nullable().then_some(&buf.mask),
        }
    }
}

/// A column as one morsel's kernels read it: values at the morsel's
/// positions, with the validity mask when positions can be null.
#[derive(Clone, Copy)]
struct Src<'m> {
    vals: Flat<'m>,
    mask: Option<&'m Mask>,
}

impl Src<'_> {
    /// Numeric value at morsel position `i` (`None` when null) — the
    /// sparse store's row-at-a-time measure accessor.
    #[inline(always)]
    fn value(self, i: usize) -> Option<f64> {
        (self.mask.is_none_or(|mk| mk[i / 64] >> (i % 64) & 1 == 1)).then(|| self.vals.num(i))
    }
}

/// Gathers `src[order[i]]` into `dst[i]` at the selected positions — a loop
/// of independent loads.
#[inline]
fn gather<T: Copy + Default>(src: &[T], order: &[u32], sel: &Mask, dst: &mut Vec<T>) {
    dst.resize(MORSEL, T::default());
    for_each_pos(sel, |i| dst[i] = src[order[i] as usize]);
}

/// Stages the FK buffers named by `which` for one morsel at the positions
/// in `sel` (a natural-order morsel copies the whole contiguous range) —
/// every joined column translating through an FK reads it from here, so
/// each distinct FK column is gathered at most once per morsel.
fn stage_fks(
    bound: &BoundPlan<'_>,
    rows: Rows<'_>,
    sel: &Mask,
    fk_stage: &mut [Vec<u32>],
    which: &[usize],
) {
    for &slot in which {
        let fk = bound.fks[slot];
        let dst = &mut fk_stage[slot];
        match rows {
            Rows::Natural { base, len } => {
                for (d, &k) in dst.iter_mut().zip(&fk[base..base + len]) {
                    *d = k as u32;
                }
            }
            Rows::Gather(order) => for_each_pos(sel, |i| dst[i] = fk[order[i] as usize] as u32),
        }
    }
}

/// Stages the slots named by `which` for one morsel at the positions in
/// `sel`: values at each morsel *position* (unstaged and null positions
/// hold placeholders; null positions have their mask bit cleared). A fully
/// valid fact column in a natural-order morsel is read in place and needs
/// no staging.
fn stage_cols(
    bound: &BoundPlan<'_>,
    rows: Rows<'_>,
    sel: &Mask,
    fk_stage: &[Vec<u32>],
    bufs: &mut [StageBuf],
    which: &[usize],
) {
    for &si in which {
        let (spec, buf) = (&bound.stages[si], &mut bufs[si]);
        buf.mask = *sel;
        let mask = &mut buf.mask;
        let mut clear = |i: usize| mask[i / 64] &= !(1u64 << (i % 64));
        match spec {
            BoundStage::Own { col } => {
                if let Rows::Gather(order) = rows {
                    match (col.typed(), &mut buf.vals) {
                        (ColumnSlice::F64(d), StageVals::F64(o)) => gather(d, order, sel, o),
                        (ColumnSlice::I64(d), StageVals::I64(o)) => gather(d, order, sel, o),
                        (ColumnSlice::Codes(d, _), StageVals::Codes(o)) => gather(d, order, sel, o),
                        _ => unreachable!("stage buffer typed by its spec"),
                    }
                }
                if let Some(v) = col.validity() {
                    for_each_pos(sel, |i| {
                        if !v.contains(rows.row(i)) {
                            clear(i);
                        }
                    });
                }
            }
            BoundStage::JoinCodes { fk_slot, cache } => {
                let (fkb, StageVals::Codes(o)) = (&fk_stage[*fk_slot], &mut buf.vals) else {
                    unreachable!("code stage holds codes")
                };
                for_each_pos(sel, |i| {
                    let c = cache[fkb[i] as usize];
                    if c == NULL_CODE {
                        o[i] = 0;
                        clear(i);
                    } else {
                        o[i] = c;
                    }
                });
            }
            BoundStage::JoinNum {
                fk_slot,
                vals,
                valid,
            } => {
                let (fkb, StageVals::F64(o)) = (&fk_stage[*fk_slot], &mut buf.vals) else {
                    unreachable!("numeric stage holds floats")
                };
                for_each_pos(sel, |i| o[i] = vals[fkb[i] as usize]);
                if let Some(v) = valid {
                    for_each_pos(sel, |i| {
                        if !v.contains(fkb[i] as usize) {
                            clear(i);
                        }
                    });
                }
            }
        }
    }
}

// -------------------------------------------------------------- kernels

/// Care words with at most this many bits set are tested bit by bit
/// instead of as a whole 64-row word.
const SPARSE_WORD_BITS: u32 = 12;

/// Writes `care & pred` into `out` one 64-row word at a time: words `care`
/// has already cleared are skipped, and sparse ones (a later conjunct
/// after a selective one) test only their set positions.
#[inline(always)]
fn fill_words<T: Copy>(vals: &[T], care: &Mask, out: &mut Mask, pred: impl Fn(T) -> bool) {
    *out = [0u64; WORDS];
    for ((o, &c), chunk) in out.iter_mut().zip(care).zip(vals.chunks(64)) {
        if c == 0 {
            continue;
        }
        let mut bits = 0u64;
        if c.count_ones() <= SPARSE_WORD_BITS {
            let mut rest = c;
            while rest != 0 {
                let j = rest.trailing_zeros();
                bits |= u64::from(pred(chunk[j as usize])) << j;
                rest &= rest - 1;
            }
        } else {
            for (j, &v) in chunk.iter().enumerate() {
                bits |= u64::from(pred(v)) << j;
            }
        }
        *o = c & bits;
    }
}

/// Evaluates a filter tree over the `care` positions of one morsel:
/// `out = care & filter`. Null values never match, mirroring SQL WHERE
/// semantics.
fn eval_filter(f: &BoundFilter<'_>, m: &Morsel<'_>, care: &Mask, out: &mut Mask) {
    match f {
        BoundFilter::Range { slot, test } => {
            let src = m.src(*slot);
            let care = src.mask.map_or(*care, |v| and(care, v));
            match (src.vals, test.ints) {
                (Flat::F64(d), _) => fill_words(d, &care, out, |v| test.f64(v)),
                (Flat::I64(d), Some((lo, hi))) => fill_words(d, &care, out, |v| lo <= v && v <= hi),
                (Flat::Codes(d), Some((lo, hi))) => {
                    fill_words(d, &care, out, |c| lo <= i64::from(c) && i64::from(c) <= hi)
                }
                (Flat::I64(_) | Flat::Codes(_), None) => *out = [0u64; WORDS],
            }
        }
        BoundFilter::In { slot, member } => {
            let hit = |c: u32| member.get(c as usize).copied().unwrap_or(false);
            let src = m.src(*slot);
            match src.vals {
                Flat::Codes(d) => {
                    let care = src.mask.map_or(*care, |v| and(care, v));
                    fill_words(d, &care, out, hit);
                }
                // Numeric columns have no dictionary codes: nothing
                // matches (compilation rejects IN over them).
                Flat::F64(_) | Flat::I64(_) => *out = [0u64; WORDS],
            }
        }
        BoundFilter::And(children) => {
            // Each conjunct only evaluates the words still alive, and the
            // AND stops once the running mask is empty.
            *out = *care;
            for child in children {
                if out.iter().all(|&w| w == 0) {
                    break;
                }
                let alive = *out;
                eval_filter(child, m, &alive, out);
            }
        }
        BoundFilter::Or(children) => {
            // Each child only evaluates the words not yet full.
            *out = [0u64; WORDS];
            let mut rest = *care;
            let mut hit = [0u64; WORDS];
            for child in children {
                if rest.iter().all(|&w| w == 0) {
                    break;
                }
                eval_filter(child, m, &rest, &mut hit);
                for w in 0..WORDS {
                    out[w] |= hit[w];
                    rest[w] &= !hit[w];
                }
            }
        }
    }
}

/// Slot lookup through an integer slot table. Placeholder values at
/// unstaged or null positions may fall outside the table's span; they are
/// clamped into it (their slots are never accumulated).
#[inline(always)]
fn table_slot(min: i64, slots: &[u32], v: i64) -> u32 {
    slots[(v.wrapping_sub(min) as u64).min(slots.len() as u64 - 1) as usize]
}

/// Computes dense bin slots for one morsel. Rows with a null binned value
/// get their `valid` bit cleared.
fn dense_slots(dims: &[BoundDim<'_>], m: &Morsel<'_>, slots: &mut [u32], valid: &mut Mask) {
    let n = m.len();
    *valid = tail_mask(n);

    // Fused 2D nominal path: both coordinates in a single pass —
    // `slot = c0 + c1 · stride` — instead of one slots-array round-trip per
    // dimension. Devirtualized star joins land here, so a joined×joined
    // binning slots exactly like a de-normalized one.
    if let [BoundDim::Nominal {
        slot: c0,
        dict_len: stride,
    }, BoundDim::Nominal { slot: c1, .. }] = dims
    {
        let (src0, src1) = (m.src(*c0), m.src(*c1));
        if let (Flat::Codes(s0), Flat::Codes(s1)) = (src0.vals, src1.vals) {
            let stride = (*stride).max(1);
            for (slot, (&a, &b)) in slots.iter_mut().zip(s0.iter().zip(s1)) {
                *slot = a + b * stride;
            }
            for mask in [src0.mask, src1.mask].into_iter().flatten() {
                *valid = and(valid, mask);
            }
            return;
        }
    }

    let mut stride = 1u32;
    for (di, dim) in dims.iter().enumerate() {
        // One monomorphized flat slotting loop per value type.
        macro_rules! slot_span {
            ($src:expr, $of:expr) => {{
                let of = $of;
                if di == 0 {
                    for (slot, &v) in slots.iter_mut().zip($src) {
                        *slot = of(v);
                    }
                } else {
                    for (slot, &v) in slots.iter_mut().zip($src) {
                        *slot += of(v) * stride;
                    }
                }
            }};
        }
        let (slot, len) = match dim {
            BoundDim::Nominal { slot, dict_len } => (slot, *dict_len),
            BoundDim::Width { slot, dense, .. } => (
                slot,
                dense.expect("dense path requires bounded bucket space").1,
            ),
        };
        let src = m.src(*slot);
        if let Some(mask) = src.mask {
            *valid = and(valid, mask);
        }
        match (dim, src.vals) {
            (BoundDim::Nominal { .. }, Flat::Codes(d)) => slot_span!(d, |c| c),
            (BoundDim::Nominal { .. }, _) => {
                // Compilation rejects nominal binning over non-nominal
                // columns, and stage slots preserve the type.
                unreachable!("nominal binning compiled over a non-nominal column")
            }
            (BoundDim::Width { dense, table, .. }, flat) => {
                let f = dense.expect("dense path requires bounded bucket space").0;
                match (flat, table) {
                    (Flat::I64(d), Some((min, t))) => slot_span!(d, |v| table_slot(*min, t, v)),
                    (Flat::Codes(d), Some((min, t))) => {
                        slot_span!(d, |c| table_slot(*min, t, i64::from(c)))
                    }
                    (Flat::F64(d), _) => slot_span!(d, |v| f.slot_of(v)),
                    (Flat::I64(d), None) => slot_span!(d, |v| f.slot_of(v as f64)),
                    (Flat::Codes(d), None) => slot_span!(d, |c| f.slot_of(f64::from(c))),
                }
            }
        }
        stride *= len.max(1);
    }
}

/// Computes sparse bin keys (up to two coordinates) for one morsel. Rows
/// with a null binned value get their `valid` bit cleared.
fn sparse_keys(
    dims: &[BoundDim<'_>],
    m: &Morsel<'_>,
    k0: &mut [i64],
    k1: &mut [i64],
    valid: &mut Mask,
) {
    let n = m.len();
    *valid = tail_mask(n);
    for (di, dim) in dims.iter().enumerate() {
        let out: &mut [i64] = if di == 0 { k0 } else { k1 };
        let slot = match dim {
            BoundDim::Nominal { slot, .. } | BoundDim::Width { slot, .. } => slot,
        };
        let src = m.src(*slot);
        if let Some(mask) = src.mask {
            *valid = and(valid, mask);
        }
        match (dim, src.vals) {
            (BoundDim::Nominal { .. }, Flat::Codes(d)) => {
                for (o, &c) in out.iter_mut().zip(d) {
                    *o = i64::from(c);
                }
            }
            (BoundDim::Nominal { .. }, _) => {
                unreachable!("nominal binning compiled over a non-nominal column")
            }
            (BoundDim::Width { width, anchor, .. }, flat) => {
                for (i, o) in out.iter_mut().enumerate().take(n) {
                    *o = ((flat.num(i) - anchor) / width).floor() as i64;
                }
            }
        }
    }
}

// ---------------------------------------------------------- accumulation

/// The coordinate kind of one sparse binning dimension.
#[derive(Debug, Clone, Copy)]
enum CoordKind {
    Cat,
    Bucket,
}

/// Slot-decode metadata of one dense binning dimension: its bounded size
/// and how a slot coordinate maps back to a [`BinCoord`].
#[derive(Debug, Clone, Copy)]
struct DenseDim {
    /// Size of this dimension's bin space (`slot = c0 + c1 · len0`).
    len: usize,
    /// `None` = nominal (coordinate is a dictionary code); `Some(lo)` =
    /// bucketed (coordinate `c` decodes to bucket `lo + c`).
    bucket_lo: Option<i64>,
}

enum Store {
    /// Flat-array accumulation over a bounded bin space (nominal
    /// dictionaries and/or statistics-bounded bucketings).
    Dense {
        /// Per-dimension slot decode metadata (1 or 2 entries).
        dims: Vec<DenseDim>,
        counts: Vec<u64>,
        /// `space * nmeasures` measure accumulators, slot-major.
        measures: Vec<MeasureAcc>,
        /// Slots with `counts > 0`, in first-touch order — snapshots only
        /// walk populated bins, not the whole space.
        touched: Vec<u32>,
    },
    /// Hashed accumulation for unbounded bucket spaces. The map stores
    /// indices into a dense `Vec<BinAcc>` so the common consecutive-rows-
    /// same-bucket case skips the probe via a last-key memo, and finish
    /// walks a contiguous vector.
    Sparse {
        kinds: Vec<CoordKind>,
        index: FxHashMap<(i64, i64), u32>,
        accs: Vec<((i64, i64), BinAcc)>,
    },
}

/// The vectorized accumulator driven by [`CompiledPlan`] morsel kernels.
///
/// Mirrors the statistics of [`GroupedAcc`] (which remains the scalar
/// reference and merge/finish representation); [`BatchAcc::to_grouped`]
/// materializes into it in O(populated bins).
pub(crate) struct BatchAcc {
    aggs: Vec<(AggFunc, bool)>,
    nmeasures: usize,
    store: Store,
    pub rows_seen: u64,
    pub rows_matched: u64,
    // Reusable per-morsel scratch.
    slots: Vec<u32>,
    k0: Vec<i64>,
    k1: Vec<i64>,
    /// Stage buffers, parallel to the plan's [`StageSpec`]s.
    stages: Vec<StageBuf>,
    /// Staged FK values, parallel to the plan's distinct FK columns.
    fk_stage: Vec<Vec<u32>>,
}

impl BatchAcc {
    pub fn for_plan(plan: &CompiledPlan) -> BatchAcc {
        let aggs: Vec<(AggFunc, bool)> = plan
            .query()
            .aggregates()
            .iter()
            .map(|a| (a.func, a.dimension.is_some()))
            .collect();
        let nmeasures = aggs.len();
        let dense = matches!(plan.acc_mode(), AccMode::Dense(_));
        let store = match plan.acc_mode() {
            AccMode::Dense(space) => Store::Dense {
                dims: plan
                    .dims
                    .iter()
                    .map(|d| match d {
                        PlannedDim::Nominal { dict_len, .. } => DenseDim {
                            len: (*dict_len).max(1),
                            bucket_lo: None,
                        },
                        PlannedDim::Width { dense, .. } => {
                            let dense = dense.expect("dense mode requires bounded bucket space");
                            DenseDim {
                                len: dense.len,
                                bucket_lo: Some(dense.lo),
                            }
                        }
                    })
                    .collect(),
                counts: vec![0; space],
                measures: vec![MeasureAcc::new(); space * nmeasures],
                touched: Vec::new(),
            },
            AccMode::Sparse => Store::Sparse {
                kinds: plan
                    .dims
                    .iter()
                    .map(|d| match d {
                        PlannedDim::Nominal { .. } => CoordKind::Cat,
                        PlannedDim::Width { .. } => CoordKind::Bucket,
                    })
                    .collect(),
                index: FxHashMap::default(),
                accs: Vec::new(),
            },
        };
        BatchAcc {
            aggs,
            nmeasures,
            store,
            rows_seen: 0,
            rows_matched: 0,
            // Dense stores bin through `slots`, sparse ones through keys.
            slots: vec![0; if dense { MORSEL } else { 0 }],
            k0: vec![0; if dense { 0 } else { MORSEL }],
            k1: vec![0; if dense { 0 } else { MORSEL }],
            stages: plan.stages.iter().map(StageBuf::for_spec).collect(),
            fk_stage: plan.fk_cols.iter().map(|_| vec![0; MORSEL]).collect(),
        }
    }

    /// Processes one morsel: stage → filter → gather → bin → accumulate.
    /// Returns the number of rows that passed the filter (cost-model
    /// input).
    pub fn process_morsel(&mut self, bound: &BoundPlan<'_>, rows: Rows<'_>) -> usize {
        let n = rows.len();
        debug_assert!(n <= MORSEL);
        self.rows_seen += n as u64;
        let all = tail_mask(n);

        // 1. Stage the slots the *filter* reads, at every position.
        let phases = bound.phases;
        stage_fks(bound, rows, &all, &mut self.fk_stage, &phases.filter_fks);
        stage_cols(
            bound,
            rows,
            &all,
            &self.fk_stage,
            &mut self.stages,
            &phases.filter_stages,
        );

        // 2. Filter.
        let mut fmask = all;
        if let Some(filter) = &bound.filter {
            let m = Morsel {
                rows,
                specs: &bound.stages,
                bufs: &self.stages,
            };
            eval_filter(filter, &m, &all, &mut fmask);
        }
        let matched: usize = fmask.iter().map(|w| w.count_ones() as usize).sum();
        self.rows_matched += matched as u64;
        if matched == 0 {
            // Binning and measure staging is deferred to here precisely so
            // a fully-filtered-out morsel never pays for it.
            return 0;
        }

        // 3. Stage the remaining (binning / measure) slots, gathering only
        //    the filter-passing positions.
        stage_fks(bound, rows, &fmask, &mut self.fk_stage, &phases.post_fks);
        stage_cols(
            bound,
            rows,
            &fmask,
            &self.fk_stage,
            &mut self.stages,
            &phases.post_stages,
        );
        let m = Morsel {
            rows,
            specs: &bound.stages,
            bufs: &self.stages,
        };

        // 4. Bin keys, 5. accumulate matching rows.
        let mut valid: Mask = [0u64; WORDS];
        match &mut self.store {
            Store::Dense {
                counts,
                measures,
                touched,
                ..
            } => {
                dense_slots(&bound.dims, &m, &mut self.slots, &mut valid);
                let live = and(&fmask, &valid);
                // Counts pass. Full words (the common unfiltered case) skip
                // the per-bit scan; iteration order is unchanged either way.
                let mut count = |slot: u32| {
                    let c = &mut counts[slot as usize];
                    if *c == 0 {
                        touched.push(slot);
                    }
                    *c += 1;
                };
                for (w, &bits) in live.iter().enumerate() {
                    if bits == u64::MAX {
                        self.slots[w * 64..w * 64 + 64]
                            .iter()
                            .for_each(|&s| count(s));
                    } else {
                        let mut bits = bits;
                        while bits != 0 {
                            count(self.slots[w * 64 + bits.trailing_zeros() as usize]);
                            bits &= bits - 1;
                        }
                    }
                }
                // One pass per measure column, so the column-type dispatch
                // runs once per morsel instead of once per row. Per (bin,
                // measure) the update sequence stays exactly row order.
                let nmeasures = self.nmeasures;
                let slots = &self.slots;
                // A flat measure-update pass: walk the `$live` rows and
                // fold `get(i)` into the row's bin accumulator.
                macro_rules! measure_pass {
                    ($m:expr, $live:expr, $get:expr) => {{
                        let get = $get;
                        for_each_pos(&$live, |i| {
                            measures[slots[i] as usize * nmeasures + $m].update(get(i))
                        });
                    }};
                }
                for (mi, slot) in bound.measures.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let src = m.src(*slot);
                    let live = src.mask.map_or(live, |mk| and(&live, mk));
                    match src.vals {
                        Flat::F64(d) => measure_pass!(mi, live, |i: usize| d[i]),
                        Flat::I64(d) => measure_pass!(mi, live, |i: usize| d[i] as f64),
                        Flat::Codes(d) => measure_pass!(mi, live, |i: usize| f64::from(d[i])),
                    }
                }
            }
            Store::Sparse { index, accs, .. } => {
                sparse_keys(&bound.dims, &m, &mut self.k0, &mut self.k1, &mut valid);
                let two_d = bound.dims.len() == 2;
                let nmeasures = self.nmeasures;
                let srcs: Vec<Option<Src<'_>>> =
                    bound.measures.iter().map(|s| s.map(|s| m.src(s))).collect();
                // Consecutive rows often land in the same bin; memoize the
                // last slot to skip the hash probe.
                let mut last: Option<((i64, i64), u32)> = None;
                for_each_pos(&and(&fmask, &valid), |i| {
                    let key = (self.k0[i], if two_d { self.k1[i] } else { 0 });
                    let slot = match last {
                        Some((k, s)) if k == key => s,
                        _ => {
                            let s = *index.entry(key).or_insert_with(|| {
                                accs.push((
                                    key,
                                    BinAcc {
                                        count: 0,
                                        measures: vec![MeasureAcc::new(); nmeasures],
                                    },
                                ));
                                (accs.len() - 1) as u32
                            });
                            last = Some((key, s));
                            s
                        }
                    };
                    let acc = &mut accs[slot as usize].1;
                    acc.count += 1;
                    for (mi, src) in srcs.iter().enumerate() {
                        if let Some(v) = src.and_then(|s| s.value(i)) {
                            acc.measures[mi].update(v);
                        }
                    }
                });
            }
        }
        matched
    }

    /// Materializes into the canonical [`GroupedAcc`] representation, in
    /// O(populated bins).
    pub fn to_grouped(&self) -> GroupedAcc {
        let mut bins: FxHashMap<BinKey, BinAcc> = FxHashMap::default();
        match &self.store {
            Store::Dense {
                dims,
                counts,
                measures,
                touched,
            } => {
                let decode = |dim: &DenseDim, c: usize| match dim.bucket_lo {
                    None => BinCoord::Cat(c as u32),
                    Some(lo) => BinCoord::Bucket(lo + c as i64),
                };
                for &slot in touched {
                    let slot = slot as usize;
                    let key = if dims.len() == 2 {
                        BinKey::d2(
                            decode(&dims[0], slot % dims[0].len),
                            decode(&dims[1], slot / dims[0].len),
                        )
                    } else {
                        BinKey::d1(decode(&dims[0], slot))
                    };
                    bins.insert(
                        key,
                        BinAcc {
                            count: counts[slot],
                            measures: measures[slot * self.nmeasures..][..self.nmeasures].to_vec(),
                        },
                    );
                }
            }
            Store::Sparse { kinds, accs, .. } => {
                for ((a, b), acc) in accs {
                    let coord = |kind: CoordKind, v: i64| match kind {
                        CoordKind::Cat => BinCoord::Cat(v as u32),
                        CoordKind::Bucket => BinCoord::Bucket(v),
                    };
                    let key = if kinds.len() == 2 {
                        BinKey::d2(coord(kinds[0], *a), coord(kinds[1], *b))
                    } else {
                        BinKey::d1(coord(kinds[0], *a))
                    };
                    bins.insert(key, acc.clone());
                }
            }
        }
        GroupedAcc::from_parts(self.aggs.clone(), bins, self.rows_seen, self.rows_matched)
    }

    /// Merges another accumulator for the same plan into this one.
    ///
    /// This is the partial-merge step of the morsel dispatcher: chunk
    /// partials are folded into the base accumulator *in chunk order*, so
    /// the floating-point merge sequence per bin is fixed by the chunk
    /// partition alone — never by worker count or scheduling.
    pub fn merge_from(&mut self, other: &BatchAcc) {
        debug_assert_eq!(self.aggs, other.aggs);
        self.rows_seen += other.rows_seen;
        self.rows_matched += other.rows_matched;
        match (&mut self.store, &other.store) {
            (
                Store::Dense {
                    counts,
                    measures,
                    touched,
                    ..
                },
                Store::Dense {
                    counts: ocounts,
                    measures: omeasures,
                    touched: otouched,
                    ..
                },
            ) => {
                for &slot in otouched {
                    let slot = slot as usize;
                    if counts[slot] == 0 {
                        touched.push(slot as u32);
                    }
                    counts[slot] += ocounts[slot];
                    for m in 0..self.nmeasures {
                        measures[slot * self.nmeasures + m]
                            .merge(&omeasures[slot * self.nmeasures + m]);
                    }
                }
            }
            (Store::Sparse { index, accs, .. }, Store::Sparse { accs: oaccs, .. }) => {
                for (key, oacc) in oaccs {
                    match index.get(key) {
                        Some(&slot) => {
                            let acc = &mut accs[slot as usize].1;
                            acc.count += oacc.count;
                            for (m, o) in acc.measures.iter_mut().zip(&oacc.measures) {
                                m.merge(o);
                            }
                        }
                        None => {
                            index.insert(*key, accs.len() as u32);
                            accs.push((*key, oacc.clone()));
                        }
                    }
                }
            }
            _ => unreachable!("partials of one plan share an accumulation mode"),
        }
    }

    /// Clears the accumulator for reuse (the dispatcher's partial pool),
    /// in O(populated bins) rather than O(bin space).
    pub fn reset(&mut self) {
        self.rows_seen = 0;
        self.rows_matched = 0;
        match &mut self.store {
            Store::Dense {
                counts,
                measures,
                touched,
                ..
            } => {
                for &slot in touched.iter() {
                    let slot = slot as usize;
                    counts[slot] = 0;
                    for m in 0..self.nmeasures {
                        measures[slot * self.nmeasures + m] = MeasureAcc::new();
                    }
                }
                touched.clear();
            }
            Store::Sparse { index, accs, .. } => {
                index.clear();
                accs.clear();
            }
        }
    }
}
