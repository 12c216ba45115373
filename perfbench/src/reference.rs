//! Reference answers from code paths the engine does not take: the
//! naive `verify` references, sequential core runs over rows the
//! benchmark projects and preference-folds itself, and a brute-force
//! incremental k-skyband for mutating data.

use std::collections::BTreeMap;

use skyline_data::{Dataset, Preference};

/// The preference vector aligned with `dims` for a mask over dataset
/// dimensions (bit `d` set: dimension `d` prefers larger values).
pub fn prefs_for(dims: &[usize], mask: u32) -> Vec<Preference> {
    dims.iter()
        .map(|&d| {
            if mask & (1 << d) != 0 {
                Preference::Max
            } else {
                Preference::Min
            }
        })
        .collect()
}

/// `data` projected onto `dims` with `Max` columns negated, so every
/// column minimises.
pub fn folded(data: &Dataset, dims: &[usize], mask: u32) -> Dataset {
    data.project(dims)
        .and_then(|p| p.with_preferences(&prefs_for(dims, mask)))
        .expect("dims are in range")
}

/// Row storage by stable id for data that mutates.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    rows: Vec<Option<Vec<f32>>>,
}

impl Rows {
    /// The live rows of `data`, ids `0..n`.
    pub fn from_dataset(data: &Dataset) -> Self {
        Self {
            rows: data.rows().map(|r| Some(r.to_vec())).collect(),
        }
    }

    /// Stores `row` under `id`.
    pub fn insert(&mut self, id: u32, row: &[f32]) {
        let i = id as usize;
        if self.rows.len() <= i {
            self.rows.resize(i + 1, None);
        }
        assert!(self.rows[i].is_none(), "id {id} inserted twice");
        self.rows[i] = Some(row.to_vec());
    }

    /// Removes `id`; it must be live.
    pub fn delete(&mut self, id: u32) {
        let slot = self.rows.get_mut(id as usize).and_then(Option::take);
        assert!(slot.is_some(), "id {id} deleted while not live");
    }

    /// The row of live `id`.
    pub fn get(&self, id: u32) -> &[f32] {
        self.rows[id as usize].as_deref().expect("id is live")
    }

    /// Live ids and rows, ascending by id.
    pub fn live(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_deref().map(|r| (i as u32, r)))
    }
}

/// Most dimensions a reference query may select.
const MAX_DIMS: usize = 8;

/// A row projected onto a query's dimensions and preference-folded.
type Folded = [f32; MAX_DIMS];

/// Whether `p` strictly dominates `q`, and whether `q` strictly
/// dominates `p`, over the first `d` folded coordinates: one pass.
fn relation(p: &Folded, q: &Folded, d: usize) -> (bool, bool) {
    let (mut le, mut ge, mut ne) = (true, true, false);
    for (a, b) in p[..d].iter().zip(&q[..d]) {
        le &= a <= b;
        ge &= a >= b;
        ne |= a != b;
    }
    (le && ne, ge && ne)
}

/// Projection and folding of full rows for one query.
#[derive(Debug, Clone)]
struct Fold {
    dims: Vec<usize>,
    mask: u32,
}

impl Fold {
    fn new(dims: &[usize], mask: u32) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "a reference query selects 1..={MAX_DIMS} dimensions"
        );
        Self {
            dims: dims.to_vec(),
            mask,
        }
    }

    fn apply(&self, row: &[f32]) -> Folded {
        let mut f = [0.0; MAX_DIMS];
        for (slot, &d) in f.iter_mut().zip(&self.dims) {
            // `+ 0.0` turns a negated zero into zero, so sort order
            // and equality agree.
            *slot = if self.mask & (1 << d) != 0 {
                -row[d] + 0.0
            } else {
                row[d]
            };
        }
        f
    }
}

/// A k-skyband kept exact under inserts and deletes by brute-force
/// dominance tests: every member with its exact dominator count.
///
/// Every dominator of a band member is itself a member (a non-member
/// has at least `k` dominators, which all dominate what it dominates),
/// so counts taken over the members alone are exact, and deleting a
/// non-member changes nothing.
#[derive(Debug, Clone)]
pub struct BandRef {
    fold: Fold,
    k: u32,
    members: BTreeMap<u32, u32>,
    /// Folded rows of the members, by id.
    points: BTreeMap<u32, Folded>,
}

impl BandRef {
    /// The k-skyband of the live `rows` on `dims` under `mask`.
    pub fn build(rows: &Rows, dims: &[usize], mask: u32, k: u32) -> Self {
        let mut band = Self {
            fold: Fold::new(dims, mask),
            k,
            members: BTreeMap::new(),
            points: BTreeMap::new(),
        };
        let mut order: Vec<(Folded, u32)> = rows
            .live()
            .map(|(id, r)| (band.fold.apply(r), id))
            .collect();
        band.sort_dominators_first(&mut order);
        // In this order no row dominates an earlier one, so a row only
        // needs its own count, and the scan can stop at k.
        let d = band.d();
        for (p, id) in order {
            let count = band
                .points
                .values()
                .filter(|m| relation(m, &p, d).0)
                .take(k as usize)
                .count() as u32;
            if count < k {
                band.members.insert(id, count);
                band.points.insert(id, p);
            }
        }
        band
    }

    fn d(&self) -> usize {
        self.fold.dims.len()
    }

    /// Orders rows so that a dominator always precedes what it
    /// dominates: by folded coordinate sum, then lexicographically.
    fn sort_dominators_first(&self, rows: &mut [(Folded, u32)]) {
        let d = self.d();
        rows.sort_by(|(a, i), (b, j)| {
            let sa: f32 = a[..d].iter().sum();
            let sb: f32 = b[..d].iter().sum();
            std::iter::once(sa.total_cmp(&sb))
                .chain(a[..d].iter().zip(&b[..d]).map(|(x, y)| x.total_cmp(y)))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(i.cmp(j))
        });
    }

    fn add(&mut self, id: u32, p: Folded) {
        let d = self.d();
        let mut count = 0;
        let mut dominated = Vec::new();
        for (&m, q) in &self.points {
            match relation(&p, q, d) {
                (true, _) => dominated.push(m),
                (_, true) => count += 1,
                _ => {}
            }
        }
        for m in dominated {
            let c = self.members.get_mut(&m).expect("member");
            *c += 1;
            if *c >= self.k {
                self.members.remove(&m);
                self.points.remove(&m);
            }
        }
        if count < self.k {
            self.members.insert(id, count);
            self.points.insert(id, p);
        }
    }

    /// Accounts for live row `id` having been added to `rows`.
    pub fn insert(&mut self, rows: &Rows, id: u32) {
        let p = self.fold.apply(rows.get(id));
        self.add(id, p);
    }

    /// Accounts for `id` (row `row`) having been removed from `rows`.
    pub fn delete(&mut self, rows: &Rows, id: u32, row: &[f32]) {
        if self.members.remove(&id).is_none() {
            return;
        }
        self.points.remove(&id);
        let d = self.d();
        let gone = self.fold.apply(row);
        for (m, q) in &self.points {
            if relation(&gone, q, d).0 {
                *self.members.get_mut(m).expect("member") -= 1;
            }
        }
        // Rows only the deleted member held out of the band may enter.
        let mut candidates: Vec<(Folded, u32)> = rows
            .live()
            .filter(|(q, _)| !self.members.contains_key(q))
            .map(|(q, r)| (self.fold.apply(r), q))
            .filter(|(p, _)| relation(&gone, p, d).0)
            .collect();
        self.sort_dominators_first(&mut candidates);
        for (p, q) in candidates {
            let count = self
                .points
                .values()
                .filter(|m| relation(m, &p, d).0)
                .count() as u32;
            if count < self.k {
                self.members.insert(q, count);
                self.points.insert(q, p);
            }
        }
    }

    /// Members ascending by id, with their dominator counts.
    pub fn members(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.members.iter().map(|(&i, &c)| (i, c))
    }

    /// Whether an engine answer (ascending ids, and counts for a
    /// skyband) equals the band.
    pub fn matches(&self, ids: &[u32], counts: Option<&[u32]>) -> bool {
        ids.len() == self.members.len()
            && self.members.keys().zip(ids).all(|(a, b)| a == b)
            && counts.is_none_or(|c| {
                c.len() == ids.len() && self.members.values().zip(c).all(|(a, b)| a == b)
            })
    }
}

/// The top-k dominating rows of the live `rows` on `dims` under
/// `mask`: each scored by how many rows it strictly dominates, ordered
/// by score descending then id ascending, as `(id, score)`. One
/// brute-force pass over every pair.
pub fn top_k_dominating(rows: &Rows, dims: &[usize], mask: u32, k: u32) -> Vec<(u32, u32)> {
    let fold = Fold::new(dims, mask);
    let live: Vec<(u32, Folded)> = rows.live().map(|(id, r)| (id, fold.apply(r))).collect();
    let d = dims.len();
    let mut score = vec![0u32; live.len()];
    for i in 0..live.len() {
        for j in i + 1..live.len() {
            match relation(&live[i].1, &live[j].1, d) {
                (true, _) => score[i] += 1,
                (_, true) => score[j] += 1,
                _ => {}
            }
        }
    }
    let mut ranked: Vec<(u32, u32)> = live.iter().map(|(id, _)| *id).zip(score).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k as usize);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyline_core::verify::{naive_skyband_on_pref, naive_top_k_dominating};
    use skyline_data::Rng;

    fn random_rows(rng: &mut Rng, n: usize, d: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| (0..d).map(|_| (rng.next_below(8) as f32) / 8.0).collect())
            .collect()
    }

    #[test]
    fn band_stays_equal_to_naive_under_mutation() {
        let mut rng = Rng::seed_from(11);
        for (dims, mask, k) in [
            (vec![0, 1], 0u32, 1u32),
            (vec![0, 2, 3], 0b100, 3),
            (vec![1, 3], 0b1010, 2),
        ] {
            let base = random_rows(&mut rng, 120, 4);
            let data = Dataset::from_rows(&base).expect("rows");
            let mut rows = Rows::from_dataset(&data);
            let mut band = BandRef::build(&rows, &dims, mask, k);
            let mut next = base.len() as u32;
            for step in 0..200 {
                if step % 3 == 0 {
                    let live: Vec<u32> = rows.live().map(|(i, _)| i).collect();
                    let id = live[rng.next_below(live.len())];
                    let row = rows.get(id).to_vec();
                    rows.delete(id);
                    band.delete(&rows, id, &row);
                } else {
                    let row = random_rows(&mut rng, 1, 4).remove(0);
                    rows.insert(next, &row);
                    band.insert(&rows, next);
                    next += 1;
                }
                let (ids, live_rows): (Vec<u32>, Vec<Vec<f32>>) =
                    rows.live().map(|(i, r)| (i, r.to_vec())).unzip();
                let snapshot = Dataset::from_rows(&live_rows).expect("rows");
                let want: Vec<(u32, u32)> = naive_skyband_on_pref(&snapshot, &dims, mask, k)
                    .into_iter()
                    .map(|(i, c)| (ids[i as usize], c))
                    .collect();
                assert_eq!(band.members().collect::<Vec<_>>(), want, "step {step}");
                let (got_ids, got_counts): (Vec<u32>, Vec<u32>) = want.iter().copied().unzip();
                assert!(band.matches(&got_ids, Some(&got_counts)));
            }
        }
    }

    #[test]
    fn top_k_dominating_equals_naive() {
        let mut rng = Rng::seed_from(5);
        let base = random_rows(&mut rng, 150, 4);
        let data = Dataset::from_rows(&base).expect("rows");
        let rows = Rows::from_dataset(&data);
        for (dims, mask, k) in [(vec![0, 1], 0u32, 8u32), (vec![1, 2, 3], 0b100, 5)] {
            assert_eq!(
                top_k_dominating(&rows, &dims, mask, k),
                naive_top_k_dominating(&data, &dims, mask, k)
            );
        }
    }
}
