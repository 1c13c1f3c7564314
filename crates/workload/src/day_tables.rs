//! The lifecycle-weighted sampling tables of one simulated day, built
//! once per day, in place, one day ahead.
//!
//! Every day [`crate::Dynamics`] samples acquisitions from cumulative
//! tables whose weights are each file's static weight times its
//! lifecycle multiplier on that day (DESIGN.md §4.4). Three facts keep
//! rebuilding them cheap:
//!
//! * the multiplier depends only on `(birth_day, day)`, so it is
//!   evaluated once per distinct birth day and looked up per file;
//! * the static weights (`attractiveness`, and `attractiveness ^
//!   interest_depth` for interest draws) never change, so they are
//!   computed once per generator run, laid out in each table's order;
//! * the tables (one flat buffer each, see `population::FileLists`) are
//!   refilled in place, each with the same products summed in the same
//!   order as a fresh build — so every cumulative value, and therefore
//!   every sampled file, is bit-identical.
//!
//! Day `d + 1`'s tables depend on the date alone, not on the RNG, so
//! [`DayTableBuilder::sample_day`] fills them on a scoped second thread
//! while day `d`'s draws run against day `d`'s tables.

use std::ops::Range;
use std::thread;

use crate::dynamics::lifecycle;
use crate::population::{Population, SampleTables};

/// Static per-entry inputs of one table, in the table's file order:
/// entry `k` is the static weight and birth-day slot of its `k`-th file.
struct Lane {
    weight: Vec<f64>,
    birth: Vec<u32>,
}

impl Lane {
    fn new(
        files: impl ExactSizeIterator<Item = u32> + Clone,
        weight: impl Fn(u32) -> f64,
        birth: impl Fn(u32) -> u32,
    ) -> Self {
        Lane {
            weight: files.clone().map(weight).collect(),
            birth: files.map(birth).collect(),
        }
    }

    /// Overwrites `cum` with the running sums of
    /// `weight × multiplier[birth]`, restarting at each segment.
    fn refill(
        &self,
        cum: &mut [f64],
        segments: impl Iterator<Item = Range<usize>>,
        multiplier: &[f64],
    ) {
        for range in segments {
            let entries = self.weight[range.clone()]
                .iter()
                .zip(&self.birth[range.clone()]);
            let mut acc = 0.0;
            for (c, (&w, &b)) in cum[range].iter_mut().zip(entries) {
                acc += w * multiplier[b as usize];
                *c = acc;
            }
        }
    }
}

/// The per-run static weights every day's tables are built from.
struct StaticWeights {
    /// Earliest birth day; birth slot `s` is day `first_birth + s`.
    first_birth: u32,
    /// Number of birth-day slots.
    slots: usize,
    /// `attractiveness ^ interest_depth`, topic-list order: interest
    /// draws keep their flattened within-topic profile while still
    /// following the day's lifecycle (new files surge inside their
    /// communities first).
    topic: Lane,
    /// `attractiveness`, country-list order.
    country: Lane,
    /// `attractiveness`, file order.
    global: Lane,
}

impl StaticWeights {
    fn new(pop: &Population) -> Self {
        let first_birth = pop.files.iter().map(|f| f.birth_day).min().unwrap_or(0);
        let last_birth = pop.files.iter().map(|f| f.birth_day).max().unwrap_or(0);
        let depth = pop.config.interest_depth;
        let attr = |f: u32| pop.files[f as usize].attractiveness;
        let slot = |f: u32| pop.files[f as usize].birth_day - first_birth;
        let topic_files = pop.topic_files.files.iter().copied();
        let country_files = pop.country_files.files.iter().copied();
        StaticWeights {
            first_birth,
            slots: (last_birth - first_birth) as usize + 1,
            topic: Lane::new(topic_files, |f| attr(f).powf(depth), slot),
            country: Lane::new(country_files, attr, slot),
            global: Lane::new(0..pop.files.len() as u32, attr, slot),
        }
    }
}

/// One day's cumulative tables, laid out like the population's static
/// tables and refilled in place.
struct DayTables {
    /// The day the tables currently hold, if any.
    day: Option<u32>,
    topic_cum: Vec<f64>,
    country_cum: Vec<f64>,
    global_cum: Vec<f64>,
    /// Lifecycle multiplier per birth-day slot.
    multiplier: Vec<f64>,
}

impl DayTables {
    fn new(pop: &Population, weights: &StaticWeights) -> Self {
        let n = pop.files.len();
        DayTables {
            day: None,
            topic_cum: vec![0.0; n],
            country_cum: vec![0.0; n],
            global_cum: vec![0.0; n],
            multiplier: vec![0.0; weights.slots],
        }
    }

    fn fill(&mut self, pop: &Population, weights: &StaticWeights, day: u32) {
        for (slot, m) in (0..).zip(&mut self.multiplier) {
            *m = lifecycle(&pop.config, weights.first_birth + slot, day);
        }
        let m = &self.multiplier;
        let topics = pop.topic_files.ranges();
        weights.topic.refill(&mut self.topic_cum, topics, m);
        let countries = pop.country_files.ranges();
        weights.country.refill(&mut self.country_cum, countries, m);
        let all = std::iter::once(0..pop.files.len());
        weights.global.refill(&mut self.global_cum, all, m);
        self.day = Some(day);
    }

    fn view<'a>(&'a self, pop: &'a Population) -> SampleTables<'a> {
        SampleTables {
            topic_files: &pop.topic_files,
            topic_cum: &self.topic_cum,
            country_files: &pop.country_files,
            country_cum: &self.country_cum,
            global_cum: &self.global_cum,
        }
    }
}

/// Builds each simulated day's lifecycle-weighted tables, one day ahead.
pub(crate) struct DayTableBuilder<'a> {
    pop: &'a Population,
    weights: StaticWeights,
    /// The tables of the day being sampled.
    today: DayTables,
    /// The tables of the following day, filled during today's draws.
    ahead: DayTables,
}

impl<'a> DayTableBuilder<'a> {
    pub(crate) fn new(pop: &'a Population) -> Self {
        let weights = StaticWeights::new(pop);
        DayTableBuilder {
            pop,
            today: DayTables::new(pop, &weights),
            ahead: DayTables::new(pop, &weights),
            weights,
        }
    }

    /// Runs `sample` against `day`'s tables while a scoped second thread
    /// fills `day + 1`'s.
    ///
    /// `day`'s tables come from the previous call's lookahead when it
    /// built them (every day after the first), and are filled
    /// synchronously otherwise.
    pub(crate) fn sample_day<R>(
        &mut self,
        day: u32,
        sample: impl FnOnce(&SampleTables<'_>) -> R,
    ) -> R {
        let pop = self.pop;
        if self.ahead.day == Some(day) {
            std::mem::swap(&mut self.today, &mut self.ahead);
        } else {
            self.today.fill(pop, &self.weights, day);
        }
        let (today, ahead, weights) = (&self.today, &mut self.ahead, &self.weights);
        thread::scope(|scope| {
            scope.spawn(|| ahead.fill(pop, weights, day + 1));
            sample(&today.view(pop))
        })
    }

    /// Drops the lookahead, so the next [`Self::sample_day`] takes the
    /// synchronous path.
    #[cfg(test)]
    pub(crate) fn forget_lookahead(&mut self) {
        self.ahead.day = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::dist::cumulative_from_weights;
    use crate::population::FileLists;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pop() -> Population {
        let mut c = WorkloadConfig::test_scale(17);
        c.peers = 200;
        c.files = 3_000;
        c.topics = 40;
        c.days = 10;
        Population::generate(c)
    }

    /// The tables a fresh, unmemoized build produces for `day`: every
    /// file's weight times its lifecycle multiplier, summed per list.
    fn reference(pop: &Population, day: u32) -> Vec<f64> {
        let depth = pop.config.interest_depth;
        let life = |f: u32| {
            let file = &pop.files[f as usize];
            lifecycle(&pop.config, file.birth_day, day)
        };
        let attr = |f: u32| pop.files[f as usize].attractiveness * life(f);
        let deep = |f: u32| pop.files[f as usize].attractiveness.powf(depth) * life(f);
        let table = |list: &[u32], weight: &dyn Fn(u32) -> f64| {
            cumulative_from_weights(&list.iter().map(|&f| weight(f)).collect::<Vec<_>>())
        };
        let lists = |lists: &FileLists, weight: &dyn Fn(u32) -> f64| {
            let tables = lists.ranges().map(|r| table(&lists.files[r], weight));
            tables.flatten().collect::<Vec<_>>()
        };
        let all: Vec<u32> = (0..pop.files.len() as u32).collect();
        let mut tables = lists(&pop.topic_files, &deep);
        tables.extend(lists(&pop.country_files, &attr));
        tables.extend(table(&all, &attr));
        tables
    }

    fn bits(tables: &DayTables) -> Vec<u64> {
        let all = tables.topic_cum.iter().chain(&tables.country_cum);
        all.chain(&tables.global_cum).map(|v| v.to_bits()).collect()
    }

    fn reference_bits(pop: &Population, day: u32) -> Vec<u64> {
        reference(pop, day).iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn refill_after_any_earlier_day_equals_a_fresh_build() {
        let pop = pop();
        let weights = StaticWeights::new(&pop);
        let start = pop.config.start_day;
        let days = [
            start - 200,
            start,
            start + 1,
            start + 4,
            start + 9,
            start + 60,
        ];
        for &day in &days {
            let mut fresh = DayTables::new(&pop, &weights);
            fresh.fill(&pop, &weights, day);
            assert_eq!(bits(&fresh), reference_bits(&pop, day), "fresh day {day}");
            for &earlier in &days {
                let mut reused = DayTables::new(&pop, &weights);
                reused.fill(&pop, &weights, earlier);
                reused.fill(&pop, &weights, day);
                assert_eq!(bits(&reused), bits(&fresh), "day {day} after {earlier}");
            }
        }
    }

    #[test]
    fn lookahead_tables_equal_a_fresh_build() {
        let pop = pop();
        let mut builder = DayTableBuilder::new(&pop);
        let start = pop.config.start_day;
        for day in start..start + 4 {
            let today = builder.sample_day(day, |tables| tables.global_cum.to_vec());
            assert_eq!(builder.today.day, Some(day));
            assert_eq!(builder.ahead.day, Some(day + 1));
            assert_eq!(bits(&builder.today), reference_bits(&pop, day));
            assert_eq!(bits(&builder.ahead), reference_bits(&pop, day + 1));
            assert_eq!(today, builder.today.global_cum);
        }
    }

    #[test]
    fn day_tables_never_sample_unborn_files() {
        let pop = pop();
        let day = pop.config.start_day;
        let unborn = pop.files.iter().filter(|f| f.birth_day > day).count();
        assert!(unborn > 100, "the check needs files born after day {day}");
        let mut builder = DayTableBuilder::new(&pop);
        let mut rng = StdRng::seed_from_u64(11);
        builder.sample_day(day, |tables| {
            for peer in 0..pop.peers.len() {
                for _ in 0..20 {
                    let f = pop.sample_file(peer, tables, &mut rng);
                    let birth = pop.files[f as usize].birth_day;
                    assert!(birth <= day, "sampled file {f} born on {birth}");
                }
            }
        });
    }
}
