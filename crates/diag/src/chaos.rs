//! Seeded fault plans: the one draw engine behind every chaos layer.
//!
//! Each chaos layer (the device channel, crawled manuals, serving
//! clients, durable writes) names its failure classes as a
//! [`FaultClass`] enum and decides through a [`SeededPlan`] of it; what
//! a decision *does* stays in the layer.
//!
//! The draw contract: a plan owns one `StdRng` seeded from its seed.
//! Each decision draws, for every class in [`FaultClass::ALL`] order,
//! `rate > 0.0 && rng.gen_bool(rate)`, so a zero-rate class consumes no
//! draw. Draws continue after a hit and the first hit wins, so the
//! number of draws never depends on the outcome.
//! [`SeededPlan::decide_where`] adds what the crash layer needs: a
//! filter on which hits count, and a trailing draw made on every
//! decision, hit or miss. A run therefore replays bit-for-bit from its
//! seed, and every hit lands in a drainable, numbered log of
//! [`Injection`]s. Plans are armed from the environment with a
//! `seed:rate` spec ([`parse_spec`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::{Mutex, MutexGuard};

/// One family of injectable failures: a small enum whose
/// [`ALL`](FaultClass::ALL) lists its classes in draw order.
pub trait FaultClass: Copy + Eq + fmt::Display + 'static {
    /// Every class, in the order [`SeededPlan`] draws them.
    const ALL: &'static [Self];
}

/// One recorded injection: which class hit which target, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection<K> {
    /// Monotonic injection sequence number (0-based).
    pub seq: u64,
    pub kind: K,
    /// What the fault was injected on: a request line, a page URL, a
    /// script index or a file path.
    pub target: String,
    /// Byte offset the fault cut at, for classes that tear a write.
    pub offset: Option<usize>,
}

/// Renders as `seq:class:target`, plus `:offset` when there is one.
impl<K: fmt::Display> fmt::Display for Injection<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.seq, self.kind, self.target)?;
        match self.offset {
            Some(offset) => write!(f, ":{offset}"),
            None => Ok(()),
        }
    }
}

struct PlanState<K> {
    rng: StdRng,
    seq: u64,
    log: Vec<Injection<K>>,
}

/// A seeded, shareable fault plan over the classes of `K`.
///
/// Thread-safe: callers serialize their draws through an internal lock,
/// so a single caller sees a fully deterministic decision sequence per
/// seed.
pub struct SeededPlan<K: FaultClass> {
    seed: u64,
    /// One rate per class, parallel to [`FaultClass::ALL`].
    rates: Vec<f64>,
    state: Mutex<PlanState<K>>,
}

impl<K: FaultClass> SeededPlan<K> {
    fn with_rates(seed: u64, rates: Vec<f64>) -> SeededPlan<K> {
        SeededPlan {
            seed,
            rates,
            state: Mutex::new(PlanState {
                rng: StdRng::seed_from_u64(seed),
                seq: 0,
                log: Vec::new(),
            }),
        }
    }

    /// Every class at the same `rate` (in `[0, 1]`).
    pub fn uniform(seed: u64, rate: f64) -> SeededPlan<K> {
        SeededPlan::with_rates(seed, vec![rate; K::ALL.len()])
    }

    /// Only `kind`, at `rate`; every other class is off and draws nothing.
    pub fn only(seed: u64, kind: K, rate: f64) -> SeededPlan<K> {
        let rates = K::ALL
            .iter()
            .map(|&k| if k == kind { rate } else { 0.0 })
            .collect();
        SeededPlan::with_rates(seed, rates)
    }

    /// A uniform plan from the `seed:rate` spec in environment variable
    /// `var`. `None` when the variable is unset or does not parse.
    pub fn from_env(var: &str) -> Option<SeededPlan<K>> {
        let (seed, rate) = parse_spec(&std::env::var(var).ok()?)?;
        Some(SeededPlan::uniform(seed, rate))
    }

    /// The seed the plan's stream was started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn state(&self) -> MutexGuard<'_, PlanState<K>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Decide whether `target` gets a fault, and which class.
    pub fn decide(&self, target: impl fmt::Display) -> Option<K> {
        self.decide_where(target, |_| true, |_, _| None)
            .map(|injection| injection.kind)
    }

    /// [`decide`](SeededPlan::decide) where only classes that `applies`
    /// accepts can win, and `trailing` runs on the plan's RNG after the
    /// class draws of every decision, hit or miss. It gets the winning
    /// class and returns the offset to record with it.
    pub fn decide_where(
        &self,
        target: impl fmt::Display,
        applies: impl Fn(K) -> bool,
        trailing: impl FnOnce(&mut StdRng, Option<K>) -> Option<usize>,
    ) -> Option<Injection<K>> {
        let mut state = self.state();
        let mut hit = None;
        for (&kind, &rate) in K::ALL.iter().zip(&self.rates) {
            let drawn = rate > 0.0 && state.rng.gen_bool(rate);
            if drawn && hit.is_none() && applies(kind) {
                hit = Some(kind);
            }
        }
        let offset = trailing(&mut state.rng, hit);
        let injection = Injection {
            seq: state.seq,
            kind: hit?,
            target: target.to_string(),
            offset,
        };
        state.seq += 1;
        state.log.push(injection.clone());
        Some(injection)
    }

    /// Drain the injection log (everything injected since the last
    /// drain, in injection order).
    pub fn take_injections(&self) -> Vec<Injection<K>> {
        std::mem::take(&mut self.state().log)
    }

    /// Injections so far, without draining.
    pub fn injection_count(&self) -> u64 {
        self.state().seq
    }
}

/// Parse a `seed:rate` spec, the format of every chaos knob. The rate
/// must lie in `[0, 1]`; surrounding whitespace is ignored.
pub fn parse_spec(value: &str) -> Option<(u64, f64)> {
    let (seed, rate) = value.split_once(':')?;
    let seed: u64 = seed.trim().parse().ok()?;
    let rate: f64 = rate.trim().parse().ok()?;
    if !(0.0..=1.0).contains(&rate) {
        return None;
    }
    Some((seed, rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Class {
        A,
        B,
        C,
    }

    impl FaultClass for Class {
        const ALL: &'static [Class] = &[Class::A, Class::B, Class::C];
    }

    impl fmt::Display for Class {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{self:?}")
        }
    }

    fn run(plan: &SeededPlan<Class>, n: usize) -> Vec<Option<Class>> {
        (0..n).map(|i| plan.decide(format!("t{i}"))).collect()
    }

    #[test]
    fn same_seed_same_decisions_and_every_class_fires() {
        let a = run(&SeededPlan::uniform(42, 0.25), 400);
        assert_eq!(a, run(&SeededPlan::uniform(42, 0.25), 400));
        assert_ne!(a, run(&SeededPlan::uniform(43, 0.25), 400));
        let seen: HashSet<Class> = a.into_iter().flatten().collect();
        assert_eq!(seen.len(), Class::ALL.len(), "saw only {seen:?}");
    }

    #[test]
    fn zero_rate_classes_never_hit_and_consume_no_draw() {
        let off = SeededPlan::<Class>::uniform(1, 0.0);
        assert!(run(&off, 200).iter().all(Option::is_none));
        assert_eq!(off.injection_count(), 0);
        // With A and B off, C's draws are the stream's only draws.
        let plan = SeededPlan::only(9, Class::C, 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..100 {
            assert_eq!(plan.decide(i), rng.gen_bool(0.5).then_some(Class::C));
        }
    }

    #[test]
    fn first_hit_wins_and_draws_continue() {
        // At rate 1.0 A wins, yet B and C still draw: the trailing draw
        // sees the RNG three draws in.
        let mut rng = StdRng::seed_from_u64(5);
        (0..3).for_each(|_| assert!(rng.gen_bool(1.0)));
        let expected: f64 = rng.gen_range(0.0..1.0);
        let mut seen = None;
        let hit = SeededPlan::<Class>::uniform(5, 1.0).decide_where(
            "x",
            |_| true,
            |rng, _| {
                seen = Some(rng.gen_range(0.0..1.0));
                None
            },
        );
        assert_eq!(
            (hit.map(|i| i.kind), seen),
            (Some(Class::A), Some(expected))
        );
        let only_b = SeededPlan::only(5, Class::B, 1.0);
        assert!(run(&only_b, 20).iter().all(|d| *d == Some(Class::B)));
    }

    #[test]
    fn filtered_hits_fall_through_and_trailing_draws_on_a_miss() {
        // A and B always hit, C never draws.
        let plan = SeededPlan::<Class>::with_rates(1, vec![1.0, 1.0, 0.0]);
        let mut trailed = false;
        let miss = plan.decide_where(
            "x",
            |k| k == Class::C,
            |_, hit| {
                trailed = hit.is_none();
                Some(3)
            },
        );
        assert_eq!(miss, None);
        assert!(trailed);
        // B wins over the filtered-out A and keeps the trailing offset.
        let hit = plan.decide_where("y", |k| k != Class::A, |_, _| Some(3));
        assert_eq!(hit.unwrap().to_string(), "0:B:y:3");
    }

    #[test]
    fn log_records_every_injection_in_order() {
        let plan = SeededPlan::<Class>::uniform(7, 0.5);
        let hits = run(&plan, 50).iter().flatten().count() as u64;
        let log = plan.take_injections();
        assert_eq!(log.len() as u64, hits);
        for (i, injection) in log.iter().enumerate() {
            assert_eq!(injection.seq, i as u64);
            assert!(injection.target.starts_with('t'));
        }
        // Drained: a second take is empty, but the counter persists.
        assert!(plan.take_injections().is_empty());
        assert_eq!(plan.injection_count(), hits);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(parse_spec("7:0.2"), Some((7, 0.2)));
        assert_eq!(parse_spec(" 11 : 1.0 "), Some((11, 1.0)));
        for bad in ["7", "x:0.2", "7:1.5", "7:-0.1", "nope"] {
            assert_eq!(parse_spec(bad), None, "{bad}");
        }
    }
}
