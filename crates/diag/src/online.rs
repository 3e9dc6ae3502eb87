//! Online path localization: fold one observed record at a time.
//!
//! The batch DP in [`localize`](crate::localize) recomputes the whole
//! `(product state × observation position)` table for every new
//! observation — diagnosing a growing trace of `N` records this way costs
//! `O(N² · edges)`. [`OnlineLocalizer`] keeps only the *frontier* of that
//! table — one dense column of path mass per product state — and advances
//! it by one column per record while staying bit-identical to
//! [`consistent_paths`] on every prefix of the observation.
//!
//! One cost rule holds in every mode: a push is one `O(states + edges)`
//! sweep while the frontier is live (Substring adds a bounded recompute,
//! below) and `O(1)` once it is empty. Every mode's sweep maps an all-zero
//! column to an all-zero column with a count of 0, so a dead push only
//! counts the record until [`resync`](OnlineLocalizer::resync) or
//! [`restore`](OnlineLocalizer::restore) revives the column. Liveness is
//! recomputed wherever the column is written (sweep, seed, restore), so a
//! checkpoint stays one column plus counters.
//!
//! How each [`MatchMode`] is incrementalized:
//!
//! * **Exact** — the column is *start-anchored*: `F[s]` counts walks from
//!   an initial state to `s` whose projection onto the selected set is
//!   exactly the observation so far. Appending observation `o` rebuilds
//!   the column in one topological sweep: selected edges matching `o`
//!   consume the previous column, unselected edges propagate within the
//!   new one. The count is the column mass over stop states.
//! * **Prefix** — same column; the count decomposes each matching path at
//!   the edge consuming the newest observation, weighting the selected
//!   inflow of every state by the precomputed unrestricted path count from
//!   that state to a stop state.
//! * **Suffix** — the column is *end-anchored*: `E[s]` counts walks from
//!   an initial state to `s` whose projection **ends with** the
//!   observation so far. It is seeded with the unrestricted walk counts
//!   (every projection ends with the empty observation) and advances with
//!   the same sweep; appending to the observation extends the matched
//!   suffix at the walk's end, so no previously folded record is ever
//!   revisited. The count is again the mass over stop states.
//! * **Substring** — counting *paths* (not occurrences) that contain the
//!   observation needs leftmost-occurrence disambiguation, which no fixed
//!   per-state frontier survives when the pattern grows. The localizer
//!   instead re-runs the batch automaton DP on the stored observation
//!   while the frontier is live; the useful length of that observation is
//!   bounded by the longest projection any path can produce — a property
//!   of the flow, not of the trace. The end-anchored column is maintained
//!   as the live occurrence frontier, and it decides liveness: no path
//!   contains an observation that no walk ends with. Once it empties, the
//!   observation stops growing and pushes are `O(1)` like in every other
//!   mode.
//!
//! Counts use the same saturating `u128` arithmetic as the batch DP;
//! prefix equality is exact whenever no intermediate count saturates
//! (astronomically far away for every modeled flow).
//!
//! # Checkpoint and resync
//!
//! On hostile silicon the observation itself can be corrupted: a damage
//! burst (dropped buffer region, storm of flipped bits) can push records
//! that no execution produces, after which the frontier is empty and —
//! because every mode is monotone — stays empty forever, even though the
//! post-burst stream is perfectly good. Two escape hatches exist for
//! that:
//!
//! * [`OnlineLocalizer::checkpoint`] / [`OnlineLocalizer::restore`]
//!   snapshot and reinstate the full DP state, so a consumer can roll
//!   back to the last known-good chunk boundary;
//! * [`OnlineLocalizer::resync`] abandons the poisoned observation
//!   entirely: the DP re-seeds as if the stream restarted, the
//!   localization collapses to "unknown since record N" (reported via
//!   [`OnlineLocalizer::unknown_since`]) and subsequent pushes narrow it
//!   again. Counts after a resync are relative to the post-resync
//!   observation — a designed degradation, visible in the report, instead
//!   of a permanently dead frontier.

use pstrace_flow::{path_count, topological_order, IndexedMessage, InterleavedFlow, MessageId};
use pstrace_obs::Registry;

use crate::localize::{consistent_paths, Localization, MatchMode};

/// One dense DP column: path mass per product state, in state-index
/// order. This is the object [`OnlineLocalizer`] advances per record;
/// it is exposed so live consumers (dashboards, the stream daemon) can
/// watch the localization narrow without reading the counts alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    values: Vec<u128>,
}

impl Frontier {
    /// The per-state mass, indexed by dense product-state index.
    #[must_use]
    pub fn values(&self) -> &[u128] {
        &self.values
    }

    /// Number of states carrying nonzero mass — the "width" of the
    /// frontier. A shrinking support is the live signature of an
    /// observation pinning down the execution.
    #[must_use]
    pub fn support(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0).count()
    }

    /// Total mass across all states (saturating).
    #[must_use]
    pub fn mass(&self) -> u128 {
        self.values.iter().fold(0u128, |a, &v| a.saturating_add(v))
    }
}

/// Incoming-edge program of one product state, pre-resolved at
/// construction so a push never touches the flow again.
#[derive(Debug, Clone, Default)]
struct Inflow {
    /// Sources of unselected incoming edges (propagate within a column).
    unselected: Vec<u32>,
    /// `(label, source)` of selected incoming edges (consume the
    /// previous column when the label matches the pushed observation).
    selected: Vec<(IndexedMessage, u32)>,
}

/// Streaming counterpart of [`localize`](crate::localize): construct it
/// with the interleaving, the selected message set and a [`MatchMode`],
/// then [`push`](OnlineLocalizer::push) each observed record as it
/// arrives. After `N` pushes, [`consistent`](OnlineLocalizer::consistent)
/// equals `consistent_paths(flow, &observed[..N], selected, mode)`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pstrace_flow::{examples::cache_coherence, instantiate, FlowIndex, IndexedMessage, InterleavedFlow};
/// use pstrace_diag::{consistent_paths, MatchMode, OnlineLocalizer};
///
/// # fn main() -> Result<(), pstrace_flow::FlowError> {
/// let (flow, catalog) = cache_coherence();
/// let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2))?;
/// let req = catalog.get("ReqE").unwrap();
/// let gnt = catalog.get("GntE").unwrap();
/// let selected = [req, gnt];
/// let observed = [
///     IndexedMessage::new(req, FlowIndex(1)),
///     IndexedMessage::new(gnt, FlowIndex(1)),
///     IndexedMessage::new(req, FlowIndex(2)),
/// ];
/// let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
/// for (n, &m) in observed.iter().enumerate() {
///     online.push(m);
///     assert_eq!(
///         online.consistent(),
///         consistent_paths(&u, &observed[..=n], &selected, MatchMode::Prefix),
///     );
/// }
/// assert_eq!(online.consistent(), 1); // pinned down from 6 interleavings
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OnlineLocalizer {
    mode: MatchMode,
    /// Forward topological order of the product states.
    topo: Vec<u32>,
    /// Per-state incoming-edge program (indexed by state).
    inflow: Vec<Inflow>,
    /// Initial-state indicator per state.
    is_initial: Vec<bool>,
    /// Stop states (dense indices).
    stops: Vec<u32>,
    /// Unrestricted path count from each state to a stop state
    /// (the Prefix-mode continuation weights).
    to_stop: Vec<u128>,
    /// The live DP column.
    column: Frontier,
    /// Scratch buffer for the next column (kept to avoid reallocation).
    scratch: Vec<u128>,
    /// Whether the column carries any mass; a push while dead is `O(1)`.
    live: bool,
    consistent: u128,
    total: u128,
    pushed: usize,
    /// Substring mode keeps the observation and a flow clone for the
    /// bounded batch recompute; empty/`None` in the other modes.
    observed: Vec<IndexedMessage>,
    selected: Vec<MessageId>,
    flow: Option<Box<InterleavedFlow>>,
    /// Times [`resync`](OnlineLocalizer::resync) was called.
    resyncs: usize,
    /// Records pushed before the most recent resync, when any.
    unknown_since: Option<usize>,
}

/// A snapshot of an [`OnlineLocalizer`]'s mutable DP state, produced by
/// [`OnlineLocalizer::checkpoint`] and reinstated by
/// [`OnlineLocalizer::restore`]. The immutable graph program (topological
/// order, inflow lists, continuation counts) is *not* duplicated — a
/// checkpoint is one dense column plus counters, cheap enough to take at
/// every chunk boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalizerCheckpoint {
    column: Vec<u128>,
    consistent: u128,
    pushed: usize,
    observed: Vec<IndexedMessage>,
    resyncs: usize,
    unknown_since: Option<usize>,
}

impl OnlineLocalizer {
    /// Builds the localizer for `flow` under the selected message set and
    /// match mode. Construction runs two `O(states + edges)` sweeps; no
    /// reference to `flow` is kept except in [`MatchMode::Substring`]
    /// (which clones it for its bounded recompute).
    #[must_use]
    pub fn new(flow: &InterleavedFlow, selected: &[MessageId], mode: MatchMode) -> Self {
        let n = flow.state_count();
        let topo: Vec<u32> = topological_order(flow)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        let mut inflow = vec![Inflow::default(); n];
        for s in flow.states() {
            let inf = &mut inflow[s.index()];
            for e in flow.edges_into(s) {
                if selected.contains(&e.message.message) {
                    inf.selected.push((e.message, e.from.index() as u32));
                } else {
                    inf.unselected.push(e.from.index() as u32);
                }
            }
        }
        let mut is_initial = vec![false; n];
        for &s in flow.initial_states() {
            is_initial[s.index()] = true;
        }
        let stops: Vec<u32> = flow
            .stop_states()
            .iter()
            .map(|s| s.index() as u32)
            .collect();
        let mut is_stop = vec![false; n];
        for &s in &stops {
            is_stop[s as usize] = true;
        }

        // Unrestricted continuation counts: paths from s to a stop state.
        let mut to_stop = vec![0u128; n];
        for &u in topo.iter().rev() {
            let mut acc = u128::from(is_stop[u as usize]);
            let state = flow.state_at(u as usize);
            for e in flow.edges_from(state) {
                acc = acc.saturating_add(to_stop[e.to.index()]);
            }
            to_stop[u as usize] = acc;
        }

        let total = path_count(flow);
        let mut this = OnlineLocalizer {
            mode,
            topo,
            inflow,
            is_initial,
            stops,
            to_stop,
            column: Frontier { values: vec![0; n] },
            scratch: vec![0; n],
            live: false,
            consistent: 0,
            total,
            pushed: 0,
            observed: Vec::new(),
            selected: selected.to_vec(),
            flow: (mode == MatchMode::Substring).then(|| Box::new(flow.clone())),
            resyncs: 0,
            unknown_since: None,
        };
        this.seed();
        this
    }

    /// Seeds the column and count for the empty observation.
    fn seed(&mut self) {
        match self.mode {
            // Start-anchored: walks whose projection is exactly empty —
            // initial states closed over unselected edges only.
            MatchMode::Exact | MatchMode::Prefix => {
                for &u in &self.topo {
                    let s = u as usize;
                    let mut acc = u128::from(self.is_initial[s]);
                    for &src in &self.inflow[s].unselected {
                        acc = acc.saturating_add(self.column.values[src as usize]);
                    }
                    self.column.values[s] = acc;
                }
            }
            // End-anchored: every projection ends with the empty
            // observation — unrestricted walk counts from the roots.
            MatchMode::Suffix | MatchMode::Substring => {
                for &u in &self.topo {
                    let s = u as usize;
                    let mut acc = u128::from(self.is_initial[s]);
                    for &src in &self.inflow[s].unselected {
                        acc = acc.saturating_add(self.column.values[src as usize]);
                    }
                    for &(_, src) in &self.inflow[s].selected {
                        acc = acc.saturating_add(self.column.values[src as usize]);
                    }
                    self.column.values[s] = acc;
                }
            }
        }
        self.live = self.column.support() != 0;
        self.consistent = match self.mode {
            MatchMode::Exact => self.stop_mass(),
            // Every path starts with / ends with / contains ε.
            MatchMode::Prefix | MatchMode::Suffix | MatchMode::Substring => self.total,
        };
    }

    /// Mass of the current column over the stop states.
    fn stop_mass(&self) -> u128 {
        self.stops.iter().fold(0u128, |a, &s| {
            a.saturating_add(self.column.values[s as usize])
        })
    }

    /// Advances the column by one observation in a single topological
    /// sweep. Returns the Prefix-mode decomposition sum: the selected
    /// inflow of each state weighted by its unrestricted continuation.
    fn advance(&mut self, m: IndexedMessage) -> u128 {
        let mut dot = 0u128;
        let mut any = 0u128;
        for &u in &self.topo {
            let s = u as usize;
            let mut matched = 0u128;
            for &(label, src) in &self.inflow[s].selected {
                if label == m {
                    matched = matched.saturating_add(self.column.values[src as usize]);
                }
            }
            dot = dot.saturating_add(matched.saturating_mul(self.to_stop[s]));
            let mut acc = matched;
            for &src in &self.inflow[s].unselected {
                acc = acc.saturating_add(self.scratch[src as usize]);
            }
            self.scratch[s] = acc;
            any |= acc;
        }
        std::mem::swap(&mut self.column.values, &mut self.scratch);
        self.live = any != 0;
        dot
    }

    /// Folds one observed record into the localization: one sweep while
    /// the frontier is live, `O(1)` once it is empty (see the module docs).
    pub fn push(&mut self, m: IndexedMessage) {
        self.pushed += 1;
        if !self.live {
            return;
        }
        let dot = self.advance(m);
        self.consistent = match self.mode {
            MatchMode::Exact | MatchMode::Suffix => self.stop_mass(),
            MatchMode::Prefix => dot,
            // No path contains an observation that no walk ends with.
            MatchMode::Substring if !self.live => 0,
            MatchMode::Substring => {
                self.observed.push(m);
                let flow = self.flow.as_ref().expect("substring mode keeps the flow");
                consistent_paths(flow, &self.observed, &self.selected, self.mode)
            }
        };
    }

    /// Folds a sequence of records in order.
    pub fn push_all<I: IntoIterator<Item = IndexedMessage>>(&mut self, records: I) {
        for m in records {
            self.push(m);
        }
    }

    /// Paths consistent with everything pushed so far — bit-identical to
    /// [`consistent_paths`] over the same prefix.
    #[must_use]
    pub fn consistent(&self) -> u128 {
        self.consistent
    }

    /// All root-to-stop paths of the interleaving.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.total
    }

    /// The current [`Localization`] (consistent / total).
    #[must_use]
    pub fn localization(&self) -> Localization {
        Localization {
            consistent: self.consistent,
            total: self.total,
        }
    }

    /// Records folded in so far.
    #[must_use]
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// The configured match mode.
    #[must_use]
    pub fn mode(&self) -> MatchMode {
        self.mode
    }

    /// The live DP column.
    #[must_use]
    pub fn frontier(&self) -> &Frontier {
        &self.column
    }

    /// Snapshots the mutable DP state (column, counts, stored
    /// observation). Restoring the checkpoint later rolls the localizer
    /// back to exactly this point; the immutable graph program is shared,
    /// so a checkpoint costs one column clone.
    #[must_use]
    pub fn checkpoint(&self) -> LocalizerCheckpoint {
        LocalizerCheckpoint {
            column: self.column.values.clone(),
            consistent: self.consistent,
            pushed: self.pushed,
            observed: self.observed.clone(),
            resyncs: self.resyncs,
            unknown_since: self.unknown_since,
        }
    }

    /// Rolls the localizer back to a state taken with
    /// [`checkpoint`](OnlineLocalizer::checkpoint) on this localizer (or
    /// one constructed with identical `(flow, selected, mode)`).
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint's column width disagrees with this
    /// localizer's state count — i.e. it was taken from a localizer over
    /// a different flow.
    pub fn restore(&mut self, checkpoint: &LocalizerCheckpoint) {
        assert_eq!(
            checkpoint.column.len(),
            self.column.values.len(),
            "checkpoint belongs to a different flow"
        );
        self.column.values.clone_from(&checkpoint.column);
        self.live = self.column.support() != 0;
        self.consistent = checkpoint.consistent;
        self.pushed = checkpoint.pushed;
        self.observed.clone_from(&checkpoint.observed);
        self.resyncs = checkpoint.resyncs;
        self.unknown_since = checkpoint.unknown_since;
    }

    /// Abandons the observation folded in so far and re-seeds the DP as
    /// if the stream restarted here: the count collapses back to the
    /// empty-observation value ("unknown since record
    /// [`unknown_since`](OnlineLocalizer::unknown_since)") and subsequent
    /// pushes narrow it again — relative to the post-resync observation
    /// only. This is the designed degradation path for damage bursts
    /// that would otherwise leave the monotone frontier empty forever.
    ///
    /// [`pushed`](OnlineLocalizer::pushed) keeps counting across resyncs.
    pub fn resync(&mut self) {
        self.column.values.iter_mut().for_each(|v| *v = 0);
        self.observed.clear();
        self.seed();
        self.resyncs += 1;
        self.unknown_since = Some(self.pushed);
    }

    /// Times [`resync`](OnlineLocalizer::resync) was called.
    #[must_use]
    pub fn resyncs(&self) -> usize {
        self.resyncs
    }

    /// Records pushed before the most recent resync: the point since
    /// which the pre-gap execution is unknown. `None` while no resync
    /// has happened.
    #[must_use]
    pub fn unknown_since(&self) -> Option<usize> {
        self.unknown_since
    }

    /// Publishes the localizer's live state into `obs` as gauges:
    /// `pstrace_localizer_frontier_support` (states with nonzero mass),
    /// `pstrace_localizer_consistent_paths` and
    /// `pstrace_localizer_records_pushed` (counts saturate at `i64::MAX`).
    /// Stream sessions call this after each chunk so dashboards can watch
    /// the localization narrow.
    pub fn record_frontier(&self, obs: &Registry) {
        let clamp = |v: u128| i64::try_from(v).unwrap_or(i64::MAX);
        obs.gauge("pstrace_localizer_frontier_support")
            .set(i64::try_from(self.column.support()).unwrap_or(i64::MAX));
        obs.gauge("pstrace_localizer_consistent_paths")
            .set(clamp(self.consistent));
        obs.gauge("pstrace_localizer_records_pushed")
            .set(i64::try_from(self.pushed).unwrap_or(i64::MAX));
        obs.gauge("pstrace_localizer_resyncs")
            .set(i64::try_from(self.resyncs).unwrap_or(i64::MAX));
    }

    /// Zeroes the gauges [`OnlineLocalizer::record_frontier`] publishes.
    /// A session that ended has no live frontier; leaving its last state
    /// behind would read as current — and, summed across a sharded
    /// daemon's per-shard registries, would fabricate load that is not
    /// there.
    pub fn clear_frontier(obs: &Registry) {
        for name in [
            "pstrace_localizer_frontier_support",
            "pstrace_localizer_consistent_paths",
            "pstrace_localizer_records_pushed",
            "pstrace_localizer_resyncs",
        ] {
            obs.gauge(name).set(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pstrace_flow::{
        examples::{cache_coherence, diamond},
        executions, instantiate, FlowIndex,
    };
    use std::sync::Arc;

    fn product(instances: u32) -> InterleavedFlow {
        let (flow, _) = cache_coherence();
        InterleavedFlow::build(&instantiate(&Arc::new(flow), instances)).unwrap()
    }

    const MODES: [MatchMode; 4] = [
        MatchMode::Exact,
        MatchMode::Prefix,
        MatchMode::Suffix,
        MatchMode::Substring,
    ];

    #[test]
    fn empty_observation_matches_batch_in_every_mode() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for mode in MODES {
            let online = OnlineLocalizer::new(&u, &selected, mode);
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &[], &selected, mode),
                "{mode:?}"
            );
            assert_eq!(online.total(), path_count(&u));
            assert_eq!(online.pushed(), 0);
        }
    }

    #[test]
    fn record_frontier_publishes_live_gauges() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().expect("the product has executions");
        let observed = exec.project(&selected);
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Exact);
        let obs = Registry::new();
        online.record_frontier(&obs);
        assert_eq!(obs.gauge("pstrace_localizer_records_pushed").get(), 0);
        assert!(obs.gauge("pstrace_localizer_frontier_support").get() > 0);
        online.push_all(observed.iter().copied());
        online.record_frontier(&obs);
        assert_eq!(
            obs.gauge("pstrace_localizer_records_pushed").get(),
            observed.len() as i64
        );
        assert_eq!(
            obs.gauge("pstrace_localizer_consistent_paths").get() as u128,
            online.consistent()
        );
        assert_eq!(
            obs.gauge("pstrace_localizer_frontier_support").get() as usize,
            online.frontier().support()
        );
    }

    #[test]
    fn every_prefix_of_every_execution_matches_batch() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for exec in executions(&u) {
            let observed = exec.project(&selected);
            for mode in MODES {
                let mut online = OnlineLocalizer::new(&u, &selected, mode);
                for (n, &m) in observed.iter().enumerate() {
                    online.push(m);
                    let batch = consistent_paths(&u, &observed[..=n], &selected, mode);
                    assert_eq!(online.consistent(), batch, "{mode:?} after {}", n + 1);
                    assert_eq!(online.pushed(), n + 1);
                }
            }
        }
    }

    #[test]
    fn branching_flows_match_batch_on_random_noise() {
        // Observations that are NOT projections of any execution (noise,
        // duplicates, unselected messages) must also track batch exactly.
        let (flow, _catalog) = diamond();
        let u = InterleavedFlow::build(&instantiate(&Arc::new(flow), 2)).unwrap();
        let alphabet = u.message_alphabet();
        let selected = &alphabet[..alphabet.len() / 2];
        let ims = u.indexed_messages();
        // A deterministic pseudo-random walk over the indexed alphabet.
        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<IndexedMessage> = (0..12)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                ims[(x >> 33) as usize % ims.len()]
            })
            .collect();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, selected, mode);
            for (n, &m) in noise.iter().enumerate() {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &noise[..=n], selected, mode),
                    "{mode:?} after {}",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn unselected_observation_kills_the_count() {
        let u = product(2);
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let ack = catalog.get("Ack").unwrap();
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &[req], mode);
            // `Ack` is not selected: no projection can ever contain it.
            online.push(IndexedMessage::new(ack, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?}");
            online.push(IndexedMessage::new(req, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?} stays dead");
        }
    }

    #[test]
    fn frontier_tracks_walks_consistent_with_the_observation() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
        // Empty observation, start-anchored: only the unselected closure
        // of the initial states carries mass (Init's edges are selected).
        assert_eq!(online.frontier().support(), 1);
        online.push(IndexedMessage::new(selected[0], FlowIndex(1)));
        online.push(IndexedMessage::new(selected[1], FlowIndex(1)));
        assert!(online.frontier().support() > 0);
        assert!(online.frontier().mass() >= 1);
        assert_eq!(online.frontier().values().len(), u.state_count());
        // An impossible continuation empties the frontier for good.
        online.push(IndexedMessage::new(selected[1], FlowIndex(1)));
        assert_eq!(online.frontier().support(), 0);
        assert_eq!(online.frontier().mass(), 0);
        assert_eq!(online.consistent(), 0);
    }

    #[test]
    fn three_instance_product_matches_batch() {
        let u = product(3);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap()];
        let exec = executions(&u).nth(5).unwrap();
        let observed = exec.project(&selected);
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            online.push_all(observed.iter().copied());
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &observed, &selected, mode),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn checkpoint_restore_rolls_back_exactly() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap(), catalog.get("GntE").unwrap()];
        for mode in MODES {
            let exec = executions(&u).next().unwrap();
            let observed = exec.project(&selected);
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            online.push(observed[0]);
            let ckpt = online.checkpoint();
            let frozen = online.clone();
            for &m in &observed[1..] {
                online.push(m);
            }
            assert_ne!(online.consistent(), frozen.consistent(), "{mode:?}");
            online.restore(&ckpt);
            assert_eq!(online.consistent(), frozen.consistent(), "{mode:?}");
            assert_eq!(online.pushed(), 1);
            assert_eq!(online.frontier(), frozen.frontier());
            // The restored localizer keeps tracking batch exactly.
            for (n, &m) in observed.iter().enumerate().skip(1) {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &observed[..=n], &selected, mode),
                    "{mode:?} after restore"
                );
            }

            // Checkpoint while live, push until the frontier empties, and
            // restore: the revived localizer tracks batch again.
            let poison = IndexedMessage::new(selected[0], FlowIndex(99));
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            online.push(observed[0]);
            let live = online.checkpoint();
            let mut killed = observed[..1].to_vec();
            while online.frontier().support() != 0 {
                online.push(poison);
                killed.push(poison);
            }
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &killed, &selected, mode),
                "{mode:?} dead"
            );
            online.restore(&live);
            assert!(online.frontier().support() > 0, "{mode:?}");
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &observed[..1], &selected, mode),
                "{mode:?} restored live"
            );
            for (n, &m) in observed.iter().enumerate().skip(1) {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &observed[..=n], &selected, mode),
                    "{mode:?} after restoring a live checkpoint, {} records",
                    n + 1
                );
            }

            // Restoring a checkpoint taken while dead keeps it dead.
            let mut dead = OnlineLocalizer::new(&u, &selected, mode);
            dead.push(poison);
            let dead_ckpt = dead.checkpoint();
            online.restore(&dead_ckpt);
            assert_eq!(online.consistent(), 0, "{mode:?}");
            assert_eq!(online.frontier().support(), 0, "{mode:?}");
            online.push_all(observed.iter().copied());
            assert_eq!(online.consistent(), 0, "{mode:?} stays dead");
            assert_eq!(online.frontier().support(), 0, "{mode:?} stays dead");
            assert_eq!(online.pushed(), 1 + observed.len());

            // A resync after a long dead stream re-narrows like a fresh
            // localizer.
            for _ in 0..1000 {
                online.push(observed[0]);
            }
            assert_eq!(online.consistent(), 0, "{mode:?}");
            // A dead stream stores no observation for checkpoints to clone.
            assert!(online.checkpoint().observed.is_empty(), "{mode:?}");
            online.resync();
            let mut fresh = OnlineLocalizer::new(&u, &selected, mode);
            assert_eq!(online.frontier(), fresh.frontier(), "{mode:?} reseeded");
            for &m in &observed {
                online.push(m);
                fresh.push(m);
                assert_eq!(online.consistent(), fresh.consistent(), "{mode:?}");
                assert_eq!(online.frontier(), fresh.frontier(), "{mode:?}");
            }
            assert!(online.consistent() > 0, "{mode:?} re-narrowed");
            assert_eq!(online.pushed(), 1001 + 2 * observed.len());
        }
    }

    #[test]
    fn resync_revives_a_dead_frontier_and_renarrows() {
        let u = product(2);
        let catalog = u.catalog();
        let req = catalog.get("ReqE").unwrap();
        let ack = catalog.get("Ack").unwrap();
        let selected = [req, catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        let observed = exec.project(&selected);
        for mode in MODES {
            let mut online = OnlineLocalizer::new(&u, &selected, mode);
            // An unselected observation kills the count in every mode.
            online.push(IndexedMessage::new(ack, FlowIndex(1)));
            assert_eq!(online.consistent(), 0, "{mode:?}");
            assert_eq!(online.resyncs(), 0);
            assert_eq!(online.unknown_since(), None);

            online.resync();
            assert_eq!(online.resyncs(), 1, "{mode:?}");
            assert_eq!(online.unknown_since(), Some(1));
            // The empty-observation count is back...
            assert_eq!(
                online.consistent(),
                consistent_paths(&u, &[], &selected, mode),
                "{mode:?} reseeded"
            );
            // ...and the post-resync observation narrows like a fresh
            // localizer fed only the post-gap records.
            for (n, &m) in observed.iter().enumerate() {
                online.push(m);
                assert_eq!(
                    online.consistent(),
                    consistent_paths(&u, &observed[..=n], &selected, mode),
                    "{mode:?} after resync push {}",
                    n + 1
                );
            }
            assert!(online.consistent() > 0, "{mode:?} re-narrowed, not dead");
            assert_eq!(
                online.pushed(),
                observed.len() + 1,
                "{mode:?} keeps counting"
            );
        }
    }

    #[test]
    fn resync_state_is_published_and_checkpointed() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("ReqE").unwrap()];
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Prefix);
        online.push(IndexedMessage::new(
            catalog.get("ReqE").unwrap(),
            FlowIndex(1),
        ));
        online.resync();
        let ckpt = online.checkpoint();
        online.resync();
        assert_eq!(online.resyncs(), 2);
        assert_eq!(online.unknown_since(), Some(1));
        online.restore(&ckpt);
        assert_eq!(online.resyncs(), 1);
        let obs = Registry::new();
        online.record_frontier(&obs);
        assert_eq!(obs.gauge("pstrace_localizer_resyncs").get(), 1);
    }

    #[test]
    fn localization_fraction_is_consistent_with_batch_localize() {
        let u = product(2);
        let catalog = u.catalog();
        let selected = [catalog.get("GntE").unwrap()];
        let exec = executions(&u).next().unwrap();
        let observed = exec.project(&selected);
        let mut online = OnlineLocalizer::new(&u, &selected, MatchMode::Exact);
        online.push_all(observed.iter().copied());
        let batch = crate::localize::localize(&u, &observed, &selected, MatchMode::Exact);
        assert_eq!(online.localization(), batch);
    }
}
