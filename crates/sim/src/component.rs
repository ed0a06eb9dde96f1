//! The typed component interface the kernel drives.

use flumen_units::Cycles;

/// One simulated subsystem advancing cycle by cycle.
///
/// The kernel calls [`Component::step`] once per cycle with the current
/// time, except over spans the component reports idle through
/// [`Component::idle_until`], which it crosses with one
/// [`Component::advance_idle`] call. A composed system (e.g. the
/// full-system engine wrapping cores, caches, a network, and the MZIM
/// control unit) implements this on its top-level struct and fans the
/// call out internally, preserving its intra-cycle ordering.
pub trait Component {
    /// Advances the component through cycle `now`.
    fn step(&mut self, now: Cycles);

    /// Whether the component has quiesced (no queued or in-flight work).
    /// Components that never quiesce keep the default.
    fn done(&self, _now: Cycles) -> bool {
        false
    }

    /// The next cycle in which something can happen, when that is later
    /// than `now`. Returning `Some(t)` with `t > now` promises that
    /// stepping each cycle of `now..t` would have exactly the effect of
    /// [`Component::advance_idle`]`(now, t)` and would not change
    /// [`Component::done`]; `t` may be `Cycles::new(u64::MAX)` when no
    /// event is due. `None` (the default) means cycle `now` must be
    /// stepped.
    fn idle_until(&self, _now: Cycles) -> Option<Cycles> {
        None
    }

    /// Crosses the idle cycles `now..to`, which [`Component::idle_until`]
    /// reported, in one call. The kernel may stop short of the reported
    /// end (a cycle cap), so `to` is any cycle in that span. The default
    /// does nothing: it suits components whose idle cycles change no
    /// state of their own.
    fn advance_idle(&mut self, _now: Cycles, _to: Cycles) {}
}
