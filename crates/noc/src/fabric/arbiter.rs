//! Round-robin arbitration, shared by the optical bus and both router
//! implementations.

use flumen_sim::{FromJson, Json, JsonError, ToJson};

/// A rotating round-robin token over `n` requesters.
///
/// Two idioms are supported:
///
/// * **grant-rotate** (optical bus): scan from the token, grant the first
///   requester, then park the token just past the winner
///   ([`RrToken::grant`]).
/// * **cycle-rotate** (routed networks and `RouterNode`): scan all ports from the token
///   each cycle, then advance the token by one regardless of grants
///   ([`RrToken::rotate`]).
///
/// Serializes as its raw position (a JSON number), byte-identical to the
/// bare `usize` fields it replaced in the legacy fabrics' checkpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RrToken {
    pos: usize,
}

impl RrToken {
    /// A token starting at position 0.
    pub(crate) fn new() -> Self {
        RrToken::default()
    }

    /// Current token position.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Indices `pos, pos+1, …` wrapping over `n` requesters — the fair
    /// scan order for this cycle. Empty when `n == 0`.
    pub(crate) fn scan(&self, n: usize) -> impl Iterator<Item = usize> {
        let pos = self.pos;
        (0..n).map(move |k| (pos + k) % n)
    }

    /// Parks the token just past `winner` (grant-rotate idiom).
    pub(crate) fn grant(&mut self, winner: usize, n: usize) {
        self.pos = match n {
            0 => 0,
            _ => (winner + 1) % n,
        };
    }

    /// Advances the token by one position (cycle-rotate idiom).
    pub(crate) fn rotate(&mut self, n: usize) {
        self.pos = match n {
            0 => 0,
            _ => (self.pos + 1) % n,
        };
    }

    /// Advances the token by `k` positions: exactly `k` calls to
    /// [`RrToken::rotate`].
    pub(crate) fn advance(&mut self, k: u64, n: usize) {
        if k == 0 {
            return;
        }
        self.pos = match n {
            0 => 0,
            _ => (self.pos % n + (k % n as u64) as usize) % n,
        };
    }
}

impl ToJson for RrToken {
    fn to_json(&self) -> Json {
        self.pos.to_json()
    }
}

impl FromJson for RrToken {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(RrToken {
            pos: usize::from_json(j)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_starts_at_token() {
        let t = RrToken { pos: 2 };
        assert_eq!(t.scan(4).collect::<Vec<_>>(), vec![2, 3, 0, 1]);
        assert_eq!(t.scan(0).count(), 0);
    }

    #[test]
    fn grant_parks_past_winner() {
        let mut t = RrToken::new();
        t.grant(3, 4);
        assert_eq!(t.pos(), 0);
        t.grant(1, 4);
        assert_eq!(t.pos(), 2);
    }

    #[test]
    fn rotate_advances_by_one() {
        let mut t = RrToken::new();
        t.rotate(3);
        t.rotate(3);
        t.rotate(3);
        assert_eq!(t.pos(), 0);
    }

    #[test]
    fn advance_equals_repeated_rotate() {
        for n in 1..7 {
            for start in 0..2 * n {
                for k in 0..3 * n as u64 {
                    let mut stepped = RrToken { pos: start };
                    for _ in 0..k {
                        stepped.rotate(n);
                    }
                    let mut jumped = RrToken { pos: start };
                    jumped.advance(k, n);
                    assert_eq!(jumped, stepped, "n {n} start {start} k {k}");
                }
            }
        }
    }

    #[test]
    fn json_matches_bare_usize() {
        let t = RrToken { pos: 5 };
        assert_eq!(t.to_json().to_canonical(), 5usize.to_json().to_canonical());
        assert_eq!(RrToken::from_json(&t.to_json()).unwrap().pos(), 5);
    }
}
