//! Wavefront allocator.
//!
//! The classic single-cycle hardware matcher for input-queued crossbars:
//! requests form an `N×N` matrix and grants are issued along anti-diagonals
//! starting from a rotating priority diagonal, so at most one grant lands in
//! each row and column and no starvation occurs. The Flumen MZIM control
//! unit builds its communication maps with exactly this arbiter
//! (paper §3.4) plus multicast extensions.

/// A wavefront arbiter over `n ≤ 64` inputs × `n` outputs, on bitmasks.
///
/// Bit `j` of a request word means "this input has traffic for output
/// `j`"; bit `i` of a busy mask marks row or column `i` as already held.
/// The walk is the hardware's: anti-diagonals in turn from the priority
/// diagonal. Cells on one anti-diagonal share no row and no column, so
/// the order of rows within a diagonal cannot change the matching, and
/// only rows that can still be granted are visited.
#[derive(Debug, Clone)]
pub struct WavefrontArbiter {
    n: usize,
    priority: usize,
}

/// The outputs granted in one [`WavefrontArbiter::arbitrate`] round: at
/// most one per input and one per output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grants {
    rows: u64,
    cols: [u8; 64],
}

impl Grants {
    fn none() -> Self {
        Grants {
            rows: 0,
            cols: [0; 64],
        }
    }

    /// `(input, output)` pairs in ascending input order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut rows = self.rows;
        std::iter::from_fn(move || {
            if rows == 0 {
                return None;
            }
            let i = rows.trailing_zeros() as usize;
            rows &= rows - 1;
            Some((i, self.cols[i] as usize))
        })
    }
}

impl WavefrontArbiter {
    /// Creates an arbiter for an `n×n` crossbar.
    ///
    /// # Panics
    ///
    /// Panics when `n > 64`: a row's requests must fit one `u64`.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= 64,
            "wavefront arbiter supports at most 64 ports, got {n}"
        );
        WavefrontArbiter { n, priority: 0 }
    }

    /// Number of ports.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current priority-diagonal position (checkpoint state).
    pub fn priority(&self) -> usize {
        self.priority
    }

    /// Restores the priority diagonal from a checkpoint. Values are taken
    /// modulo `n` so a foreign snapshot cannot put the arbiter out of range.
    pub fn set_priority(&mut self, p: usize) {
        self.priority = p % self.n.max(1);
    }

    /// Turns the priority diagonal as `rounds` calls to
    /// [`WavefrontArbiter::arbitrate`] would.
    pub(crate) fn advance(&mut self, rounds: u64) {
        let n = self.n.max(1);
        self.priority = (self.priority + (rounds % n as u64) as usize) % n;
    }

    /// Computes a maximal matching for the request words `requests`
    /// (`requests[i]` bit `j`: input `i` wants output `j`; bits at or
    /// above `n` are ignored). Rows in `row_busy` and columns in
    /// `col_busy` (connections held by in-flight packets) are never
    /// granted. The priority diagonal advances on every call for fairness.
    pub fn arbitrate(&mut self, requests: &[u64], row_busy: u64, col_busy: u64) -> Grants {
        assert_eq!(requests.len(), self.n);
        let n = self.n;
        let mut diag = self.priority;
        self.priority = if diag + 1 >= n { 0 } else { diag + 1 };
        let mut grants = Grants::none();
        let ports = if n == 64 { u64::MAX } else { (1 << n) - 1 };
        let mut col_free = !col_busy & ports;
        // Rows that are free and want a free column.
        let mut live = 0;
        for (i, &r) in requests.iter().enumerate() {
            if r & col_free != 0 {
                live |= 1 << i;
            }
        }
        live &= !row_busy;
        for _ in 0..n {
            if live == 0 {
                break;
            }
            let mut rows = live;
            while rows != 0 {
                let i = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let j = if diag >= i { diag - i } else { diag + n - i };
                let avail = requests[i] & col_free;
                if avail >> j & 1 == 1 {
                    grants.rows |= 1 << i;
                    grants.cols[i] = j as u8;
                    live &= !(1 << i);
                    col_free &= !(1 << j);
                } else if avail == 0 {
                    live &= !(1 << i);
                }
            }
            diag = if diag + 1 == n { 0 } else { diag + 1 };
        }
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request word of an input wanting each output in `outs`.
    fn mask(outs: &[usize]) -> u64 {
        outs.iter().fold(0, |m, &j| m | 1 << j)
    }

    /// The grants as `grants[input] = Some(output)`.
    fn granted(g: &Grants, n: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; n];
        for (i, j) in g.iter() {
            out[i] = Some(j);
        }
        out
    }

    #[test]
    fn grants_are_a_matching() {
        let mut a = WavefrontArbiter::new(4);
        let reqs = [mask(&[0, 1]), mask(&[0]), mask(&[0]), mask(&[3])];
        let g = a.arbitrate(&reqs, 0, 0);
        // No two inputs share an output.
        let mut used = [false; 4];
        for (_, j) in g.iter() {
            assert!(!used[j]);
            used[j] = true;
        }
        // Input 3 must get output 3 (uncontended).
        assert_eq!(granted(&g, 4)[3], Some(3));
    }

    #[test]
    fn conflict_free_requests_all_granted() {
        for n in [4, 33, 64] {
            let mut a = WavefrontArbiter::new(n);
            let reqs: Vec<u64> = (0..n).map(|i| mask(&[(i + 1) % n])).collect();
            let g = a.arbitrate(&reqs, 0, 0);
            let want: Vec<Option<usize>> = (0..n).map(|i| Some((i + 1) % n)).collect();
            assert_eq!(granted(&g, n), want, "n {n}");
        }
    }

    #[test]
    fn busy_rows_and_cols_skipped() {
        let mut a = WavefrontArbiter::new(3);
        let reqs = [mask(&[0]), mask(&[1]), mask(&[2])];
        let g = a.arbitrate(&reqs, 0b001, 0b010);
        // Row 0 is busy and input 1 wants a busy column.
        assert_eq!(granted(&g, 3), vec![None, None, Some(2)]);
    }

    #[test]
    fn top_row_and_column_are_reachable() {
        let mut a = WavefrontArbiter::new(64);
        let mut reqs = [0; 64];
        reqs[0] = mask(&[63]);
        reqs[63] = mask(&[0]);
        let g = a.arbitrate(&reqs, 0, 0);
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![(0, 63), (63, 0)]);
        // Bit 63 busy in both masks blocks both grants.
        let g = a.arbitrate(&reqs, 1 << 63, 1 << 63);
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn grants_iterate_in_input_order() {
        let n = 64;
        let mut a = WavefrontArbiter::new(n);
        a.set_priority(37);
        let reqs: Vec<u64> = (0..n).map(|i| mask(&[n - 1 - i])).collect();
        let g = a.arbitrate(&reqs, 0, 0);
        let inputs: Vec<usize> = g.iter().map(|(i, _)| i).collect();
        assert_eq!(inputs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn priority_rotates_for_fairness() {
        for n in [2, 64] {
            let mut a = WavefrontArbiter::new(n);
            // Every input wants output 0 forever; over n rounds each wins once.
            let reqs = vec![mask(&[0]); n];
            let mut winners = Vec::new();
            for _ in 0..n {
                let g = a.arbitrate(&reqs, 0, 0);
                let (w, _) = g.iter().next().unwrap();
                winners.push(w);
            }
            winners.sort_unstable();
            assert_eq!(winners, (0..n).collect::<Vec<_>>(), "n {n}");
        }
    }

    #[test]
    fn advance_equals_repeated_arbitration() {
        for n in (1..6).chain([63, 64]) {
            for rounds in 0..3 * n as u64 {
                let mut stepped = WavefrontArbiter::new(n);
                stepped.set_priority(n / 2);
                let mut jumped = stepped.clone();
                for _ in 0..rounds {
                    stepped.arbitrate(&vec![0; n], 0, 0);
                }
                jumped.advance(rounds);
                assert_eq!(
                    jumped.priority(),
                    stepped.priority(),
                    "n {n} rounds {rounds}"
                );
            }
        }
    }

    #[test]
    fn empty_requests_no_grants() {
        for n in [3, 64] {
            let mut a = WavefrontArbiter::new(n);
            let g = a.arbitrate(&vec![0; n], 0, 0);
            assert_eq!(g.iter().count(), 0);
            assert!(granted(&g, n).iter().all(Option::is_none));
        }
    }

    #[test]
    fn requests_beyond_n_are_ignored() {
        let mut a = WavefrontArbiter::new(3);
        let g = a.arbitrate(&[mask(&[5]), mask(&[1, 40]), 0], 0, 0);
        assert_eq!(granted(&g, 3), vec![None, Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "at most 64 ports")]
    fn more_than_64_ports_is_refused() {
        let _ = WavefrontArbiter::new(65);
    }
}
