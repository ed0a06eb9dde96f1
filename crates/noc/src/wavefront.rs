//! Wavefront allocator.
//!
//! The classic single-cycle hardware matcher for input-queued crossbars:
//! requests form an `N×N` matrix and grants are issued along anti-diagonals
//! starting from a rotating priority diagonal, so at most one grant lands in
//! each row and column and no starvation occurs. The Flumen MZIM control
//! unit builds its communication maps with exactly this arbiter
//! (paper §3.4) plus multicast extensions.

/// A wavefront arbiter over `n` inputs × `n` outputs.
#[derive(Debug, Clone)]
pub struct WavefrontArbiter {
    n: usize,
    priority: usize,
}

impl WavefrontArbiter {
    /// Creates an arbiter for an `n×n` crossbar.
    pub fn new(n: usize) -> Self {
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

    /// Computes a maximal-ish matching for the given request matrix.
    /// `requests[i]` lists the outputs input `i` wants (usually one — the
    /// head packet's destination). Returns `grants[i] = Some(output)`.
    ///
    /// Rows/columns already claimed by `row_busy`/`col_busy` (connections
    /// held by in-flight packets) are skipped. The priority diagonal
    /// advances on every call for fairness.
    pub fn arbitrate(
        &mut self,
        requests: &[Vec<usize>],
        row_busy: &[bool],
        col_busy: &[bool],
    ) -> Vec<Option<usize>> {
        assert_eq!(requests.len(), self.n);
        let n = self.n;
        let mut grants: Vec<Option<usize>> = vec![None; n];
        let mut col_taken: Vec<bool> = col_busy.to_vec();
        let mut row_taken: Vec<bool> = row_busy.to_vec();

        // Walk n anti-diagonals starting at the priority diagonal.
        for d in 0..n {
            let diag = (self.priority + d) % n;
            for i in 0..n {
                let j = (diag + n - i) % n;
                if row_taken[i] || col_taken[j] {
                    continue;
                }
                if requests[i].contains(&j) {
                    grants[i] = Some(j);
                    row_taken[i] = true;
                    col_taken[j] = true;
                }
            }
        }
        self.priority = (self.priority + 1) % n;
        grants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_a_matching() {
        let mut a = WavefrontArbiter::new(4);
        let reqs = vec![vec![0, 1], vec![0], vec![0], vec![3]];
        let g = a.arbitrate(&reqs, &[false; 4], &[false; 4]);
        // No two inputs share an output.
        let mut used = [false; 4];
        for gi in g.iter().flatten() {
            assert!(!used[*gi]);
            used[*gi] = true;
        }
        // Input 3 must get output 3 (uncontended).
        assert_eq!(g[3], Some(3));
    }

    #[test]
    fn conflict_free_requests_all_granted() {
        let mut a = WavefrontArbiter::new(4);
        let reqs = vec![vec![1], vec![2], vec![3], vec![0]];
        let g = a.arbitrate(&reqs, &[false; 4], &[false; 4]);
        assert_eq!(g, vec![Some(1), Some(2), Some(3), Some(0)]);
    }

    #[test]
    fn busy_rows_and_cols_skipped() {
        let mut a = WavefrontArbiter::new(3);
        let reqs = vec![vec![0], vec![1], vec![2]];
        let g = a.arbitrate(&reqs, &[true, false, false], &[false, true, false]);
        assert_eq!(g[0], None); // row busy
        assert_eq!(g[1], None); // wants busy col
        assert_eq!(g[2], Some(2));
    }

    #[test]
    fn priority_rotates_for_fairness() {
        let mut a = WavefrontArbiter::new(2);
        // Both inputs want output 0 forever; grants must alternate.
        let reqs = vec![vec![0], vec![0]];
        let mut winners = Vec::new();
        for _ in 0..4 {
            let g = a.arbitrate(&reqs, &[false; 2], &[false; 2]);
            let w = g.iter().position(|x| x.is_some()).unwrap();
            winners.push(w);
        }
        assert!(winners.contains(&0) && winners.contains(&1), "{winners:?}");
    }

    #[test]
    fn advance_equals_repeated_arbitration() {
        for n in 1..6 {
            for rounds in 0..3 * n as u64 {
                let mut stepped = WavefrontArbiter::new(n);
                stepped.set_priority(n / 2);
                let mut jumped = stepped.clone();
                for _ in 0..rounds {
                    stepped.arbitrate(&vec![vec![]; n], &vec![false; n], &vec![false; n]);
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
        let mut a = WavefrontArbiter::new(3);
        let g = a.arbitrate(&vec![vec![]; 3], &[false; 3], &[false; 3]);
        assert!(g.iter().all(|x| x.is_none()));
    }
}
