package main

import (
	"fmt"
	"math"
	"math/rand"

	"gep/internal/matrix"
)

// The output checks. Each is a computation made apart from the program
// under test, or a property the method must have; none compares with a
// stored copy of an earlier output. Tolerances are first-order rounding
// bounds in units of gamma(n) = n·ε (README.md, "Checks").

type dense = matrix.Dense[float64]

const eps = 0x1p-52

// gamma is the slack factor c·n·ε used by every floating-point check;
// c = 4 covers the product computed by the program plus the two
// products the check computes itself.
func gamma(n int) float64 { return 4 * float64(n) * eps }

// randVec returns n values uniform in [1, 2): positive entries keep
// the componentwise bounds below from cancelling to zero.
func randVec(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + rng.Float64()
	}
	return x
}

// mulVec returns m·x and |m|·xa, where xa bounds |x| componentwise.
func mulVec(m *dense, x, xa []float64) (y, ay []float64) {
	n := m.N()
	y, ay = make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		var s, a float64
		for j, v := range row[:n] {
			s += v * x[j]
			a += math.Abs(v) * xa[j]
		}
		y[i], ay[i] = s, a
	}
	return y, ay
}

// checkProduct is Freivalds' test for c = a·b: for random vectors r,
// c·r must equal a·(b·r) within the rounding bound
// gamma(n)·(|a|·(|b|·|r|) + |c|·|r|), componentwise. Two vectors make a
// wrong product pass with probability zero in exact arithmetic.
func checkProduct(a, b, c *dense, rng *rand.Rand) error {
	n := c.N()
	for t := 0; t < 2; t++ {
		r := randVec(n, rng)
		cr, acr := mulVec(c, r, r)
		br, abr := mulVec(b, r, r)
		abrv, aabr := mulVec(a, br, abr)
		for i := 0; i < n; i++ {
			if !within(cr[i], abrv[i], gamma(n)*(aabr[i]+acr[i])) {
				return fmt.Errorf("freivalds: row %d: c·r=%g a·(b·r)=%g", i, cr[i], abrv[i])
			}
		}
	}
	return nil
}

// checkLU tests a factorization P·A = L·U packed in lu (L strictly
// below the diagonal with unit diagonal, U on and above); perm maps
// factored row i to original row perm[i] (nil: no pivoting). For
// random x it compares L·(U·x) with (P·A)·x componentwise against
// gamma(n)·(|L|·(|U|·|x|) + |A|·|x|): the projection of the
// reconstruction residual ‖L·U − P·A‖ onto x, at O(n²) cost.
func checkLU(a, lu *dense, perm []int, rng *rand.Rand) error {
	n := a.N()
	if lu.N() != n {
		return fmt.Errorf("lu: side %d, want %d", lu.N(), n)
	}
	if perm != nil {
		if err := checkPerm(perm, n); err != nil {
			return err
		}
	}
	for t := 0; t < 2; t++ {
		x := randVec(n, rng)
		ux, aux := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			row := lu.Row(i)
			var s, m float64
			for j := i; j < n; j++ {
				s += row[j] * x[j]
				m += math.Abs(row[j]) * x[j]
			}
			ux[i], aux[i] = s, m
		}
		ax, aax := mulVec(a, x, x)
		for i := 0; i < n; i++ {
			row := lu.Row(i)
			s, m := ux[i], aux[i]
			for j := 0; j < i; j++ {
				s += row[j] * ux[j]
				m += math.Abs(row[j]) * aux[j]
			}
			src := i
			if perm != nil {
				src = perm[i]
			}
			if !within(s, ax[src], gamma(n)*(m+aax[src])) {
				return fmt.Errorf("lu: row %d: (L·U·x)=%g (P·A·x)=%g", i, s, ax[src])
			}
		}
	}
	return nil
}

func checkPerm(perm []int, n int) error {
	if len(perm) != n {
		return fmt.Errorf("perm: length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("perm: not a permutation (entry %d)", p)
		}
		seen[p] = true
	}
	return nil
}

// checkSolve tests x against A·x = b by the scaled residual
// ‖A·x − b‖∞ / (‖A‖∞·‖x‖∞ + ‖b‖∞), which a backward-stable solve keeps
// below gamma(n) times the growth factor (at most 2 for the
// diagonally dominant inputs the benchmark generates).
func checkSolve(a *dense, x, b []float64) error {
	n := a.N()
	if len(x) != n {
		return fmt.Errorf("solve: %d unknowns, want %d", len(x), n)
	}
	ax, _ := mulVec(a, x, x)
	var res, anorm, xnorm, bnorm float64
	for i := 0; i < n; i++ {
		res = math.Max(res, math.Abs(ax[i]-b[i]))
		var rs float64
		for _, v := range a.Row(i)[:n] {
			rs += math.Abs(v)
		}
		anorm = math.Max(anorm, rs)
		xnorm = math.Max(xnorm, math.Abs(x[i]))
		bnorm = math.Max(bnorm, math.Abs(b[i]))
	}
	scaled := res / (anorm*xnorm + bnorm)
	if !(scaled <= 2*gamma(n)) {
		return fmt.Errorf("solve: scaled residual %.3g exceeds %.3g", scaled, 2*gamma(n))
	}
	return nil
}

// checkShortestPaths tests d against the Bellman optimality
// certificate of the weight matrix w (w[i][j] > 0 an edge, +Inf none):
// d[i][i] = 0 and every other d[i][j] equals the minimum over edges
// (i,k) of w[i][k] + d[k][j] (+Inf when no edge reaches j). With
// positive weights the certificate has exactly one solution, the
// shortest-path distances; integer weights keep every sum exact.
func checkShortestPaths(w, d *dense) error {
	n := w.N()
	if d.N() != n {
		return fmt.Errorf("apsp: side %d, want %d", d.N(), n)
	}
	adj := adjacency(w)
	best := make([]float64, n)
	for i := 0; i < n; i++ {
		if d.At(i, i) != 0 {
			return fmt.Errorf("apsp: d[%d][%d] = %g, want 0", i, i, d.At(i, i))
		}
		for j := range best {
			best[j] = math.Inf(1)
		}
		for _, k := range adj[i] {
			wik := w.At(i, k)
			for j, dkj := range d.Row(k)[:n] {
				best[j] = math.Min(best[j], wik+dkj)
			}
		}
		for j, dij := range d.Row(i)[:n] {
			if j != i && dij != best[j] {
				return fmt.Errorf("apsp: d[%d][%d] = %g, Bellman minimum %g", i, j, dij, best[j])
			}
		}
	}
	return nil
}

// adjacency lists, per row, the columns holding a finite off-diagonal
// weight.
func adjacency(w *dense) [][]int {
	n := w.N()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j, v := range w.Row(i)[:n] {
			if j != i && !math.IsInf(v, 1) {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// checkClosure tests the reflexive transitive closure reach of the edge
// set edge (the program forces the diagonal true: every vertex reaches
// itself) by breadth-first search from every vertex: reach[i][j] must
// hold exactly when j is reached from i by a path of zero or more
// edges.
func checkClosure(edge [][]bool, reach func(i, j int) bool) error {
	n := len(edge)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		clear(seen)
		seen[s] = true
		queue = append(queue[:0], s)
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for v := 0; v < n; v++ {
				if edge[u][v] && !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		for j := 0; j < n; j++ {
			if reach(s, j) != seen[j] {
				return fmt.Errorf("closure: reach[%d][%d] = %v, BFS says %v", s, j, reach(s, j), seen[j])
			}
		}
	}
	return nil
}

// checkBitIdentical tests that got holds exactly the bits of want: the
// out-of-core runs promise bit-identical results to the in-core engine
// on the same input.
func checkBitIdentical(want, got *dense) error {
	n := want.N()
	if got.N() != n {
		return fmt.Errorf("bit-identity: side %d, want %d", got.N(), n)
	}
	for i := 0; i < n; i++ {
		w, g := want.Row(i)[:n], got.Row(i)[:n]
		for j := range w {
			if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
				return fmt.Errorf("bit-identity: [%d][%d] = %v, in-core %v", i, j, g[j], w[j])
			}
		}
	}
	return nil
}

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol && !math.IsNaN(got)
}
