package main

import (
	"math"
	"testing"

	"gep"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// Each check must accept the program's output and reject the same
// output with one deliberate corruption.

const testN = 64

func naiveProduct(a, b *dense) *dense {
	n := a.N()
	c := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.At(i, k)
			for j := 0; j < n; j++ {
				c.Set(i, j, c.At(i, j)+aik*b.At(k, j))
			}
		}
	}
	return c
}

func TestCheckProduct(t *testing.T) {
	a, b := uniformMatrix(testN, newRNG(1, 1)), uniformMatrix(testN, newRNG(1, 2))
	c := matrix.NewSquare[float64](testN)
	gep.Multiply(c, a, b)
	if err := checkProduct(a, b, c, newRNG(1, 3)); err != nil {
		t.Fatalf("correct product rejected: %v", err)
	}
	if err := checkProduct(a, b, naiveProduct(a, b), newRNG(1, 3)); err != nil {
		t.Fatalf("naive product rejected: %v", err)
	}
	c.Set(17, 40, c.At(17, 40)+1e-9)
	if checkProduct(a, b, c, newRNG(1, 3)) == nil {
		t.Fatal("corrupted product accepted")
	}
}

func TestCheckLU(t *testing.T) {
	a := dominantMatrix(testN, newRNG(2, 1))
	lu := a.Clone()
	gep.Factorize(lu)
	if err := checkLU(a, lu, nil, newRNG(2, 2)); err != nil {
		t.Fatalf("correct factors rejected: %v", err)
	}
	for _, cell := range [][2]int{{40, 3}, {3, 40}, {20, 20}} { // L, U, diagonal of U
		bad := lu.Clone()
		bad.Set(cell[0], cell[1], bad.At(cell[0], cell[1])*(1+1e-9))
		if checkLU(a, bad, nil, newRNG(2, 2)) == nil {
			t.Fatalf("corrupted factor at %v accepted", cell)
		}
	}
}

func TestCheckPivotedLU(t *testing.T) {
	a := uniformMatrix(testN, newRNG(3, 1))
	f, err := linalg.FactorCA(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLU(a, f.LU, f.Perm, newRNG(3, 2)); err != nil {
		t.Fatalf("correct pivoted factors rejected: %v", err)
	}
	swapped := append([]int(nil), f.Perm...)
	swapped[5], swapped[9] = swapped[9], swapped[5]
	if checkLU(a, f.LU, swapped, newRNG(3, 2)) == nil {
		t.Fatal("wrong permutation accepted")
	}
	dup := append([]int(nil), f.Perm...)
	dup[0] = dup[1]
	if checkLU(a, f.LU, dup, newRNG(3, 2)) == nil {
		t.Fatal("non-permutation accepted")
	}
	bad := f.LU.Clone()
	bad.Set(50, 7, bad.At(50, 7)+1e-9)
	if checkLU(a, bad, f.Perm, newRNG(3, 2)) == nil {
		t.Fatal("corrupted pivoted factor accepted")
	}
}

func TestCheckSolve(t *testing.T) {
	const n = 100 // not a power of two: the padded path
	a := dominantMatrix(n, newRNG(4, 1))
	b := randVector(n, newRNG(4, 2))
	x := gep.Solve(a.Clone(), b)
	if err := checkSolve(a, x, b); err != nil {
		t.Fatalf("correct solution rejected: %v", err)
	}
	x[37] += 1e-9
	if checkSolve(a, x, b) == nil {
		t.Fatal("corrupted solution accepted")
	}
}

func TestCheckShortestPaths(t *testing.T) {
	w := randomGraph(testN, 0.05, 100, newRNG(5, 1))
	d := w.Clone()
	gep.FloydWarshall(d)
	if err := checkShortestPaths(w, d); err != nil {
		t.Fatalf("correct distances rejected: %v", err)
	}
	var fi, fj, ui, uj int
	for i := 0; i < testN; i++ {
		for j := 0; j < testN; j++ {
			if i != j && !math.IsInf(d.At(i, j), 1) {
				fi, fj = i, j
			}
			if i != j && math.IsInf(d.At(i, j), 1) {
				ui, uj = i, j
			}
		}
	}
	for name, corrupt := range map[string]func(m *dense){
		"shorter":     func(m *dense) { m.Set(fi, fj, m.At(fi, fj)-1) },
		"longer":      func(m *dense) { m.Set(fi, fj, m.At(fi, fj)+1) },
		"unreachable": func(m *dense) { m.Set(fi, fj, math.Inf(1)) },
		"diagonal":    func(m *dense) { m.Set(3, 3, 1) },
	} {
		bad := d.Clone()
		corrupt(bad)
		if checkShortestPaths(w, bad) == nil {
			t.Errorf("%s distance accepted", name)
		}
	}
	if !math.IsInf(d.At(ui, uj), 1) {
		t.Skip("graph strongly connected: no unreachable pair to corrupt")
	}
	bad := d.Clone()
	bad.Set(ui, uj, 1000)
	if checkShortestPaths(w, bad) == nil {
		t.Error("finite distance for an unreachable pair accepted")
	}
}

func TestCheckClosure(t *testing.T) {
	e := randomRelation(testN, 0.02, newRNG(6, 1))
	reach := matrix.NewSquare[bool](testN)
	for i := range e {
		for j, on := range e[i] {
			reach.Set(i, j, on)
		}
	}
	gep.TransitiveClosure(reach)
	if err := checkClosure(e, reach.At); err != nil {
		t.Fatalf("correct closure rejected: %v", err)
	}
	for _, cell := range [][2]int{{0, 1}, {7, 7}, {30, 50}} {
		flip := func(i, j int) bool {
			if i == cell[0] && j == cell[1] {
				return !reach.At(i, j)
			}
			return reach.At(i, j)
		}
		if checkClosure(e, flip) == nil {
			t.Errorf("closure with [%d][%d] flipped accepted", cell[0], cell[1])
		}
	}
}

func TestCheckBitIdentical(t *testing.T) {
	a := uniformMatrix(testN, newRNG(7, 1))
	b := a.Clone()
	if err := checkBitIdentical(a, b); err != nil {
		t.Fatalf("identical matrices rejected: %v", err)
	}
	b.Set(9, 9, math.Float64frombits(math.Float64bits(b.At(9, 9))^1))
	if checkBitIdentical(a, b) == nil {
		t.Fatal("one-ulp difference accepted")
	}
}
