package main

import (
	"math"
	"math/rand"

	"gep/internal/matrix"
)

// Input generators. Every input is a function of the run's seed and a
// per-input stream number, so the same seed gives the same inputs.

func newRNG(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// uniformMatrix fills an n×n matrix with values uniform in [-1, 1):
// a general matrix that needs pivoting.
func uniformMatrix(n int, rng *rand.Rand) *dense {
	m := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 2*rng.Float64() - 1
		}
	}
	return m
}

// dominantMatrix is uniformMatrix with n added to the diagonal: row
// diagonally dominant, so LU without pivoting is stable.
func dominantMatrix(n int, rng *rand.Rand) *dense {
	m := uniformMatrix(n, rng)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

// randomGraph returns the weight matrix of a directed graph on n
// vertices: each off-diagonal edge present with probability p, integer
// weights uniform in [1, maxW], +Inf for no edge, 0 on the diagonal.
func randomGraph(n int, p float64, maxW int, rng *rand.Rand) *dense {
	m := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			switch {
			case i == j:
				row[j] = 0
			case rng.Float64() < p:
				row[j] = float64(1 + rng.Intn(maxW))
			default:
				row[j] = math.Inf(1)
			}
		}
	}
	return m
}

// randomRelation returns an n×n boolean edge relation with density p
// and no self-loops.
func randomRelation(n int, p float64, rng *rand.Rand) [][]bool {
	e := make([][]bool, n)
	for i := range e {
		e[i] = make([]bool, n)
		for j := range e[i] {
			e[i][j] = i != j && rng.Float64() < p
		}
	}
	return e
}

func randVector(n int, rng *rand.Rand) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}
