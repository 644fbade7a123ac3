package main

import (
	"fmt"
	"math/rand"
	"time"

	"gep"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// Sizes of the dense workload. Solve takes a side that is not a power
// of two, so the facade pads; every other op runs on its native
// power-of-two side.
const (
	denseMMN    = 1024
	denseSolveN = 1000
	denseLUN    = 1024
	denseCALUN  = 1024
	denseFWN    = 512
	denseFWP    = 0.02 // edge density of the FW graph
	denseFWMaxW = 100
)

// denseInputs are one set-up's inputs; ops copy them before each call.
type denseInputs struct {
	mmA, mmB   *dense
	solveA     *dense // diagonally dominant, side denseSolveN
	solveB     []float64
	luA        *dense // diagonally dominant, side denseLUN
	caluA      *dense // general, needs pivoting
	fwW        *dense // weight matrix
	checkSeeds *rand.Rand
}

func newDenseInputs(seed int64) *denseInputs {
	return &denseInputs{
		mmA:        uniformMatrix(denseMMN, newRNG(seed, 1)),
		mmB:        uniformMatrix(denseMMN, newRNG(seed, 2)),
		solveA:     dominantMatrix(denseSolveN, newRNG(seed, 3)),
		solveB:     randVector(denseSolveN, newRNG(seed, 4)),
		luA:        dominantMatrix(denseLUN, newRNG(seed, 8)),
		caluA:      uniformMatrix(denseCALUN, newRNG(seed, 5)),
		fwW:        randomGraph(denseFWN, denseFWP, denseFWMaxW, newRNG(seed, 6)),
		checkSeeds: newRNG(seed, 7),
	}
}

// denseOps is one round of the dense workload: the four facade calls
// serially, then their parallel forms on the default runtime
// (Factorize takes the place of Solve there).
func denseOps(in *denseInputs) []op {
	multiply := func(name, layer string, mul func(c, a, b *dense)) op {
		return op{name: name, slot: "mm", layer: layer,
			run: func(tr *tracer, group string) (time.Duration, error) {
				c := matrix.NewSquare[float64](denseMMN)
				d := timeCall(tr, group, name, func() { mul(c, in.mmA, in.mmB) })
				return d, checkProduct(in.mmA, in.mmB, c, in.checkSeeds)
			}}
	}
	factorCA := func(name, layer string, f func(*dense) (*gep.PivotedLU, error)) op {
		return op{name: name, layer: layer,
			run: func(tr *tracer, group string) (time.Duration, error) {
				var lu *gep.PivotedLU
				var err error
				d := timeCall(tr, group, name, func() { lu, err = f(in.caluA) })
				if err != nil {
					return d, fmt.Errorf("%s: %w", name, err)
				}
				return d, checkLU(in.caluA, lu.LU, lu.Perm, in.checkSeeds)
			}}
	}
	floydWarshall := func(name, layer string, fw func(*dense)) op {
		return op{name: name, slot: "fw", layer: layer,
			run: func(tr *tracer, group string) (time.Duration, error) {
				dm := in.fwW.Clone()
				d := timeCall(tr, group, name, func() { fw(dm) })
				return d, checkShortestPaths(in.fwW, dm)
			}}
	}
	solve := op{name: "gep.Solve", slot: "lu", layer: "gep.lu_s",
		run: func(tr *tracer, group string) (time.Duration, error) {
			a := in.solveA.Clone()
			var x []float64
			var d time.Duration
			if tr != nil {
				d, x = tracedSolve(tr, group, a, in.solveB)
			} else {
				d = timeCall(nil, group, "gep.Solve", func() { x = gep.Solve(a, in.solveB) })
			}
			if err := checkSolve(in.solveA, x, in.solveB); err != nil {
				return d, err
			}
			return d, checkLU(in.solveA, a, nil, in.checkSeeds)
		}}
	factorize := op{name: "gep.FactorizeParallel", slot: "lu", layer: "gep.lu_par_s",
		run: func(tr *tracer, group string) (time.Duration, error) {
			a := in.luA.Clone()
			d := timeCall(tr, group, "gep.FactorizeParallel", func() { gep.FactorizeParallel(a) })
			return d, checkLU(in.luA, a, nil, in.checkSeeds)
		}}
	return []op{
		multiply("gep.Multiply", "gep.mm_s", gep.Multiply),
		solve,
		factorCA("gep.FactorCA", "gep.calu_s", gep.FactorCA),
		floydWarshall("gep.FloydWarshall", "gep.fw_s", gep.FloydWarshall),
		multiply("gep.MultiplyParallel", "gep.mm_par_s", gep.MultiplyParallel),
		factorize,
		factorCA("gep.FactorCAParallel", "gep.calu_par_s", gep.FactorCAParallel),
		floydWarshall("gep.FloydWarshallParallel", "gep.fw_par_s", gep.FloydWarshallParallel),
	}
}

// tracedSolve replays gep.Solve through the public calls the facade
// makes, one span each: pad to a power of two, factor, crop the
// factors back, substitute.
func tracedSolve(tr *tracer, group string, a *dense, b []float64) (time.Duration, []float64) {
	n := a.N()
	start := time.Now()
	id, end := tr.begin(group, "gep.Solve", 0)
	var x []float64
	if matrix.IsPow2(n) {
		tr.timed(group, "linalg.factor", id, func() { linalg.LUIGEP(a, 64) })
	} else {
		var p *dense
		tr.timed(group, "matrix.pad", id, func() { p = matrix.PadPow2Diag(a, 0, 1) })
		tr.timed(group, "linalg.factor", id, func() { linalg.LUIGEP(p, 64) })
		tr.timed(group, "matrix.pad", id, func() { a.CopyFrom(p.Sub(0, 0, n, n)) })
	}
	tr.timed(group, "linalg.substitute", id, func() { x = linalg.SolveLU(a, b) })
	end()
	return time.Since(start), x
}

func denseFacade(cfg *config, rep *report) error {
	var in *denseInputs
	for i := 0; i < setupReps; i++ {
		if err := rep.setup(func() error { in = newDenseInputs(cfg.seed); return nil }); err != nil {
			return err
		}
	}
	ops := denseOps(in)
	var bases float64
	if cfg.trace {
		bases = serialBases(rep, in)
	}
	measure(cfg, rep, func(tr *tracer, d time.Duration, warmup bool) *roundStats {
		return runRounds(rep, ops, tr, d, warmup)
	}, func(plain, traced *roundStats) {
		var parallel float64
		for i, o := range ops {
			m := median(plain.perOp[o.name])
			rep.setLayer(o.layer, "s", m)
			if i >= len(ops)/2 { // the parallel half of the round
				parallel += m
			}
		}
		rep.setLayer("par.serial_s", "s", bases)
		rep.setLayer("par.parallel_s", "s", parallel)
		rep.setLayer("par.speedup", "ratio", bases/parallel)
		spans := rep.spans.byName()
		k := float64(traced.rounds)
		rep.setLayer("matrix.pad_s", "s", spans["matrix.pad"].Seconds()/k)
		rep.setLayer("linalg.factor_s", "s", spans["linalg.factor"].Seconds()/k)
		rep.setLayer("linalg.substitute_s", "s", spans["linalg.substitute"].Seconds()/k)
		rep.setLayer("gep.solve.coverage", "ratio", rep.spans.coverage("gep.Solve"))
		rep.printf("gep.Solve span coverage %.4f", rep.spans.coverage("gep.Solve"))
	})
	return nil
}

// serialBases times one serial round of the parallel ops' work, the
// base of par.speedup: Multiply, Factorize, FactorCA and FloydWarshall
// on the inputs the parallel ops take. Outputs are checked like any op.
func serialBases(rep *report, in *denseInputs) float64 {
	var total time.Duration
	c := matrix.NewSquare[float64](denseMMN)
	total += timeCall(nil, "", "", func() { gep.Multiply(c, in.mmA, in.mmB) })
	rep.check("gep.Multiply", checkProduct(in.mmA, in.mmB, c, in.checkSeeds))
	a := in.luA.Clone()
	total += timeCall(nil, "", "", func() { gep.Factorize(a) })
	rep.check("gep.Factorize", checkLU(in.luA, a, nil, in.checkSeeds))
	var f *gep.PivotedLU
	var err error
	total += timeCall(nil, "", "", func() { f, err = gep.FactorCA(in.caluA) })
	if err == nil {
		err = checkLU(in.caluA, f.LU, f.Perm, in.checkSeeds)
	}
	rep.check("gep.FactorCA", err)
	dm := in.fwW.Clone()
	total += timeCall(nil, "", "", func() { gep.FloydWarshall(dm) })
	rep.check("gep.FloydWarshall", checkShortestPaths(in.fwW, dm))
	rep.printf("par bases (serial round): %.4f s", total.Seconds())
	return total.Seconds()
}
