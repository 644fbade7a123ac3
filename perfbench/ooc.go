package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gep/internal/core"
	"gep/internal/matrix"
	"gep/internal/ooc"
)

// Make-up of the out-of-core workload: one durable 2-stripe store per
// run, checkpointed, whose RAM budget is a quarter of one matrix.
const (
	oocN          = 512
	oocTile       = 64
	oocStripes    = 2
	oocCheckpoint = 256 // base-case blocks between sync points
	oocCache      = oocN * oocN * 8 / 4
	oocFWP        = 0.02
)

// oocInputs are one set-up's inputs.
type oocInputs struct {
	luA, fwW, mmA, mmB *dense
	dir                string
}

// oocRun is the outcome of one durable run.
type oocRun struct {
	out                 *dense
	load, run, unload   time.Duration
	total               time.Duration
	stats               ooc.Stats
	ioModel             time.Duration
	transfers, lowerBnd float64
}

func oocConfig() ooc.Config {
	return ooc.Config{PageSize: 4096, CacheSize: oocCache, Stripes: oocStripes}
}

// durableGEP runs one in-place GEP op on a fresh durable store: create,
// load the input tile by tile and commit sync point 0, run with
// periodic sync points, unload and close.
func durableGEP(dir string, in *dense, op core.Op[float64], set core.UpdateSet, tr *tracer, group string) (*oocRun, error) {
	var r oocRun
	start := time.Now()
	var s *ooc.Store
	var m *ooc.Matrix
	var err error
	r.load = timeCall(tr, group, "ooc.load", func() {
		if s, err = ooc.CreateAt(dir, oocConfig()); err != nil {
			return
		}
		m = ooc.NewMatrix(s, in.N(), 0, ooc.MortonTiledLayout(oocTile))
		if err = m.LoadTiles(in); err == nil {
			err = s.Checkpoint(0)
		}
	})
	if err != nil {
		if s != nil {
			s.Abandon()
		}
		return nil, err
	}
	r.run = timeCall(tr, group, "ooc.run", func() {
		err = ooc.RunIGEP(m, op, set, ooc.RunOptions{Prefetch: true, CheckpointEvery: oocCheckpoint})
	})
	if err != nil {
		s.Abandon()
		return nil, err
	}
	r.unload = timeCall(tr, group, "ooc.unload", func() {
		if r.out, err = m.Unload(); err == nil {
			err = s.Close()
		} else {
			s.Abandon()
		}
	})
	r.total = time.Since(start)
	r.stats, r.ioModel = s.Stats(), s.IOTime()
	return &r, err
}

// durableMultiply runs the classical out-of-core product c = a·b
// (RunStrassen with crossover n) on a fresh durable store holding all
// three matrices.
func durableMultiply(dir string, a, b *dense, tr *tracer, group string) (*oocRun, error) {
	var r oocRun
	n := a.N()
	bytes := int64(n) * int64(n) * 8
	start := time.Now()
	var s *ooc.Store
	var ma, mb, mc *ooc.Matrix
	var err error
	r.load = timeCall(tr, group, "ooc.load", func() {
		if s, err = ooc.CreateAt(dir, oocConfig()); err != nil {
			return
		}
		layout := ooc.MortonTiledLayout(oocTile)
		ma, mb = ooc.NewMatrix(s, n, 0, layout), ooc.NewMatrix(s, n, bytes, layout)
		mc = ooc.NewMatrix(s, n, 2*bytes, layout)
		if err = ma.LoadTiles(a); err == nil {
			if err = mb.LoadTiles(b); err == nil {
				err = s.Checkpoint(0)
			}
		}
	})
	if err != nil {
		if s != nil {
			s.Abandon()
		}
		return nil, err
	}
	r.run = timeCall(tr, group, "ooc.run", func() {
		err = ooc.RunStrassen(mc, ma, mb, n, ooc.RunOptions{Prefetch: true})
	})
	if err != nil {
		s.Abandon()
		return nil, err
	}
	r.unload = timeCall(tr, group, "ooc.unload", func() {
		if r.out, err = mc.Unload(); err == nil {
			err = s.Close()
		} else {
			s.Abandon()
		}
	})
	r.total = time.Since(start)
	r.stats, r.ioModel = s.Stats(), s.IOTime()
	m, bElems := float64(oocCache)/8, float64(oocTile*oocTile)
	r.transfers = float64(r.stats.TileReads + r.stats.TileWrites)
	r.lowerBnd = classicalMMLowerBound(n, m, bElems)
	return &r, err
}

// classicalMMLowerBound is the tight I/O lower bound of classical
// matrix multiplication (Smith et al.) in block transfers, with M and
// B in elements: 2n³/(B·√M), floored by the compulsory 3n²/B.
func classicalMMLowerBound(n int, m, b float64) float64 {
	nf := float64(n)
	return math.Max(2*nf*nf*nf/(b*math.Sqrt(m)), 3*nf*nf/b)
}

// oocOp is one durable op of the round with its in-core reference.
type oocOp struct {
	name string // lu, fw, mm
	run  func(dir string, tr *tracer, group string) (*oocRun, error)
	ref  func() *dense // the in-core engine on the same input
}

func oocOps(in *oocInputs) []oocOp {
	incore := func(src *dense, op core.Op[float64], set core.UpdateSet) func() *dense {
		return func() *dense {
			d := src.Clone()
			core.RunIGEP[float64](d, op, set, core.WithBaseSize[float64](oocTile))
			return d
		}
	}
	return []oocOp{
		{
			name: "lu",
			run: func(dir string, tr *tracer, group string) (*oocRun, error) {
				return durableGEP(dir, in.luA, core.LUFactor[float64]{}, core.LU{}, tr, group)
			},
			ref: incore(in.luA, core.LUFactor[float64]{}, core.LU{}),
		},
		{
			name: "fw",
			run: func(dir string, tr *tracer, group string) (*oocRun, error) {
				return durableGEP(dir, in.fwW, core.MinPlus[float64]{}, core.Full{}, tr, group)
			},
			ref: incore(in.fwW, core.MinPlus[float64]{}, core.Full{}),
		},
		{
			name: "mm",
			run: func(dir string, tr *tracer, group string) (*oocRun, error) {
				return durableMultiply(dir, in.mmA, in.mmB, tr, group)
			},
			ref: func() *dense {
				c := matrix.NewSquare[float64](in.mmA.N())
				core.RunDisjoint[float64](c, in.mmA, in.mmB, in.mmB, core.MulAdd[float64]{}, core.Full{},
					core.WithBaseSize[float64](oocTile))
				return c
			},
		},
	}
}

func newOOCInputs(seed int64, out string) (*oocInputs, error) {
	dir := filepath.Join(out, fmt.Sprintf("ooc-%d-%d", os.Getpid(), seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &oocInputs{
		luA: dominantMatrix(oocN, newRNG(seed, 11)),
		fwW: randomGraph(oocN, oocFWP, 100, newRNG(seed, 12)),
		mmA: uniformMatrix(oocN, newRNG(seed, 13)),
		mmB: uniformMatrix(oocN, newRNG(seed, 14)),
		dir: dir,
	}, nil
}

func oocDurable(cfg *config, rep *report) error {
	var in *oocInputs
	for i := 0; i < setupReps; i++ {
		if err := rep.setup(func() error {
			var err error
			in, err = newOOCInputs(cfg.seed, cfg.out)
			return err
		}); err != nil {
			return err
		}
	}
	defer os.RemoveAll(in.dir)
	runs := map[string][]*oocRun{} // every checked run, by op
	refs := map[string][]float64{} // in-core reference seconds, by op
	var ops []op
	for _, o := range oocOps(in) {
		ops = append(ops, op{name: "ooc." + o.name, slot: o.name,
			run: func(tr *tracer, group string) (time.Duration, error) {
				r, ref, err := runDurable(o, in.dir, tr, group)
				if err != nil {
					return 0, err
				}
				runs[o.name] = append(runs[o.name], r)
				refs[o.name] = append(refs[o.name], ref.Seconds())
				return r.total, nil
			}})
	}
	measure(cfg, rep, func(tr *tracer, d time.Duration, warmup bool) *roundStats {
		return runRounds(rep, ops, tr, d, warmup)
	}, func(_, _ *roundStats) {
		reportOOCLayers(rep, runs, refs)
	})
	printTileWrites(rep, runs)
	return nil
}

// runDurable runs op o once in a fresh store directory under dir,
// inside a span named after the op when traced, and checks the result
// bit for bit against the in-core engine, which it also times.
func runDurable(o oocOp, dir string, tr *tracer, group string) (*oocRun, time.Duration, error) {
	dir, err := os.MkdirTemp(dir, o.name+"-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	var r *oocRun
	if tr != nil {
		id, end := tr.begin(group, "ooc."+o.name, tr.parent)
		r, err = o.run(dir, tr.child(id), group)
		end()
	} else {
		r, err = o.run(dir, nil, group)
	}
	start := time.Now()
	want := o.ref()
	ref := time.Since(start)
	if err != nil {
		return nil, ref, fmt.Errorf("ooc %s: %w", o.name, err)
	}
	if err := checkBitIdentical(want, r.out); err != nil {
		return nil, ref, err
	}
	r.out = nil
	return r, ref, nil
}

// printTileWrites prints the distinct tile-write counts each op showed
// over the run: one value per op when write-back is deterministic.
func printTileWrites(rep *report, runs map[string][]*oocRun) {
	for _, name := range []string{"lu", "fw", "mm"} {
		var ws []int64
		for _, x := range runs[name] {
			if !slices.Contains(ws, x.stats.TileWrites) {
				ws = append(ws, x.stats.TileWrites)
			}
		}
		slices.Sort(ws)
		rep.printf("ooc %s tile writes (distinct over %d runs): %v", name, len(runs[name]), ws)
	}
}

// reportOOCLayers sets the out-of-core per-layer metrics from every
// checked run of the traced run: per op the median span times, store
// counters and in-core reference, and the overhead over it; over all
// ops the summed store counters per round.
func reportOOCLayers(rep *report, runs map[string][]*oocRun, refs map[string][]float64) {
	var logical, physical, ckOK, jApp, jCom, jBytes float64
	spread := 0.0
	for _, name := range []string{"lu", "fw", "mm"} {
		var load, run, unload, reads, writes, iom []float64
		for _, x := range runs[name] {
			load = append(load, x.load.Seconds())
			run = append(run, x.run.Seconds())
			unload = append(unload, x.unload.Seconds())
			reads = append(reads, float64(x.stats.TileReads))
			writes = append(writes, float64(x.stats.TileWrites))
			iom = append(iom, x.ioModel.Seconds())
			logical += float64(x.stats.BytesLogical)
			physical += float64(x.stats.BytesPhysical)
			ckOK += float64(x.stats.ChecksumOK)
			jApp += float64(x.stats.JournalAppends)
			jCom += float64(x.stats.JournalCommits)
			jBytes += float64(x.stats.JournalBytes)
			if name == "mm" {
				rep.setLayer("ooc.mm_io_ratio", "ratio", x.transfers/x.lowerBnd)
			}
		}
		if len(writes) > 0 {
			spread = math.Max(spread, slices.Max(writes)-slices.Min(writes))
		}
		p := "ooc." + name + "."
		ref := median(refs[name])
		rep.setLayer(p+"load_s", "s", median(load))
		rep.setLayer(p+"run_s", "s", median(run))
		rep.setLayer(p+"unload_s", "s", median(unload))
		rep.setLayer(p+"incore_ref_s", "s", ref)
		rep.setLayer(p+"overhead_s", "s", median(run)-ref)
		rep.setLayer(p+"tile_reads", "count", median(reads))
		rep.setLayer(p+"tile_writes", "count", median(writes))
		rep.setLayer(p+"io_model_s", "s", median(iom))
	}
	k := float64(len(runs["lu"]))
	rep.setLayer("ooc.tile_writes.spread", "count", spread)
	rep.setLayer("ooc.bytes_logical_mb", "MB", logical/1e6/k)
	rep.setLayer("ooc.bytes_physical_mb", "MB", physical/1e6/k)
	rep.setLayer("ooc.checksum_ok", "count", ckOK/k)
	rep.setLayer("ooc.journal_appends", "count", jApp/k)
	rep.setLayer("ooc.journal_commits", "count", jCom/k)
	rep.setLayer("ooc.journal_mb", "MB", jBytes/1e6/k)
}
