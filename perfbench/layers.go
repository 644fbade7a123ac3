package main

import (
	"time"

	"gep/internal/bench"
	"gep/internal/core"
	"gep/internal/linalg"
	"gep/internal/matrix"
)

// layerMetric declares one per-layer metric (BENCHMARK.json
// "per_layer"). counter marks a program counter from internal/metrics
// that reportPhase reads as a per-round delta under the same name.
type layerMetric struct {
	name, unit, better string
	counter            bool
}

// perLayer is the fixed list every -trace 1 run prints. A workload
// that bypasses a layer reports 0 for that layer's metrics.
var perLayer = func() []layerMetric {
	l := []layerMetric{
		{name: "host.peak_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "core.mm_block_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "core.lu_block_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "core.fw_block_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "linalg.mm_block_gflops", unit: "GFLOP/s", better: "higher"},
		{name: "core.mm_block_peak_pct", unit: "%", better: "higher"},
		{name: "core.lu_block_peak_pct", unit: "%", better: "higher"},
		{name: "core.fw_block_peak_pct", unit: "%", better: "higher"},
		{name: "linalg.mm_block_peak_pct", unit: "%", better: "higher"},
		{name: "core.kernel.fused", unit: "count", better: "higher", counter: true},
		{name: "core.kernel.flat", unit: "count", better: "lower", counter: true},
		{name: "core.kernel.generic", unit: "count", better: "lower", counter: true},
		{name: "core.forks", unit: "count", better: "lower", counter: true},
		{name: "core.kernel.tile.fused", unit: "count", better: "higher", counter: true},
		{name: "core.kernel.tile.flat", unit: "count", better: "lower", counter: true},
		{name: "core.kernel.tile.generic", unit: "count", better: "lower", counter: true},
		{name: "gep.mm_s", unit: "s", better: "lower"},
		{name: "gep.lu_s", unit: "s", better: "lower"},
		{name: "gep.calu_s", unit: "s", better: "lower"},
		{name: "gep.fw_s", unit: "s", better: "lower"},
		{name: "gep.mm_par_s", unit: "s", better: "lower"},
		{name: "gep.lu_par_s", unit: "s", better: "lower"},
		{name: "gep.calu_par_s", unit: "s", better: "lower"},
		{name: "gep.fw_par_s", unit: "s", better: "lower"},
		{name: "gep.solve.coverage", unit: "ratio", better: "higher"},
		{name: "matrix.pad_s", unit: "s", better: "lower"},
		{name: "linalg.factor_s", unit: "s", better: "lower"},
		{name: "linalg.substitute_s", unit: "s", better: "lower"},
		{name: "linalg.pivot.panels", unit: "count", better: "lower", counter: true},
		{name: "linalg.pivot.tournament.matches", unit: "count", better: "lower", counter: true},
		{name: "linalg.pivot.swaps", unit: "count", better: "lower", counter: true},
		{name: "linalg.pivot.trailing.tiles", unit: "count", better: "lower", counter: true},
		{name: "par.spawn.pooled", unit: "count", better: "lower", counter: true},
		{name: "par.spawn.inline", unit: "count", better: "lower", counter: true},
		{name: "par.steal", unit: "count", better: "lower", counter: true},
		{name: "par.help", unit: "count", better: "lower", counter: true},
		{name: "par.cpu_util", unit: "ratio", better: "higher"},
		{name: "par.sched_wait_s", unit: "s", better: "lower"},
		{name: "par.serial_s", unit: "s", better: "lower"},
		{name: "par.parallel_s", unit: "s", better: "lower"},
		{name: "par.speedup", unit: "ratio", better: "higher"},
		{name: "go.alloc_mb", unit: "MB", better: "lower"},
		{name: "go.gc_cycles", unit: "count", better: "lower"},
		{name: "serve.job_p50_ms", unit: "ms", better: "lower"},
		{name: "serve.job_p95_ms", unit: "ms", better: "lower"},
		{name: "serve.submit_ms", unit: "ms", better: "lower"},
		{name: "serve.queue_ms", unit: "ms", better: "lower"},
		{name: "serve.run_ms", unit: "ms", better: "lower"},
		{name: "serve.notify_ms", unit: "ms", better: "lower"},
		{name: "serve.result_ms", unit: "ms", better: "lower"},
		{name: "serve.result_kb", unit: "KB", better: "lower"},
		{name: "serve.sse_events", unit: "count", better: "lower"},
		{name: "serve.coverage", unit: "ratio", better: "higher"},
	}
	for _, o := range []string{"lu", "fw", "mm"} {
		p := "ooc." + o + "."
		l = append(l,
			layerMetric{name: p + "load_s", unit: "s", better: "lower"},
			layerMetric{name: p + "run_s", unit: "s", better: "lower"},
			layerMetric{name: p + "unload_s", unit: "s", better: "lower"},
			layerMetric{name: p + "incore_ref_s", unit: "s", better: "lower"},
			layerMetric{name: p + "overhead_s", unit: "s", better: "lower"},
			layerMetric{name: p + "tile_reads", unit: "count", better: "lower"},
			layerMetric{name: p + "tile_writes", unit: "count", better: "lower"},
			layerMetric{name: p + "io_model_s", unit: "s", better: "lower"},
		)
	}
	return append(l,
		layerMetric{name: "ooc.tile_writes.spread", unit: "count", better: "lower"},
		layerMetric{name: "ooc.bytes_logical_mb", unit: "MB", better: "lower"},
		layerMetric{name: "ooc.bytes_physical_mb", unit: "MB", better: "lower"},
		layerMetric{name: "ooc.checksum_ok", unit: "count", better: "lower"},
		layerMetric{name: "ooc.journal_appends", unit: "count", better: "lower"},
		layerMetric{name: "ooc.journal_commits", unit: "count", better: "lower"},
		layerMetric{name: "ooc.journal_mb", unit: "MB", better: "lower"},
		layerMetric{name: "ooc.prefetch.issued", unit: "count", better: "lower", counter: true},
		layerMetric{name: "ooc.prefetch.hit", unit: "count", better: "higher", counter: true},
		layerMetric{name: "ooc.prefetch.skip", unit: "count", better: "lower", counter: true},
		layerMetric{name: "ooc.writebehind", unit: "count", better: "lower", counter: true},
		layerMetric{name: "ooc.tile.hit", unit: "count", better: "higher", counter: true},
		layerMetric{name: "ooc.tile.fault", unit: "count", better: "lower", counter: true},
		layerMetric{name: "ooc.mm_io_ratio", unit: "ratio", better: "lower"},
		layerMetric{name: "trace.overhead_pct", unit: "%", better: "lower"},
	)
}()

// blockSide is the side of the flat buffers the block-kernel rates use:
// the facade's base-case size.
const blockSide = 64

// kernelRates measures the base-case kernels through their public
// entries on side-64 flat buffers, the host's calibrated peak, and
// each rate as a share of that peak. Every kernel does 2·64³
// floating-point operations per call (a min-plus pair counts as two).
func kernelRates(rep *report) {
	const s = blockSide
	buf := func(seed int64) []float64 {
		m := uniformMatrix(s, newRNG(seed, 100))
		return append([]float64(nil), m.Data()...)
	}
	x, u, v := buf(1), buf(2), buf(3)
	flops := 2.0 * s * s * s
	rate := func(f func()) float64 {
		f()
		var rates []float64
		for i := 0; i < 15; i++ {
			const calls = 40
			start := time.Now()
			for c := 0; c < calls; c++ {
				f()
			}
			rates = append(rates, flops*calls/time.Since(start).Seconds()/1e9)
		}
		return median(rates)
	}
	peak := bench.PeakGFLOPS()
	mm := rate(func() {
		core.DisjointBlock[float64](core.MulAdd[float64]{}, core.Full{}, x, s, u, s, v, s, v, s, s)
	})
	// An off-diagonal tile of the LU trailing update: x -= u·v.
	lu := rate(func() {
		core.TileKernel[float64](core.LUFactor[float64]{}, core.LU{}, x, u, v, v, 2*s, 2*s, 0, s)
	})
	fw := rate(func() {
		core.TileKernel[float64](core.MinPlus[float64]{}, core.Full{}, x, u, v, v, 2*s, 2*s, 0, s)
	})
	a, b, c := matrix.FromSlice(s, s, u), matrix.FromSlice(s, s, v), matrix.FromSlice(s, s, x)
	ref := rate(func() { linalg.MulIGEP(c, a, b, s) })
	rep.setLayer("host.peak_gflops", "GFLOP/s", peak)
	for _, k := range []struct {
		name string
		v    float64
	}{{"core.mm_block", mm}, {"core.lu_block", lu}, {"core.fw_block", fw}, {"linalg.mm_block", ref}} {
		rep.setLayer(k.name+"_gflops", "GFLOP/s", k.v)
		rep.setLayer(k.name+"_peak_pct", "%", 100*k.v/peak)
	}
	rep.printf("block kernels (side %d): MM %.2f, LU %.2f, FW %.2f, hand-written MM %.2f GFLOP/s; peak %.2f",
		s, mm, lu, fw, ref, peak)
}
