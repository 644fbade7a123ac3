package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"gep/internal/metrics"
)

// op is one operation of a workload's round: run prepares fresh inputs
// (untimed), times the call into the program, and checks the output.
// slot names the end-to-end metric the op's time feeds ("" for none);
// layer names the per-layer metric that takes the op's median time
// ("" for none).
type op struct {
	name  string // span name, e.g. "gep.Multiply"
	slot  string
	layer string
	run   func(tr *tracer, group string) (time.Duration, error)
}

// timeCall times f, inside a span when tr is set.
func timeCall(tr *tracer, group, name string, f func()) time.Duration {
	if tr != nil {
		return tr.timed(group, name, tr.parent, f)
	}
	start := time.Now()
	f()
	return time.Since(start)
}

// roundStats collects the timings of whole rounds of a workload's ops.
type roundStats struct {
	rounds      int
	opsPerRound int
	perOp       map[string][]float64 // op name → seconds
	slots       map[string][]float64 // end-to-end slot → seconds per sample
	roundSums   []float64            // per round: summed op seconds, or wall time of concurrent ops
}

func newRoundStats() *roundStats {
	return &roundStats{perOp: map[string][]float64{}, slots: map[string][]float64{}}
}

func (st *roundStats) add(o op, d time.Duration) {
	st.perOp[o.name] = append(st.perOp[o.name], d.Seconds())
}

// addSlot records one sample of an end-to-end slot.
func (st *roundStats) addSlot(slot string, d time.Duration) {
	if slot != "" {
		st.slots[slot] = append(st.slots[slot], d.Seconds())
	}
}

func (st *roundStats) roundMedian() float64 { return median(st.roundSums) }

// reportE2E sets the workload's end-to-end metrics: the median sample
// of each slot and the ops completed per second of a median round.
func (st *roundStats) reportE2E(rep *report) {
	for _, s := range []string{"mm", "lu", "fw"} {
		rep.setE2E(s+"_s", "s", median(st.slots[s]))
	}
	rep.setE2E("ops_per_s", "1/s", float64(st.opsPerRound)/st.roundMedian())
	rep.printf("rounds %d (%d ops each), median round %.4f s", st.rounds, st.opsPerRound, st.roundMedian())
	for _, name := range slices.Sorted(maps.Keys(st.perOp)) {
		xs := st.perOp[name]
		rep.printf("  %-28s median %.4f s  (n=%d)", name, median(xs), len(xs))
	}
}

// runRounds runs whole rounds of ops until d has passed; with warmup,
// one extra round first lets caches fill and lazy set-up finish. Every
// op is checked and counted; only measured rounds enter the timings.
// A slot's sample is the summed time of the round's ops that feed it.
// Each op starts from a freshly collected heap, so the garbage of the
// previous op and of the checks does not land in its time.
func runRounds(rep *report, ops []op, tr *tracer, d time.Duration, warmup bool) *roundStats {
	st := newRoundStats()
	st.opsPerRound = len(ops)
	if warmup {
		for _, o := range ops {
			_, err := o.run(nil, "")
			rep.check(o.name, err)
		}
	}
	deadline := time.Now().Add(d)
	for st.rounds == 0 || time.Now().Before(deadline) {
		var sum time.Duration
		slots := map[string]time.Duration{}
		for _, o := range ops {
			group := fmt.Sprintf("r%d.%s", st.rounds, o.name)
			runtime.GC()
			dur, err := o.run(tr, group)
			rep.check(o.name, err)
			st.add(o, dur)
			slots[o.slot] += dur
			sum += dur
		}
		for _, s := range slices.Sorted(maps.Keys(slots)) {
			st.addSlot(s, slots[s])
		}
		st.roundSums = append(st.roundSums, sum.Seconds())
		st.rounds++
	}
	return st
}

// phaseCounters samples the program's counters and the Go runtime
// around a traced phase.
type phaseCounters struct {
	start time.Time
	ctr   map[string]int64
	gs    goStats
}

func samplePhase() phaseCounters {
	runtime.GC()
	return phaseCounters{start: time.Now(), ctr: metrics.Snapshot(), gs: readGoStats()}
}

// reportPhase sets the counter-based per-layer metrics for a traced
// phase: program counters per round, allocations and GC cycles per op,
// CPU utilization over the phase and summed scheduling latency per
// round.
func reportPhase(rep *report, p phaseCounters, rounds, opsPerRound int) {
	wall := time.Since(p.start).Seconds()
	diff := metrics.Diff(p.ctr, metrics.Snapshot())
	gs := readGoStats().sub(p.gs)
	k := float64(rounds)
	for _, d := range perLayer {
		if d.counter {
			rep.setLayer(d.name, d.unit, float64(diff[d.name])/k)
		}
	}
	ops := k * float64(opsPerRound)
	rep.setLayer("go.alloc_mb", "MB", gs.allocBytes/1e6/ops)
	rep.setLayer("go.gc_cycles", "count", gs.gcCycles/ops)
	rep.setLayer("par.cpu_util", "ratio", gs.userCPU/(wall*float64(runtime.GOMAXPROCS(0))))
	rep.setLayer("par.sched_wait_s", "s", gs.schedWait/k)
}

// rounder runs whole rounds of a workload for d, traced when tr is
// set; with warmup, one unmeasured round first.
type rounder func(tr *tracer, d time.Duration, warmup bool) *roundStats

// measure drives a workload's rounds. Untraced, it measures for the
// run's time and sets the end-to-end metrics. Traced, it measures the
// block-kernel rates, then runs half the time untraced and half
// traced; the tracing overhead is the traced median round over the
// untraced one, and layers adds the workload's own per-layer metrics.
func measure(cfg *config, rep *report, rounds rounder, layers func(plain, traced *roundStats)) {
	if !cfg.trace {
		rounds(nil, cfg.seconds, true).reportE2E(rep)
		return
	}
	kernelRates(rep)
	plain := rounds(nil, cfg.seconds/2, true)
	p := samplePhase()
	traced := rounds(rep.spans, cfg.seconds/2, false)
	reportPhase(rep, p, traced.rounds, traced.opsPerRound)
	overhead := (traced.roundMedian()/plain.roundMedian() - 1) * 100
	rep.setLayer("trace.overhead_pct", "%", overhead)
	rep.printf("untraced median round %.4f s, traced %.4f s: overhead %.2f%%",
		plain.roundMedian(), traced.roundMedian(), overhead)
	layers(plain, traced)
}
