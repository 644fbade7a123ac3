// Command perfbench is the end-to-end, layer-attributed benchmark of
// the gep module. One invocation runs one workload for a fixed time:
//
//	perfbench -workload dense-facade -seed 1 -seconds 36 -trace 0
//
// It times only calls into the module's public packages, checks every
// output with computations of its own (check.go), and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with -trace 1 the run also replays the workload with
// in-memory spans around every call into a layer and prints the
// per-layer metrics instead, writing the spans to a file under -out.
// README.md in this directory describes the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // scratch and span directory
	procs   int    // nproc: the cap on workers, clients and connections
}

// workload runs for cfg.seconds and fills rep.
type workload func(cfg *config, rep *report) error

var workloads = map[string]workload{
	"dense-facade": denseFacade,
	"http-jobs":    httpJobs,
	"ooc-durable":  oocDurable,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 36, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for store scratch and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := &config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		out:     *out,
		procs:   runtime.NumCPU(),
	}
	if err := os.MkdirAll(cfg.out, 0o777); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := newReport(*name, cfg)
	if err := w(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.finish()
	if cfg.trace {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", *name, cfg.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans.spans), path)
	}
	rep.printText(stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome. Workloads record end-to-end
// figures with e2e and per-layer figures with layer; finish fills every
// declared per-layer metric the workload did not touch with 0, since a
// layer a workload bypasses does no work there.
type report struct {
	workload  string
	cfg       *config
	attempted int
	failed    int
	failures  []string
	e2e       map[string]metric
	layer     map[string]metric
	text      []string
	spans     *tracer
	setups    []time.Duration
}

func newReport(name string, cfg *config) *report {
	r := &report{
		workload: name,
		cfg:      cfg,
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
	if cfg.trace {
		r.spans = newTracer()
	}
	return r
}

// check counts one attempted operation and records its failure, if
// any; err is the verdict of the operation's output check.
func (r *report) check(op string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", op, err))
		}
	}
}

func (r *report) setE2E(name, unit string, v float64) { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name, unit string, v float64) {
	r.layer[name] = metric{v, unit}
}

func (r *report) printf(format string, args ...any) {
	r.text = append(r.text, fmt.Sprintf(format, args...))
}

// setupReps is how many times a workload sets up; setup_s is the
// median.
const setupReps = 21

// setup times one set-up; the workload calls it setupReps times and
// finish reports the median as setup_s.
func (r *report) setup(f func() error) error {
	runtime.GC()
	start := time.Now()
	err := f()
	r.setups = append(r.setups, time.Since(start))
	return err
}

func (r *report) finish() {
	r.setE2E("setup_s", "s", median(seconds(r.setups)))
	r.setE2E("peak_rss_mb", "MB", peakRSSMB())
	if r.cfg.trace {
		for _, d := range perLayer {
			if _, ok := r.layer[d.name]; !ok {
				r.layer[d.name] = metric{0, d.unit}
			}
		}
	}
}

func (r *report) result() any {
	ms := map[string]metric{}
	if r.cfg.trace {
		for _, d := range perLayer {
			ms[d.name] = r.layer[d.name]
		}
	} else {
		for _, name := range endToEnd {
			ms[name] = r.e2e[name]
		}
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms}
}

func (r *report) printText(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %.0f  trace %v\n",
		r.workload, r.cfg.seed, r.cfg.seconds.Seconds(), r.cfg.trace)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  %s\n",
		r.cfg.procs, runtime.GOMAXPROCS(0), runtime.Version())
	for _, l := range r.text {
		fmt.Fprintln(w, l)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	fmt.Fprintf(w, "attempted %d  failed %d\n", r.attempted, r.failed)
	names := make([]string, 0, len(r.e2e))
	for n := range r.e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-22s %12.6g %s\n", n, r.e2e[n].Value, r.e2e[n].Unit)
	}
	if r.cfg.trace {
		for _, d := range perLayer {
			m := r.layer[d.name]
			fmt.Fprintf(w, "  %-34s %12.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// endToEnd lists the BENCHMARK.json end-to-end metrics every workload
// reports with -trace 0.
var endToEnd = []string{"setup_s", "peak_rss_mb", "mm_s", "lu_s", "fw_s", "ops_per_s"}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
