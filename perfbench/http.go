package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gep/internal/matrix"
	"gep/internal/serve"
)

// Make-up of the HTTP workload: a round is 20 jobs, four of each kind,
// one of the four at the large side; nproc closed-loop clients share
// the round.
const (
	httpSmallN   = 128
	httpLargeN   = 256
	httpPerKind  = 4
	httpAPSPP    = 0.05 // edge density of apsp graphs
	httpClosureP = 0.02 // edge density of closure relations
)

var httpKinds = []struct{ op, pivot, slot string }{
	{"lu", "none", "lu"},
	{"lu", "tournament", "lu"},
	{"multiply", "", "mm"},
	{"apsp", "", "fw"},
	{"closure", "", ""},
}

// httpJob is one prepared job: its request body and its output check.
type httpJob struct {
	name  string // e.g. "lu/tournament/128"
	slot  string
	body  []byte
	check func(res *jobResult) error
}

// jobSpec is the subset of the server's job body the benchmark sends.
type jobSpec struct {
	Op    string    `json:"op"`
	N     int       `json:"n"`
	Pivot string    `json:"pivot,omitempty"`
	Data  []float64 `json:"data,omitempty"`
	A     []float64 `json:"a,omitempty"`
	B     []float64 `json:"b,omitempty"`
}

// jobView is the subset of the server's job status the client reads.
type jobView struct {
	ID         string           `json:"id"`
	Status     string           `json:"status"`
	Error      string           `json:"error"`
	QueuedAt   string           `json:"queued_at"`
	StartedAt  string           `json:"started_at"`
	FinishedAt string           `json:"finished_at"`
	Metrics    map[string]int64 `json:"metrics"`
}

// jobResult is the subset of the server's result body the checks use.
type jobResult struct {
	Data []*float64 `json:"data"`
	Perm []int      `json:"perm"`
}

func flat(m *dense) []float64 {
	n := m.N()
	out := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		out = append(out, m.Row(i)[:n]...)
	}
	return out
}

// resultMatrix rebuilds an n×n matrix from a result body; JSON null
// (an unreachable pair of an apsp job) becomes +Inf.
func resultMatrix(res *jobResult, n int) (*dense, error) {
	if len(res.Data) != n*n {
		return nil, fmt.Errorf("result has %d cells, want %d", len(res.Data), n*n)
	}
	m := matrix.NewSquare[float64](n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			if p := res.Data[i*n+j]; p != nil {
				row[j] = *p
			} else {
				row[j] = math.Inf(1)
			}
		}
	}
	return m, nil
}

// newHTTPJobs builds one round's jobs from the seed. Every job carries
// its input data explicitly.
func newHTTPJobs(seed int64) ([]httpJob, error) {
	var jobs []httpJob
	for rep := 0; rep < httpPerKind; rep++ {
		for k, kind := range httpKinds {
			n := httpSmallN
			if (rep+k)%httpPerKind == httpPerKind-1 {
				n = httpLargeN
			}
			idx := int64(rep*len(httpKinds) + k)
			rng := newRNG(seed, 100+idx)
			// Clients check concurrently: each check draws its vectors
			// from a generator of its own.
			checkRNG := func() *rand.Rand { return newRNG(seed, 200+idx) }
			spec := jobSpec{Op: kind.op, N: n, Pivot: kind.pivot}
			var check func(res *jobResult) error
			switch {
			case kind.op == "lu" && kind.pivot == "none":
				a := dominantMatrix(n, rng)
				spec.Data = flat(a)
				check = func(res *jobResult) error {
					lu, err := resultMatrix(res, n)
					if err != nil {
						return err
					}
					return checkLU(a, lu, nil, checkRNG())
				}
			case kind.op == "lu":
				a := uniformMatrix(n, rng)
				spec.Data = flat(a)
				check = func(res *jobResult) error {
					lu, err := resultMatrix(res, n)
					if err != nil {
						return err
					}
					return checkLU(a, lu, res.Perm, checkRNG())
				}
			case kind.op == "multiply":
				a, b := uniformMatrix(n, rng), uniformMatrix(n, rng)
				spec.A, spec.B = flat(a), flat(b)
				check = func(res *jobResult) error {
					c, err := resultMatrix(res, n)
					if err != nil {
						return err
					}
					return checkProduct(a, b, c, checkRNG())
				}
			case kind.op == "apsp":
				w := randomGraph(n, httpAPSPP, 100, rng)
				spec.Data = flat(w)
				for i, v := range spec.Data {
					if math.IsInf(v, 1) {
						spec.Data[i] = 0 // the wire encoding of "no edge"
					}
				}
				check = func(res *jobResult) error {
					d, err := resultMatrix(res, n)
					if err != nil {
						return err
					}
					return checkShortestPaths(w, d)
				}
			case kind.op == "closure":
				e := randomRelation(n, httpClosureP, rng)
				spec.Data = make([]float64, n*n)
				for i := range e {
					for j, on := range e[i] {
						if on {
							spec.Data[i*n+j] = 1
						}
					}
				}
				check = func(res *jobResult) error {
					if len(res.Data) != n*n {
						return fmt.Errorf("result has %d cells, want %d", len(res.Data), n*n)
					}
					return checkClosure(e, func(i, j int) bool {
						p := res.Data[i*n+j]
						return p != nil && *p != 0
					})
				}
			}
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s/%s/%d", kind.op, kind.pivot, n)
			jobs = append(jobs, httpJob{name: name, slot: kind.slot, body: body, check: check})
		}
	}
	return jobs, nil
}

// jobTiming is one job's client-side record.
type jobTiming struct {
	result                          *jobResult // checked after the round
	latency                         time.Duration
	submit, queue, run, notify, res time.Duration
	resultBytes                     int
	events                          int
	par                             map[string]int64
	start, end                      time.Time
	submitted, started, finished    time.Time
	doneAt, resultStart             time.Time
}

// httpEnv is a running in-process server and its client.
type httpEnv struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func startServer(procs int) *httpEnv {
	// MaxConcurrent jobs of one worker each keep the server at nproc
	// workers; the transport opens at most nproc connections.
	srv := serve.New(serve.Config{MaxConcurrent: procs, DefaultWorkers: 1, MaxWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}
	return &httpEnv{srv: srv, ts: ts, client: &http.Client{Transport: tr}}
}

func (e *httpEnv) stop() error {
	e.client.CloseIdleConnections()
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return e.srv.Shutdown(ctx)
}

// runJob submits one job, waits for its /events "done" event and
// fetches and decodes its result.
func (e *httpEnv) runJob(j httpJob) (*jobTiming, error) {
	t := &jobTiming{start: time.Now()}
	resp, err := e.client.Post(e.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		return nil, err
	}
	var v jobView
	err = decodeBody(resp, http.StatusAccepted, &v)
	t.submitted = time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	done, events, err := e.awaitDone(v.ID)
	t.doneAt = time.Now()
	if err != nil {
		return nil, err
	}
	t.events = events
	if done.Status != "done" {
		return nil, fmt.Errorf("job %s ended %s: %s", v.ID, done.Status, done.Error)
	}
	t.resultStart = time.Now()
	resp, err = e.client.Get(e.ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return nil, err
	}
	var body []byte
	if resp.StatusCode == http.StatusOK {
		body, err = io.ReadAll(resp.Body)
	} else {
		err = fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var res jobResult
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, fmt.Errorf("result: %w", err)
	}
	t.end = time.Now()
	t.resultBytes = len(body)
	t.par = done.Metrics
	queued, err := time.Parse(time.RFC3339Nano, done.QueuedAt)
	if err == nil {
		t.started, err = time.Parse(time.RFC3339Nano, done.StartedAt)
	}
	if err == nil {
		t.finished, err = time.Parse(time.RFC3339Nano, done.FinishedAt)
	}
	if err != nil {
		return nil, fmt.Errorf("job timestamps: %w", err)
	}
	t.latency = t.end.Sub(t.start)
	t.submit = t.submitted.Sub(t.start)
	t.queue = t.started.Sub(queued)
	t.run = t.finished.Sub(t.started)
	t.notify = t.doneAt.Sub(t.finished)
	t.res = t.end.Sub(t.resultStart)
	t.result = &res
	return t, nil
}

// awaitDone reads the job's event stream up to its "done" event.
func (e *httpEnv) awaitDone(id string) (jobView, int, error) {
	var v jobView
	resp, err := e.client.Get(e.ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return v, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, 0, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	events, event := 0, ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return v, events, fmt.Errorf("events: stream ended before done: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events++
		case strings.HasPrefix(line, "data: ") && event == "done":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return v, events, fmt.Errorf("events: %w", err)
			}
			return v, events, nil
		}
	}
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rounds runs whole rounds of the jobs with procs closed-loop clients
// until d has passed; with warmup, one unrecorded round first. A
// round's outputs are checked after its timing ends, from a freshly
// collected heap, so the checks neither compete with running jobs nor
// lengthen the clients' loop.
func (e *httpEnv) rounds(rep *report, jobs []httpJob, procs int, d time.Duration, warmup bool) (*roundStats, []*jobTiming) {
	st := newRoundStats()
	st.opsPerRound = len(jobs)
	var all []*jobTiming
	round := func() ([]*jobTiming, time.Duration) {
		runtime.GC()
		start := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		out := make([]*jobTiming, len(jobs))
		errs := make([]error, len(jobs))
		for c := 0; c < procs; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) {
						return
					}
					out[i], errs[i] = e.runJob(jobs[i])
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		for i, j := range jobs {
			if errs[i] == nil {
				errs[i] = j.check(out[i].result)
				out[i].result = nil
			}
			rep.check(j.name, errs[i])
		}
		return out, wall
	}
	if warmup {
		round()
	}
	deadline := time.Now().Add(d)
	for st.rounds == 0 || time.Now().Before(deadline) {
		ts, wall := round()
		st.roundSums = append(st.roundSums, wall.Seconds())
		st.rounds++
		for i, t := range ts {
			if t != nil {
				// The end-to-end slots take the op's run time as the
				// server reports it; the client latency mixes in the
				// /events poll tick (see README.md).
				st.add(op{name: jobs[i].name}, t.run)
				st.addSlot(jobs[i].slot, t.run)
				all = append(all, t)
			}
		}
	}
	return st, all
}

func httpJobs(cfg *config, rep *report) error {
	var jobs []httpJob
	var env *httpEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return err
			}
		}
		if err := rep.setup(func() error {
			var err error
			jobs, err = newHTTPJobs(cfg.seed)
			env = startServer(cfg.procs)
			return err
		}); err != nil {
			env.stop()
			return err
		}
	}
	var all, traced []*jobTiming
	measure(cfg, rep, func(tr *tracer, d time.Duration, warmup bool) *roundStats {
		st, ts := env.rounds(rep, jobs, cfg.procs, d, warmup)
		all = append(all, ts...)
		if tr != nil {
			traced = append(traced, ts...)
		}
		return st
	}, func(_, st *roundStats) {
		reportServeLayers(rep, all, traced, st.rounds)
	})
	rep.printf("jobs %d, client latency p50 %.2f ms, p95 %.2f ms", len(all),
		1e3*quantile(latencies(all), 0.5), 1e3*quantile(latencies(all), 0.95))
	return env.stop()
}

func latencies(ts []*jobTiming) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.latency.Seconds()
	}
	return out
}

// reportServeLayers records each traced job as a span tree (the
// client's latency with the submit, queue, run, notify and result
// spans under it) and sets the serve per-layer metrics: latency
// percentiles over every job of the run, per-span medians over the
// traced jobs, and the per-job runtimes' scheduler counters per round.
func reportServeLayers(rep *report, all, traced []*jobTiming, rounds int) {
	tr := rep.spans
	ms := func(ds []float64) float64 { return 1e3 * median(ds) }
	var sub, que, run, not, res, kb, ev []float64
	parSum := map[string]int64{}
	for i, t := range traced {
		group := fmt.Sprintf("job%d", i)
		root := tr.record(group, "serve.job", 0, t.start, t.end)
		tr.record(group, "serve.submit", root, t.start, t.submitted)
		tr.record(group, "serve.queue", root, t.started.Add(-t.queue), t.started)
		tr.record(group, "serve.run", root, t.started, t.finished)
		tr.record(group, "serve.notify", root, t.finished, t.doneAt)
		tr.record(group, "serve.result", root, t.resultStart, t.end)
		sub = append(sub, t.submit.Seconds())
		que = append(que, t.queue.Seconds())
		run = append(run, t.run.Seconds())
		not = append(not, t.notify.Seconds())
		res = append(res, t.res.Seconds())
		kb = append(kb, float64(t.resultBytes)/1e3)
		ev = append(ev, float64(t.events))
		for k, v := range t.par {
			parSum[k] += v
		}
	}
	lat := latencies(all)
	rep.setLayer("serve.job_p50_ms", "ms", 1e3*quantile(lat, 0.5))
	rep.setLayer("serve.job_p95_ms", "ms", 1e3*quantile(lat, 0.95))
	rep.setLayer("serve.submit_ms", "ms", ms(sub))
	rep.setLayer("serve.queue_ms", "ms", ms(que))
	rep.setLayer("serve.run_ms", "ms", ms(run))
	rep.setLayer("serve.notify_ms", "ms", ms(not))
	rep.setLayer("serve.result_ms", "ms", ms(res))
	rep.setLayer("serve.result_kb", "KB", median(kb))
	rep.setLayer("serve.sse_events", "count", mean(ev))
	cov := tr.coverage("serve.job")
	rep.setLayer("serve.coverage", "ratio", cov)
	for _, name := range []string{"par.spawn.pooled", "par.spawn.inline", "par.steal", "par.help"} {
		rep.setLayer(name, "count", float64(parSum[name])/float64(rounds))
	}
	rep.printf("jobs %d (p95 has %d beyond it); HTTP job span coverage %.4f",
		len(all), len(all)/20, cov)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
