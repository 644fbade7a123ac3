package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkJSON keeps ../BENCHMARK.json in step with the metrics and
// workloads the command prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, command has %s", got, want)
	}
	var e2e []string
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if got, want := strings.Join(e2e, ","), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end %s, command prints %s", got, want)
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d metrics, command prints %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %v, command prints %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// TestWorkloadsSmoke runs every workload for a moment, traced and
// untraced, and checks the result line.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			code := run([]string{"-workload", name, "-seconds", "0.01", "-trace", trace, "-out", t.TempDir()}, &out, &errb)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", name, trace, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line: %v", name, err)
			}
			want := len(endToEnd)
			if trace == "1" {
				want = len(perLayer)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != want {
				t.Errorf("%s trace %s: correct %v attempted %d failed %d metrics %d (want %d)",
					name, trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), want)
			}
		}
	}
}
