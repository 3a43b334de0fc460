package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"persistmem/internal/hist"
	"persistmem/internal/sim"
)

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The metric tables the program reports from must be the ones
// BENCHMARK.json declares, name for name and unit for unit.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, names[i], units[i])
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: invalid name or unit %q %q", kind, d.name, d.unit)
			}
		}
	}
	var n, u []string
	for _, m := range bf.EndToEnd {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("end_to_end", endToEnd, n, u)
	n, u = nil, nil
	for _, m := range bf.PerLayer {
		n, u = append(n, m.Name), append(u, m.Unit)
	}
	check("per_layer", perLayer, n, u)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
}

// Every workload, untraced and traced, must emit exactly the declared
// metrics with their units, pass its own output checks, and end its
// stdout with the result line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--trace-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: present %v, unit %q, want %q", d.name, ok, m.Unit, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hotstock-disk", "--trace", "2"},
		{"--workload", "hotstock-disk", "--seconds", "0"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := medianOf([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []sim.Time{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want sim.Time
	}{{50, 5}, {99, 10}, {10, 1}, {11, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(p%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistQuantileInterpolatesInsideBucket(t *testing.T) {
	var h hist.H
	if got := histQuantile(&h, 50); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	for i := 1; i <= 10000; i++ {
		h.Record(sim.Time(i * 1000))
	}
	for _, c := range []struct{ q, exact float64 }{{50, 5e6}, {99, 9.9e6}} {
		got := histQuantile(&h, c.q)
		// The bucket edge alone is 0.4% (p50) and 2% (p99) low here.
		if math.Abs(got-c.exact)/c.exact > 0.0005 {
			t.Errorf("p%v = %v, want within 0.05%% of %v (bucket edge %v)", c.q, got, c.exact, h.Percentile(c.q))
		}
	}
	var one hist.H
	for i := 0; i < 100; i++ {
		one.Record(123456)
	}
	if got := histQuantile(&one, 50); got != 123456 {
		t.Errorf("single-valued p50 = %v, want 123456", got)
	}
}
