package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads back: the
// end-to-end metrics with their bounds, and the names a run must emit.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest loads BENCHMARK.json from the repository root, the parent
// of the benchmark directory.
func readManifest() (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(home(), "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// readRuns parses every run output in dir into workload -> metric ->
// values. A run output is what a run printed: the header names the
// workload, the last line is the result.
func readRuns(dir string) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.out run outputs", dir)
	}
	runs := map[string]map[string][]float64{}
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var workload, last string
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "# nimbus-benchmark workload="); ok {
				workload, _, _ = strings.Cut(rest, " ")
			}
			if line != "" {
				last = line
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil || workload == "" {
			return nil, fmt.Errorf("%s: not a run output (header or result line missing)", path)
		}
		if !r.Correct || r.Failed != 0 {
			return nil, fmt.Errorf("%s: run failed (%d of %d iterations)", path, r.Failed, r.Attempted)
		}
		if runs[workload] == nil {
			runs[workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			runs[workload][name] = append(runs[workload][name], m.Value)
		}
	}
	return runs, nil
}

// quartiles returns Q1, the median and Q3 by the method of Python's
// statistics.quantiles(values, n=4) (exclusive), which the driver uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return v[j-1] + frac*(v[j]-v[j-1])
	}
	return at(1), at(2), at(3)
}

// minSetRuns is the smallest set -agree accepts: quartiles of fewer runs
// say little, and the acceptance criterion asks for ten.
const minSetRuns = 10

// agreeMode compares two sets of runs of the same code. For every
// workload and end-to-end metric it prints both sets' quartiles, each
// set's spread (IQR / median), how much worse set B's median is than set
// A's, and the bound; it returns 1 if any spread, or the difference of the
// medians in either direction, exceeds the bound. Both sets need at least
// minSetRuns runs of every workload.
func agreeMode(dirA, dirB string) int {
	man, err := readManifest()
	if err != nil {
		fatal("%v", err)
	}
	a, err := readRuns(dirA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readRuns(dirB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("| workload | metric | runs A/B | A q1 / median / q3 | B q1 / median / q3 | spread A | spread B | B worse by | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) < minSetRuns || len(vb) < minSetRuns {
				fmt.Printf("| %s | %s | %d/%d | | | | | | %.0f%% | TOO FEW RUNS |\n", w.Name, m.Name, len(va), len(vb), m.Bound*100)
				code = 1
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			// A spread wider than the bound leaves the metric unresolved at
			// that bound, whatever the medians say.
			verdict := "ok"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict, code = "UNRESOLVED", 1
			case math.Abs(worse) > m.Bound:
				verdict, code = "DISAGREES", 1
			}
			fmt.Printf("| %s | %s | %d/%d | %.4g / %.4g / %.4g | %.4g / %.4g / %.4g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, len(va), len(vb), a1, a2, a3, b1, b2, b3,
				spreadA*100, spreadB*100, worse*100, m.Bound*100, verdict)
		}
	}
	return code
}
