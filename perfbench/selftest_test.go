package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test builds xqd and the benchmark, runs each workload briefly
// in both modes, and checks that every metric BENCHMARK.json names is
// printed with its unit and that no request failed; a run with one
// deliberately corrupted expected result must report the failure.

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func buildBinaries(t *testing.T) (bench, xqd string) {
	t.Helper()
	dir := t.TempDir()
	bench, xqd = filepath.Join(dir, "perfbench"), filepath.Join(dir, "xqd")
	for _, args := range [][]string{{"build", "-o", xqd, "xqtp/cmd/xqd"}, {"build", "-o", bench, "."}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
	return bench, xqd
}

// runBench runs one short benchmark and parses its last output line.
func runBench(t *testing.T, bench, xqd string, args ...string) (runResult, error) {
	t.Helper()
	cmd := exec.Command(bench, append([]string{"--xqd", xqd, "--seconds", "2", "--seed", "7"}, args...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not the result (%v; run error %v):\n%s\n%s", args, err, runErr, out, stderr.String())
	}
	return res, runErr
}

func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds xqd and runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bench, xqd := buildBinaries(t)
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res, err := runBench(t, bench, xqd, "--workload", w.Name, "--trace", trace)
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: err %v, correct %v, %d of %d failed", w.Name, trace, err, res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
		res, err := runBench(t, bench, xqd, "--workload", w.Name, "--trace", "0", "--corrupt", "1")
		var exit *exec.ExitError
		if !errors.As(err, &exit) || res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted expectation: err %v, correct %v, %d failed; want a reported failure", w.Name, err, res.Correct, res.Failed)
		}
	}
}
