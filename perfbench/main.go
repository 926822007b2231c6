// Command perfbench is the repository's campaign benchmark. One run drives
// one workload for a fixed time and prints a single JSON result line:
//
//	--trace 0: the workload's mi-bench campaign as a black-box process,
//	           repeated until --seconds elapse, reporting the end-to-end
//	           metrics (medians over the repetitions);
//	--trace 1: the same cells driven serially through the layers' public Go
//	           functions, reporting the per-layer metrics and writing a
//	           Chrome trace-event file.
//
// Every campaign's output is checked: figure cells against the committed
// tree-engine reference, the fault campaign against its own verdicts, and
// the exact counts of every repetition against each other and against the
// first run of the same workload and seed on the same program. README.md
// documents the workloads, the metrics and the steadiness evidence.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainCode()) }

func mainCode() int {
	var (
		root     = flag.String("root", "..", "repository checkout root")
		name     = flag.String("workload", "", "workload name (see README.md)")
		seed     = flag.Int64("seed", 1, "workload seed: the first campaign's fault plan (the cold workload's inputs are fixed)")
		seconds  = flag.Int("seconds", 20, "measurement time of one run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		writeRef = flag.Bool("write-reference", false, "regenerate reference/tree.json from the tree engine and exit")
	)
	flag.Parse()

	w := workloadByName(*name)
	if !*writeRef && w == nil {
		return fail(fmt.Errorf("unknown workload %q (known: %v)", *name, workloadNames()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	b, err := newBench(*root)
	if err != nil {
		return fail(err)
	}
	defer b.cleanup()
	if *writeRef {
		if err := writeReference(b); err != nil {
			return fail(err)
		}
		return 0
	}
	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(b, w, *seed)
	} else {
		res, err = endToEndRun(b, w, *seed, budget)
	}
	if err != nil {
		return fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	return 1
}

// bench holds the checkout's paths. Everything the benchmark writes lives
// under work: the CLI binary, the program directory with its one-time
// plugin store and recorded counts, and one private directory per run.
type bench struct {
	root string // repository checkout
	dir  string // the benchmark's own directory
	work string // dir/.work
	prog string // work/prog/<program key>, set by keyProgram
	run  string // this run's private directory, removed at exit
}

func newBench(root string) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "mi-bench")); err != nil {
		return nil, fmt.Errorf("%s is not a repository checkout: %w", root, err)
	}
	dir := filepath.Join(root, "perfbench")
	work := filepath.Join(dir, ".work")
	b := &bench{root: root, dir: dir, work: work,
		run: filepath.Join(work, "runs", fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(b.run, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

// cleanup removes the run's private directory, plugin cache included.
func (b *bench) cleanup() { os.RemoveAll(b.run) }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
