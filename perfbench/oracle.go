package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/internal/vm"
)

// The correctness oracle. Figure cells are compared with a committed
// reference produced by the tree engine — the independent interpreter, never
// the engine under test — on the canonical per-cell statistics and the
// program output; the rendered figures are compared byte for byte. The
// fault campaign must report no unexpected verdict, no failure and complete
// allocation attribution.

// refCell is one figure cell of the reference.
type refCell struct {
	Bench        string   `json:"bench"`
	Config       string   `json:"config"`
	Stats        vm.Stats `json:"stats"`
	OutputSHA256 string   `json:"output_sha256"`
}

// reference is reference/tree.json.
type reference struct {
	Engine string `json:"engine"`
	// StdoutSHA256 hashes mi-bench -fig9's standard output.
	StdoutSHA256 string `json:"stdout_sha256"`
	// Cells are keyed by cellKey.
	Cells map[string]*refCell `json:"cells"`
}

func referencePath(b *bench) string { return filepath.Join(b.dir, "reference", "tree.json") }

func loadReference(b *bench) (*reference, error) {
	data, err := os.ReadFile(referencePath(b))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &ref, nil
}

// cellKey is a cell's harness cache key with the engine removed, so the same
// cell matches across engines.
func cellKey(key string, engine bytecode.EngineKind) string {
	return strings.Replace(key, "|"+engine.String()+"|", "|", 1)
}

// cell is one (benchmark, configuration) cell of a figure campaign.
type cell struct {
	bench *spec.Benchmark
	cfg   harness.RunConfig
}

// figureCells lists Figure 9's cells in campaign order: every benchmark's
// baseline, SoftBound and Low-Fat configurations.
func figureCells() []cell {
	var cells []cell
	for _, b := range spec.All() {
		for _, cfg := range []harness.RunConfig{harness.BaselineConfig(),
			harness.PaperConfig(core.MechSoftBound), harness.PaperConfig(core.MechLowFat)} {
			cells = append(cells, cell{b, cfg})
		}
	}
	return cells
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// counts are the exact counts of one campaign, which must repeat across
// repetitions and runs of the same code.
type counts struct {
	// VM sums the per-cell vm.Stats counters the report carries.
	VM map[string]uint64 `json:"vm"`
	// Tiers is the compiler tier's attribution and plugin ledger.
	Tiers map[string]uint64 `json:"tiers"`
	// StdoutSHA256 hashes the rendered figures or the fault verdict matrix.
	StdoutSHA256 string `json:"stdout_sha256"`
}

func (c *counts) diff(o *counts) string {
	if c == nil || o == nil || reflect.DeepEqual(c, o) {
		return ""
	}
	a, _ := json.Marshal(c)
	b, _ := json.Marshal(o)
	return fmt.Sprintf("%s vs %s", a, b)
}

// countsOf extracts the exact counts from a campaign's report.
func countsOf(rep *harness.PerfReport, stdout []byte) *counts {
	c := &counts{VM: map[string]uint64{}, Tiers: map[string]uint64{}, StdoutSHA256: sha(stdout)}
	for _, r := range rep.Records {
		c.VM["instrs"] += r.Instrs
		c.VM["cost"] += r.Cost
		c.VM["checks"] += r.Checks
		c.VM["wide_checks"] += r.WideChecks
		c.VM["range_checks"] += r.RangeChecks
		c.VM["loads"] += r.Loads
		c.VM["stores"] += r.Stores
	}
	if t := rep.Tiers; t != nil {
		quick, fused, native := t.TieredInstrs()
		c.Tiers["total_instrs"] = t.TotalInstrs
		c.Tiers["quick_instrs"] = quick
		c.Tiers["fused_instrs"] = fused
		c.Tiers["native_instrs"] = native
		c.Tiers["interpreted_instrs"] = t.InterpretedInstrs
		c.Tiers["native_builds"] = t.NativeBuilds
		c.Tiers["native_cache_hits"] = t.NativeCacheHits
		c.Tiers["native_failures"] = t.NativeFailures
		for _, r := range t.Rows {
			c.Tiers["native_entries"] += r.NativeEntries
			c.Tiers["native_bails"] += r.NativeBails
			c.Tiers["gate_ops"] += r.GateOps
		}
		for k, v := range t.Fallbacks {
			c.Tiers["fallback_"+k] = v
		}
	}
	return c
}

// check is the verdict on one campaign.
type check struct {
	attempted, failed int
	problems          []string
	counts            *counts
}

func (c *check) fail(n int, format string, args ...any) {
	c.failed += n
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// checkCampaign verifies one campaign's outputs: the exit status, every
// figure cell against the reference (or the fault campaign's verdicts), and
// the plugin builds the workload implies.
func checkCampaign(w *workload, ref *reference, c *campaign, reportPath string) *check {
	chk := &check{}
	var rep harness.PerfReport
	data, err := os.ReadFile(reportPath)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		chk.attempted = 1
		chk.fail(1, "no report: %v (exit: %v)\n%s", err, c.err, c.stderr)
		return chk
	}
	chk.counts = countsOf(&rep, c.stdout)
	if w.faults {
		checkFaults(chk, c)
	} else {
		checkFigures(chk, ref, &rep, c)
	}
	if c.err != nil && chk.failed == 0 {
		chk.fail(1, "mi-bench: %v\n%s", c.err, c.stderr)
	}
	if got := chk.counts.Tiers["native_builds"]; got != uint64(w.coldBuilds) {
		chk.fail(1, "native plugin builds: got %d, want %d", got, w.coldBuilds)
	}
	if n := chk.counts.Tiers["native_failures"]; n != 0 {
		chk.fail(1, "native plugin failures: %d", n)
	}
	return chk
}

func checkFigures(chk *check, ref *reference, rep *harness.PerfReport, c *campaign) {
	want := figureCells()
	chk.attempted = len(want)
	if got := sha(c.stdout); got != ref.StdoutSHA256 {
		chk.fail(1, "rendered figures differ from the tree reference")
	}
	seen := map[string]bool{}
	for _, r := range rep.Records {
		k := cellKey(r.Key, campaignEngine)
		seen[k] = true
		rc := ref.Cells[k]
		switch {
		case rc == nil:
			chk.fail(1, "cell %s/%s is not in the reference", r.Bench, r.Config)
		case r.Status != "ok" || r.Err != "":
			chk.fail(1, "cell %s/%s: status %s %s", r.Bench, r.Config, r.Status, r.Err)
		case r.Instrs != rc.Stats.Instrs || r.Cost != rc.Stats.Cost || r.Checks != rc.Stats.Checks ||
			r.WideChecks != rc.Stats.WideChecks || r.RangeChecks != rc.Stats.RangeChecks ||
			r.WideRangeChecks != rc.Stats.WideRangeChecks || r.Loads != rc.Stats.Loads || r.Stores != rc.Stats.Stores:
			chk.fail(1, "cell %s/%s: stats differ from the tree reference", r.Bench, r.Config)
		}
	}
	for _, cl := range want {
		if k := cellKey(harness.RunAxes{Engine: campaignEngine}.Key(cl.bench.Name, cl.cfg).String(), campaignEngine); !seen[k] {
			chk.fail(1, "cell %s/%s missing from the report", cl.bench.Name, cl.cfg.Label)
		}
	}
}

var (
	variantsRe    = regexp.MustCompile(`(?m)^Fault-injection campaign: seed -?\d+, (\d+) variants`)
	attributionRe = regexp.MustCompile(`(?m)^attribution: (\d+)/(\d+) detected faults`)
)

// checkFaults reads the fault campaign's verdicts from its output: the
// variant count, the matrix's per-row "ok" (matched the prediction) columns,
// failures, and allocation attribution.
func checkFaults(chk *check, c *campaign) {
	out := string(c.stdout)
	m := variantsRe.FindStringSubmatch(out)
	if m == nil {
		chk.attempted = 1
		chk.fail(1, "no fault campaign summary in the output")
		return
	}
	chk.attempted, _ = strconv.Atoi(m[1])
	matched := 0
	for _, line := range strings.Split(out, "\n") {
		groups := strings.Split(line, " | ")
		if len(groups) != 3 || !strings.HasPrefix(groups[1], "exp:") {
			continue
		}
		for _, g := range groups[1:] {
			f := strings.Fields(g)
			n, _ := strconv.Atoi(f[len(f)-1])
			matched += n
		}
	}
	if un := chk.attempted - matched; un != 0 {
		chk.fail(un, "%d verdicts contradict the predictions", un)
	}
	if n := strings.Count(out, "\nFAILED: "); n > 0 {
		chk.fail(n, "%d campaign failures", n)
	}
	a := attributionRe.FindStringSubmatch(out)
	if a == nil {
		chk.fail(1, "no attribution summary in the output")
		return
	}
	got, _ := strconv.Atoi(a[1])
	all, _ := strconv.Atoi(a[2])
	if got != all {
		chk.fail(all-got, "attribution incomplete: %d/%d", got, all)
	}
}

// checkRecordedCounts compares a campaign's counts with those the first
// campaign of the same kind ("e2e" or "trace") and input recorded for the
// same program, recording them if none exist.
func (b *bench) checkRecordedCounts(kind, input string, c *counts) error {
	if c == nil {
		return nil
	}
	dir := filepath.Join(b.prog, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, kind+"-"+input+".json")
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	var prev counts
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if d := prev.diff(c); d != "" {
		return fmt.Errorf("%s %s: counts differ from the recorded campaign: %s", kind, input, d)
	}
	return nil
}

// writeReference regenerates reference/tree.json: every Figure 9 cell run
// in-process on the tree engine, and the figure rendered by mi-bench
// -engine tree.
func writeReference(b *bench) error {
	if err := b.buildCLI(); err != nil {
		return err
	}
	args := append([]string{"-engine", "tree", "-j", campaignJobs}, fig9Flags...)
	c, err := runCampaign(b.cliPath(), args, env(b.privateTmp()))
	if err != nil {
		return err
	}
	if c.err != nil {
		return fmt.Errorf("mi-bench -engine tree: %v\n%s", c.err, c.stderr)
	}
	ref := &reference{Engine: bytecode.EngineTree.String(), StdoutSHA256: sha(c.stdout), Cells: map[string]*refCell{}}
	r := harness.NewRunner()
	r.SetEngine(bytecode.EngineTree)
	ax := r.Axes()
	for _, cl := range figureCells() {
		res, _, err := r.RunCell(cl.bench, cl.cfg, ax)
		if err == nil {
			err = res.Err
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cl.bench.Name, cl.cfg.Label, err)
		}
		ref.Cells[cellKey(ax.Key(cl.bench.Name, cl.cfg).String(), ax.Engine)] = &refCell{
			Bench: cl.bench.Name, Config: cl.cfg.Label, Stats: res.Stats, OutputSHA256: sha([]byte(res.Output)),
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(referencePath(b)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(referencePath(b), append(data, '\n'), 0o644)
}
