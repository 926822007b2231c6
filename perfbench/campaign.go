package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const mib = 1 << 20

// campaign is one measured mi-bench process.
type campaign struct {
	wall, cpu time.Duration
	peakRSS   uint64 // bytes, the campaign process's own high-water mark
	stdout    []byte
	stderr    []byte
	err       error // non-nil when the process exited non-zero
}

// runCampaign runs bin with args and env and measures it: wall time from
// fork to reap, user+sys time of the process and every descendant it
// reaped (the plugin builds' go tool processes), and the process's own
// peak RSS, polled from /proc while it runs.
func runCampaign(bin string, args, env []string) (*campaign, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = env
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	hwm := make(chan uint64, 1)
	go func() {
		hwm <- pollHWM(cmd.Process.Pid, stop)
	}()
	waitErr := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	c := &campaign{wall: wall, peakRSS: <-hwm, stdout: stdout.Bytes(), stderr: stderr.Bytes(), err: waitErr}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// wait4 reports RUSAGE_BOTH for the reaped child: its own time plus
		// that of the descendants it waited for.
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c, nil
}

// pollHWM samples VmHWM of pid every 10ms until stop closes and returns the
// last value read. The kernel keeps the high-water mark monotone, so the
// last sample before exit is the process's peak up to the final interval.
func pollHWM(pid int, stop <-chan struct{}) uint64 {
	path := fmt.Sprintf("/proc/%d/status", pid)
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if v := readHWM(path); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-t.C:
		}
	}
}

func readHWM(path string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseUint(fields[1], 10, 64)
			return kb * 1024
		}
	}
	return 0
}

// cliPath is where the campaign CLI is built.
func (b *bench) cliPath() string { return filepath.Join(b.work, "bin", "mi-bench") }

// buildCLI builds mi-bench from the checkout. Once the checkout has built
// it, go build only verifies that the binary is up to date.
func (b *bench) buildCLI() error {
	cmd := exec.Command("go", "build", "-o", b.cliPath(), "./cmd/mi-bench")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/mi-bench: %v\n%s", err, out)
	}
	return nil
}

// env returns the environment of a campaign whose temp directory (and so
// its plugin cache, TMPDIR/mi-native) is tmp.
func env(tmp string) []string {
	var out []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "TMPDIR=") {
			out = append(out, kv)
		}
	}
	return append(out, "TMPDIR="+tmp)
}

// keyProgram points b.prog at the directory of the program under test:
// .work/prog/<sha256 of the built mi-bench>. The plugin store and the
// recorded counts live there, so they never carry over to other code that
// runs later in the same checkout.
func (b *bench) keyProgram() error {
	data, err := os.ReadFile(b.cliPath())
	if err != nil {
		return err
	}
	b.prog = filepath.Join(b.work, "prog", sha(data)[:16])
	return os.MkdirAll(b.prog, 0o755)
}

// storeDir holds the Figure 9 plugins, built once per program by the
// program under test.
func (b *bench) storeDir() string { return filepath.Join(b.prog, "store") }

// ensureStore fills the plugin store when the program has none, with an
// unmeasured Figure 9 campaign on -engine compiler and a fresh cache.
func (b *bench) ensureStore() error {
	store := b.storeDir()
	if _, err := os.Stat(store); err == nil {
		return nil
	}
	fmt.Fprintln(os.Stderr, "perfbench: filling the plugin store (once per program)")
	fill := store + ".fill"
	os.RemoveAll(fill)
	tmp := filepath.Join(fill, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	args := append([]string{"-engine", "compiler", "-j", campaignJobs}, fig9Flags...)
	c, err := runCampaign(b.cliPath(), args, env(tmp))
	if err != nil {
		return err
	}
	if c.err != nil {
		return fmt.Errorf("store fill: mi-bench: %v\n%s", c.err, c.stderr)
	}
	cache := filepath.Join(tmp, "mi-native")
	names, err := plugins(cache)
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := os.Rename(filepath.Join(cache, n), filepath.Join(fill, n)); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	return os.Rename(fill, store)
}

// plugins lists the plugin files in a directory, sorted.
func plugins(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), ".so") {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// privateTmp is the run's TMPDIR; its mi-native subdirectory is the run's
// private plugin cache.
func (b *bench) privateTmp() string { return filepath.Join(b.run, "tmp") }

// prepareCache empties the run's private directory and, for the cold
// workload, hard-links the store's plugins into the private cache.
func (b *bench) prepareCache(w *workload) error {
	tmp := b.privateTmp()
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	cache := filepath.Join(tmp, "mi-native")
	if err := os.MkdirAll(cache, 0o755); err != nil {
		return err
	}
	if w.coldBuilds == 0 {
		return nil
	}
	names, err := plugins(b.storeDir())
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := os.Link(filepath.Join(b.storeDir(), n), filepath.Join(cache, n)); err != nil {
			return err
		}
	}
	return nil
}

// prepare builds the CLI, keys the program's directory and, for the cold
// workload, fills the plugin store. It runs once per run, before the timed
// set-ups; on a checkout's first run it does the full build and the fill.
func (b *bench) prepare(w *workload) error {
	if err := b.buildCLI(); err != nil {
		return err
	}
	if err := b.keyProgram(); err != nil {
		return err
	}
	if w.coldBuilds > 0 {
		return b.ensureStore()
	}
	return nil
}

// setupsPerCampaign is how many timed set-ups precede each campaign.
// setup_s is the median over all of a run's set-ups, so it samples the
// machine across the whole run rather than in one burst.
const setupsPerCampaign = 5

// setup is one timed set-up, everything a campaign needs before it starts:
// build the CLI (an up-to-date check after prepare) and prepare the private
// plugin cache. It returns its duration in seconds.
func (b *bench) setup(w *workload) (float64, error) {
	start := time.Now()
	if err := b.buildCLI(); err != nil {
		return 0, err
	}
	if err := b.prepareCache(w); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// coldOrder is the order in which the cold workload removes Figure 9
// plugins: repetition r removes the r-th block of coldBuilds names. The
// order is one fixed shuffle, so every run builds the same plugins and the
// seed changes no cold input.
func coldOrder(names []string) []string {
	out := append([]string(nil), names...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// endToEndRun measures the workload's campaign as a black-box process,
// repeated as often as its nominal length fits in the budget, each campaign
// after its own set-ups and with a freshly prepared private cache, and
// reports the median of each metric.
func endToEndRun(b *bench, w *workload, seed int64, budget time.Duration) (*result, error) {
	if err := b.prepare(w); err != nil {
		return nil, err
	}
	ref, err := loadReference(b)
	if err != nil {
		return nil, err
	}
	var order []string
	if w.coldBuilds > 0 {
		names, err := plugins(b.storeDir())
		if err != nil {
			return nil, err
		}
		order = coldOrder(names)
	}
	tmp := b.privateTmp()
	cache := filepath.Join(tmp, "mi-native")
	report := filepath.Join(tmp, "report.json")
	res := &result{Correct: true}
	var setups, wall, cpu, rss, disk []float64
	for rep := 0; rep < reps(budget); rep++ {
		for i := 0; i < setupsPerCampaign; i++ {
			secs, err := b.setup(w)
			if err != nil {
				return nil, err
			}
			setups = append(setups, secs)
		}
		for i := 0; i < w.coldBuilds; i++ {
			n := order[(rep*w.coldBuilds+i)%len(order)]
			if err := os.Remove(filepath.Join(cache, n)); err != nil {
				return nil, err
			}
		}
		before := dirBytes(tmp)
		c, err := runCampaign(b.cliPath(), w.args(w.repSeed(seed, rep), report), env(tmp))
		if err != nil {
			return nil, err
		}
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		rss = append(rss, float64(c.peakRSS)/mib)
		disk = append(disk, float64(dirBytes(tmp)-before)/mib)

		chk := checkCampaign(w, ref, c, report)
		res.Attempted += chk.attempted
		res.Failed += chk.failed
		for _, p := range chk.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %s\n", w.name, rep, p)
		}
		if err := b.checkRecordedCounts("e2e", w.inputName(w.repSeed(seed, rep)), chk.counts); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: %v\n", w.name, rep, err)
			res.Correct = false
		}
		if err := os.Remove(report); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d repetitions, wall %v\n", w.name, seed, len(wall), roundAll(wall))
	res.Metrics = map[string]metric{
		"wall_s":      {median(wall), "s"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MiB"},
		"disk_mb":     {median(disk), "MiB"},
		"setup_s":     {median(setups), "s"},
	}
	return res, nil
}

func roundAll(xs []float64) []string {
	var out []string
	for _, x := range xs {
		out = append(out, strconv.FormatFloat(x, 'f', 2, 64))
	}
	return out
}
