// Command ssfbench is the repository benchmark: it runs one SSF campaign
// workload against the bundled MPU, checks the outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	go run ./ssfbench --workload gate-importance --seed 7 --seconds 15 --trace 0
//
// See ssfbench/README.md for the workloads, every metric and its unit,
// and the untimed, timed and traced modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/montecarlo"
)

// workload is one benchmark input configuration. The program receives
// only what the workload and its seed generate.
type workload struct {
	name    string
	mode    montecarlo.Mode
	sampler string // "importance", "random" or "stratified"
	service bool   // jobs go through an in-process ssfserver
}

var workloads = []workload{
	{name: "gate-importance", mode: montecarlo.GateAttack, sampler: "importance"},
	{name: "register-random", mode: montecarlo.RegisterAttack, sampler: "random"},
	{name: "service-adaptive", mode: montecarlo.GateAttack, sampler: "stratified", service: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its figure.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// report is the benchmark's last line of standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// checks counts attempted and failed operations: campaigns, jobs, HTTP
// requests and output checks. A failure is described on standard error.
type checks struct {
	attempted, failed int
}

// check records one operation that succeeded when ok is true.
func (c *checks) check(ok bool, format string, args ...any) bool {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(os.Stderr, "ssfbench: FAILED: "+format+"\n", args...)
	}
	return ok
}

// op records one operation that failed when err is non-nil.
func (c *checks) op(err error, what string) bool {
	if err != nil {
		return c.check(false, "%s: %v", what, err)
	}
	return c.check(true, "")
}

func main() { os.Exit(run()) }

// run is the benchmark; it returns the exit code: 0 when every check
// passed, 1 on a failed check or a set-up failure, 2 on bad arguments.
func run() int {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: traced per-layer metrics")
	untimed := flag.Bool("untimed", false, "run the output checks once and print the outcomes, without timing")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ssfbench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ssfbench: --seconds must be >= 0 and --trace 0 or 1")
		return 2
	}
	storeRoot, err := newStoreRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssfbench: %v\n", err)
		return 1
	}
	// Scratch job stores only; a failed removal leaves nothing to report.
	defer os.RemoveAll(storeRoot)

	var c checks
	m := metrics{}
	switch {
	case *untimed:
		err = runUntimed(w, *seed, storeRoot, &c)
	case *trace == 1:
		err = runTraced(w, *seed, *seconds, storeRoot, &c, m)
	default:
		err = runTimed(w, *seed, *seconds, storeRoot, &c, m)
	}
	if err != nil {
		// Set-up or harness failure: no result to report.
		fmt.Fprintf(os.Stderr, "ssfbench: %v\n", err)
		return 1
	}
	printSummary(w, m)
	out, err := json.Marshal(report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssfbench: encode report: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if c.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// newStoreRoot makes the scratch directory for server job stores inside
// the build directory of the working tree, so the benchmark writes only
// beneath the directory it is run from.
func newStoreRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "ssfbench-store-")
	if err != nil {
		return "", fmt.Errorf("scratch directory: %w", err)
	}
	return dir, nil
}

// memProbe samples the Go runtime's resident memory, the memory it has
// mapped less what it has returned to the operating system, every 5 ms,
// and keeps the peak of the current window. The benchmark opens one
// window per timed campaign or job and reports the median window peak.
// The process high-water mark would not do: it is set by the allocation
// burst of set-up, and it and any single window's peak depend on when
// the collector happens to run.
type memProbe struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startMemProbe() *memProbe {
	p := &memProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			p.sample()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *memProbe) sample() {
	s := []rtmetrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	rtmetrics.Read(s)
	v := s[0].Value.Uint64() - s[1].Value.Uint64()
	for {
		old := p.peak.Load()
		if v <= old || p.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// window returns the peak in MiB since the previous call and starts a
// new window.
func (p *memProbe) window() float64 {
	p.sample()
	return float64(p.peak.Swap(0)) / (1 << 20)
}

// close stops the sampling goroutine and waits for it.
func (p *memProbe) close() {
	close(p.stop)
	<-p.done
}

// printSummary writes the metrics in name order to standard error.
func printSummary(w workload, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "ssfbench %s:\n", w.name)
	for _, k := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
