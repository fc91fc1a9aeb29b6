// Command benchjson maintains the committed performance records:
//
//   - BENCH_runonce.json (-suite runonce, default): ns/op, B/op, and
//     allocs/op for a complete cross-level run (RunOnce), one timed
//     gate-level injection (GateInjection), and one RTL cycle
//     (RTLCycle).
//   - BENCH_codegen.json (-suite codegen): the generated straight-line
//     evaluator (internal/logicsim/codegen) against the interpreted op
//     stream on the bundled MPU, at two levels. EvalPass* rows time one
//     64-lane combinational pass (samples_per_sec counts lane-samples —
//     64 lanes over pass time); Campaign* rows time the full
//     lane-batched campaign on both stacks. The headline
//     speedup_codegen_vs_interp is the evaluator ratio;
//     speedup_codegen_campaign is the end-to-end campaign ratio, which
//     Amdahl dilutes because the per-sample cost is dominated by the
//     gate-level timing injection, not the combinational sweep. Fixed-
//     seed results are bit-identical on both paths.
//   - BENCH_convergence.json (-suite convergence): statistical
//     efficiency instead of wall time — for each sampler, the number of
//     samples an adaptive campaign needs before its 95% CI half-width
//     drops to the target (ns_per_op holds the sample count, so the
//     -compare regression gate applies unchanged). The runs are
//     deterministic (fixed seed), so the suite is gated at a tight
//     tolerance.
//
// It uses the same setup as the root go-bench harness, so the numbers
// are comparable to `go test -bench`. Every record names the host it was
// measured on (CPU model, GOMAXPROCS, Go version); -compare prints both
// hosts, since timings from different hosts are not comparable.
//
// Regression gate: `benchjson -compare -tolerance 0.25 old.json
// new.json` compares two records, prints the per-metric percentage
// deltas, and exits non-zero when any benchmark present in old got more
// than (1+tolerance)× slower in new, or is missing from new — the CI
// bench-smoke step runs it against the committed record.
//
// Usage:
//
//	go run ./cmd/benchjson [-suite runonce|codegen|convergence] [-out FILE]
//	go run ./cmd/benchjson -compare [-tolerance T] old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logicsim"
	"repro/internal/montecarlo"
	"repro/internal/netlist"
	"repro/internal/sampling"
	"repro/internal/soc"
	"repro/internal/stats"
	"repro/internal/timingsim"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"n"`
	// SamplesPerSec is reported by the codegen suite only.
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	// SSF, CIHalfWidth, and ESS are reported by the convergence suite
	// only (ns_per_op holds the samples-to-target-CI count there).
	SSF         float64 `json:"ssf,omitempty"`
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
	ESS         float64 `json:"ess,omitempty"`
}

// hostInfo identifies the machine a record was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h *hostInfo) String() string {
	if h == nil {
		return "unknown host"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d, %s", h.CPU, h.GOMAXPROCS, h.GoVersion)
}

// currentHost describes this machine; the CPU model comes from
// /proc/cpuinfo where it exists and is "unknown" elsewhere.
func currentHost() *hostInfo {
	h := &hostInfo{CPU: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

type benchFile struct {
	Host       *hostInfo     `json:"host,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	// SpeedupCodegen records generated-over-interpreted combinational
	// pass throughput; SpeedupCodegenCampaign records the
	// same ratio at full-campaign level (codegen suite only).
	SpeedupCodegen         float64 `json:"speedup_codegen_vs_interp,omitempty"`
	SpeedupCodegenCampaign float64 `json:"speedup_codegen_campaign,omitempty"`
}

func main() {
	out := flag.String("out", "", "output path (default BENCH_<suite>.json)")
	suite := flag.String("suite", "runonce", "benchmark suite: runonce | codegen | convergence")
	compare := flag.Bool("compare", false, "compare two records (old.json new.json) instead of benchmarking")
	tolerance := flag.Float64("tolerance", 0.25, "compare: allowed fractional ns/op growth before failing")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two files: old.json new.json"))
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), *tolerance); err != nil {
			fatal(err)
		}
		return
	}

	var results []benchResult
	switch *suite {
	case "runonce":
		results = runOnceSuite()
	case "codegen":
		results = codegenSuite()
	case "convergence":
		results = convergenceSuite()
	default:
		fatal(fmt.Errorf("unknown suite %q", *suite))
	}

	file := benchFile{Host: currentHost(), Benchmarks: results}
	if *suite == "codegen" {
		var evalInterp, evalGen, campInterp, campGen float64
		for _, r := range results {
			switch r.Name {
			case "EvalPassInterp64":
				evalInterp = r.NsPerOp
			case "EvalPassCodegen64":
				evalGen = r.NsPerOp
			case "CampaignInterp64":
				campInterp = r.NsPerOp
			case "CampaignCodegen64":
				campGen = r.NsPerOp
			}
		}
		if evalGen > 0 {
			file.SpeedupCodegen = evalInterp / evalGen
			fmt.Printf("codegen eval speedup: %.2fx\n", file.SpeedupCodegen)
		}
		if campGen > 0 {
			file.SpeedupCodegenCampaign = campInterp / campGen
			fmt.Printf("codegen campaign speedup: %.2fx\n", file.SpeedupCodegenCampaign)
		}
	}
	path := *out
	if path == "" {
		path = "BENCH_" + *suite + ".json"
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// record runs one benchmark function and prints + collects its result.
func record(results *[]benchResult, name string, fn func(b *testing.B)) *benchResult {
	r := testing.Benchmark(fn)
	res := benchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
	*results = append(*results, res)
	fmt.Printf("%-16s %12.0f ns/op %8d B/op %6d allocs/op (n=%d)\n",
		name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, res.N)
	return &(*results)[len(*results)-1]
}

func runOnceSuite() []benchResult {
	fw, ev := setup()
	var results []benchResult

	record(&results, "RunOnce", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(1))
		samples := make([]fault.Sample, 512)
		for i := range samples {
			samples[i] = ev.Attack.SampleNominal(rng)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Engine.RunOnce(rng, samples[i%len(samples)], montecarlo.GateAttack)
		}
	})

	record(&results, "GateInjection", func(b *testing.B) {
		b.ReportAllocs()
		tsim, err := timingsim.New(fw.MPU.Netlist, fw.Opts.Delay)
		if err != nil {
			b.Fatal(err)
		}
		s := ev.Engine.SoC
		s.Reset()
		for i := 0; i < 100; i++ {
			s.Step()
		}
		s.Sim.Eval()
		values := func(id netlist.NodeID) bool { return s.Sim.Bool(id) }
		rng := rand.New(rand.NewSource(1))
		strikes := make([]timingsim.Strike, 64)
		for i := range strikes {
			smp := ev.Attack.SampleNominal(rng)
			strikes[i] = ev.Attack.Strike(fw.Place, smp)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tsim.Inject(values, strikes[i%len(strikes)])
		}
	})

	record(&results, "RTLCycle", func(b *testing.B) {
		b.ReportAllocs()
		cfg := soc.DefaultConfig()
		s, err := soc.New(cfg, soc.SyntheticProgram(cfg.DMABase, cfg.DMALimit))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
	})

	return results
}

// codegenSuite measures what the generated straight-line evaluator
// buys over the interpreted op stream, at two levels. EvalPass* rows
// time a single 64-lane combinational pass of the bundled MPU — the
// work the codegen backend replaces — with samples_per_sec counting
// lane-samples (64 lanes over pass time); this is where the headline
// speedup_codegen_vs_interp comes from. Campaign* rows time the full
// lane-batched campaign on two otherwise identical stacks, one built
// with generated-evaluator binding disabled (the interpreted baseline)
// and one with the committed MPU evaluator bound; that ratio is
// Amdahl-diluted because most of a sample is gate-level timing
// injection, not combinational sweep. Same workload, sampler, and seed
// as the root BenchmarkCampaign; fixed-seed results are bit-identical on
// both paths (montecarlo's TestCampaignCodegenEquivalence pins that).
func codegenSuite() []benchResult {
	_, evGen := setup()
	if !evGen.Engine.SoC.Sim.Plan().Generated() {
		fatal(fmt.Errorf("codegen suite: MPU plan did not bind the generated evaluator (stale mpu_evalgen.go? run `go generate ./...`)"))
	}
	prev := logicsim.SetGeneratedEnabled(false)
	_, evInt := setup() // Build and NewEvaluation both inside the disabled window
	logicsim.SetGeneratedEnabled(prev)
	if evInt.Engine.SoC.Sim.Plan().Generated() {
		fatal(fmt.Errorf("codegen suite: interpreted baseline bound a generated evaluator"))
	}

	var results []benchResult

	mpu, err := soc.BuildMPU(soc.DefaultMPUConfig())
	if err != nil {
		fatal(err)
	}
	prev = logicsim.SetGeneratedEnabled(false)
	simInt, errI := logicsim.New(mpu.Netlist)
	logicsim.SetGeneratedEnabled(prev)
	if errI != nil {
		fatal(errI)
	}
	simGen, err := logicsim.New(mpu.Netlist)
	if err != nil {
		fatal(err)
	}
	for _, cfg := range []struct {
		name string
		sim  *logicsim.Simulator
	}{
		{"EvalPassInterp64", simInt},
		{"EvalPassCodegen64", simGen},
	} {
		res := record(&results, cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.sim.Eval()
			}
		})
		res.SamplesPerSec = 64 * 1e9 / res.NsPerOp
	}
	for _, cfg := range []struct {
		name string
		ev   *core.Evaluation
	}{
		{"CampaignInterp64", evInt},
		{"CampaignCodegen64", evGen},
	} {
		ev := cfg.ev
		res := record(&results, cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			sp, err := ev.ImportanceSampler()
			if err != nil {
				b.Fatal(err)
			}
			opts := montecarlo.CampaignOptions{Samples: b.N, Seed: 1}
			b.ResetTimer()
			if _, err := ev.Engine.RunCampaign(b.Context(), sp, opts); err != nil {
				b.Fatal(err)
			}
		})
		res.SamplesPerSec = 1e9 / res.NsPerOp
	}
	return results
}

// convergenceSuite measures statistical rather than computational
// efficiency: for each sampler it runs an adaptive campaign until the
// 95% CI half-width of the campaign's active estimator reaches
// convTargetCI, and records how many samples that took. The stopping
// bound EstimatorVariance/eps² ≤ risk with eps = convTargetCI and
// risk = 1/z² is algebraically z·stderr ≤ convTargetCI. Everything is
// fixed-seed deterministic, so the committed record is exactly
// reproducible and gated tightly in CI.
const (
	convTargetCI   = 1e-4
	convMaxSamples = 1 << 19
)

func convergenceSuite() []benchResult {
	fw, ev := setup()
	newIm := func() *sampling.Importance {
		im, err := sampling.NewImportance(ev.Attack, fw.Char, fw.MPU.Netlist, fw.Place, sampling.DefaultAlpha, sampling.DefaultBeta)
		if err != nil {
			fatal(err)
		}
		return im
	}
	newStrat := func() sampling.Sampler {
		sp, err := sampling.NewStratified(newIm())
		if err != nil {
			fatal(err)
		}
		return sp
	}
	cfgs := []struct {
		name    string
		sampler sampling.Sampler
		adapt   bool
	}{
		{"ConvRandom", ev.RandomSampler(), false},
		{"ConvImportance", newIm(), false},
		{"ConvImportanceAdapt", newIm(), true},
		{"ConvStratified", newStrat(), false},
		{"ConvStratifiedNeyman", newStrat(), true},
		{"ConvSobol", sampling.NewSobol(newIm()), false},
	}
	var results []benchResult
	for _, cfg := range cfgs {
		aopts := montecarlo.AdaptiveOptions{
			Seed:          1,
			Epsilon:       convTargetCI,
			Risk:          1 / (stats.Z95 * stats.Z95),
			MinSamples:    2000,
			MaxSamples:    convMaxSamples,
			CheckEvery:    1000,
			AdaptProposal: cfg.adapt,
		}
		camp, err := montecarlo.RunRounds(context.Background(), []*montecarlo.Engine{ev.Engine}, cfg.sampler, aopts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", cfg.name, err))
		}
		n := camp.Est.N()
		res := benchResult{
			Name:        cfg.name,
			NsPerOp:     float64(n), // samples to target CI, not time
			N:           n,
			SSF:         camp.SSF(),
			CIHalfWidth: camp.CIHalfWidth(),
			ESS:         camp.ESS(),
		}
		capped := ""
		if n >= convMaxSamples {
			capped = "  (hit sample cap)"
		}
		fmt.Printf("%-22s %8d samples to CI±%g  ssf=%.4e  ci=%.2e  ess=%.0f%s\n",
			cfg.name, n, convTargetCI, res.SSF, res.CIHalfWidth, res.ESS, capped)
		results = append(results, res)
	}
	return results
}

func setup() (*core.Framework, *core.Evaluation) {
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		fatal(err)
	}
	return fw, ev
}

// compareFiles loads two benchmark records and fails when a benchmark
// of the old record regressed beyond the tolerance in the new one, or
// disappeared from it. Benchmarks only present in the new record are
// reported but don't fail the comparison.
func compareFiles(oldPath, newPath string, tolerance float64) error {
	oldRec, err := loadFile(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadFile(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("old host: %v\nnew host: %v\n", oldRec.Host, newRec.Host)
	newBy := make(map[string]benchResult, len(newRec.Benchmarks))
	for _, r := range newRec.Benchmarks {
		newBy[r.Name] = r
	}
	failed := false
	for _, old := range oldRec.Benchmarks {
		cur, ok := newBy[old.Name]
		if !ok {
			fmt.Printf("%-16s MISSING from %s\n", old.Name, newPath)
			failed = true
			continue
		}
		limit := old.NsPerOp * (1 + tolerance)
		ratio := cur.NsPerOp / old.NsPerOp
		status := "ok"
		if cur.NsPerOp > limit {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-22s %12.0f -> %12.0f ns/op  (%+.1f%%, limit +%.0f%%)  %s\n",
			old.Name, old.NsPerOp, cur.NsPerOp, (ratio-1)*100, tolerance*100, status)
		delete(newBy, old.Name)
	}
	for _, r := range newRec.Benchmarks {
		if _, stillNew := newBy[r.Name]; stillNew {
			fmt.Printf("%-22s %12.0f ns/op  (new benchmark, not gated)\n", r.Name, r.NsPerOp)
		}
	}
	if failed {
		return fmt.Errorf("benchmark regression beyond %.0f%% tolerance", tolerance*100)
	}
	fmt.Println("compare: ok")
	return nil
}

func loadFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
