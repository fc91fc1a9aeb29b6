package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/montecarlo"
	"repro/internal/server"
)

// outcome is the deterministic part of a campaign or job result. For a
// fixed seed (and pool size) it must repeat bit for bit.
type outcome struct {
	SSFBits    string `json:"ssf_bits"` // IEEE-754 bits of the SSF estimate, hex
	Samples    int    `json:"samples"`
	Successes  int    `json:"successes"`
	PathCounts [4]int `json:"path_counts"` // masked, analytical, pruned, rtl
	RTLCycles  int    `json:"rtl_cycles"`
}

func ssfBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func outcomeOf(c *montecarlo.Campaign) outcome {
	return outcome{
		SSFBits:    ssfBits(c.SSF()),
		Samples:    c.Est.N(),
		Successes:  c.Successes,
		PathCounts: c.PathCounts,
		RTLCycles:  c.RTLCycles,
	}
}

// outcomeOfJob reads the same fields from a served job result; JSON
// carries float64 values exactly.
func outcomeOfJob(r *server.JobResult) outcome {
	return outcome{
		SSFBits:    ssfBits(r.SSF),
		Samples:    r.Samples,
		Successes:  r.Successes,
		PathCounts: r.PathCounts,
		RTLCycles:  r.RTLCycles,
	}
}

//go:embed expected.json
var expectedJSON []byte

// expected holds the recorded default-seed outcome of each workload:
// the fixed workloads' campaign of fixedSamples at defaultSeed, and the
// service workload's job with seed jobSeed(defaultSeed, 0).
type expectedFile struct {
	Seed     int64              `json:"seed"`
	Outcomes map[string]outcome `json:"outcomes"`
}

func loadExpected() (expectedFile, error) {
	var e expectedFile
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return e, fmt.Errorf("expected.json: %w", err)
	}
	if e.Seed != defaultSeed {
		return e, fmt.Errorf("expected.json records seed %d, want %d", e.Seed, defaultSeed)
	}
	return e, nil
}

// checkExpected compares a default-seed outcome with the recorded one.
func checkExpected(c *checks, w workload, got outcome) {
	e, err := loadExpected()
	if !c.op(err, "load recorded outcomes") {
		return
	}
	want, ok := e.Outcomes[w.name]
	c.check(ok && want == got, "%s default-seed outcome %+v, recorded %+v", w.name, got, want)
}

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
