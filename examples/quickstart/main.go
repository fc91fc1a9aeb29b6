// Quickstart: evaluate the System Security Factor of the bundled SoC's
// MPU against radiation fault attacks, end to end:
//
//  1. build the framework (elaborates the MPU to gates, places it, and
//     runs the one-time system pre-characterization);
//  2. prepare an evaluation of the illegal-memory-write benchmark under
//     the default attack model (50-cycle timing window, 1/8-of-MPU
//     spatial targeting);
//  3. run an importance-sampling Monte Carlo campaign and report SSF.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
)

func main() {
	t0 := time.Now()
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("framework built in %v\n", time.Since(t0).Round(time.Millisecond))
	fmt.Printf("  MPU: %d nodes, %d registers (%d memory-type, %d computation-type)\n",
		fw.MPU.Netlist.NumNodes(), len(fw.MPU.Netlist.Regs()),
		len(fw.Char.MemoryRegs()), len(fw.Char.ComputationRegs()))

	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  golden run: the marked illegal write traps at cycle %d (security mechanism works)\n",
		ev.Golden.TargetCycle)

	sampler, err := ev.ImportanceSampler()
	if err != nil {
		log.Fatal(err)
	}
	camp, err := ev.EvaluateSSF(context.Background(), sampler, core.DefaultCampaign(20000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSSF = %.3e ± %.1e  (%d successful bypasses in %d sampled attacks)\n",
		camp.SSF(), camp.StdErr(), camp.Successes, camp.Options.Samples)
	fmt.Printf("outcome classes: %d masked, %d memory-type-only, %d mixed\n",
		camp.ClassCounts[0], camp.ClassCounts[1], camp.ClassCounts[2])
	fmt.Printf("only %d runs (%.1f%%) needed a full RTL resume — the rest were\n",
		camp.PathCounts[3], 100*float64(camp.PathCounts[3])/float64(camp.Options.Samples))
	fmt.Println("decided by masking, analytical evaluation, or lifetime pruning.")
}
