package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/montecarlo"
	"repro/internal/sampling"
	"repro/internal/server"
)

const (
	// defaultSeed is the seed whose outcomes expected.json records.
	defaultSeed = 1
	// poolSize is the engine count of the service workload (the
	// benchmark machine has two CPUs).
	poolSize = 2
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median.
	setupReps = 9
)

// setupPhases is the wall time of each set-up step.
type setupPhases struct {
	build, evaluation, sampler, pool, server time.Duration
}

func (p setupPhases) total() time.Duration {
	return p.build + p.evaluation + p.sampler + p.pool + p.server
}

// fixture is one set-up workload: the framework, the evaluation of the
// illegal-write benchmark under the default attack, the workload's
// sampler and, for the service workload, a two-engine pool served by an
// in-process ssfserver on loopback.
type fixture struct {
	w       workload
	fw      *core.Framework
	ev      *core.Evaluation
	sampler sampling.Sampler
	pool    *core.EnginePool
	phases  setupPhases

	srv      *server.Server
	httpSrv  *http.Server
	served   chan error // Serve's return value
	baseURL  string
	storeDir string
	logged   chan string // server log lines (each one counts as a failure)
}

// newFixture sets the workload up, timing each step.
func newFixture(w workload, storeRoot string) (*fixture, error) {
	fx := &fixture{w: w}
	t := time.Now()
	fw, err := core.Build(core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core.Build: %w", err)
	}
	fx.fw = fw
	fx.phases.build = time.Since(t)

	t = time.Now()
	ev, err := fw.NewEvaluation(core.BenchmarkIllegalWrite, core.DefaultAttackSpec())
	if err != nil {
		return nil, fmt.Errorf("NewEvaluation: %w", err)
	}
	fx.ev = ev
	fx.phases.evaluation = time.Since(t)

	t = time.Now()
	if fx.sampler, err = buildSampler(ev, w.sampler); err != nil {
		return nil, err
	}
	fx.phases.sampler = time.Since(t)

	size := 1
	if w.service {
		size = poolSize
	}
	t = time.Now()
	if fx.pool, err = ev.NewEnginePool(size); err != nil {
		return nil, fmt.Errorf("NewEnginePool: %w", err)
	}
	fx.phases.pool = time.Since(t)

	if w.service {
		t = time.Now()
		if err := fx.startServer(storeRoot); err != nil {
			return nil, err
		}
		fx.phases.server = time.Since(t)
	}
	return fx, nil
}

func buildSampler(ev *core.Evaluation, name string) (sampling.Sampler, error) {
	switch name {
	case "importance":
		return ev.ImportanceSampler()
	case "random":
		return ev.RandomSampler(), nil
	case "stratified":
		return ev.StratifiedSampler()
	default:
		return nil, fmt.Errorf("unknown sampler %q", name)
	}
}

// startServer starts the evaluation service over the fixture's pool with
// the default configuration and serves it on a loopback port.
func (fx *fixture) startServer(storeRoot string) error {
	dir, err := os.MkdirTemp(storeRoot, "jobs-")
	if err != nil {
		return fmt.Errorf("job store: %w", err)
	}
	fx.storeDir = dir
	// Drained after each job. A correct run logs nothing; once 64 lines
	// are waiting, further ones are dropped, and the run has failed
	// already.
	fx.logged = make(chan string, 64)
	srv, err := server.New(fx.pool, dir, server.Config{Logf: func(format string, args ...any) {
		select {
		case fx.logged <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	if err != nil {
		return fmt.Errorf("server.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	fx.srv = srv
	fx.httpSrv = &http.Server{Handler: srv.Handler()}
	fx.served = make(chan error, 1)
	fx.baseURL = "http://" + ln.Addr().String()
	srv.Start()
	go func() { fx.served <- fx.httpSrv.Serve(ln) }()
	return nil
}

// close stops the service, if any, and waits for its goroutines.
func (fx *fixture) close() error {
	if fx.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fx.httpSrv.Shutdown(ctx)
	if serr := <-fx.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	fx.srv.Shutdown()
	fx.srv = nil
	return err
}

// jobFile is where the service persists a job's record.
func (fx *fixture) jobFile(id string) string {
	return filepath.Join(fx.storeDir, "job-"+id+".json")
}

// setupMedian sets the workload up setupReps times and returns the last
// fixture with the median total set-up time. The others are torn down,
// and memory is returned between repetitions, so every repetition
// starts from the same heap.
func setupMedian(w workload, storeRoot string) (*fixture, time.Duration, error) {
	var times []float64
	var fx *fixture
	for i := 0; i < setupReps; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, 0, fmt.Errorf("tear down: %w", err)
			}
			fx = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var err error
		if fx, err = newFixture(w, storeRoot); err != nil {
			return nil, 0, err
		}
		times = append(times, fx.phases.total().Seconds())
	}
	return fx, time.Duration(median(times) * float64(time.Second)), nil
}

// campaignOptions returns the fixed-size campaign settings: the
// lane-batched path at the default lane width and evaluator, one engine.
func campaignOptions(w workload, samples int, seed int64) montecarlo.CampaignOptions {
	return montecarlo.CampaignOptions{Samples: samples, Mode: w.mode, Seed: seed, Batch: true}
}
