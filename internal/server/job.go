package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/montecarlo"
)

// Job states. A job moves queued → running → {done, failed, cancelled};
// a server shutdown moves a running job back to queued (its checkpoint
// survives on disk and the job resumes after restart).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobRequest is the body of POST /v1/jobs. Exactly one of Samples
// (fixed-size campaign) or Epsilon (adaptive campaign stopping on the
// paper's weak-LLN bound) must be set.
type JobRequest struct {
	// Samples runs a fixed-size campaign of exactly this many samples.
	Samples int `json:"samples,omitempty"`
	// Epsilon/Risk run an adaptive campaign: stop once
	// Pr[|estimate − SSF| ≥ Epsilon] ≤ Risk.
	Epsilon float64 `json:"epsilon,omitempty"`
	Risk    float64 `json:"risk,omitempty"`
	// MinSamples/MaxSamples bound the adaptive effort (defaults 2000
	// and 1<<20).
	MinSamples int `json:"min_samples,omitempty"`
	MaxSamples int `json:"max_samples,omitempty"`
	// Mode is "gate" (default) or "register".
	Mode string `json:"mode,omitempty"`
	// Sampler is "random", "cone", "importance" (default),
	// "stratified", or "sobol".
	Sampler string `json:"sampler,omitempty"`
	// Seed makes the job reproducible; the per-(round, shard) seeds of
	// the worker pool are derived from it deterministically.
	Seed int64 `json:"seed"`
	// Batch is ignored: every campaign runs the lane-batched path. The
	// field remains so that clients which still send it keep working.
	Batch bool `json:"batch,omitempty"`
	// CheckEvery is the per-engine round size (default 500): the
	// convergence bound, progress rebase, and checkpoints happen on
	// round boundaries.
	CheckEvery int `json:"check_every,omitempty"`
	// TrackConvergence records the merged estimate after every round.
	TrackConvergence bool `json:"track_convergence,omitempty"`
}

// normalize applies defaults and validates against the server's caps.
func (r *JobRequest) normalize(maxSamples int) error {
	if r.Sampler == "" {
		r.Sampler = "importance"
	}
	if r.Mode == "" {
		r.Mode = "gate"
	}
	if _, err := montecarlo.ParseMode(r.Mode); err != nil {
		return err
	}
	switch r.Sampler {
	case "random", "cone", "importance", "stratified", "sobol":
	default:
		return fmt.Errorf("unknown sampler %q", r.Sampler)
	}
	fixed := r.Samples > 0
	adaptive := r.Epsilon > 0
	if fixed == adaptive {
		return fmt.Errorf("exactly one of samples or epsilon must be set")
	}
	if adaptive {
		if r.Risk < 0 || r.Risk >= 1 {
			return fmt.Errorf("risk %v outside [0, 1)", r.Risk)
		}
		if r.MaxSamples == 0 {
			r.MaxSamples = 1 << 20
		}
	}
	if r.Samples > maxSamples || r.MaxSamples > maxSamples {
		return fmt.Errorf("sample budget exceeds the server cap of %d", maxSamples)
	}
	if r.Samples < 0 || r.MinSamples < 0 || r.MaxSamples < 0 || r.CheckEvery < 0 {
		return fmt.Errorf("negative sample counts")
	}
	return nil
}

// adaptiveOptions translates the request into the engine's options.
// Fixed-size jobs run through the same round orchestrator
// (MinSamples = MaxSamples = Samples pins the total exactly) so every
// job checkpoints and resumes uniformly.
func (r JobRequest) adaptiveOptions() montecarlo.AdaptiveOptions {
	mode, _ := montecarlo.ParseMode(r.Mode)
	o := montecarlo.AdaptiveOptions{
		Mode:             mode,
		Seed:             r.Seed,
		TrackConvergence: r.TrackConvergence,
		CheckEvery:       r.CheckEvery,
	}
	if o.CheckEvery < 1 {
		o.CheckEvery = 500
	}
	if r.Samples > 0 {
		// Fixed size: the run stops exactly at the requested count and
		// never consults the stopping bound.
		o.MinSamples = r.Samples
		o.MaxSamples = r.Samples
		return o
	}
	o.Epsilon = r.Epsilon
	o.Risk = r.Risk
	if o.Risk == 0 {
		o.Risk = 0.05
	}
	o.MinSamples = r.MinSamples
	if o.MinSamples == 0 {
		o.MinSamples = 2000
	}
	o.MaxSamples = r.MaxSamples
	return o
}

// JobResult is the completed campaign, as served to clients.
type JobResult struct {
	// SSF, StdErr, and CIHalfWidth all come from the campaign's
	// active estimator (stratified when in use);
	// CIHalfWidth is Z95·StdErr. Variance is the per-term variance of
	// the plain weighted estimator.
	SSF         float64   `json:"ssf"`
	StdErr      float64   `json:"std_err"`
	Variance    float64   `json:"variance"`
	CIHalfWidth float64   `json:"ci_half_width,omitempty"`
	ESS         float64   `json:"ess,omitempty"`
	Samples     int       `json:"samples"`
	Successes   int       `json:"successes"`
	RTLCycles   int       `json:"rtl_cycles"`
	Sampler     string    `json:"sampler"`
	Mode        string    `json:"mode"`
	ClassCounts [3]int    `json:"class_counts"`
	PathCounts  [4]int    `json:"path_counts"`
	Convergence []float64 `json:"convergence,omitempty"`
}

// finite clamps a non-finite statistic (the +Inf error of an empty
// campaign) to 0 so it stays encodable as JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	return x
}

// resultFrom summarizes a campaign.
func resultFrom(c *montecarlo.Campaign) *JobResult {
	if c == nil {
		return nil
	}
	return &JobResult{
		SSF:         c.SSF(),
		StdErr:      finite(c.StdErr()),
		Variance:    c.Variance(),
		CIHalfWidth: finite(c.CIHalfWidth()),
		ESS:         c.ESS(),
		Samples:     c.Est.N(),
		Successes:   c.Successes,
		RTLCycles:   c.RTLCycles,
		Sampler:     c.SamplerName,
		Mode:        c.Options.Mode.String(),
		ClassCounts: c.ClassCounts,
		PathCounts:  c.PathCounts,
		Convergence: c.Convergence,
	}
}

// ProgressEvent is one SSE progress snapshot.
type ProgressEvent struct {
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	SSF        float64 `json:"ssf"`
	RunsPerSec float64 `json:"runs_per_sec"`
	ElapsedMS  int64   `json:"elapsed_ms"`
}

// jobRecord is the persisted form of a job — everything needed to serve
// its status and to resume it after a restart.
type jobRecord struct {
	ID          string                       `json:"id"`
	Tenant      string                       `json:"tenant"`
	Request     JobRequest                   `json:"request"`
	State       string                       `json:"state"`
	SubmittedAt time.Time                    `json:"submitted_at"`
	StartedAt   time.Time                    `json:"started_at"`
	FinishedAt  time.Time                    `json:"finished_at"`
	Rounds      int64                        `json:"rounds,omitempty"`
	Checkpoint  *montecarlo.CampaignSnapshot `json:"checkpoint,omitempty"`
	Result      *JobResult                   `json:"result,omitempty"`
	Error       string                       `json:"error,omitempty"`
}

// JobStatus is the API view of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID          string         `json:"id"`
	Tenant      string         `json:"tenant"`
	State       string         `json:"state"`
	Request     JobRequest     `json:"request"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Rounds      int64          `json:"rounds,omitempty"`
	Progress    *ProgressEvent `json:"progress,omitempty"`
	Result      *JobResult     `json:"result,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// Job is the in-memory job: the persisted record plus the live bits
// (SSE hub, cancellation, latest progress).
type Job struct {
	mu       sync.Mutex
	rec      jobRecord          //guarded-by:mu
	progress *ProgressEvent     //guarded-by:mu
	hub      *sseHub            // immutable after newJob; the hub carries its own lock
	cancel   context.CancelFunc //guarded-by:mu
}

func newJob(rec jobRecord) *Job {
	return &Job{rec: rec, hub: newSSEHub()}
}

// status snapshots the API view.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.rec.ID,
		Tenant:      j.rec.Tenant,
		State:       j.rec.State,
		Request:     j.rec.Request,
		SubmittedAt: j.rec.SubmittedAt,
		Rounds:      j.rec.Rounds,
		Progress:    j.progress,
		Result:      j.rec.Result,
		Error:       j.rec.Error,
	}
	if !j.rec.StartedAt.IsZero() {
		t := j.rec.StartedAt
		st.StartedAt = &t
	}
	if !j.rec.FinishedAt.IsZero() {
		t := j.rec.FinishedAt
		st.FinishedAt = &t
	}
	return st
}

// state returns the current lifecycle state.
func (j *Job) state() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.State
}

// snapshotRecord copies the persisted record for saving outside the
// job's lock.
func (j *Job) snapshotRecord() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}
