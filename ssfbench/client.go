package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/server"
)

// client is the service workload's closed-loop client: it submits one
// job, follows its event stream to the terminal state, and only then
// submits the next.
type client struct {
	fx   *fixture
	http *http.Client
}

func newClient(fx *fixture) *client {
	return &client{fx: fx, http: &http.Client{Timeout: 2 * time.Minute}}
}

func (cl *client) close() { cl.http.CloseIdleConnections() }

// jobRun is one completed job as the client saw it.
type jobRun struct {
	status  server.JobStatus
	submit  time.Duration // POST round trip
	latency time.Duration // POST sent to terminal event received
	// recordBytes samples the size of the job's on-disk record at each
	// progress event (traced runs only).
	recordBytes []float64
}

// run submits req and waits for the job to finish. Every request and
// the job itself count as operations; a job that does not end done
// returns nil.
func (cl *client) run(req server.JobRequest, sampleRecord bool, c *checks) *jobRun {
	body, err := json.Marshal(req)
	if !c.op(err, "encode job") {
		return nil
	}
	jr := &jobRun{}
	start := time.Now()
	resp, err := cl.http.Post(cl.fx.baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if !c.op(err, "submit job") {
		return nil
	}
	err = decodeResponse(resp, http.StatusAccepted, &jr.status)
	jr.submit = time.Since(start)
	if !c.op(err, "submit job") {
		return nil
	}
	id := jr.status.ID
	resp, err = cl.http.Get(cl.fx.baseURL + "/v1/jobs/" + id + "/events")
	if !c.op(err, "job events") {
		return nil
	}
	defer resp.Body.Close()
	if !c.check(resp.StatusCode == http.StatusOK, "job events: status %s", resp.Status) {
		return nil
	}
	final, err := cl.follow(resp.Body, id, sampleRecord, jr)
	jr.latency = time.Since(start)
	if !c.op(err, "job "+id+" events") {
		return nil
	}
	cl.drainLog(c)
	jr.status = final
	if !c.check(final.State == server.StateDone && final.Result != nil, "job %s ended %s: %s", id, final.State, final.Error) {
		return nil
	}
	return jr
}

// follow reads the job's server-sent events up to the terminal one and
// returns the job status it carries.
func (cl *client) follow(body io.Reader, id string, sampleRecord bool, jr *jobRun) (server.JobStatus, error) {
	var st server.JobStatus
	br := bufio.NewReader(body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return st, fmt.Errorf("stream ended before a terminal event: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "progress":
			if sampleRecord {
				if fi, err := os.Stat(cl.fx.jobFile(id)); err == nil {
					jr.recordBytes = append(jr.recordBytes, float64(fi.Size()))
				}
			}
		case strings.HasPrefix(line, "data: "):
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			return st, err
		}
	}
}

// drainLog counts every server log line (persistence failures) as a
// failed operation.
func (cl *client) drainLog(c *checks) {
	for {
		select {
		case line := <-cl.fx.logged:
			c.check(false, "server: %s", line)
		default:
			return
		}
	}
}

// decodeResponse requires the status code and decodes the JSON body.
func decodeResponse(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}
