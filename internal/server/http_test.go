package server

// HTTP surface tests: submit/status/list/cancel round-trips through
// the real mux, SSE stream delivery, and error-code mapping.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, cfg JobConfig) JobStatus {
	t.Helper()
	body, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPSubmitStatusList(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, smallJob(21))
	if st.ID == "" || st.Mode != ModeMultiple {
		t.Fatalf("submit status: %+v", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		st = getStatus(t, ts, st.ID)
	}
	if st.State != StateDone || st.Result == nil || len(st.Result.Verdicts) == 0 {
		t.Fatalf("final status: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}
}

// TestHTTPSubmitBodyLimit: a POST /jobs body over maxSubmitBytes is
// refused with 413 — whether the padding comes before or after the
// JSON value — while a padded body within the cap is still accepted.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	cfg, err := json.Marshal(smallJob(23))
	if err != nil {
		t.Fatal(err)
	}
	over := strings.Repeat(" ", maxSubmitBytes)
	under := strings.Repeat(" ", maxSubmitBytes-len(cfg))
	cases := []struct {
		name string
		body string
		code int
	}{
		{"leading padding over the cap", over + string(cfg), http.StatusRequestEntityTooLarge},
		{"trailing padding over the cap", string(cfg) + over, http.StatusRequestEntityTooLarge},
		{"padding up to the cap", string(cfg) + under, http.StatusAccepted},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: POST /jobs = %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
}

func TestHTTPStream(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, slowJob(22))
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	// The stream must deliver a snapshot, at least one round event,
	// and a terminal state event before closing.
	var sawSnapshot, sawRound, sawTerminal bool
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch ev.Type {
		case "snapshot":
			sawSnapshot = true
		case "round":
			sawRound = true
		case "state":
			if ev.State.Terminal() {
				sawTerminal = true
			}
		}
	}
	if !sawSnapshot || !sawRound || !sawTerminal {
		t.Fatalf("stream saw snapshot=%v round=%v terminal=%v", sawSnapshot, sawRound, sawTerminal)
	}
	if st := getStatus(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("after stream end: %s (%s)", st.State, st.Error)
	}
}

func TestHTTPCancel(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	st := postJob(t, ts, slowJob(23))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	final := waitTerminal(t, e, st.ID)
	if final.State != StateCancelled && final.State != StateDone {
		t.Fatalf("after cancel: %s", final.State)
	}
}

// TestWriteErrorCodes checks the error→status mapping directly — in
// particular that unrecognized (internal) errors report as 500s, not
// client faults.
func TestWriteErrorCodes(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{errors.New("server: persist job meta: disk full"), http.StatusInternalServerError},
		{badConfig("tau must be positive"), http.StatusBadRequest},
		{fmt.Errorf("job-000042: %w", ErrNotFound), http.StatusNotFound},
		{fmt.Errorf("%w: tenant %q", ErrTenantBudget, "acme"), http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		// Every sentinel must keep matching through wrapping — the
		// cvglint sentinelerr rule bans the raw == that would silently
		// break these mappings — including a double-wrapped chain.
		{fmt.Errorf("normalize: %w", ErrInvalidConfig), http.StatusBadRequest},
		{fmt.Errorf("shutting down: %w", ErrClosed), http.StatusServiceUnavailable},
		{fmt.Errorf("submit: %w", fmt.Errorf("tenant acme: %w", ErrTenantBudget)), http.StatusTooManyRequests},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, TenantMaxHITs: 1})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		do   func() (*http.Response, error)
		code int
	}{
		{"bad config", func() (*http.Response, error) {
			return http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"mode":"bogus","dataset":{"n":10}}`))
		}, http.StatusBadRequest},
		{"unknown field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"bogus_field":1}`))
		}, http.StatusBadRequest},
		{"unknown job", func() (*http.Response, error) {
			return http.Get(ts.URL + "/jobs/job-999999")
		}, http.StatusNotFound},
		{"unknown stream", func() (*http.Response, error) {
			return http.Get(ts.URL + "/jobs/job-999999/stream")
		}, http.StatusNotFound},
		{"cancel unknown", func() (*http.Response, error) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999999", nil)
			if err != nil {
				return nil, err
			}
			return http.DefaultClient.Do(req)
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.code)
			}
		})
	}

	// Tenant exhaustion maps to 429: burn the 1-HIT tenant cap, then
	// the next submission is refused.
	first := postJob(t, ts, smallJob(31))
	waitTerminal(t, e, first.ID)
	body, _ := json.Marshal(smallJob(32))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant submit = %d, want 429", resp.StatusCode)
	}
}

// TestEngineCloseLeaksNothing runs a fleet through the HTTP surface —
// finished jobs, a cancelled job, and an SSE subscriber on a job still
// running at shutdown — then closes the engine and the server. Close
// must end the open stream (a parked job's subscribers are released,
// not left waiting for a terminal event that never comes), and the
// process must come back to its pre-engine goroutine and descriptor
// counts.
func TestEngineCloseLeaksNothing(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	// The runtime's network poller keeps its descriptors for the life
	// of the process; open it before taking the baseline.
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close()
	}
	baseG, baseFD := runtime.NumGoroutine(), fds()

	e, err := NewEngine(Options{DataDir: t.TempDir(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	client := &http.Client{Transport: &http.Transport{}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var done []string
	for seed := int64(1); seed <= 4; seed++ {
		done = append(done, postJob(t, ts, smallJob(seed)).ID)
	}
	cancelled := postJob(t, ts, slowJob(5)).ID
	live := slowJob(6)
	live.HITDelayMicros = 20000 // still running when the engine closes
	streamed := postJob(t, ts, live).ID

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+streamed+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	streamEnded := make(chan struct{})
	go func() {
		defer close(streamEnded)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	cancelReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+cancelled, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := client.Do(cancelReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for _, id := range append(done, cancelled) {
		waitTerminal(t, e, id)
	}

	e.Close()
	select {
	case <-streamEnded:
	case <-time.After(10 * time.Second):
		t.Error("SSE stream still open 10s after Engine.Close")
		cancel() // hang up from the client side so the server can close
		<-streamEnded
	}
	ts.Close()
	client.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for {
		g, fd := runtime.NumGoroutine(), fds()
		if g <= baseG && fd <= baseFD {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines (baseline %d), %d descriptors (baseline %d)", g, baseG, fd, baseFD)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
