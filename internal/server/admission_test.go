package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"imagecvg/internal/dataset"
)

// boundedJob is a small valid job the admission cases push one field
// of past its bound.
func boundedJob() JobConfig {
	return JobConfig{Dataset: DatasetSpec{N: 60, Minority: 5, Seed: 1}, Tau: 4, SetSize: 8, Seed: 1}
}

// admissionCases sets one field of a valid job to value.
var admissionCases = []struct {
	field string
	max   int64
	set   func(c *JobConfig, v int64)
}{
	{"dataset.n", maxDatasetN, func(c *JobConfig, v int64) { c.Dataset.N = int(v) }},
	{"parallelism", maxParallelism, func(c *JobConfig, v int64) { c.Parallelism = int(v) }},
	{"assignments", maxAssignments, func(c *JobConfig, v int64) { c.Oracle, c.Assignments = "crowd", int(v) }},
	{"pool_size", maxPoolSize, func(c *JobConfig, v int64) { c.Oracle, c.PoolSize = "crowd", int(v) }},
	{"set_size", maxSetSize, func(c *JobConfig, v int64) { c.SetSize = int(v) }},
	{"hit_delay_micros", maxHITDelayMicros, func(c *JobConfig, v int64) { c.HITDelayMicros = v }},
}

// TestAdmissionBounds: a job asking for more than a package bound is
// refused with 400 before it is queued; a job at the bound is valid.
func TestAdmissionBounds(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	// Hold the only worker, so nothing a regression admits ever runs.
	blocker, err := e.Submit(slowJob(1))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Cancel(blocker)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	for _, tc := range admissionCases {
		at := boundedJob()
		tc.set(&at, tc.max)
		if err := at.normalize(); err != nil {
			t.Errorf("%s at its bound %d rejected: %v", tc.field, tc.max, err)
		}

		over := boundedJob()
		tc.set(&over, tc.max+1)
		body, err := json.Marshal(over)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		_ = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s = %d (one past its bound): POST /jobs = %d, want 400", tc.field, tc.max+1, resp.StatusCode)
			if st.ID != "" {
				_ = e.Cancel(st.ID)
			}
		}
	}
}

// FuzzJobConfig drives arbitrary POST /jobs bodies through the decoder
// and normalize: neither may panic, and every config they accept is
// inside the admission bounds.
func FuzzJobConfig(f *testing.F) {
	for _, seed := range []string{
		`{"mode":"multiple","dataset":{"n":60,"minority":5,"seed":1},"tau":4,"set_size":8,"seed":1}`,
		`{"mode":"classifier","dataset":{"n":200,"minority":16},"oracle":"crowd","assignments":3,"pool_size":30,"parallelism":4}`,
		`{"mode":"intersectional","dataset":{"n":1000001},"hit_delay_micros":1000001}`,
		`{"dataset":{"n":10},"set_size":-1,"parallelism":257}`,
		`{"dataset":{"path":"d.json"}}`,
		`{"dataset":{"n":10}} trailing`,
		`{"bogus":1}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, err := decodeJobConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := cfg.normalize(); err != nil {
			if !errors.Is(err, ErrInvalidConfig) {
				t.Fatalf("normalize error %v does not map to 400", err)
			}
			return
		}
		if cfg.Dataset.N < 1 || cfg.Dataset.N > maxDatasetN ||
			cfg.Dataset.Minority < 0 || cfg.Dataset.Minority > cfg.Dataset.N {
			t.Fatalf("accepted dataset %+v", cfg.Dataset)
		}
		switch {
		case cfg.Tau < 0, cfg.SetSize < 1, cfg.SetSize > maxSetSize,
			cfg.Parallelism < 0, cfg.Parallelism > maxParallelism,
			cfg.Assignments < 0, cfg.Assignments > maxAssignments,
			cfg.PoolSize < 0, cfg.PoolSize > maxPoolSize,
			cfg.HITDelayMicros < 0, cfg.HITDelayMicros > maxHITDelayMicros,
			cfg.MaxHITs < 0, cfg.MaxSpend < 0, cfg.Attr < 0, cfg.Value < 0:
			t.Fatalf("accepted out-of-bounds config %+v", cfg)
		}
	})
}

// TestDatasetPathRejected: a job config naming a dataset file is
// refused with 400, even when the file is a valid dataset. A client
// may not make the service open files on its host; every job audits a
// generated dataset inside the maxDatasetN bound.
func TestDatasetPathRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	ds, err := dataset.BinaryWithMinority(60, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Workers: 1})
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	body, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"path": path}, "tau": 4, "set_size": 8, "seed": 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply struct {
		Error string `json:"error"`
		ID    string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /jobs with dataset.path = %d (job %q), want 400", resp.StatusCode, reply.ID)
	}
	if !strings.Contains(reply.Error, `"path"`) {
		t.Errorf("400 error %q does not name the path field", reply.Error)
	}
}
