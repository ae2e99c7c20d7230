package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"imagecvg"
)

// writeDataset saves a small gender dataset and returns its path.
func writeDataset(t *testing.T, n, minority int) string {
	t.Helper()
	ds, err := imagecvg.GenerateBinary(n, minority, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.json"
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGroupMode(t *testing.T) {
	path := writeDataset(t, 500, 20)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "uncovered") {
		t.Errorf("20 < 50 should be uncovered:\n%s", out.String())
	}
}

func TestBaseMode(t *testing.T) {
	path := writeDataset(t, 200, 100)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "base", "-group", "1", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "covered") {
		t.Errorf("100 >= 50 should be covered:\n%s", out.String())
	}
}

func TestAttributeModeWithCrowd(t *testing.T) {
	path := writeDataset(t, 400, 60)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-attr", "gender", "-crowd", "-tau", "30"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gender=male") || !strings.Contains(out.String(), "crowd cost") {
		t.Errorf("output incomplete:\n%s", out.String())
	}
}

func TestIntersectionalMode(t *testing.T) {
	path := writeDataset(t, 300, 10)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "intersectional", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "gender=female") {
		t.Errorf("females (10 < 50) should appear as MUP:\n%s", out.String())
	}
}

func TestRepairMode(t *testing.T) {
	path := writeDataset(t, 300, 10)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "repair", "-tau", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "acquisition plan") ||
		!strings.Contains(out.String(), "40 x gender=female") {
		t.Errorf("repair output incomplete:\n%s", out.String())
	}
}

func TestParallelCachedAttributeMode(t *testing.T) {
	path := writeDataset(t, 400, 60)
	var seqOut, parOut, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-tau", "30"}, &seqOut, &errOut)
	if code != 0 {
		t.Fatalf("sequential exit = %d, stderr: %s", code, errOut.String())
	}
	code = run([]string{"-data", path, "-mode", "attribute", "-tau", "30", "-parallelism", "8", "-cache"}, &parOut, &errOut)
	if code != 0 {
		t.Fatalf("parallel exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(parOut.String(), "cache: ") {
		t.Errorf("cache stats missing:\n%s", parOut.String())
	}
	// Same ground-truth oracle and seed: the verdict lines must agree
	// at width 1 and width 8.
	seqLines := strings.Split(seqOut.String(), "\n")
	parLines := strings.Split(parOut.String(), "\n")
	for i := range seqLines {
		if strings.Contains(seqLines[i], "covered") && seqLines[i] != parLines[i] {
			t.Errorf("line %d diverged:\n%s\nvs\n%s", i, seqLines[i], parLines[i])
		}
	}
}

func TestClassifierMode(t *testing.T) {
	path := writeDataset(t, 600, 200)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "classifier", "-group", "1",
		"-tau", "50", "-n", "25", "-precision", "0.95", "-parallelism", "4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "classifier:") || !strings.Contains(out.String(), "via partition") {
		t.Errorf("classifier output incomplete:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "covered") {
		t.Errorf("200 >= 50 should be covered:\n%s", out.String())
	}
}

// TestClassifierLockstepCrowdInvariantAcrossParallelism: the
// classifier audit through the simulated crowd must print
// byte-identical output (verdict, strategy, task breakdown, dollar
// cost) at every -parallelism value.
func TestClassifierLockstepCrowdInvariantAcrossParallelism(t *testing.T) {
	path := writeDataset(t, 300, 80)
	audit := func(parallelism string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-data", path, "-mode", "classifier", "-group", "1",
			"-tau", "30", "-n", "15", "-crowd", "-seed", "5", "-parallelism", parallelism}, &out, &errOut)
		if code != 0 {
			t.Fatalf("parallelism %s: exit = %d, stderr: %s", parallelism, code, errOut.String())
		}
		return out.String()
	}
	base := audit("1")
	for _, p := range []string{"4", "16"} {
		if got := audit(p); got != base {
			t.Errorf("classifier output diverged at -parallelism %s:\n%s\nvs\n%s", p, got, base)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	path := writeDataset(t, 50, 5)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"missing data", []string{"-mode", "group"}, 2},
		{"missing file", []string{"-data", "/no/such/file.json"}, 1},
		{"missing group", []string{"-data", path, "-mode", "group"}, 2},
		{"classifier missing group", []string{"-data", path, "-mode", "classifier"}, 2},
		{"classifier degenerate precision", []string{"-data", path, "-mode", "classifier", "-group", "1", "-precision", "0.5"}, 1},
		{"bad pattern", []string{"-data", path, "-mode", "group", "-group", "XX9"}, 1},
		{"unknown attr", []string{"-data", path, "-mode", "attribute", "-attr", "planet"}, 1},
		{"unknown mode", []string{"-data", path, "-mode", "dance"}, 2},
		{"bad flag", []string{"-zzz"}, 2},
		{"trust-probes zero", []string{"-data", path, "-mode", "group", "-group", "1",
			"-crowd", "-trust", "-trust-probes", "0"}, 2},
		{"trust-probes negative", []string{"-data", path, "-mode", "group", "-group", "1",
			"-crowd", "-trust", "-trust-probes", "-3"}, 2},
		{"serve without data-dir", []string{"-serve", ":0"}, 2},
	}
	for _, tc := range cases {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != tc.code {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.code, errOut.String())
		}
	}
}

// TestLockstepCrowdInvariantAcrossParallelism: through the CLI, a
// crowd-backed audit must print byte-identical output (verdicts, task
// counts, dollar cost) at every -parallelism value, without any flag.
func TestLockstepCrowdInvariantAcrossParallelism(t *testing.T) {
	path := writeDataset(t, 300, 40)
	audit := func(parallelism string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-data", path, "-mode", "attribute", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-parallelism", parallelism}, &out, &errOut)
		if code != 0 {
			t.Fatalf("parallelism %s: exit = %d, stderr: %s", parallelism, code, errOut.String())
		}
		return out.String()
	}
	base := audit("1")
	for _, p := range []string{"4", "16"} {
		if got := audit(p); got != base {
			t.Errorf("output diverged at -parallelism %s:\n%s\nvs\n%s", p, got, base)
		}
	}
}

// TestIntersectionalCrowdInvariantAcrossParallelism: an intersectional
// crowd audit over a 4-value x 2-value schema — several concurrent
// leaf audits, super-groups and resolution re-audits, all through the
// order-dependent simulated crowd — must print byte-identical output
// at every -parallelism value, on every run: a schedule-dependent
// engine diverges only on some interleavings, so each width repeats.
func TestIntersectionalCrowdInvariantAcrossParallelism(t *testing.T) {
	s, err := imagecvg.NewSchema(
		imagecvg.Attribute{Name: "race", Values: []string{"a", "b", "c", "d"}},
		imagecvg.Attribute{Name: "gender", Values: []string{"m", "f"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := imagecvg.DatasetFromCounts(s, []int{120, 12, 90, 8, 60, 30, 40, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/d.json"
	if err := ds.SaveJSON(path); err != nil {
		t.Fatal(err)
	}
	audit := func(parallelism string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-data", path, "-mode", "intersectional", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-parallelism", parallelism}, &out, &errOut)
		if code != 0 {
			t.Fatalf("parallelism %s: exit = %d, stderr: %s", parallelism, code, errOut.String())
		}
		return out.String()
	}
	base := audit("1")
	for rep := 0; rep < 5; rep++ {
		for _, p := range []string{"2", "4", "16"} {
			if got := audit(p); got != base {
				t.Fatalf("intersectional output diverged at -parallelism %s (rep %d):\n%s\nvs\n%s", p, rep, got, base)
			}
		}
	}
}

// TestBudgetedGroupMode pins the -max-hits flag: a capped audit
// reports an undecided partial verdict plus the budget status line,
// and never commits more than the cap.
func TestBudgetedGroupMode(t *testing.T) {
	path := writeDataset(t, 800, 60)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-tau", "50", "-max-hits", "5"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "undecided (budget exhausted)") {
		t.Errorf("capped audit should be undecided:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "budget: 5 HITs committed") {
		t.Errorf("missing budget status line:\n%s", out.String())
	}
}

// TestBudgetedCrowdAttributeMode exercises -max-spend against the
// simulated crowd: the cap is denominated in the deployment's dollars
// and the unsettled groups are marked in the verdict table.
func TestBudgetedCrowdAttributeMode(t *testing.T) {
	path := writeDataset(t, 300, 15)
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "attribute", "-crowd",
		"-tau", "40", "-max-spend", "2.00"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "UNSETTLED") || !strings.Contains(s, "budget exhausted") {
		t.Errorf("spend-capped crowd audit should leave unsettled groups:\n%s", s)
	}
	if !strings.Contains(s, "budget:") || !strings.Contains(s, "crowd cost:") {
		t.Errorf("missing budget/cost reporting:\n%s", s)
	}
}

// TestJournalCheckpointAndResume: a journaled audit checkpoints every
// committed round; re-running with -resume answers the whole audit
// from the journal — the verdict lines are identical and every round
// is replayed, none live.
func TestJournalCheckpointAndResume(t *testing.T) {
	path := writeDataset(t, 300, 40)
	jnl := t.TempDir() + "/audit.jnl"
	audit := func(extra ...string) string {
		args := append([]string{"-data", path, "-mode", "attribute", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-journal", jnl}, extra...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, errOut.String())
		}
		return out.String()
	}

	fresh := audit()
	if !strings.Contains(fresh, "journal: checkpointing to") ||
		!strings.Contains(fresh, "(0 replayed") {
		t.Fatalf("fresh run journal lines missing:\n%s", fresh)
	}

	resumed := audit("-resume")
	if !strings.Contains(resumed, "journal: resuming") {
		t.Fatalf("resume line missing:\n%s", resumed)
	}
	if strings.Contains(resumed, "(0 replayed") || !strings.Contains(resumed, ", 0 live)") {
		t.Fatalf("resumed run should replay every round:\n%s", resumed)
	}
	// Verdict and cost lines must be byte-identical between the live
	// and the fully replayed run.
	verdicts := func(s string) []string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "covered") || strings.Contains(line, "total tasks") {
				keep = append(keep, line)
			}
		}
		return keep
	}
	f, r := verdicts(fresh), verdicts(resumed)
	if len(f) == 0 || len(f) != len(r) {
		t.Fatalf("verdict lines differ in number:\n%s\nvs\n%s", fresh, resumed)
	}
	for i := range f {
		if f[i] != r[i] {
			t.Errorf("verdict line diverged:\n%s\nvs\n%s", f[i], r[i])
		}
	}
}

// TestJournalClosedOnError: the journal file handle must be released
// on every exit path, audit errors included — a leaked handle means
// the final frame's durability was never confirmed. The run below
// opens the journal, then fails in the mode switch (bad pattern);
// the process-wide descriptor count must come back to its baseline.
func TestJournalClosedOnError(t *testing.T) {
	path := writeDataset(t, 50, 5)
	jnl := t.TempDir() + "/audit.jnl"
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	before := fds()
	var out, errOut bytes.Buffer
	code := run([]string{"-data", path, "-mode", "group", "-group", "XX9", "-journal", jnl}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut.String())
	}
	if _, err := os.Stat(jnl); err != nil {
		t.Fatalf("journal was never created: %v", err)
	}
	if after := fds(); after != before {
		t.Errorf("descriptor count %d -> %d: journal handle leaked on the error path", before, after)
	}
	if strings.Contains(errOut.String(), "journal close") {
		t.Errorf("clean close reported an error:\n%s", errOut.String())
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	path := writeDataset(t, 50, 5)
	var out, errOut bytes.Buffer
	if code := run([]string{"-data", path, "-mode", "group", "-group", "1", "-resume"}, &out, &errOut); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr: %s)", code, errOut.String())
	}
}

// syncWriter lets the serve goroutine and the test read/write the
// captured output concurrently.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestServeSmoke drives the whole -serve lifecycle through run():
// start the service on an ephemeral port, submit a job over HTTP,
// poll it to completion, then deliver SIGINT and check the graceful
// shutdown exits zero.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errOut syncWriter
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-serve", "127.0.0.1:0", "-data-dir", dir}, &out, &errOut)
	}()

	// The listen line carries the resolved address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("service never announced its address:\n%s%s", out.String(), errOut.String())
		}
		s := out.String()
		if i := strings.Index(s, "serving audit jobs on "); i >= 0 {
			rest := s[i+len("serving audit jobs on "):]
			if j := strings.Index(rest, " ("); j >= 0 {
				base = "http://" + rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"mode":"multiple","dataset":{"n":60,"minority":5,"seed":1},"tau":4,"set_size":8,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var st imagecvg.AuditJobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("POST /jobs = %d, status %+v", resp.StatusCode, st)
	}
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(base + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != imagecvg.JobDone || st.Result == nil {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	// Graceful shutdown on SIGINT: the NotifyContext inside serve()
	// owns the signal while the service runs.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exit = %d:\n%s", code, errOut.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("service never shut down after SIGINT:\n%s%s", out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown line:\n%s", out.String())
	}
}

// TestServeClosesStalledHeaders: a client that sends part of a header
// line and then stalls must be disconnected once the read-header
// timeout passes, instead of holding its connection forever.
func TestServeClosesStalledHeaders(t *testing.T) {
	dir := t.TempDir()
	var out, errOut syncWriter
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-serve", "127.0.0.1:0", "-data-dir", dir}, &out, &errOut)
	}()
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatalf("service never shut down after SIGINT:\n%s%s", out.String(), errOut.String())
		}
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("service never announced its address:\n%s%s", out.String(), errOut.String())
		}
		s := out.String()
		if i := strings.Index(s, "serving audit jobs on "); i >= 0 {
			rest := s[i+len("serving audit jobs on "):]
			if j := strings.Index(rest, " ("); j >= 0 {
				addr = rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /jobs HTTP/1.1\r\nHost: loc"); err != nil {
		t.Fatal(err)
	}
	limit := 2 * serveReadHeaderTimeout
	if err := conn.SetReadDeadline(start.Add(limit)); err != nil {
		t.Fatal(err)
	}
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with a stalled header still open after %v", limit)
	}
	if elapsed := time.Since(start); elapsed < serveReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v read-header timeout", elapsed, serveReadHeaderTimeout)
	}
}

// TestResumeRefusesUntaggedCrowdJournal: -resume of a crowd journal
// whose header carries no transcript tag (every crowd journal written
// before tags) exits 1 with the classified transcript error instead of
// replaying answers the current crowd would not give.
func TestResumeRefusesUntaggedCrowdJournal(t *testing.T) {
	path := writeDataset(t, 300, 40)
	jnl := t.TempDir() + "/audit.jnl"
	audit := func(extra ...string) (int, string) {
		args := append([]string{"-data", path, "-mode", "attribute", "-tau", "25",
			"-n", "15", "-crowd", "-seed", "3", "-journal", jnl}, extra...)
		var out, errOut bytes.Buffer
		return run(args, &out, &errOut), errOut.String()
	}
	if code, stderr := audit(); code != 0 {
		t.Fatalf("fresh run exit = %d, stderr: %s", code, stderr)
	}
	data, err := os.ReadFile(jnl)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "CVGJNL01")
	if err := os.WriteFile(jnl, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stderr := audit("-resume")
	if code != 1 || !strings.Contains(stderr, imagecvg.ErrTranscriptTag.Error()) {
		t.Fatalf("resume of an untagged crowd journal: exit %d, stderr %q; want exit 1 and %q",
			code, stderr, imagecvg.ErrTranscriptTag)
	}
}
