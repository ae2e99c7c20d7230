package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

var _ core.RoundJournal = (*Journal)(nil)

// sampleRecords covers both round kinds, partial-prefix outcomes and a
// governor snapshot.
func sampleRecords() []core.RoundRecord {
	g := pattern.Group{Name: "minority", Members: []pattern.Pattern{{0, 1}, {1, -1}}}
	return []core.RoundRecord{
		{
			Round: 0,
			Sets: []core.SetRequest{
				{IDs: []dataset.ObjectID{1, 2, 3}, Group: g},
				{IDs: []dataset.ObjectID{4, 5}, Group: g, Reverse: true},
			},
			SetAnswers: []bool{true, false},
			Spent:      core.BudgetSpent{Set: 1, ReverseSet: 1, Spend: 2},
		},
		{
			Round:        1,
			Points:       []dataset.ObjectID{7, 8, 9},
			PointAnswers: [][]int{{0, 1}, {1, 0}, {2, 2}},
			Spent:        core.BudgetSpent{Set: 1, ReverseSet: 1, Point: 3, Spend: 5},
		},
		{
			Round:      2,
			Sets:       []core.SetRequest{{IDs: []dataset.ObjectID{10}, Group: g}},
			SetAnswers: []bool{},
			ErrKind:    "budget",
			Spent:      core.BudgetSpent{Set: 1, ReverseSet: 1, Point: 3, Spend: 5, Denied: 1},
		},
	}
}

// writeJournal creates a journal at path holding recs.
func writeJournal(t *testing.T, path string, recs []core.RoundRecord) {
	t.Helper()
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordsEqual compares record slices modulo JSON nil-vs-empty slice
// differences, by round-tripping expectations is overkill — instead
// compare the fields that carry meaning.
func recordsEqual(a, b []core.RoundRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Round != b[i].Round || a[i].ErrKind != b[i].ErrKind ||
			!reflect.DeepEqual(a[i].Spent, b[i].Spent) ||
			len(a[i].Sets) != len(b[i].Sets) || len(a[i].Points) != len(b[i].Points) ||
			len(a[i].SetAnswers) != len(b[i].SetAnswers) || len(a[i].PointAnswers) != len(b[i].PointAnswers) {
			return false
		}
		for k := range a[i].Sets {
			if !reflect.DeepEqual(a[i].Sets[k], b[i].Sets[k]) {
				return false
			}
		}
		for k := range a[i].SetAnswers {
			if a[i].SetAnswers[k] != b[i].SetAnswers[k] {
				return false
			}
		}
		for k := range a[i].Points {
			if a[i].Points[k] != b[i].Points[k] {
				return false
			}
		}
		for k := range a[i].PointAnswers {
			if !reflect.DeepEqual(a[i].PointAnswers[k], b[i].PointAnswers[k]) {
				return false
			}
		}
	}
	return true
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jnl")
	recs := sampleRecords()
	writeJournal(t, path, recs)

	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(loaded, recs) {
		t.Fatalf("loaded records diverged:\n%+v\nvs\n%+v", loaded, recs)
	}

	// Open resumes: replay records match, appends continue the sequence.
	j, replay, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(replay, recs) {
		t.Fatalf("Open replay records diverged")
	}
	next := core.RoundRecord{Round: 3, Points: []dataset.ObjectID{11}, PointAnswers: [][]int{{1, 1}}}
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 4 || loaded[3].Round != 3 {
		t.Fatalf("resumed append not persisted: %+v", loaded)
	}
}

func TestJournalTornTailRecovers(t *testing.T) {
	recs := sampleRecords()
	// Torn variants: partial header, partial payload, final-frame CRC
	// damage. Each must recover to the complete prefix.
	tears := []struct {
		name string
		tear func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0x03, 0x00) }},
		{"partial payload", func(b []byte) []byte {
			return append(b, 0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x', 'y')
		}},
		{"final frame crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
	}
	for _, tc := range tears {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			writeJournal(t, path, recs)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}

			wantLen := len(recs)
			if tc.name == "final frame crc" {
				wantLen-- // the damaged final frame is the torn record
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatalf("Load after %s: %v", tc.name, err)
			}
			if !recordsEqual(loaded, recs[:wantLen]) {
				t.Fatalf("recovered %d records, want prefix of %d", len(loaded), wantLen)
			}

			// Open truncates the tear and appending resumes cleanly.
			j, replay, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(replay) != wantLen {
				t.Fatalf("Open recovered %d records, want %d", len(replay), wantLen)
			}
			if err := j.Append(core.RoundRecord{Round: wantLen, Points: []dataset.ObjectID{42}, PointAnswers: [][]int{{0}}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err = Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(loaded) != wantLen+1 {
				t.Fatalf("after recovery+append: %d records, want %d", len(loaded), wantLen+1)
			}
		})
	}
}

func TestJournalCorruptionIsLoud(t *testing.T) {
	recs := sampleRecords()
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"mid-file payload flip", func(b []byte) []byte { b[len(magic)+frameHeaderSize+2] ^= 0x01; return b }},
		// A short file only counts as a torn header when it is a strict
		// prefix of the magic; short content that diverges is a
		// different file format and stays loud.
		{"short non-prefix", func(b []byte) []byte { b[0] ^= 0xff; return b[:4] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			writeJournal(t, path, recs)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(append([]byte(nil), data...)), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Load = %v, want ErrCorrupt", err)
			}
			if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestJournalTornHeaderIsEmpty pins the classification of files shorter
// than the magic: a zero-length file or any strict prefix of the magic
// is the wreckage of a crash inside Create — an empty journal that
// resumes from round 0 — not corruption. Open must rewrite the header
// so the recovered file accepts appends and reloads cleanly.
func TestJournalTornHeaderIsEmpty(t *testing.T) {
	cases := []struct {
		name    string
		content []byte
	}{
		{"zero length", []byte{}},
		{"one magic byte", []byte(magic)[:1]},
		{"partial magic", []byte(magic)[:5]},
		{"magic only", []byte(magic)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "audit.jnl")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			recs, err := Load(path)
			if err != nil {
				t.Fatalf("Load = %v, want empty journal", err)
			}
			if len(recs) != 0 {
				t.Fatalf("Load returned %d records from a header-only file", len(recs))
			}
			j, replay, err := Open(path)
			if err != nil {
				t.Fatalf("Open = %v, want empty journal", err)
			}
			if len(replay) != 0 {
				t.Fatalf("Open returned %d replay records", len(replay))
			}
			if err := j.Append(core.RoundRecord{Round: 0, Points: []dataset.ObjectID{1}, PointAnswers: [][]int{{0}}}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path)
			if err != nil {
				t.Fatalf("reload after header recovery: %v", err)
			}
			if len(loaded) != 1 || loaded[0].Round != 0 {
				t.Fatalf("reload after header recovery: %+v", loaded)
			}
		})
	}
}

func TestJournalAppendSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jnl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.RoundRecord{Round: 2}); err == nil {
		t.Error("out-of-sequence append succeeded")
	}
	if err := j.Append(core.RoundRecord{Round: 0, Points: []dataset.ObjectID{1}, PointAnswers: [][]int{{0}}}); err != nil {
		t.Fatal(err)
	}
	if j.Rounds() != 1 {
		t.Errorf("Rounds() = %d, want 1", j.Rounds())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(core.RoundRecord{Round: 1}); err == nil {
		t.Error("append to closed journal succeeded")
	}
}

// TestJournalTranscriptTag: round 0's Transcript lands in the header's
// transcript field without lengthening the file, comes back on the
// first record from Load and Open, survives appends after a resume,
// and an untagged round 0 leaves the header "CVGJNL01". A tag that
// does not fit the field is refused.
func TestJournalTranscriptTag(t *testing.T) {
	dir := t.TempDir()
	tagged := sampleRecords()
	tagged[0].Transcript = "c2"
	taggedPath, plainPath := filepath.Join(dir, "tagged.jnl"), filepath.Join(dir, "plain.jnl")
	writeJournal(t, taggedPath, tagged)
	writeJournal(t, plainPath, sampleRecords())

	taggedBytes, err := os.ReadFile(taggedPath)
	if err != nil {
		t.Fatal(err)
	}
	plainBytes, err := os.ReadFile(plainPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(taggedBytes[:len(magic)]); got != "CVGJNLc2" {
		t.Fatalf("tagged header %q, want %q", got, "CVGJNLc2")
	}
	if got := string(plainBytes[:len(magic)]); got != magic {
		t.Fatalf("untagged header %q, want %q", got, magic)
	}
	if string(taggedBytes[len(magic):]) != string(plainBytes[len(magic):]) {
		t.Fatal("the tag changed bytes past the header")
	}

	recs, err := Load(taggedPath)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Transcript != "c2" || !recordsEqual(recs, tagged) {
		t.Fatalf("Load: first record transcript %q, records equal %v", recs[0].Transcript, recordsEqual(recs, tagged))
	}
	if plain, err := Load(plainPath); err != nil || plain[0].Transcript != "" {
		t.Fatalf("untagged Load: transcript %q, err %v", plain[0].Transcript, err)
	}

	j, replay, err := Open(taggedPath)
	if err != nil {
		t.Fatal(err)
	}
	if replay[0].Transcript != "c2" {
		t.Fatalf("Open: first record transcript %q", replay[0].Transcript)
	}
	if err := j.Append(core.RoundRecord{Round: len(replay), Points: []dataset.ObjectID{1}, PointAnswers: [][]int{{0}}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err := Load(taggedPath); err != nil || len(recs) != len(tagged)+1 || recs[0].Transcript != "c2" {
		t.Fatalf("after resume+append: %d records, transcript %q, err %v", len(recs), recs[0].Transcript, err)
	}

	for _, bad := range []string{"c", "c22", "C2", "2c", "01"} {
		j, err := Create(filepath.Join(dir, "bad.jnl"))
		if err != nil {
			t.Fatal(err)
		}
		rec := sampleRecords()[0]
		rec.Transcript = bad
		if err := j.Append(rec); err == nil {
			t.Errorf("Append with transcript tag %q: want error", bad)
		}
		j.Close()
	}
}
