package crowd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"imagecvg/internal/core"
	"imagecvg/internal/dataset"
)

// pinnedTag and pinnedDigest pin the transcript TranscriptTag names:
// the SHA-256 of the raw worker answers a fixed-seed platform gives to
// 200 set HITs.
const (
	pinnedTag    = "c2"
	pinnedDigest = "f287c97262f2b76e3c677d2cc7a6c526a0b2f7d66d0e7c00b71d4e4901ac72d2"
)

// transcriptDigest runs the fixed 200-HIT workload through a fresh
// platform and digests its ResponseLog.
func transcriptDigest(t *testing.T) string {
	t.Helper()
	d, err := dataset.BinaryWithMinority(300, 60, rand.New(rand.NewSource(55)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(56)
	cfg.Responses = &ResponseLog{}
	p, err := NewPlatform(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Female(d.Schema())
	ids := d.IDs()
	reqs := make([]core.SetRequest, 200)
	for i := range reqs {
		at := (7 * i) % (len(ids) - 5)
		reqs[i] = core.SetRequest{IDs: ids[at : at+5], Group: g, Reverse: i%3 == 0}
	}
	if _, err := p.SetQueryBatch(reqs); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range cfg.Responses.Responses() {
		fmt.Fprintf(h, "%d %d %d\n", r.Task, r.Worker, r.Value)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTranscriptTagGuard fails when the crowd transcript moves while
// TranscriptTag stays: journals recorded under the tag would then
// replay answers the platform no longer gives.
func TestTranscriptTagGuard(t *testing.T) {
	got := transcriptDigest(t)
	if got != pinnedDigest {
		t.Fatalf("crowd transcript digest %s, pinned %s under tag %q: the transcript moved — bump the transcript tag (crowd.TranscriptTag), list the regenerated goldens, and re-pin both here", got, pinnedDigest, pinnedTag)
	}
	if TranscriptTag != pinnedTag {
		t.Fatalf("TranscriptTag %q, pinned %q: re-pin the tag with the transcript it names", TranscriptTag, pinnedTag)
	}
}
