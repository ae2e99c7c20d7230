// Package journal is the crash-safe file codec behind audit
// checkpoint/resume: one append-only file holds the committed rounds
// of a single audit as length-prefixed, checksummed JSON frames, made
// durable with an fsync per append — the RoundJournal the core
// journaling middleware writes through, and the replay source a
// resumed job loads.
//
// The file layout is an 8-byte header followed by frames of
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// where the payload is one JSON-encoded core.RoundRecord. Records are
// self-indexing (RoundRecord.Round), so Load verifies the sequence is
// gapless from 0.
//
// The header is the file magic "CVGJNL" and a 2-byte transcript field.
// "01" (the whole header reads "CVGJNL01", the only header before
// transcripts were tagged) marks rounds that carry no versioned
// transcript, the rounds of an order-independent oracle such as
// TruthOracle. Any other value is the transcript tag of the
// order-dependent oracle that answered the rounds (crowd.TranscriptTag):
// a lowercase letter and a lowercase letter or digit. Append stamps
// round 0's RoundRecord.Transcript into the field, in the same write
// and fsync as round 0's frame, and Open and Load hand it back on the
// first record, where core.Stack.Build refuses a replay whose tag is
// not the oracle's. The field keeps the header at 8 bytes, so a tagged
// journal is exactly as long as an untagged one.
//
// Recovery draws a hard line between a torn tail and corruption. A
// crash mid-append leaves a final frame whose header or payload is
// incomplete, or whose checksum does not match — Load drops exactly
// that frame and returns every complete round before it, and Open
// additionally truncates the file back to the last complete round so
// appending resumes cleanly. A crash inside Create can likewise leave
// a torn header — a zero-length file or a strict prefix of the magic
// — which both treat as an empty journal (resume from round 0); Open
// rewrites the header before accepting appends. Anything else — a checksum mismatch with
// more bytes behind it, undecodable JSON, out-of-sequence round
// numbers, a bad magic — is corruption, and Load fails loudly with
// ErrCorrupt: silently replaying a damaged journal would fabricate
// crowd answers.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"imagecvg/internal/core"
)

// magic is the untagged header: the file magic and the transcript
// field of a journal whose rounds carry no transcript tag.
const magic = "CVGJNL01"

// tagAt is the offset of the 2-byte transcript field in the header.
const tagAt = 6

// frameHeaderSize is the per-frame overhead: payload length + CRC.
const frameHeaderSize = 8

// maxFrameSize bounds one record's encoding; a length field above it
// is treated as corruption rather than an attempted allocation.
const maxFrameSize = 64 << 20

// ErrCorrupt marks a journal Load refuses to replay: damage beyond a
// torn tail (mid-file checksum mismatch, undecodable record,
// out-of-sequence rounds, bad magic).
var ErrCorrupt = errors.New("journal: corrupt journal file")

// Journal is an open journal file accepting appends. It implements
// core.RoundJournal. Safe for concurrent use, though the core
// middleware already serializes rounds.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	next int    // expected Round of the next append
	tag  string // transcript tag in the header ("" untagged)
}

// Create starts a fresh journal at path, truncating any existing file,
// and syncs the header before returning.
func Create(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create %s: %w", path, err)
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: sync header: %w", err)
	}
	return &Journal{f: f, path: path}, nil
}

// Open loads an existing journal for resumption: it returns the
// complete rounds on disk (the replay records for the resumed run),
// truncates a torn tail left by a crash, and positions the journal to
// append the next round. Corruption beyond a torn tail fails with
// ErrCorrupt.
func Open(path string) (*Journal, []core.RoundRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	recs, validEnd, tag, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A torn header (crash inside Create before the magic was durable)
	// reads as an empty journal with validEnd 0: rewrite the header so
	// appends land on a well-formed file.
	if validEnd < int64(len(magic)) {
		if terr := f.Truncate(0); terr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn header of %s: %w", path, terr)
		}
		if _, werr := f.WriteAt([]byte(magic), 0); werr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: rewrite header of %s: %w", path, werr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync header of %s: %w", path, serr)
		}
		validEnd = int64(len(magic))
	}
	// Drop the torn tail, if any, so appends extend the last complete
	// round.
	if fi, serr := f.Stat(); serr == nil && fi.Size() > validEnd {
		if terr := f.Truncate(validEnd); terr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, terr)
		}
		if serr := f.Sync(); serr != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync after truncate: %w", serr)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	return &Journal{f: f, path: path, next: len(recs), tag: tag}, recs, nil
}

// Load reads the complete rounds of the journal at path without
// opening it for appends (torn tails are skipped, not truncated).
func Load(path string) ([]core.RoundRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	defer f.Close()
	recs, _, _, err := readAll(f)
	return recs, err
}

// readAll decodes every complete frame, returning the records (the
// header's transcript tag on the first), the byte offset just past the
// last complete frame, and the tag. A torn tail — an incomplete final
// frame, or a final frame failing its checksum — ends the read at the
// preceding round; any other damage is ErrCorrupt.
func readAll(f *os.File) (recs []core.RoundRecord, validEnd int64, tag string, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, "", fmt.Errorf("journal: read: %w", err)
	}
	if len(data) < len(magic) {
		// A zero-length file, or any strict prefix of the magic, is the
		// torn header a crash inside Create leaves behind — an empty
		// journal (resume from round 0), not corruption. validEnd 0
		// tells Open to rewrite the header. Content that diverges from
		// the magic is a different file format, and stays loud.
		if bytes.Equal(data, []byte(magic)[:len(data)]) {
			return nil, 0, "", nil
		}
		return nil, 0, "", fmt.Errorf("%w: missing or wrong magic", ErrCorrupt)
	}
	tag, ok := headerTag(data[:len(magic)])
	if !ok {
		return nil, 0, "", fmt.Errorf("%w: missing or wrong magic", ErrCorrupt)
	}
	recs, off, err := readFrames(data[len(magic):])
	if len(recs) > 0 {
		recs[0].Transcript = tag
	}
	return recs, off, tag, err
}

// readFrames decodes the frames after the header; see readAll.
func readFrames(rest []byte) ([]core.RoundRecord, int64, error) {
	var recs []core.RoundRecord
	off := int64(len(magic))
	for len(rest) > 0 {
		if len(rest) < frameHeaderSize {
			return recs, off, nil // torn tail: header incomplete
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if length > maxFrameSize {
			return nil, 0, fmt.Errorf("%w: frame at offset %d declares %d bytes", ErrCorrupt, off, length)
		}
		if uint32(len(rest)-frameHeaderSize) < length {
			return recs, off, nil // torn tail: payload incomplete
		}
		payload := rest[frameHeaderSize : frameHeaderSize+int(length)]
		final := len(rest) == frameHeaderSize+int(length)
		if crc32.ChecksumIEEE(payload) != sum {
			if final {
				return recs, off, nil // torn tail: final frame half-written
			}
			return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d with %d bytes following",
				ErrCorrupt, off, len(rest)-frameHeaderSize-int(length))
		}
		var rec core.RoundRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return nil, 0, fmt.Errorf("%w: undecodable record at offset %d: %v", ErrCorrupt, off, err)
		}
		if rec.Round != len(recs) {
			return nil, 0, fmt.Errorf("%w: record at offset %d has round %d, want %d",
				ErrCorrupt, off, rec.Round, len(recs))
		}
		recs = append(recs, rec)
		off += int64(frameHeaderSize) + int64(length)
		rest = rest[frameHeaderSize+int(length):]
	}
	return recs, off, nil
}

// headerTag reads the transcript tag out of an 8-byte header: "" for
// the untagged header; ok is false for any other file.
func headerTag(h []byte) (tag string, ok bool) {
	if string(h) == magic {
		return "", true
	}
	tag = string(h[tagAt:])
	return tag, string(h[:tagAt]) == magic[:tagAt] && validTag(tag)
}

// validTag reports whether tag fits the header's transcript field: a
// lowercase letter, then a lowercase letter or digit.
func validTag(tag string) bool {
	return len(tag) == len(magic)-tagAt &&
		'a' <= tag[0] && tag[0] <= 'z' &&
		('a' <= tag[1] && tag[1] <= 'z' || '0' <= tag[1] && tag[1] <= '9')
}

// Append implements core.RoundJournal: one frame per committed round,
// fsynced before returning so a crash never loses an acknowledged
// round. Records must arrive in round order. When round 0's Transcript
// differs from the header's tag, round 0 is written together with the
// header that records it, from offset 0, under the same fsync.
func (j *Journal) Append(rec core.RoundRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("journal: append to closed journal")
	}
	if rec.Round != j.next {
		return fmt.Errorf("journal: append round %d, want %d", rec.Round, j.next)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encode round %d: %w", rec.Round, err)
	}
	var hdr []byte
	if rec.Round == 0 && rec.Transcript != j.tag {
		// Round 0 directly follows the header (Create and Open leave a
		// header-only file before it), so header and frame are one
		// contiguous write.
		if rec.Transcript != "" && !validTag(rec.Transcript) {
			return fmt.Errorf("journal: transcript tag %q is not a lowercase letter and a letter or digit", rec.Transcript)
		}
		hdr = []byte(magic)
		if rec.Transcript != "" {
			hdr = append(hdr[:tagAt], rec.Transcript...)
		}
		if _, err := j.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("journal: seek to header: %w", err)
		}
	}
	frame := make([]byte, len(hdr)+frameHeaderSize+len(payload))
	n := copy(frame, hdr)
	binary.LittleEndian.PutUint32(frame[n:n+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[n+4:n+8], crc32.ChecksumIEEE(payload))
	copy(frame[n+frameHeaderSize:], payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: write round %d: %w", rec.Round, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync round %d: %w", rec.Round, err)
	}
	if rec.Round == 0 {
		j.tag = rec.Transcript
	}
	j.next++
	return nil
}

// Rounds returns how many rounds the journal holds.
func (j *Journal) Rounds() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file; further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
