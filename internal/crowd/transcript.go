package crowd

// TranscriptTag versions the simulated crowd's answer transcript: the
// exact answers, worker draws and ledger a Platform of a given Config
// produces for a given request sequence. Journals of crowd-backed
// audits record it (in the journal header, see internal/journal) and
// audit-service job metas record it too, so a journal or job written
// under another transcript fails resume with core.ErrTranscriptTag
// instead of replaying answers the platform would no longer give.
//
// Bump it whenever a change moves the transcript, and list the
// regenerated goldens with it. TestTranscriptTagGuard pins a digest of
// a fixed-seed transcript under the current tag. The tag is two bytes,
// a lowercase letter and a lowercase letter or digit, because it
// lives in the journal header's transcript field.
//
// History: journals before any tag (header field "01") hold the
// transcript in which perception drew one NormFloat64 for every glyph
// pixel; "c2" draws one per decision pixel only (imagegen.PerceiveInto).
const TranscriptTag = "c2"

// TranscriptTag implements core.TranscriptTagger.
func (p *Platform) TranscriptTag() string { return TranscriptTag }
