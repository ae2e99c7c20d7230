package core

import (
	"errors"
	"sort"
	"strconv"
	"sync"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// CacheStats tallies the CachingOracle's effectiveness per HIT type.
type CacheStats struct {
	// Hits are queries answered from the cache (zero crowd cost).
	Hits TaskCounts
	// Misses are queries forwarded to the inner oracle.
	Misses TaskCounts
}

// HitRate returns the fraction of queries served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits.Total() + s.Misses.Total()
	if total == 0 {
		return 0
	}
	return float64(s.Hits.Total()) / float64(total)
}

// CachingOracle deduplicates identical queries against the inner
// oracle: a HIT already paid for is never posted again. Set and
// reverse-set queries are keyed on the canonicalized id-set (sorted,
// order-insensitive) plus the group's member patterns, point queries
// on the object id. Errors are never cached — a transient crowd
// failure leaves the key unanswered, so the next attempt pays (and
// retries) the real HIT.
//
// A round runs under the oracle's lock from key scan through the inner
// post to answer assembly, so concurrent callers take turns per round:
// the distinct misses of a round post as one batch, and a key one
// round paid for is a hit for every later round. A single query is a
// one-element round. Safe for concurrent use when the inner oracle is.
//
// Caching deliberately changes task counts — that is the point — so
// equivalence experiments comparing engine variants must run uncached.
type CachingOracle struct {
	oneQueryRounds
	inner BatchOracle

	mu      sync.Mutex
	answers map[string]bool
	labels  map[string][]int
	stats   CacheStats

	// Key-building scratch, guarded by mu. Lookups go through
	// map[string(bytes)] expressions, which Go compiles without
	// materializing the string, so a cache hit allocates nothing; the
	// string is built only when a key must be stored.
	keyBuf        []byte
	offScratch    []int
	sortScratch   []int
	memberScratch []string
}

// NewCachingOracle wraps a batch oracle with the deduplicating cache.
func NewCachingOracle(inner BatchOracle) *CachingOracle {
	c := &CachingOracle{
		inner:   inner,
		answers: make(map[string]bool),
		labels:  make(map[string][]int),
	}
	c.oneQueryRounds = oneQueryRounds{c}
	return c
}

// Stats returns the hit/miss tally so far.
func (c *CachingOracle) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Len returns the number of distinct cached answers.
func (c *CachingOracle) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.answers) + len(c.labels)
}

// setKey canonicalizes one set/reverse-set query: the id multiset is
// sorted (the crowd question is order-insensitive) and the group is
// identified by its sorted member pattern keys, so renamed or
// reordered super-groups with the same members share a key.
//
// The encoding is collision-proof by construction: every
// variable-length field is length-prefixed, so no member key — however
// adversarial its contents, separators included — can bleed into a
// neighboring field and make two distinct (ids, group, kind) tuples
// share a key (FuzzCacheKey pins the property). A plain
// separator-joined key would conflate e.g. a two-member group with a
// one-member group whose key happens to contain the separator — and a
// conflated key means one paid HIT silently answers a DIFFERENT crowd
// question.
//
// setKey is the reference (allocating) form; hot paths build the same
// bytes into reused scratch via canonSet + appendSetKey.
func setKey(ids []dataset.ObjectID, g pattern.Group, reverse bool) string {
	sorted, members := canonSet(nil, nil, ids, g)
	return string(appendSetKey(nil, sorted, members, reverse))
}

// appendSetKey appends setKey's encoding of one canonicalized query
// (sorted ids, sorted member keys) to dst and returns the extended
// slice. The bytes are identical to setKey's, so scratch-built keys
// and stored map keys always agree.
func appendSetKey(dst []byte, sorted []int, members []string, reverse bool) []byte {
	if reverse {
		dst = append(dst, 'r', '|')
	} else {
		dst = append(dst, 's', '|')
	}
	dst = strconv.AppendInt(dst, int64(len(members)), 10)
	for _, m := range members {
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(len(m)), 10)
		dst = append(dst, ':')
		dst = append(dst, m...)
	}
	dst = append(dst, '|')
	for i, id := range sorted {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// canonSet canonicalizes one set query into the given scratch, grown
// as needed: ids sorted ascending, member pattern keys sorted
// lexically.
func canonSet(sorted []int, members []string, ids []dataset.ObjectID, g pattern.Group) ([]int, []string) {
	sorted = sorted[:0]
	for _, id := range ids {
		sorted = append(sorted, int(id))
	}
	sort.Ints(sorted)
	members = members[:0]
	for _, p := range g.Members {
		members = append(members, p.Key())
	}
	sort.Strings(members)
	return sorted, members
}

// appendPointKey appends the key of one point query to dst.
func appendPointKey(dst []byte, id dataset.ObjectID) []byte {
	dst = append(dst, 'p', '|')
	return strconv.AppendInt(dst, int64(id), 10)
}

// cloneLabels copies a label vector; nil stays nil.
func cloneLabels(labels []int) []int {
	if labels == nil {
		return nil
	}
	out := make([]int, len(labels))
	copy(out, labels)
	return out
}

// tally counts one query on t, by the kind its key's tag names.
func tally(t *TaskCounts, key []byte) {
	switch key[0] {
	case 'p':
		t.Point++
	case 'r':
		t.ReverseSet++
	default:
		t.Set++
	}
}

// SetQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return cacheRound(c, reqs, c.answers, BatchOracle.SetQueryBatch, func(ans bool) bool { return ans },
		func(dst []byte, req SetRequest) []byte {
			c.sortScratch, c.memberScratch = canonSet(c.sortScratch, c.memberScratch, req.IDs, req.Group)
			return appendSetKey(dst, c.sortScratch, c.memberScratch, req.Reverse)
		})
}

// PointQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return cacheRound(c, ids, c.labels, BatchOracle.PointQueryBatch, cloneLabels, appendPointKey)
}

// cacheRound runs one round through the cache under c.mu, from key
// scan through the inner post to answer assembly: duplicates inside
// the round collapse onto one inner request, cached keys are answered
// for free, and only the distinct misses reach the inner oracle, as
// one batch. Holding the lock for the whole round is what the layers
// below do too (trust, the journal and the crowd platform each commit
// a round under their own lock), so concurrent callers take turns per
// round and a key one round paid for is a hit for every later round.
func cacheRound[Q, A any](c *CachingOracle, qs []Q, table map[string]A,
	post func(BatchOracle, []Q) ([]A, error), clone func(A) A, appendKey func([]byte, Q) []byte) ([]A, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missQs []Q
	var missKeys []string
	var missed map[string]bool
	// The round's keys, as arena bytes plus [start,end) offset pairs.
	arena, offs := c.keyBuf[:0], c.offScratch[:0]
	for _, q := range qs {
		start := len(arena)
		arena = appendKey(arena, q)
		offs = append(offs, start, len(arena))
		key := arena[start:]
		if _, ok := table[string(key)]; ok || missed[string(key)] {
			tally(&c.stats.Hits, key)
			continue
		}
		tally(&c.stats.Misses, key)
		k := string(key) // materialized only when the HIT is posted
		if missed == nil {
			missed = make(map[string]bool)
		}
		missed[k] = true
		missQs = append(missQs, q)
		missKeys = append(missKeys, k)
	}
	c.keyBuf, c.offScratch = arena, offs

	var err error
	if len(missQs) > 0 {
		var missAnswers []A
		missAnswers, err = post(c.inner, missQs)
		// A failing inner batch may still have committed a prefix (a
		// budget governor admits what the remaining budget affords —
		// those HITs were posted and paid): cache the committed
		// answers. Errors are never cached.
		for j := 0; j < len(missAnswers) && j < len(missKeys); j++ {
			table[missKeys[j]] = clone(missAnswers[j])
		}
	}
	// Assemble positionally; on error, honor the BatchOracle
	// partial-prefix contract by returning the longest answered prefix
	// (cache hits plus committed misses) alongside the error, so a
	// lockstep round delivers every paid answer instead of discarding
	// them.
	answers := make([]A, len(qs))
	for i := range qs {
		ans, ok := table[string(arena[offs[2*i]:offs[2*i+1]])]
		if !ok {
			if err == nil {
				err = errors.New("core: cache round left a query unanswered")
			}
			return answers[:i], err
		}
		answers[i] = clone(ans)
	}
	// Every request was answered: the full round committed.
	return answers, nil
}
