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
// Concurrent identical queries are collapsed in flight: the first
// caller posts the HIT while the others wait for its answer, so a
// parallel audit round never double-pays for duplicates either. A
// single query is a one-element round. Safe for concurrent use when
// the inner oracle is.
//
// Caching deliberately changes task counts — that is the point — so
// equivalence experiments comparing engine variants must run uncached.
type CachingOracle struct {
	oneQueryRounds
	inner BatchOracle

	mu       sync.Mutex
	answers  map[string]bool
	labels   map[string][]int
	inflight map[string]*inflightCall
	stats    CacheStats

	// Key-building scratch, guarded by mu. Lookups go through
	// map[string(bytes)] expressions, which Go compiles without
	// materializing the string, so a cache hit allocates nothing; the
	// string is built only when a key must be stored. keyBuf and
	// offScratch are stolen (swapped to nil) by cacheRound, whose keys
	// must survive an unlock — a concurrent caller appending to a
	// shared buffer would scribble over them.
	keyBuf        []byte
	offScratch    []int
	sortScratch   []int
	memberScratch []string
}

// inflightCall is a pending inner query other callers wait on; on
// success the answer is in the cache when done closes.
type inflightCall struct {
	done chan struct{}
	err  error
}

// NewCachingOracle wraps a batch oracle with the deduplicating cache.
func NewCachingOracle(inner BatchOracle) *CachingOracle {
	c := &CachingOracle{
		inner:    inner,
		answers:  make(map[string]bool),
		labels:   make(map[string][]int),
		inflight: make(map[string]*inflightCall),
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
	sorted := make([]int, len(ids))
	for i, id := range ids {
		sorted[i] = int(id)
	}
	sort.Ints(sorted)
	members := make([]string, len(g.Members))
	for i, p := range g.Members {
		members[i] = p.Key()
	}
	sort.Strings(members)
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

// canonSet canonicalizes one set query into the oracle's sorting
// scratch: ids sorted ascending, member pattern keys sorted
// lexically. Callers must hold c.mu; the returned slices are valid
// until the next canonSet call.
func (c *CachingOracle) canonSet(ids []dataset.ObjectID, g pattern.Group) ([]int, []string) {
	if cap(c.sortScratch) < len(ids) {
		c.sortScratch = make([]int, len(ids))
	}
	sorted := c.sortScratch[:len(ids)]
	for i, id := range ids {
		sorted[i] = int(id)
	}
	sort.Ints(sorted)
	if cap(c.memberScratch) < len(g.Members) {
		c.memberScratch = make([]string, len(g.Members))
	}
	members := c.memberScratch[:len(g.Members)]
	for i, p := range g.Members {
		members[i] = p.Key()
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

// cacheKind adapts one HIT kind to cacheRound: how a query is keyed
// and tallied, which table holds its answers, how an answer is copied
// in and out, and how a round of misses is posted.
type cacheKind[Q, A any] struct {
	appendKey func(c *CachingOracle, dst []byte, q Q) []byte
	count     func(t *TaskCounts, q Q)
	table     func(c *CachingOracle) map[string]A
	clone     func(A) A
	post      func(inner BatchOracle, qs []Q) ([]A, error)
}

var setKind = cacheKind[SetRequest, bool]{
	appendKey: func(c *CachingOracle, dst []byte, req SetRequest) []byte {
		sorted, members := c.canonSet(req.IDs, req.Group)
		return appendSetKey(dst, sorted, members, req.Reverse)
	},
	count: func(t *TaskCounts, req SetRequest) {
		if req.Reverse {
			t.ReverseSet++
		} else {
			t.Set++
		}
	},
	table: func(c *CachingOracle) map[string]bool { return c.answers },
	clone: func(ans bool) bool { return ans },
	post:  BatchOracle.SetQueryBatch,
}

var pointKind = cacheKind[dataset.ObjectID, []int]{
	appendKey: func(_ *CachingOracle, dst []byte, id dataset.ObjectID) []byte { return appendPointKey(dst, id) },
	count:     func(t *TaskCounts, _ dataset.ObjectID) { t.Point++ },
	table:     func(c *CachingOracle) map[string][]int { return c.labels },
	clone:     cloneLabels,
	post:      BatchOracle.PointQueryBatch,
}

// SetQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return cacheRound(c, reqs, setKind)
}

// PointQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return cacheRound(c, ids, pointKind)
}

// cacheRound runs one round through the cache: duplicates inside the
// round collapse onto one inner request, cached keys are answered for
// free, keys another caller is already posting are waited on instead
// of re-posted, and only the distinct misses this round owns reach the
// inner oracle, as one batch.
func cacheRound[Q, A any](c *CachingOracle, qs []Q, kind cacheKind[Q, A]) ([]A, error) {
	var missQs []Q
	var missKeys []string
	var owned, waiting map[string]bool
	var waits []*inflightCall

	c.mu.Lock()
	table := kind.table(c)
	// Steal the key scratch for this round: the keys (arena bytes plus
	// [start,end) offset pairs) must survive the unlock below for final
	// assembly, and a concurrent caller appending to the shared buffer
	// would scribble over them. Given back under the assembly lock.
	arena, offs := c.keyBuf[:0], c.offScratch[:0]
	c.keyBuf, c.offScratch = nil, nil
	for _, q := range qs {
		start := len(arena)
		arena = kind.appendKey(c, arena, q)
		offs = append(offs, start, len(arena))
		key := arena[start:]
		if _, ok := table[string(key)]; ok || owned[string(key)] || waiting[string(key)] {
			kind.count(&c.stats.Hits, q)
			continue
		}
		if call, ok := c.inflight[string(key)]; ok {
			// Another caller is posting this HIT right now.
			kind.count(&c.stats.Hits, q)
			if waiting == nil {
				waiting = make(map[string]bool)
			}
			waiting[string(key)] = true
			waits = append(waits, call)
			continue
		}
		kind.count(&c.stats.Misses, q)
		k := string(key) // materialized only when the HIT is posted
		c.inflight[k] = &inflightCall{done: make(chan struct{})}
		if owned == nil {
			owned = make(map[string]bool)
		}
		owned[k] = true
		missQs = append(missQs, q)
		missKeys = append(missKeys, k)
	}
	c.mu.Unlock()

	var missAnswers []A
	var missErr error
	if len(missQs) > 0 {
		missAnswers, missErr = kind.post(c.inner, missQs)
	}
	// A failing inner batch may still have committed a prefix (a budget
	// governor admits what the remaining budget affords — those HITs
	// were posted and paid): cache the committed answers, release the
	// refused keys with the error. Errors are never cached.
	c.mu.Lock()
	for j, key := range missKeys {
		call := c.inflight[key]
		delete(c.inflight, key)
		if j < len(missAnswers) {
			table[key] = kind.clone(missAnswers[j])
		} else {
			call.err = missErr
		}
		close(call.done)
	}
	c.mu.Unlock()
	// Wait in round-scan order, not map order: when several in-flight
	// calls fail with different errors, the error this round surfaces
	// must be the same on every run — map order would hand the retry
	// classifier a different error each time.
	for _, call := range waits {
		<-call.done
		if call.err != nil && missErr == nil {
			missErr = call.err
		}
	}
	// Assemble positionally; on error, honor the BatchOracle
	// partial-prefix contract by returning the longest answered prefix
	// (cache hits plus committed misses) alongside the error, so a
	// lockstep round delivers every paid answer instead of discarding
	// them.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keyBuf, c.offScratch = arena, offs
	answers := make([]A, len(qs))
	for i := range qs {
		ans, ok := table[string(arena[offs[2*i]:offs[2*i+1]])]
		if !ok {
			if missErr == nil {
				missErr = errors.New("core: cache round left a query unanswered")
			}
			return answers[:i], missErr
		}
		answers[i] = kind.clone(ans)
	}
	// Every request was answered (a failure elsewhere never blocked
	// this round's keys): the full round committed.
	return answers, nil
}
