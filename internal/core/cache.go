package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sync"

	"imagecvg/internal/dataset"
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
// oracle: a HIT already paid for is never posted again. Two set or
// reverse-set queries are the same question when they agree on the
// kind, on the id multiset (the crowd question is order-insensitive)
// and on the multiset of member patterns, compared slot by slot, so
// renamed or reordered super-groups with the same members share an
// answer. Point queries are the same when their object ids are. Errors
// are never cached — a transient crowd failure leaves the query
// unanswered, so the next attempt pays (and retries) the real HIT.
//
// Each query is found by a 64-bit hash that does not depend on id or
// member order, and told apart from other queries under the same hash
// by a full compare of the stored key, so a hash collision costs a
// compare, never a wrong answer (TestCacheHashCollisionKeepsAnswersApart
// and FuzzCacheKey pin this). A miss neither sorts nor formats: the key
// is stored in request order, and only the compare on a hash match
// canonicalizes.
//
// A round runs under the oracle's lock from key scan through the inner
// post to answer assembly, so concurrent callers take turns per round:
// the distinct misses of a round post as one batch, and a query one
// round paid for is a hit for every later round. A single query is a
// one-element round. Safe for concurrent use when the inner oracle is.
//
// Caching deliberately changes task counts — that is the point — so
// equivalence experiments comparing engine variants must run uncached.
type CachingOracle struct {
	oneQueryRounds
	inner BatchOracle

	mu     sync.Mutex
	sets   queryTable[SetRequest, bool]
	points queryTable[dataset.ObjectID, []int]
	stats  CacheStats
}

// NewCachingOracle wraps a batch oracle with the deduplicating cache.
func NewCachingOracle(inner BatchOracle) *CachingOracle {
	c := &CachingOracle{
		inner:  inner,
		sets:   newQueryTable[SetRequest, bool](&setKind{}),
		points: newQueryTable[dataset.ObjectID, []int](pointKind{}),
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
	return len(c.sets.answers) + len(c.points.answers)
}

// SetQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	return cacheRound(c, reqs, &c.sets, BatchOracle.SetQueryBatch, func(ans bool) bool { return ans })
}

// PointQueryBatch implements BatchOracle; see cacheRound.
func (c *CachingOracle) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	return cacheRound(c, ids, &c.points, BatchOracle.PointQueryBatch, cloneLabels)
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

// cacheRound runs one round through the cache under c.mu, from key
// scan through the inner post to answer assembly: duplicates inside
// the round collapse onto one inner request, cached queries are
// answered for free, and only the distinct misses reach the inner
// oracle, as one batch. Holding the lock for the whole round is what
// the layers below do too (trust, the journal and the crowd platform
// each commit a round under their own lock), so concurrent callers
// take turns per round and a query one round paid for is a hit for
// every later round.
//
// The scan looks each query up once and records its table slot: a miss
// takes a new slot at once, so a duplicate later in the round finds
// it through the same hash and counts as a hit. Answer assembly reads
// the recorded slots.
func cacheRound[Q, A any](c *CachingOracle, qs []Q, t *queryTable[Q, A],
	post func(BatchOracle, []Q) ([]A, error), clone func(A) A) ([]A, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Slots from base on are this round's misses, in request order.
	base := int32(len(t.answers))
	slots, missQs, missHashes := t.slots[:0], t.missQs[:0], t.missHashes[:0]
	for _, q := range qs {
		h := t.kind.hash(q)
		s, head := t.find(h, q)
		if s >= 0 {
			t.kind.count(&c.stats.Hits, q)
		} else {
			t.kind.count(&c.stats.Misses, q)
			s = t.add(h, head, q)
			missQs = append(missQs, q)
			missHashes = append(missHashes, h)
		}
		slots = append(slots, s)
	}
	t.slots, t.missQs, t.missHashes = slots, missQs, missHashes

	var err error
	committed := len(missQs)
	if len(missQs) > 0 {
		var missAnswers []A
		missAnswers, err = post(c.inner, missQs)
		// A failing inner batch may still have committed a prefix (a
		// budget governor admits what the remaining budget affords —
		// those HITs were posted and paid): cache the committed
		// answers. Errors are never cached: the misses past the
		// prefix leave the table, newest first.
		committed = min(len(missAnswers), len(missQs))
		for j := 0; j < committed; j++ {
			t.answers[base+int32(j)] = clone(missAnswers[j])
		}
		for j := len(missQs) - 1; j >= committed; j-- {
			t.pop(missHashes[j])
		}
	}
	// Assemble positionally; on error, honor the BatchOracle
	// partial-prefix contract by returning the longest answered prefix
	// (cache hits plus committed misses) alongside the error, so a
	// lockstep round delivers every paid answer instead of discarding
	// them.
	end := base + int32(committed)
	answers := make([]A, len(qs))
	for i, s := range slots {
		if s >= end {
			if err == nil {
				err = errors.New("core: cache round left a query unanswered")
			}
			return answers[:i], err
		}
		answers[i] = clone(t.answers[s])
	}
	// Every request was answered: the full round committed.
	return answers, nil
}

// queryKind is what the cache knows of one query type.
type queryKind[Q any] interface {
	// hash returns q's 64-bit hash; queries that ask the same
	// question hash equal.
	hash(q Q) uint64
	// appendKey appends q's stored key to dst.
	appendKey(dst []byte, q Q) []byte
	// same reports whether a stored key asks the same question as q.
	same(key []byte, q Q) bool
	// count tallies q on t by its HIT type.
	count(t *TaskCounts, q Q)
}

// queryTable holds one query type's answered questions. index maps a
// hash to the newest slot under it, and chain[s] is the next older
// slot under the same hash (-1 ends the chain), so colliding queries
// coexist and are told apart by kind.same. Slot s's key is
// arena[ends[s-1]:ends[s]] and its answer answers[s]. index, chain,
// ends and arena hold no pointers, so the garbage collector never
// scans them.
type queryTable[Q, A any] struct {
	kind    queryKind[Q]
	index   map[uint64]int32
	chain   []int32
	ends    []int
	arena   []byte
	answers []A

	// Round scratch, guarded by the cache lock.
	slots      []int32
	missQs     []Q
	missHashes []uint64
}

func newQueryTable[Q, A any](kind queryKind[Q]) queryTable[Q, A] {
	return queryTable[Q, A]{kind: kind, index: make(map[uint64]int32)}
}

// key returns slot s's stored key.
func (t *queryTable[Q, A]) key(s int32) []byte {
	start := 0
	if s > 0 {
		start = t.ends[s-1]
	}
	return t.arena[start:t.ends[s]]
}

// find returns the slot holding q, whose hash is h, or -1 when the
// table lacks it; head is the newest slot under h (-1 if none), the
// one add chains a new slot behind.
func (t *queryTable[Q, A]) find(h uint64, q Q) (slot, head int32) {
	head, ok := t.index[h]
	if !ok {
		return -1, -1
	}
	for s := head; s >= 0; s = t.chain[s] {
		if t.kind.same(t.key(s), q) {
			return s, head
		}
	}
	return -1, head
}

// add stores q under hash h, in front of head (find's result), with a
// zero answer, and returns its slot.
func (t *queryTable[Q, A]) add(h uint64, head int32, q Q) int32 {
	s := int32(len(t.answers))
	t.index[h] = s
	t.chain = append(t.chain, head)
	t.arena = t.kind.appendKey(t.arena, q)
	t.ends = append(t.ends, len(t.arena))
	var zero A
	t.answers = append(t.answers, zero)
	return s
}

// pop removes the newest slot, whose hash is h.
func (t *queryTable[Q, A]) pop(h uint64) {
	s := int32(len(t.answers) - 1)
	if older := t.chain[s]; older >= 0 {
		t.index[h] = older
	} else {
		delete(t.index, h)
	}
	t.arena = t.arena[:len(t.arena)-len(t.key(s))]
	t.chain, t.ends, t.answers = t.chain[:s], t.ends[:s], t.answers[:s]
}

// Seeds of the query hashes: one per set kind, one for the id mixes
// and one for the member mixes.
const (
	seedSet     uint64 = 0x9e3779b97f4a7c15
	seedReverse uint64 = 0xc2b2ae3d27d4eb4f
	seedID      uint64 = 0x165667b19e3779f9
	seedMember  uint64 = 0x27d4eb2f165667c5
)

// mix is the splitmix64 finalizer, a bijection on 64 bits.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// setKind keys set and reverse-set queries. The hash is the kind's
// seed plus a sum of seeded mixes, one per id and one per member
// pattern (itself a hash of the pattern's slot count and slots, in
// slot order), so it is blind to id and member order. The stored key
// is the kind byte, the member count, each member as its slot count
// and slots, then the ids, all as varints in request order: every
// field is self-delimiting, so no slot count or sign can bleed into a
// neighbour.
type setKind struct {
	// Compare scratch, guarded by the cache lock.
	raw, a, b []byte
	members   [][2]int
	ids       []int64
}

func (*setKind) hash(q SetRequest) uint64 {
	h := seedSet
	if q.Reverse {
		h = seedReverse
	}
	for _, p := range q.Group.Members {
		m := mix(seedMember ^ uint64(len(p)))
		for _, v := range p {
			m = mix(m ^ uint64(v))
		}
		h += m
	}
	for _, id := range q.IDs {
		h += mix(seedID ^ uint64(id))
	}
	return h
}

func (*setKind) appendKey(dst []byte, q SetRequest) []byte {
	kind := byte('s')
	if q.Reverse {
		kind = 'r'
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(q.Group.Members)))
	for _, p := range q.Group.Members {
		dst = binary.AppendUvarint(dst, uint64(len(p)))
		for _, v := range p {
			dst = binary.AppendVarint(dst, int64(v))
		}
	}
	for _, id := range q.IDs {
		dst = binary.AppendVarint(dst, int64(id))
	}
	return dst
}

// same compares the canonical forms of key and q's key; a query
// repeated in the same order matches without canonicalizing.
func (k *setKind) same(key []byte, q SetRequest) bool {
	k.raw = k.appendKey(k.raw[:0], q)
	if bytes.Equal(key, k.raw) {
		return true
	}
	k.a = k.canon(k.a[:0], key)
	k.b = k.canon(k.b[:0], k.raw)
	return bytes.Equal(k.a, k.b)
}

// canon appends key's canonical form to dst: the members sorted by
// their encoded bytes, the ids ascending. Each member's encoding is
// self-delimiting, so two keys ask the same question exactly when
// their canonical forms are equal.
func (k *setKind) canon(dst, key []byte) []byte {
	n, w := binary.Uvarint(key[1:])
	pos := 1 + w
	dst = append(dst, key[:pos]...) // kind and member count
	k.members = k.members[:0]
	for i := uint64(0); i < n; i++ {
		start := pos
		slots, w := binary.Uvarint(key[pos:])
		pos += w
		for j := uint64(0); j < slots; j++ {
			_, w := binary.Varint(key[pos:])
			pos += w
		}
		k.members = append(k.members, [2]int{start, pos})
	}
	slices.SortFunc(k.members, func(x, y [2]int) int {
		return bytes.Compare(key[x[0]:x[1]], key[y[0]:y[1]])
	})
	k.ids = k.ids[:0]
	for pos < len(key) {
		id, w := binary.Varint(key[pos:])
		pos += w
		k.ids = append(k.ids, id)
	}
	slices.Sort(k.ids)
	for _, m := range k.members {
		dst = append(dst, key[m[0]:m[1]]...)
	}
	for _, id := range k.ids {
		dst = binary.AppendVarint(dst, id)
	}
	return dst
}

func (*setKind) count(t *TaskCounts, q SetRequest) {
	if q.Reverse {
		t.ReverseSet++
	} else {
		t.Set++
	}
}

// pointKind keys point queries by the object id.
type pointKind struct{}

func (pointKind) hash(id dataset.ObjectID) uint64 { return uint64(id) }

func (pointKind) appendKey(dst []byte, id dataset.ObjectID) []byte {
	return binary.AppendVarint(dst, int64(id))
}

func (pointKind) same(key []byte, id dataset.ObjectID) bool {
	v, _ := binary.Varint(key)
	return v == int64(id)
}

func (pointKind) count(t *TaskCounts, _ dataset.ObjectID) { t.Point++ }
