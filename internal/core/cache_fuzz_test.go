package core

import (
	"fmt"
	"sort"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// decodeCacheQuery deterministically derives one (ids, group, kind)
// tuple from raw fuzz bytes. Pattern is a plain []int, so the decoder
// deliberately produces values NewPattern would reject — negatives,
// mixed lengths — to probe key collisions from adversarial member
// keys, and signed object ids to probe the id section.
func decodeCacheQuery(data []byte) (ids []dataset.ObjectID, g pattern.Group, reverse bool) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		v := int(int8(data[pos]))
		pos++
		return v
	}
	reverse = next()&1 == 1
	nIDs := abs(next()) % 5
	for i := 0; i < nIDs; i++ {
		ids = append(ids, dataset.ObjectID(next()))
	}
	nMembers := abs(next()) % 4
	for i := 0; i < nMembers; i++ {
		slots := abs(next()) % 4
		p := make(pattern.Pattern, slots)
		for j := range p {
			p[j] = next()
		}
		g.Members = append(g.Members, p)
	}
	return ids, g, reverse
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// canonicalQuery renders the cache's intended equivalence class: the
// kind, the sorted members rendered by their slots and the sorted id
// multiset. Two queries ask the same question exactly when their
// canonical forms match.
func canonicalQuery(ids []dataset.ObjectID, g pattern.Group, reverse bool) string {
	sortedIDs := make([]int, len(ids))
	for i, id := range ids {
		sortedIDs[i] = int(id)
	}
	sort.Ints(sortedIDs)
	members := make([]string, len(g.Members))
	for i, p := range g.Members {
		members[i] = fmt.Sprint([]int(p))
	}
	sort.Strings(members)
	return fmt.Sprintf("%v|%q|%v", reverse, members, sortedIDs)
}

// FuzzCacheKey proves the cache's query identity exact over its
// equivalence classes. Under one forced hash, a table finds a stored
// query exactly when the canonical forms match: a false match would
// let one paid HIT silently answer a different crowd question, and a
// missed one would pay twice. Equivalent queries (reordered ids,
// reordered members) must also hash equal; distinct ones may collide.
func FuzzCacheKey(f *testing.F) {
	f.Add([]byte{0, 2, 1, 2, 1, 1, 0}, []byte{1, 2, 1, 2, 1, 1, 0})
	// Historic collision shapes: a member key absorbing a separator vs
	// two members, and negative values rendering the '-' the key format
	// uses between slots.
	f.Add([]byte{0, 0, 2, 2, 1, 2, 0}, []byte{0, 0, 1, 2, 1, 2, 0})
	f.Add([]byte{0, 1, 5, 1, 1, 0xFB}, []byte{0, 1, 0xFB, 1, 1, 5}) // 0xFB = int8(-5)
	// Pattern.Key renders the one-slot member {12} as the two-slot {1,2}.
	f.Add([]byte{0, 0, 1, 1, 12}, []byte{0, 0, 1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ids1, g1, rev1 := decodeCacheQuery(a)
		ids2, g2, rev2 := decodeCacheQuery(b)
		q1 := SetRequest{IDs: ids1, Group: g1, Reverse: rev1}
		q2 := SetRequest{IDs: ids2, Group: g2, Reverse: rev2}
		canon1 := canonicalQuery(ids1, g1, rev1)
		canon2 := canonicalQuery(ids2, g2, rev2)
		tab := newQueryTable[SetRequest, bool](&setKind{})
		tab.add(0, -1, q1)
		found, _ := tab.find(0, q2)
		if (found >= 0) != (canon1 == canon2) {
			t.Fatalf("table equality %v, canonical equality %v:\nq1=%s\nq2=%s",
				found >= 0, canon1 == canon2, canon1, canon2)
		}
		if canon1 == canon2 && tab.kind.hash(q1) != tab.kind.hash(q2) {
			t.Fatalf("equivalent queries hash apart:\nq1=%v\nq2=%v", q1, q2)
		}
	})
}
