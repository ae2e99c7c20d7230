package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// roundRecorder is a native BatchOracle that logs, per committed
// round, the object ids of the requests in commit order. Queries
// encode their (task, seq) identity as id = task*1000 + seq, so the
// fuzz harness can check canonical ordering without tracking any
// other state.
type roundRecorder struct {
	mu     sync.Mutex
	rounds [][]int
}

func (r *roundRecorder) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return false, nil
}

func (r *roundRecorder) ReverseSetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	return false, nil
}

func (r *roundRecorder) PointQuery(id dataset.ObjectID) ([]int, error) { return nil, nil }

func (r *roundRecorder) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	round := make([]int, len(reqs))
	for i, req := range reqs {
		round[i] = int(req.IDs[0])
	}
	r.rounds = append(r.rounds, round)
	return make([]bool, len(reqs)), nil
}

func (r *roundRecorder) PointQueryBatch(ids []dataset.ObjectID) ([][]int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	round := make([]int, len(ids))
	for i, id := range ids {
		round[i] = int(id)
	}
	r.rounds = append(r.rounds, round)
	return make([][]int, len(ids)), nil
}

// FuzzLockstepOrder drives the lockstep scheduler with fuzz-chosen
// task counts, per-task query counts, window lengths and scheduling
// jitter, and asserts the invariant the whole determinism story rests
// on: no matter in which order windows ARRIVE at the scheduler, or how
// long they are, the oracle sees exactly the one-query canonical
// schedule — virtual round r holds the r-th query of every task that
// still has one, in task-index order — laid end to end. Every
// committed round is a run of whole virtual rounds, and no entry a
// round deferred (a window's unposted tail) ever reaches the oracle
// early or twice.
func FuzzLockstepOrder(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint8(3), uint8(4))
	f.Add([]byte{0, 0, 0}, uint8(7), uint8(1))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(5), uint8(16))
	f.Add([]byte{}, uint8(2), uint8(2))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, jitter []byte, tasksRaw, parRaw uint8) {
		nTasks := int(tasksRaw%6) + 2     // 2..7 concurrent audit tasks
		parallelism := int(parRaw%16) + 1 // pool width must never matter
		byteAt := func(i int) byte {
			if len(jitter) == 0 {
				return 0
			}
			return jitter[i%len(jitter)]
		}
		// Task i issues 1..8 queries, picked by the fuzzer.
		queries := make([]int, nTasks)
		for i := range queries {
			queries[i] = int(byteAt(i)%8) + 1
		}

		rec := &roundRecorder{}
		err := runLockstep(context.Background(), rec, parallelism, nTasks, func(i int, audit Oracle) error {
			win := audit.(windowOracle)
			for q, round := 0, 0; q < queries[i]; round++ {
				// Fuzz-controlled scheduling noise: some tasks sleep
				// before submitting, randomizing arrival order.
				if d := byteAt(i*31 + round*7); d%3 == 0 {
					time.Sleep(time.Duration(d%8) * 10 * time.Microsecond)
				}
				// A fuzz-chosen window of the task's next 1..4 queries;
				// a window of one goes through the plain SetQuery.
				w := min(int(byteAt(i*13+round*5+1)>>4)%4+1, queries[i]-q)
				if w == 1 {
					id := []dataset.ObjectID{dataset.ObjectID(i*1000 + q)}
					if _, err := audit.SetQuery(id, pattern.Group{}); err != nil {
						return err
					}
					q++
					continue
				}
				reqs := make([]SetRequest, w)
				for j := range reqs {
					reqs[j] = SetRequest{IDs: []dataset.ObjectID{dataset.ObjectID(i*1000 + q + j)}}
				}
				answers, err := win.setWindow(reqs)
				if err != nil {
					return err
				}
				if len(answers) == 0 {
					t.Errorf("task %d: window of %d came back with no answer", i, w)
					return nil
				}
				q += len(answers)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// Reconstruct the one-query canonical schedule and compare.
		var want [][]int
		for r := 0; ; r++ {
			var round []int
			for i := 0; i < nTasks; i++ {
				if queries[i] > r {
					round = append(round, i*1000+r)
				}
			}
			if len(round) == 0 {
				break
			}
			want = append(want, round)
		}
		var flatWant, flatGot []int
		for _, round := range want {
			flatWant = append(flatWant, round...)
		}
		v := 0 // virtual rounds consumed so far
		for r, round := range rec.rounds {
			flatGot = append(flatGot, round...)
			// A committed round is whole virtual rounds laid end to end.
			for k := 0; k < len(round); v++ {
				if v >= len(want) {
					t.Fatalf("round %d runs past the canonical schedule: %v", r, rec.rounds)
				}
				k += len(want[v])
				if k > len(round) {
					t.Fatalf("round %d %v splits virtual round %d %v", r, round, v, want[v])
				}
			}
		}
		if !reflect.DeepEqual(flatGot, flatWant) {
			t.Fatalf("oracle saw %v, want the canonical stream %v (queries=%v, rounds=%v)",
				flatGot, flatWant, queries, rec.rounds)
		}
	})
}
