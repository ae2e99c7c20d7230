package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"imagecvg/internal/dataset"
	"imagecvg/internal/pattern"
)

// requestLog is a native batch leaf over ground truth that logs every
// set request it answers, in arrival order.
type requestLog struct {
	*TruthOracle
	mu   sync.Mutex
	reqs [][]dataset.ObjectID
}

func (r *requestLog) SetQueryBatch(reqs []SetRequest) ([]bool, error) {
	r.mu.Lock()
	for _, req := range reqs {
		r.reqs = append(r.reqs, append([]dataset.ObjectID(nil), req.IDs...))
	}
	r.mu.Unlock()
	return r.TruthOracle.SetQueryBatch(reqs)
}

func (r *requestLog) SetQuery(ids []dataset.ObjectID, g pattern.Group) (bool, error) {
	answers, err := r.SetQueryBatch([]SetRequest{{IDs: ids, Group: g}})
	if err != nil {
		return false, err
	}
	return answers[0], nil
}

// FuzzGroupCoverageWindow diffs windowed Group-Coverage — lockstep
// tasks, so every round posts each task's certain FIFO prefix — against
// one query per task per round, on fuzz-chosen member layouts, set
// sizes, thresholds, task counts, budget caps (a HIT cap, or a spend
// cap priced by set size, which a later, smaller query may still fit)
// and ablation flags. All runs use TruthOracle under a governor. The
// one-query schedule runs the same tasks with the window hidden, and a
// single task also runs the paper's one-query loop. Verdicts, counts,
// task tallies and execution traces must match, and the leaf must see
// the identical request sequence: a window never posts a query the
// one-query schedule would not.
func FuzzGroupCoverageWindow(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x00, 0x24, 0x00, 0x00, 0x11, 0x40}, uint8(4), uint8(5), uint8(0), uint8(0))
	f.Add([]byte{0xff, 0xff, 0x00, 0x00}, uint8(8), uint8(9), uint8(12), uint8(1))
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x02}, uint8(3), uint8(2), uint8(0), uint8(2))
	f.Add([]byte{0x55, 0xaa, 0x0f, 0xf0, 0x33}, uint8(1), uint8(30), uint8(7), uint8(3))
	f.Add([]byte{0x10, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x01, 0x00, 0x40}, uint8(16), uint8(4), uint8(3), uint8(0))
	f.Add([]byte{0x21, 0x84, 0x10, 0x42, 0x08, 0x21, 0x84, 0x10}, uint8(8), uint8(6), uint8(9), uint8(0x0c))
	f.Add([]byte{0x0f, 0x00, 0xf0, 0x00, 0x3c, 0x00}, uint8(6), uint8(12), uint8(5), uint8(0x14))
	f.Fuzz(func(t *testing.T, layout []byte, nRaw, tauRaw, capRaw, flags uint8) {
		if len(layout) > 64 {
			layout = layout[:64]
		}
		bits := make([]int, 8*len(layout))
		for i := range bits {
			bits[i] = int(layout[i/8]>>(i%8)) & 1
		}
		if len(bits) == 0 {
			bits = []int{0}
		}
		d := binaryDataset(t, bits)
		groups := []pattern.Group{female(d), dataset.Male(d.Schema())}
		n := int(nRaw%32) + 1
		tau := int(tauRaw % 40)
		tasks := int(flags>>3)%3 + 1
		budget := &Budget{MaxHITs: int(capRaw % 64)} // 0: unlimited
		if flags&4 != 0 {
			budget = &Budget{MaxSpend: float64(capRaw % 128), Cost: func(_ HITKind, size int) float64 { return float64(size) }}
		}

		type outcome struct {
			res   []GroupResult
			trace []*ExecutionTrace
			reqs  [][]dataset.ObjectID
		}
		const (
			windowed = iota
			oneQuery
			reference
		)
		run := func(mode int) outcome {
			leaf := &requestLog{TruthOracle: NewTruthOracle(d)}
			l, err := Stack{Budget: budget}.Build(leaf)
			if err != nil {
				t.Fatal(err)
			}
			out := outcome{res: make([]GroupResult, tasks), trace: make([]*ExecutionTrace, tasks)}
			audit := func(i int, o Oracle) (err error) {
				out.trace[i] = &ExecutionTrace{}
				opts := GroupCoverageOptions{
					DisableSiblingInference: flags&1 != 0,
					CountSingletonsOnly:     flags&2 != 0,
					Trace:                   out.trace[i],
				}
				if mode == reference {
					out.res[i], err = groupCoverageReference(o, d.IDs(), n, tau+i, groups[i%2], opts)
				} else {
					out.res[i], err = GroupCoverageOpt(o, d.IDs(), n, tau+i, groups[i%2], opts)
				}
				return err
			}
			switch mode {
			case windowed:
				err = runLockstep(context.Background(), l.Top, 1, tasks, audit)
			case oneQuery:
				// Hiding the facade's window leaves windows of one.
				err = runLockstep(context.Background(), l.Top, 1, tasks, func(i int, o Oracle) error {
					return audit(i, struct{ Oracle }{o})
				})
			case reference:
				err = audit(0, l.Top)
			}
			if err != nil {
				t.Fatal(err)
			}
			out.reqs = leaf.reqs
			return out
		}
		got := run(windowed)
		modes := []int{oneQuery}
		if tasks == 1 {
			modes = append(modes, reference)
		}
		for _, mode := range modes {
			want := run(mode)
			if !reflect.DeepEqual(got.res, want.res) {
				t.Fatalf("mode %d: windowed %+v, want %+v (n=%d tau=%d tasks=%d budget=%+v flags=%d)",
					mode, got.res, want.res, n, tau, tasks, *budget, flags)
			}
			if !reflect.DeepEqual(got.trace, want.trace) {
				t.Fatalf("mode %d: execution trees differ", mode)
			}
			if !reflect.DeepEqual(got.reqs, want.reqs) {
				t.Fatalf("mode %d: leaf saw %d requests windowed, want %d:\nwindowed %v\nwant     %v",
					mode, len(got.reqs), len(want.reqs), got.reqs, want.reqs)
			}
		}
	})
}
