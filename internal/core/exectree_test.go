package core

import (
	"strings"
	"testing"
)

func TestExecutionTracePaperExample(t *testing.T) {
	// The 16-image running example: 7 issued tasks plus the inferred
	// sibling answers, rendered as text and DOT.
	bits := []int{0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1}
	d := binaryDataset(t, bits)
	trace := &ExecutionTrace{}
	res, err := GroupCoverageOpt(NewTruthOracle(d), d.IDs(), 16, 3, female(d),
		GroupCoverageOptions{Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Tasks() != res.Tasks || trace.Tasks() != 7 {
		t.Errorf("trace tasks = %d, result tasks = %d, want 7", trace.Tasks(), res.Tasks)
	}
	inferred := 0
	for _, nd := range trace.Nodes {
		if nd.Inferred {
			inferred++
			if !nd.Answer {
				t.Error("inferred answers are always yes")
			}
		}
	}
	// The walkthrough infers both right siblings at level 3.
	if inferred != 2 {
		t.Errorf("inferred = %d, want 2", inferred)
	}
	dot := trace.DOT()
	if !strings.Contains(dot, "digraph groupcoverage") ||
		!strings.Contains(dot, "dashed") ||
		!strings.Contains(dot, "[0,16)") {
		t.Errorf("DOT output incomplete:\n%s", dot)
	}
	txt := trace.String()
	if !strings.Contains(txt, "(inferred, free)") {
		t.Errorf("text trace missing inference marks:\n%s", txt)
	}
}
