package imagegen

import (
	"bytes"
	"fmt"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"imagecvg/internal/pattern"
)

func genderRace() *pattern.Schema {
	return pattern.MustSchema(
		pattern.Attribute{Name: "gender", Values: []string{"male", "female"}},
		pattern.Attribute{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}},
	)
}

func fullSchema() *pattern.Schema {
	return pattern.MustSchema(
		pattern.Attribute{Name: "shape", Values: []string{"a", "b", "c", "d", "e", "f"}},
		pattern.Attribute{Name: "shade", Values: []string{"a", "b", "c", "d", "e", "f"}},
		pattern.Attribute{Name: "marks", Values: []string{"a", "b", "c", "d"}},
		pattern.Attribute{Name: "border", Values: []string{"a", "b", "c"}},
	)
}

// distance is the squared L2 distance between two glyphs.
func distance(a, b *Glyph) float64 {
	sum := 0.0
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// nearestReference is the plain decoder nearest must agree with: a
// float L2 scan over every pixel of every template, ties to the
// lowest index.
func nearestReference(r *Renderer, g *Glyph) int {
	best, bestDist := 0, math.MaxFloat64
	for idx := range r.templates {
		d := distance(g, &r.templates[idx])
		if d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

func TestNewRendererValidation(t *testing.T) {
	tooMany := pattern.MustSchema(
		pattern.Attribute{Name: "a", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "b", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "c", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "d", Values: []string{"0", "1"}},
		pattern.Attribute{Name: "e", Values: []string{"0", "1"}},
	)
	if _, err := NewRenderer(tooMany); err == nil {
		t.Error("5 attributes: want error")
	}
	wide := pattern.MustSchema(pattern.Attribute{
		Name: "a", Values: []string{"0", "1", "2", "3", "4", "5", "6"},
	})
	if _, err := NewRenderer(wide); err == nil {
		t.Error("cardinality 7: want error")
	}
	if _, err := NewRenderer(genderRace()); err != nil {
		t.Errorf("gender x race should render: %v", err)
	}
}

func TestCleanRoundTripAllSubgroups(t *testing.T) {
	schemas := []*pattern.Schema{
		pattern.Binary("gender", "male", "female"),
		genderRace(),
		pattern.MustSchema(
			pattern.Attribute{Name: "shape", Values: []string{"a", "b", "c", "d", "e", "f"}},
			pattern.Attribute{Name: "shade", Values: []string{"a", "b", "c", "d", "e", "f"}},
			pattern.Attribute{Name: "marks", Values: []string{"a", "b", "c", "d"}},
			pattern.Attribute{Name: "border", Values: []string{"a", "b", "c"}},
		),
	}
	for si, s := range schemas {
		r, err := NewRenderer(s)
		if err != nil {
			t.Fatalf("schema %d: %v", si, err)
		}
		for idx := 0; idx < s.NumSubgroups(); idx++ {
			labels := []int(pattern.SubgroupAt(s, idx))
			g, err := r.Render(labels, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Decode(g)
			for i := range labels {
				if got[i] != labels[i] {
					t.Fatalf("schema %d subgroup %v decoded as %v", si, labels, got)
				}
			}
		}
	}
}

func TestRenderValidatesLabels(t *testing.T) {
	r, _ := NewRenderer(genderRace())
	if _, err := r.Render([]int{9, 0}, 0, nil); err == nil {
		t.Error("invalid labels: want error")
	}
}

func TestNoisyRoundTripMostlyCorrect(t *testing.T) {
	// With moderate noise the decoder should almost always recover the
	// labels — the paper's premise that the tasks are easy for humans.
	s := genderRace()
	r, _ := NewRenderer(s)
	rng := rand.New(rand.NewSource(11))
	trials, correct := 500, 0
	for i := 0; i < trials; i++ {
		labels := []int(pattern.SubgroupAt(s, rng.Intn(s.NumSubgroups())))
		g, err := r.Render(labels, 25, rng)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Decode(g)
		ok := true
		for j := range labels {
			if got[j] != labels[j] {
				ok = false
			}
		}
		if ok {
			correct++
		}
	}
	if frac := float64(correct) / float64(trials); frac < 0.97 {
		t.Errorf("noisy decode accuracy %.3f, want >= 0.97", frac)
	}
}

func TestHeavyNoiseCausesErrors(t *testing.T) {
	// Sanity check that the noise channel is real: enormous noise must
	// produce at least some decoding mistakes.
	s := genderRace()
	r, _ := NewRenderer(s)
	rng := rand.New(rand.NewSource(12))
	errors := 0
	for i := 0; i < 300; i++ {
		labels := []int(pattern.SubgroupAt(s, rng.Intn(s.NumSubgroups())))
		got := r.Perceive(mustRender(t, r, labels, 0, nil), 300, rng)
		for j := range labels {
			if got[j] != labels[j] {
				errors++
				break
			}
		}
	}
	if errors == 0 {
		t.Error("noise 300 never flipped a decode; channel is fake")
	}
}

func mustRender(t *testing.T, r *Renderer, labels []int, noise float64, rng *rand.Rand) Glyph {
	t.Helper()
	g, err := r.Render(labels, noise, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPerceiveNoNoiseEqualsDecode(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	g := mustRender(t, r, []int{1, 3}, 0, nil)
	got := r.Perceive(g, 0, nil)
	if got[0] != 1 || got[1] != 3 {
		t.Errorf("Perceive = %v, want [1 3]", got)
	}
}

func TestTemplatesDistinct(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	for i := 0; i < s.NumSubgroups(); i++ {
		for j := i + 1; j < s.NumSubgroups(); j++ {
			if distance(&r.templates[i], &r.templates[j]) == 0 {
				t.Errorf("subgroups %d and %d render identically", i, j)
			}
		}
	}
}

func TestPGMAndPNGEncoding(t *testing.T) {
	s := genderRace()
	r, _ := NewRenderer(s)
	g := mustRender(t, r, []int{0, 2}, 0, nil)

	var pgm bytes.Buffer
	if err := g.WritePGM(&pgm); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(pgm.Bytes(), []byte("P5\n16 16\n255\n")) {
		t.Errorf("PGM header wrong: %q", pgm.Bytes()[:20])
	}
	if pgm.Len() != len("P5\n16 16\n255\n")+Size*Size {
		t.Errorf("PGM length = %d", pgm.Len())
	}

	var buf bytes.Buffer
	if err := g.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != Size || img.Bounds().Dy() != Size {
		t.Errorf("PNG bounds = %v", img.Bounds())
	}
}

func TestGlyphAccessors(t *testing.T) {
	var g Glyph
	g.Set(3, 5, 200)
	if g.At(3, 5) != 200 {
		t.Error("Set/At mismatch")
	}
	if g.Image().GrayAt(3, 5).Y != 200 {
		t.Error("Image() lost pixel")
	}
}

func TestClamp(t *testing.T) {
	if clamp8(-5) != 0 || clamp8(300) != 255 || clamp8(128) != 128 {
		t.Error("clamp8 wrong")
	}
}

func fourValue() *pattern.Schema {
	return pattern.MustSchema(pattern.Attribute{Name: "a", Values: []string{"0", "1", "2", "3"}})
}

// tieGlyph builds a glyph exactly as far (in squared L2) from the
// templates of subgroups a and b: their midpoint where a pixel pair
// has an even sum, and, where it is odd, the lower or upper middle
// value chosen so the ±(b-a) imbalances cancel. The second result
// reports whether they did cancel.
func tieGlyph(r *Renderer, a, b int) (Glyph, bool) {
	ta, tb := &r.templates[a], &r.templates[b]
	g := *ta
	imbalance := 0 // dist(g, a) - dist(g, b)
	for i := range g {
		lo, hi := int(ta[i]), int(tb[i])
		g[i] = uint8((lo + hi) / 2)
		if (lo+hi)%2 == 0 {
			continue
		}
		// Rounding down leaves g one closer to lo: it shifts the
		// imbalance by lo-hi; rounding up shifts it by hi-lo.
		if down := imbalance + lo - hi; abs(down) <= abs(imbalance+hi-lo) {
			imbalance = down
		} else {
			g[i]++
			imbalance += hi - lo
		}
	}
	return g, distance(&g, ta) == distance(&g, tb)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestNearestExactTies(t *testing.T) {
	// Each case is a glyph exactly between two templates, at the
	// minimum distance over all templates: the decoder must return the
	// lowest tied index, as the full float scan does.
	cases := []struct {
		name   string
		schema *pattern.Schema
		pairs  [][2][]int
	}{
		{"1-attribute", fourValue(), [][2][]int{
			{{0}, {1}}, {{1}, {3}}, {{2}, {3}},
		}},
		{"gender x race", genderRace(), [][2][]int{
			{{0, 0}, {1, 0}}, {{0, 0}, {0, 1}}, {{0, 3}, {1, 2}}, {{1, 2}, {1, 3}},
		}},
		{"6x6x4x3", fullSchema(), [][2][]int{
			{{0, 0, 0, 0}, {1, 0, 0, 0}}, {{0, 0, 0, 0}, {0, 1, 0, 2}},
			{{0, 0, 0, 0}, {0, 0, 3, 0}}, {{0, 0, 0, 0}, {0, 1, 3, 0}},
		}},
	}
	for _, tc := range cases {
		r, err := NewRenderer(tc.schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.pairs {
			a := pattern.SubgroupIndex(tc.schema, pattern.Point(p[0]))
			b := pattern.SubgroupIndex(tc.schema, pattern.Point(p[1]))
			g, ok := tieGlyph(r, a, b)
			if !ok {
				t.Fatalf("%s %v/%v: fixture is not an exact tie", tc.name, p[0], p[1])
			}
			d := distance(&g, &r.templates[a])
			want := -1
			for idx := range r.templates {
				switch dc := distance(&g, &r.templates[idx]); {
				case dc < d:
					t.Fatalf("%s %v/%v: template %v is nearer than the tie", tc.name, p[0], p[1], r.labels[idx])
				case dc == d && want < 0:
					want = idx
				}
			}
			if got := r.nearest(&g); got != want {
				t.Errorf("%s %v/%v: nearest = %v, want %v", tc.name, p[0], p[1], r.labels[got], r.labels[want])
			}
			if ref := nearestReference(r, &g); ref != want {
				t.Errorf("%s %v/%v: reference = %v, want %v", tc.name, p[0], p[1], r.labels[ref], r.labels[want])
			}
		}
	}
}

// FuzzNearest checks that, for arbitrary glyph bytes and any schema
// shape the channels can render, the masked integer decoder picks the
// same template as the full float L2 scan.
func FuzzNearest(f *testing.F) {
	r, err := NewRenderer(genderRace())
	if err != nil {
		f.Fatal(err)
	}
	tie, _ := tieGlyph(r, 0, 4)
	f.Add(tie[:], uint8(1), uint8(0), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{255, 0, 90}, 90), uint8(3), uint8(4), uint8(4), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, glyph []byte, nattrs, c0, c1, c2, c3 uint8) {
		var attrs []pattern.Attribute
		for i, c := range []uint8{c0, c1, c2, c3}[:1+nattrs%4] {
			values := make([]string, 2+int(c)%(channelLimits[i]-1))
			for v := range values {
				values[v] = fmt.Sprint(v)
			}
			attrs = append(attrs, pattern.Attribute{Name: fmt.Sprint("a", i), Values: values})
		}
		r, err := NewRenderer(pattern.MustSchema(attrs...))
		if err != nil {
			t.Fatal(err)
		}
		var g Glyph
		copy(g[:], glyph)
		if got, want := r.nearest(&g), nearestReference(r, &g); got != want {
			t.Fatalf("nearest = %v, reference = %v", r.labels[got], r.labels[want])
		}
	})
}

// perceiveReference is the plain form of PerceiveInto: perturb the
// diff pixels of the full glyph, in diff order, then scan every
// template with the float decoder.
func perceiveReference(r *Renderer, g Glyph, noise float64, rng *rand.Rand) []int {
	if noise > 0 && rng != nil {
		for _, i := range r.diff {
			g[i] = clamp8(float64(g[i]) + rng.NormFloat64()*noise)
		}
	}
	return r.labels[nearestReference(r, &g)]
}

func TestPerceiveMatchesReference(t *testing.T) {
	for _, s := range []*pattern.Schema{fourValue(), genderRace(), fullSchema()} {
		r, err := NewRenderer(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, noise := range []float64{0, 15, 60, 300} {
			rng, twin := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			var dst []int
			for i := 0; i < 300; i++ {
				g := r.templates[i%len(r.templates)]
				dst = r.PerceiveInto(g, noise, rng, dst)
				want := perceiveReference(r, g, noise, twin)
				if fmt.Sprint(dst) != fmt.Sprint(want) {
					t.Fatalf("%d subgroups, noise %v, draw %d: perceived %v, reference %v", len(r.labels), noise, i, dst, want)
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatalf("%d subgroups, noise %v: RNG streams diverged", len(r.labels), noise)
			}
		}
	}
}

// TestPerceiveDrawPin pins the worker RNG contract: a noisy perception
// draws exactly one NormFloat64 per decision pixel (len(diff) draws),
// and a noiseless one draws nothing.
func TestPerceiveDrawPin(t *testing.T) {
	for _, s := range []*pattern.Schema{fourValue(), genderRace(), fullSchema()} {
		r, err := NewRenderer(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, noise := range []float64{0, 15} {
			draws := 0
			if noise > 0 {
				draws = len(r.diff)
			}
			rng, twin := rand.New(rand.NewSource(21)), rand.New(rand.NewSource(21))
			r.PerceiveInto(r.templates[len(r.templates)-1], noise, rng, nil)
			for i := 0; i < draws; i++ {
				twin.NormFloat64()
			}
			if got, want := rng.Int63(), twin.Int63(); got != want {
				t.Fatalf("%d subgroups, noise %v: next Int63 after PerceiveInto = %d, want %d (%d NormFloat64 draws)",
					len(r.labels), noise, got, want, draws)
			}
		}
	}
}

func BenchmarkPerceive(b *testing.B) {
	for _, bc := range []struct {
		name   string
		schema *pattern.Schema
	}{{"attr4", fourValue()}, {"full432", fullSchema()}} {
		r, err := NewRenderer(bc.schema)
		if err != nil {
			b.Fatal(err)
		}
		for _, noise := range []float64{0, 15} {
			b.Run(fmt.Sprintf("%s/noise%g", bc.name, noise), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				dst := make([]int, 0, bc.schema.NumAttrs())
				b.ReportAllocs()
				for i := 0; b.Loop(); i++ {
					dst = r.PerceiveInto(r.templates[i%len(r.templates)], noise, rng, dst)
				}
			})
		}
	}
}
