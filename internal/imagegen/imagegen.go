// Package imagegen renders dataset objects as small grayscale images
// and decodes them back. It is the stand-in for the paper's face
// photographs: each object's hidden demographic labels deterministically
// choose visual features (shape, shade, corner markers, border) of a
// 16x16 glyph, and simulated crowd workers answer queries by perceiving
// the rendered pixels — optionally through noise — rather than by
// reading ground truth directly. This keeps the whole pipeline honest:
// between the dataset and the algorithms there are only images.
//
// Perception (PerceiveInto) draws its noise from the worker's RNG, so
// the number and order of its draws are part of the crowd transcript
// that crowd.TranscriptTag versions: a change to them must bump that
// tag. Render, which draws images written to disk, noises every pixel.
package imagegen

import (
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"math/rand"

	"imagecvg/internal/pattern"
)

// Size is the glyph edge length in pixels.
const Size = 16

// Glyph is a Size x Size grayscale image in row-major order.
type Glyph [Size * Size]uint8

// At returns the pixel at (x, y).
func (g *Glyph) At(x, y int) uint8 { return g[y*Size+x] }

// Set writes the pixel at (x, y).
func (g *Glyph) Set(x, y int, v uint8) { g[y*Size+x] = v }

// Image converts the glyph to an image.Gray for use with image/png.
func (g *Glyph) Image() *image.Gray {
	img := image.NewGray(image.Rect(0, 0, Size, Size))
	copy(img.Pix, g[:])
	return img
}

// WritePNG encodes the glyph as a PNG.
func (g *Glyph) WritePNG(w io.Writer) error { return png.Encode(w, g.Image()) }

// WritePGM encodes the glyph as a binary PGM (P5), the simplest
// portable grayscale format.
func (g *Glyph) WritePGM(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", Size, Size); err != nil {
		return err
	}
	_, err := w.Write(g[:])
	return err
}

// visual channel limits: attribute i of the schema drives channel i.
const (
	maxShapes  = 6 // channel 0
	maxShades  = 6 // channel 1
	maxMarkers = 4 // channel 2
	maxBorders = 3 // channel 3
)

var channelLimits = []int{maxShapes, maxShades, maxMarkers, maxBorders}

// Renderer draws glyphs for objects of one schema and decodes glyphs
// back to label vectors by nearest-template matching.
type Renderer struct {
	schema    *pattern.Schema
	templates []Glyph // clean glyph per subgroup index
	labels    [][]int // label vector per subgroup index, for decoding

	// diff lists, in pixel order, the pixels on which some two
	// templates differ. packed holds every template's diff pixels,
	// template idx at packed[idx*len(diff):(idx+1)*len(diff)].
	// Decoding and perception read only these: every other pixel adds
	// the same term to every template's distance, so it cannot move
	// the argmin.
	diff   []int
	packed []uint8
}

// NewRenderer validates that the schema fits the available visual
// channels (at most 4 attributes with cardinalities 6, 6, 4, 3) and
// precomputes the clean template of every subgroup.
func NewRenderer(s *pattern.Schema) (*Renderer, error) {
	if s.NumAttrs() > len(channelLimits) {
		return nil, fmt.Errorf("imagegen: %d attributes exceed the %d visual channels", s.NumAttrs(), len(channelLimits))
	}
	for i := 0; i < s.NumAttrs(); i++ {
		if c := s.Attr(i).Cardinality(); c > channelLimits[i] {
			return nil, fmt.Errorf("imagegen: attribute %q cardinality %d exceeds channel limit %d",
				s.Attr(i).Name, c, channelLimits[i])
		}
	}
	r := &Renderer{schema: s}
	m := s.NumSubgroups()
	r.templates = make([]Glyph, m)
	r.labels = make([][]int, m)
	for idx := 0; idx < m; idx++ {
		r.labels[idx] = []int(pattern.SubgroupAt(s, idx))
		r.templates[idx] = r.clean(r.labels[idx])
	}
	for i := 0; i < Size*Size; i++ {
		for idx := 1; idx < m; idx++ {
			if r.templates[idx][i] != r.templates[0][i] {
				r.diff = append(r.diff, i)
				break
			}
		}
	}
	r.packed = make([]uint8, 0, m*len(r.diff))
	for idx := range r.templates {
		for _, i := range r.diff {
			r.packed = append(r.packed, r.templates[idx][i])
		}
	}
	return r, nil
}

// Schema returns the renderer's schema.
func (r *Renderer) Schema() *pattern.Schema { return r.schema }

// channelValue returns the label for channel ch, or 0 when the schema has
// fewer attributes than channels.
func channelValue(labels []int, ch int) int {
	if ch < len(labels) {
		return labels[ch]
	}
	return 0
}

// clean draws the noiseless glyph for a label vector.
func (r *Renderer) clean(labels []int) Glyph {
	var g Glyph
	shade := uint8(120 + 27*channelValue(labels, 1)) // 120..255
	drawShape(&g, channelValue(labels, 0), shade)
	drawMarkers(&g, channelValue(labels, 2))
	drawBorder(&g, channelValue(labels, 3))
	return g
}

// Render draws the glyph for a label vector and perturbs every pixel
// with additive Gaussian noise of the given standard deviation (in
// intensity units, 0..255). noise 0 returns the clean template.
func (r *Renderer) Render(labels []int, noise float64, rng *rand.Rand) (Glyph, error) {
	if !r.schema.ValidLabels(labels) {
		return Glyph{}, fmt.Errorf("imagegen: invalid labels %v", labels)
	}
	g := r.templates[pattern.SubgroupIndex(r.schema, pattern.Point(labels))]
	if noise > 0 && rng != nil {
		for i := range g {
			v := float64(g[i]) + rng.NormFloat64()*noise
			g[i] = clamp8(v)
		}
	}
	return g, nil
}

// Decode recovers the label vector whose clean template is nearest to
// the glyph in L2 distance. With the glyph sizes and channel encodings
// used here, decoding is exact up to substantial noise, mirroring the
// paper's observation that these tasks are "easy" for humans.
func (r *Renderer) Decode(g Glyph) []int {
	return r.DecodeInto(&g, nil)
}

// DecodeInto is Decode writing into dst (appended from dst[:0], grown
// as needed) so a hot loop can decode without allocating. It reads the
// glyph but never retains it, and the returned slice aliases only dst.
func (r *Renderer) DecodeInto(g *Glyph, dst []int) []int {
	return append(dst[:0], r.labels[r.nearest(g)]...)
}

// nearest returns the subgroup index whose clean template is closest
// to the glyph in L2 distance, ties to the lowest index. It sums
// integer squared differences over the diff pixels only. The full
// float L2 scan it replaces summed 256 integer squares of at most 255²
// each, which float64 holds exactly, so both pick the same template,
// ties included.
func (r *Renderer) nearest(g *Glyph) int {
	var buf [Size * Size]uint8
	px := buf[:len(r.diff)]
	for k, i := range r.diff {
		px[k] = g[i]
	}
	best, bestDist := 0, int32(math.MaxInt32)
	for idx, off := 0, 0; off < len(r.packed); idx, off = idx+1, off+len(px) {
		t := r.packed[off : off+len(px)]
		var d int32
		for k, v := range px {
			e := int32(v) - int32(t[k])
			d += e * e
		}
		if d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

// Perceive simulates looking at the glyph through perceptual noise of
// the given standard deviation and decoding what is seen. It is the
// primitive crowd workers use.
func (r *Renderer) Perceive(g Glyph, noise float64, rng *rand.Rand) []int {
	return r.PerceiveInto(g, noise, rng, nil)
}

// PerceiveInto is Perceive writing into dst (see DecodeInto). When
// noise is positive it draws one NormFloat64 per decision pixel (the
// diff mask, len(diff) draws), in diff order, and perturbs only those
// pixels: every other pixel adds the same term to every template's
// distance, so noise there could never move the decoded label, and
// each label has exactly the distribution noise on every pixel would
// give. The draw sequence is part of the crowd transcript
// (crowd.TranscriptTag).
func (r *Renderer) PerceiveInto(g Glyph, noise float64, rng *rand.Rand, dst []int) []int {
	if noise > 0 && rng != nil {
		for _, i := range r.diff {
			g[i] = clamp8(float64(g[i]) + rng.NormFloat64()*noise)
		}
	}
	return r.DecodeInto(&g, dst)
}

func clamp8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// --- drawing primitives ----------------------------------------------------

// drawShape fills the central 10x10 region with one of six shapes.
func drawShape(g *Glyph, shape int, fg uint8) {
	cx, cy := float64(Size)/2-0.5, float64(Size)/2-0.5
	for y := 3; y < Size-3; y++ {
		for x := 3; x < Size-3; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			var in bool
			switch shape {
			case 0: // filled circle
				in = dx*dx+dy*dy <= 20
			case 1: // filled square
				in = math.Abs(dx) <= 4 && math.Abs(dy) <= 4
			case 2: // triangle pointing up
				in = dy >= -4 && dy <= 4 && math.Abs(dx) <= (dy+4.5)*0.62
			case 3: // diamond
				in = math.Abs(dx)+math.Abs(dy) <= 5
			case 4: // cross
				in = math.Abs(dx) <= 1.6 || math.Abs(dy) <= 1.6
			case 5: // ring
				d2 := dx*dx + dy*dy
				in = d2 <= 22 && d2 >= 7
			}
			if in {
				g.Set(x, y, fg)
			}
		}
	}
}

// drawMarkers puts up to three bright 2x2 dots in the corners.
func drawMarkers(g *Glyph, n int) {
	corners := [][2]int{{0, 0}, {Size - 2, 0}, {0, Size - 2}}
	for i := 0; i < n && i < len(corners); i++ {
		cx, cy := corners[i][0], corners[i][1]
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				g.Set(cx+dx, cy+dy, 255)
			}
		}
	}
}

// drawBorder draws no border (0), a top+bottom border (1), or a full
// frame (2) at mid intensity.
func drawBorder(g *Glyph, style int) {
	const v = 90
	if style >= 1 {
		for x := 0; x < Size; x++ {
			if g.At(x, 0) == 0 {
				g.Set(x, 0, v)
			}
			if g.At(x, Size-1) == 0 {
				g.Set(x, Size-1, v)
			}
		}
	}
	if style >= 2 {
		for y := 0; y < Size; y++ {
			if g.At(0, y) == 0 {
				g.Set(0, y, v)
			}
			if g.At(Size-1, y) == 0 {
				g.Set(Size-1, y, v)
			}
		}
	}
}
